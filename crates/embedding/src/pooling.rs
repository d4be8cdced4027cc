//! Pooling (SparseLengthsSum / EmbeddingBag) over quantised rows.
//!
//! For every embedding operator the inference engine reads `pooling_factor`
//! rows, de-quantises them and sums them into a single output vector that
//! feeds the interaction MLP (paper §4.4). The helpers here operate on
//! borrowed row slices so the same code path serves rows coming from the
//! in-memory table, the FM row cache or an SM read — without cloning them.
//!
//! Every pooling function has two forms: a `_into` variant that accumulates
//! into a caller-provided output buffer (the zero-allocation hot path used
//! by the serving loop, which reuses one scratch buffer across queries) and
//! a convenience form that allocates and returns the pooled vector. All
//! variants take the expected embedding dimension explicitly, so pooling an
//! empty index list yields a zero vector of the right width instead of a
//! silent dim-0 vector.

use crate::error::EmbeddingError;
use crate::kernels::{
    accumulate_row_weighted_with, accumulate_row_with, auto_kernel, prefetch_row, SelectedKernel,
};
use crate::quant::QuantScheme;

/// Sums already de-quantised rows into `out`, which must hold the expected
/// dimension. `out` is *accumulated into*, not overwritten — zero it first
/// if it holds stale data.
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] if any row disagrees with
/// `out.len()`.
pub fn pool_dense_into(rows: &[&[f32]], out: &mut [f32]) -> Result<(), EmbeddingError> {
    let dim = out.len();
    for row in rows {
        if row.len() != dim {
            return Err(EmbeddingError::MalformedRow {
                expected: dim,
                actual: row.len(),
            });
        }
        for (o, v) in out.iter_mut().zip(*row) {
            *o += *v;
        }
    }
    Ok(())
}

/// Sums a set of already de-quantised rows into a fresh pooled vector of
/// the given dimension. Zero rows pool to a zero vector of length `dim`.
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] if any row's length differs
/// from `dim`.
pub fn pool_dense(rows: &[&[f32]], dim: usize) -> Result<Vec<f32>, EmbeddingError> {
    let mut out = vec![0.0f32; dim];
    pool_dense_into(rows, &mut out)?;
    Ok(out)
}

/// De-quantises and sums quantised row buffers into `out` (accumulating;
/// zero `out` first if needed).
///
/// This is the hot inner loop of an embedding operator: the cost scales
/// with `rows × dim`, which is why the pooled-embedding cache (paper §4.4)
/// can save meaningful CPU by skipping it on a hit. De-quantisation and
/// accumulation are fused, so no intermediate `f32` row is materialised.
///
/// Runs the process-wide [`auto_kernel`]; see [`pool_quantized_into_with`]
/// to pin a specific kernel (A/B comparisons, the bench matrix).
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] if any buffer has the wrong
/// length for the scheme and `out.len()`.
pub fn pool_quantized_into<'a>(
    rows: impl IntoIterator<Item = &'a [u8]>,
    scheme: QuantScheme,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    pool_quantized_into_with(auto_kernel(), rows, scheme, out)
}

/// [`pool_quantized_into`] with an explicit dequant-accumulate kernel.
///
/// While row *i* is being accumulated, the leading cache lines of row
/// *i + 1* are software-prefetched, hiding the next row's memory latency
/// behind the current row's arithmetic (the classic EmbeddingBag pattern —
/// rows are pooled exactly once, so without prefetch every row load is a
/// compulsory miss).
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] if any buffer has the wrong
/// length for the scheme and `out.len()`.
pub fn pool_quantized_into_with<'a>(
    kernel: SelectedKernel,
    rows: impl IntoIterator<Item = &'a [u8]>,
    scheme: QuantScheme,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    let mut rows = rows.into_iter();
    let Some(mut current) = rows.next() else {
        return Ok(());
    };
    for next in rows {
        prefetch_row(next);
        accumulate_row_with(kernel, current, scheme, out)?;
        current = next;
    }
    accumulate_row_with(kernel, current, scheme, out)
}

/// De-quantises and sums a set of quantised row buffers into a fresh
/// vector. Zero rows pool to a zero vector of length `dim`.
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] if any buffer has the wrong
/// length for the scheme and dimension.
pub fn pool_quantized(
    rows: &[&[u8]],
    scheme: QuantScheme,
    dim: usize,
) -> Result<Vec<f32>, EmbeddingError> {
    let mut out = vec![0.0f32; dim];
    pool_quantized_into(rows.iter().copied(), scheme, &mut out)?;
    Ok(out)
}

/// Weighted pooling into `out`: each row is scaled by its weight before
/// summation (SparseLengthsWeightedSum). Accumulates; zero `out` first if
/// needed.
///
/// # Errors
///
/// Returns [`EmbeddingError::WeightCountMismatch`] if `rows` and `weights`
/// have different lengths, or [`EmbeddingError::MalformedRow`] if any
/// buffer is malformed.
pub fn pool_quantized_weighted_into(
    rows: &[&[u8]],
    weights: &[f32],
    scheme: QuantScheme,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    pool_quantized_weighted_into_with(auto_kernel(), rows, weights, scheme, out)
}

/// [`pool_quantized_weighted_into`] with an explicit kernel, prefetching
/// the next row during each accumulation like
/// [`pool_quantized_into_with`].
///
/// # Errors
///
/// Returns [`EmbeddingError::WeightCountMismatch`] if `rows` and `weights`
/// have different lengths, or [`EmbeddingError::MalformedRow`] if any
/// buffer is malformed.
pub fn pool_quantized_weighted_into_with(
    kernel: SelectedKernel,
    rows: &[&[u8]],
    weights: &[f32],
    scheme: QuantScheme,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    if rows.len() != weights.len() {
        return Err(EmbeddingError::WeightCountMismatch {
            rows: rows.len(),
            weights: weights.len(),
        });
    }
    for (i, (&raw, &w)) in rows.iter().zip(weights).enumerate() {
        if let Some(next) = rows.get(i + 1) {
            prefetch_row(next);
        }
        accumulate_row_weighted_with(kernel, raw, scheme, w, out)?;
    }
    Ok(())
}

/// Weighted pooling returning a fresh vector of length `dim`.
///
/// # Errors
///
/// Returns [`EmbeddingError::WeightCountMismatch`] if `rows` and `weights`
/// have different lengths, or [`EmbeddingError::MalformedRow`] if any
/// buffer is malformed.
pub fn pool_quantized_weighted(
    rows: &[&[u8]],
    weights: &[f32],
    scheme: QuantScheme,
    dim: usize,
) -> Result<Vec<f32>, EmbeddingError> {
    let mut out = vec![0.0f32; dim];
    pool_quantized_weighted_into(rows, weights, scheme, &mut out)?;
    Ok(out)
}

/// Estimated floating point operations for pooling `rows` rows of `dim`
/// elements (dequantisation multiply-add plus the accumulation add).
pub fn pooling_flops(rows: usize, dim: usize) -> u64 {
    (rows as u64) * (dim as u64) * 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_row;

    #[test]
    fn pool_dense_sums_elementwise() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![10.0f32, 20.0, 30.0];
        let out = pool_dense(&[&a, &b], 3).unwrap();
        assert_eq!(out, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn pool_dense_empty_input_is_zero_vector_of_dim() {
        // The seed returned a dim-0 vector here, which silently produced a
        // zero-width pooled embedding downstream.
        let out = pool_dense(&[], 5).unwrap();
        assert_eq!(out, vec![0.0; 5]);
    }

    #[test]
    fn pool_dense_rejects_ragged_rows() {
        let a = vec![1.0f32, 2.0];
        let b = vec![1.0f32];
        assert!(matches!(
            pool_dense(&[&a, &b], 2),
            Err(EmbeddingError::MalformedRow { .. })
        ));
        // Rows that disagree with the declared dim are also rejected.
        assert!(matches!(
            pool_dense(&[&a], 3),
            Err(EmbeddingError::MalformedRow { .. })
        ));
    }

    #[test]
    fn into_variant_accumulates_into_existing_buffer() {
        let a = vec![1.0f32, 1.0];
        let mut out = vec![0.5f32, 0.5];
        pool_dense_into(&[&a, &a], &mut out).unwrap();
        assert_eq!(out, vec![2.5, 2.5]);
    }

    #[test]
    fn pool_quantized_matches_dense_pooling() {
        let dim = 24;
        let a: Vec<f32> = (0..dim).map(|i| i as f32 * 0.1).collect();
        let b: Vec<f32> = (0..dim).map(|i| 1.0 - i as f32 * 0.05).collect();
        let qa = quantize_row(&a, QuantScheme::Int8);
        let qb = quantize_row(&b, QuantScheme::Int8);
        let pooled = pool_quantized(&[&qa, &qb], QuantScheme::Int8, dim).unwrap();
        let reference = pool_dense(&[&a, &b], dim).unwrap();
        for (x, y) in pooled.iter().zip(&reference) {
            assert!((x - y).abs() < 0.05, "{x} vs {y}");
        }
    }

    #[test]
    fn pool_quantized_empty_rows_is_zero_vector() {
        let out = pool_quantized(&[], QuantScheme::Int8, 4).unwrap();
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn pool_quantized_into_matches_allocating_form() {
        let dim = 16;
        let rows: Vec<Vec<u8>> = (0..5)
            .map(|i| {
                let values: Vec<f32> = (0..dim).map(|j| ((i * j) as f32).cos()).collect();
                quantize_row(&values, QuantScheme::Int8)
            })
            .collect();
        let refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let allocated = pool_quantized(&refs, QuantScheme::Int8, dim).unwrap();
        let mut reused = vec![0.0f32; dim];
        pool_quantized_into(refs.iter().copied(), QuantScheme::Int8, &mut reused).unwrap();
        assert_eq!(allocated, reused);
    }

    #[test]
    fn weighted_pooling_scales_rows() {
        let dim = 8;
        let a = vec![1.0f32; dim];
        let qa = quantize_row(&a, QuantScheme::Int8);
        let out =
            pool_quantized_weighted(&[&qa, &qa], &[2.0, 3.0], QuantScheme::Int8, dim).unwrap();
        for v in out {
            assert!((v - 5.0).abs() < 0.1);
        }
        // A rows/weights length mismatch is its own error variant, not a
        // bogus MalformedRow with row counts posing as byte lengths.
        assert!(matches!(
            pool_quantized_weighted(&[&qa], &[1.0, 2.0], QuantScheme::Int8, dim),
            Err(EmbeddingError::WeightCountMismatch {
                rows: 1,
                weights: 2
            })
        ));
    }

    #[test]
    fn explicit_kernel_pooling_matches_auto() {
        use crate::kernels::{auto_kernel, SelectedKernel};
        let dim = 33;
        let rows: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let values: Vec<f32> = (0..dim).map(|j| ((i * j) as f32 * 0.11).sin()).collect();
                quantize_row(&values, QuantScheme::Int4)
            })
            .collect();
        let refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let weights: Vec<f32> = (0..6).map(|i| 0.5 + i as f32 * 0.25).collect();

        let mut auto_out = vec![0.0f32; dim];
        pool_quantized_into(refs.iter().copied(), QuantScheme::Int4, &mut auto_out).unwrap();
        let mut scalar_out = vec![0.0f32; dim];
        pool_quantized_into_with(
            SelectedKernel::SCALAR,
            refs.iter().copied(),
            QuantScheme::Int4,
            &mut scalar_out,
        )
        .unwrap();
        assert_eq!(auto_out, scalar_out, "auto kernel {}", auto_kernel());

        let mut auto_w = vec![0.0f32; dim];
        pool_quantized_weighted_into(&refs, &weights, QuantScheme::Int4, &mut auto_w).unwrap();
        let mut scalar_w = vec![0.0f32; dim];
        pool_quantized_weighted_into_with(
            SelectedKernel::SCALAR,
            &refs,
            &weights,
            QuantScheme::Int4,
            &mut scalar_w,
        )
        .unwrap();
        assert_eq!(auto_w, scalar_w);
    }

    #[test]
    fn malformed_row_detected() {
        let err = pool_quantized(&[&[1u8, 2][..]], QuantScheme::Int8, 8).unwrap_err();
        assert!(matches!(err, EmbeddingError::MalformedRow { .. }));
    }

    #[test]
    fn flops_scale_with_rows_and_dim() {
        assert_eq!(pooling_flops(10, 64), 1920);
        assert_eq!(pooling_flops(0, 64), 0);
    }
}
