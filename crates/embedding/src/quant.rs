//! Row-wise quantisation of embedding rows.
//!
//! Inference embedding tables are quantised row-wise (paper §3 footnote and
//! §A.5): each row stores its elements in int8 (or int4) together with a
//! per-row `f32` scale and bias, so a 64-element row costs 64 + 8 bytes
//! instead of 256. De-quantisation reconstructs `value = code * scale + bias`.

use crate::error::EmbeddingError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of parameter bytes appended to each quantised row (scale + bias,
/// both `f32`).
const ROW_PARAM_BYTES: usize = 8;

/// How a table's rows are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum QuantScheme {
    /// 8-bit codes with per-row scale/bias (the common inference format).
    #[default]
    Int8,
    /// 4-bit codes with per-row scale/bias (two elements per byte).
    Int4,
    /// Unquantised IEEE-754 `f32` (used after de-quantisation at load time).
    Fp32,
}

impl QuantScheme {
    /// Bytes needed to store one row of `dim` elements under this scheme.
    pub fn row_bytes(self, dim: usize) -> usize {
        match self {
            QuantScheme::Int8 => dim + ROW_PARAM_BYTES,
            QuantScheme::Int4 => dim.div_ceil(2) + ROW_PARAM_BYTES,
            QuantScheme::Fp32 => dim * 4,
        }
    }
}

impl fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantScheme::Int8 => f.write_str("int8"),
            QuantScheme::Int4 => f.write_str("int4"),
            QuantScheme::Fp32 => f.write_str("fp32"),
        }
    }
}

/// Quantises one row of `f32` values under the given scheme.
///
/// The returned buffer has exactly [`QuantScheme::row_bytes`] bytes. This is
/// the allocating form of `quantize_row_into`.
pub fn quantize_row(values: &[f32], scheme: QuantScheme) -> Vec<u8> {
    let mut out = vec![0u8; scheme.row_bytes(values.len())];
    quantize_row_into(values, scheme, &mut out);
    out
}

/// Quantises one row of `f32` values straight into `out` — a table
/// generator's arena slot, say — without an intermediate buffer.
///
/// # Panics
///
/// Panics when `out` is not exactly [`QuantScheme::row_bytes`] long.
pub(crate) fn quantize_row_into(values: &[f32], scheme: QuantScheme, out: &mut [u8]) {
    assert_eq!(
        out.len(),
        scheme.row_bytes(values.len()),
        "quantize_row_into: output buffer is not one {scheme} row of {} elements",
        values.len()
    );
    let levels: u32 = match scheme {
        QuantScheme::Fp32 => {
            for (bytes, v) in out.chunks_exact_mut(4).zip(values) {
                bytes.copy_from_slice(&v.to_le_bytes());
            }
            return;
        }
        QuantScheme::Int8 => 255,
        QuantScheme::Int4 => 15,
    };
    let (min, max) = min_max(values);
    let range = (max - min).max(f32::EPSILON);
    let scale = range / levels as f32;
    let bias = min;
    let code = |v: f32| round_to_code((v - bias) / scale, levels);
    let (codes, params) = out.split_at_mut(out.len() - ROW_PARAM_BYTES);
    if scheme == QuantScheme::Int8 {
        for (byte, &v) in codes.iter_mut().zip(values) {
            *byte = code(v);
        }
    } else {
        // Int4: two codes per byte, low nibble first; an odd row's last
        // high nibble is zero padding.
        for (byte, pair) in codes.iter_mut().zip(values.chunks(2)) {
            let high = pair.get(1).map_or(0, |&v| code(v));
            *byte = (code(pair[0]) & 0x0F) | ((high & 0x0F) << 4);
        }
    }
    params[..4].copy_from_slice(&scale.to_le_bytes());
    params[4..].copy_from_slice(&bias.to_le_bytes());
}

/// `x.round().clamp(0.0, levels as f32) as u8`, bit for bit for every `f32`
/// (NaN gives 0), without the libm `roundf` call `f32::round` compiles to on
/// baseline x86-64 — on its own about twice the cost of this whole function.
/// The casts saturate, so NaN and negatives truncate to 0 and anything past
/// `levels` clamps; below `levels` the fraction `x - t` is exact, so
/// comparing it with ½ rounds half away from zero as `f32::round` does.
#[inline]
fn round_to_code(x: f32, levels: u32) -> u8 {
    let t = (x as u32).min(levels);
    (t + u32::from(x - t as f32 >= 0.5)).min(levels) as u8
}

/// De-quantises a row buffer produced by [`quantize_row`].
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] when the buffer length does not
/// match `scheme.row_bytes(dim)`.
pub fn dequantize_row(
    buf: &[u8],
    scheme: QuantScheme,
    dim: usize,
) -> Result<Vec<f32>, EmbeddingError> {
    let expected = scheme.row_bytes(dim);
    if buf.len() != expected {
        return Err(EmbeddingError::MalformedRow {
            expected,
            actual: buf.len(),
        });
    }
    match scheme {
        QuantScheme::Fp32 => Ok(buf
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()),
        QuantScheme::Int8 | QuantScheme::Int4 => {
            let (scale, bias) = row_params(buf);
            let mut out = Vec::with_capacity(dim);
            match scheme {
                QuantScheme::Int8 => {
                    for &code in &buf[..dim] {
                        out.push(code as f32 * scale + bias);
                    }
                }
                QuantScheme::Int4 => {
                    for i in 0..dim {
                        let byte = buf[i / 2];
                        let code = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                        out.push(code as f32 * scale + bias);
                    }
                }
                QuantScheme::Fp32 => unreachable!(),
            }
            Ok(out)
        }
    }
}

/// Reads the trailing per-row `(scale, bias)` parameters. The caller must
/// have validated the buffer length.
pub(crate) fn row_params(buf: &[u8]) -> (f32, f32) {
    let at = buf.len() - ROW_PARAM_BYTES;
    let scale = f32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    let bias = f32::from_le_bytes([buf[at + 4], buf[at + 5], buf[at + 6], buf[at + 7]]);
    (scale, bias)
}

fn min_max(values: &[f32]) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in values {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    if !min.is_finite() || !max.is_finite() {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{accumulate_row_weighted_with, accumulate_row_with, auto_kernel};

    fn sample_row(dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| (i as f32 * 0.37).sin() * 2.5 - 0.3)
            .collect()
    }

    /// The two-buffer form `quantize_row` had before it wrote in place: the
    /// reference the in-place form must reproduce byte for byte.
    fn reference_quantize_row(values: &[f32], scheme: QuantScheme) -> Vec<u8> {
        let levels: f32 = match scheme {
            QuantScheme::Fp32 => return values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            QuantScheme::Int8 => 255.0,
            QuantScheme::Int4 => 15.0,
        };
        let (min, max) = min_max(values);
        let scale = (max - min).max(f32::EPSILON) / levels;
        let codes: Vec<u8> = values
            .iter()
            .map(|&v| (((v - min) / scale).round().clamp(0.0, levels)) as u8)
            .collect();
        let mut out = Vec::new();
        if scheme == QuantScheme::Int8 {
            out.extend_from_slice(&codes);
        } else {
            for pair in codes.chunks(2) {
                out.push((pair[0] & 0x0F) | ((pair.get(1).copied().unwrap_or(0) & 0x0F) << 4));
            }
        }
        out.extend_from_slice(&scale.to_le_bytes());
        out.extend_from_slice(&min.to_le_bytes());
        out
    }

    #[test]
    fn in_place_quantisation_matches_the_two_buffer_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
        };
        for scheme in [QuantScheme::Int8, QuantScheme::Int4, QuantScheme::Fp32] {
            // Even, odd (the int4 padding nibble), empty and one-element rows.
            for dim in [0usize, 1, 2, 7, 32, 33, 64, 127] {
                for case in 0..8 {
                    let mut row: Vec<f32> = (0..dim).map(|_| next()).collect();
                    match case {
                        0 => row.fill(0.75), // constant row: epsilon range
                        1 if dim > 0 => row[dim / 2] = f32::NAN,
                        2 if dim > 0 => row[0] = f32::INFINITY,
                        _ => {}
                    }
                    let want = reference_quantize_row(&row, scheme);
                    assert_eq!(quantize_row(&row, scheme), want, "{scheme} dim {dim}");
                    // Stale bytes in the destination must not leak through.
                    let mut out = vec![0xA5u8; scheme.row_bytes(dim)];
                    quantize_row_into(&row, scheme, &mut out);
                    assert_eq!(out, want, "{scheme} dim {dim} case {case}");
                }
            }
        }
    }

    #[test]
    fn integer_rounding_matches_f32_round_bit_for_bit() {
        let reference = |x: f32, levels: u32| x.round().clamp(0.0, levels as f32) as u8;
        let check = |x: f32| {
            for levels in [15, 255] {
                let (got, want) = (round_to_code(x, levels), reference(x, levels));
                assert_eq!(got, want, "{x:e} ({:#x}) at {levels}", x.to_bits());
            }
        };
        // Every f32 within 64 ulps of each integer and each half-integer of
        // [0, 257], where the two roundings could part ways.
        for twice in 0..=514u32 {
            let bits = (twice as f32 / 2.0).to_bits();
            for ulps in 0..=128 {
                check(f32::from_bits((bits + ulps).saturating_sub(64)));
            }
        }
        let specials = [f32::NAN, -f32::NAN, f32::INFINITY, -f32::INFINITY, -0.0];
        specials.into_iter().for_each(check);
        // And a seeded sample over every bit pattern: negatives, NaNs,
        // subnormals and values far past either level count.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            check(f32::from_bits(state as u32));
            check(f32::from_bits((state >> 32) as u32 & 0x437f_ffff));
        }
    }

    #[test]
    #[should_panic(expected = "output buffer is not one int8 row")]
    fn in_place_quantisation_rejects_a_mis_sized_buffer() {
        quantize_row_into(&[0.0; 8], QuantScheme::Int8, &mut [0u8; 8]);
    }

    #[test]
    fn row_bytes_matches_paper_sizes() {
        // 64-element int8 row with 8B params = 72B, expanding to 256B fp32
        // (the example in paper §A.5).
        assert_eq!(QuantScheme::Int8.row_bytes(64), 72);
        assert_eq!(QuantScheme::Fp32.row_bytes(64), 256);
        assert_eq!(QuantScheme::Int4.row_bytes(64), 40);
    }

    #[test]
    fn int8_roundtrip_is_accurate() {
        let row = sample_row(96);
        let q = quantize_row(&row, QuantScheme::Int8);
        assert_eq!(q.len(), QuantScheme::Int8.row_bytes(96));
        let back = dequantize_row(&q, QuantScheme::Int8, 96).unwrap();
        let max_err = row
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let range = 5.0f32;
        assert!(max_err <= range / 255.0 * 1.01, "max_err = {max_err}");
    }

    #[test]
    fn int4_roundtrip_is_coarser_but_bounded() {
        let row = sample_row(33); // odd length exercises the padding nibble
        let q = quantize_row(&row, QuantScheme::Int4);
        assert_eq!(q.len(), QuantScheme::Int4.row_bytes(33));
        let back = dequantize_row(&q, QuantScheme::Int4, 33).unwrap();
        let max_err = row
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err <= 5.0 / 15.0 * 1.01, "max_err = {max_err}");
    }

    #[test]
    fn fp32_roundtrip_is_exact() {
        let row = sample_row(17);
        let q = quantize_row(&row, QuantScheme::Fp32);
        let back = dequantize_row(&q, QuantScheme::Fp32, 17).unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn constant_row_quantises_without_nan() {
        let row = vec![1.5f32; 8];
        let q = quantize_row(&row, QuantScheme::Int8);
        let back = dequantize_row(&q, QuantScheme::Int8, 8).unwrap();
        for v in back {
            assert!((v - 1.5).abs() < 1e-3);
        }
    }

    #[test]
    fn malformed_buffer_is_rejected() {
        let err = dequantize_row(&[0u8; 3], QuantScheme::Int8, 8).unwrap_err();
        assert!(matches!(err, EmbeddingError::MalformedRow { .. }));
    }

    #[test]
    fn empty_row_roundtrip() {
        let q = quantize_row(&[], QuantScheme::Int8);
        assert_eq!(q.len(), ROW_PARAM_BYTES);
        let back = dequantize_row(&q, QuantScheme::Int8, 0).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn accumulate_matches_dequantize_then_add_bitwise() {
        for scheme in [QuantScheme::Int8, QuantScheme::Int4, QuantScheme::Fp32] {
            let dim = 33;
            let row = sample_row(dim);
            let q = quantize_row(&row, scheme);
            let mut fused = vec![0.25f32; dim];
            accumulate_row_with(auto_kernel(), &q, scheme, &mut fused).unwrap();
            let values = dequantize_row(&q, scheme, dim).unwrap();
            let mut two_pass = vec![0.25f32; dim];
            for (o, v) in two_pass.iter_mut().zip(&values) {
                *o += *v;
            }
            assert_eq!(fused, two_pass, "scheme {scheme}");
        }
    }

    #[test]
    fn weighted_accumulate_scales_rows() {
        let dim = 16;
        let row = vec![1.0f32; dim];
        let q = quantize_row(&row, QuantScheme::Int8);
        let mut out = vec![0.0f32; dim];
        accumulate_row_weighted_with(auto_kernel(), &q, QuantScheme::Int8, 3.0, &mut out).unwrap();
        for v in out {
            assert!((v - 3.0).abs() < 0.1);
        }
    }

    #[test]
    fn accumulate_rejects_malformed_buffers() {
        let mut out = vec![0.0f32; 8];
        assert!(matches!(
            accumulate_row_with(auto_kernel(), &[0u8; 3], QuantScheme::Int8, &mut out),
            Err(EmbeddingError::MalformedRow { .. })
        ));
        assert!(matches!(
            accumulate_row_weighted_with(
                auto_kernel(),
                &[0u8; 3],
                QuantScheme::Fp32,
                1.0,
                &mut out
            ),
            Err(EmbeddingError::MalformedRow { .. })
        ));
    }

    #[test]
    fn display_names() {
        assert_eq!(QuantScheme::Int8.to_string(), "int8");
        assert_eq!(QuantScheme::Int4.to_string(), "int4");
        assert_eq!(QuantScheme::Fp32.to_string(), "fp32");
    }
}
