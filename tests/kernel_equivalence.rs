//! Bit-for-bit equivalence of the SIMD pooling kernels against scalar.
//!
//! The contract in `embedding::kernels` is that both kernels — scalar and
//! AVX2 — produce *identical bit patterns*, not merely close
//! floats: same `code as f32 * scale + bias` dequantise expression, a
//! separate packed multiply and packed add (never FMA), lane-for-lane
//! order, and scalar tails that reuse the same expression. This suite
//! pins that contract with seeded property tests across quantisation
//! schemes, dimensions (including zero, odd tails, and the int4 padding
//! nibble), deliberately unaligned row buffers, and non-finite scale/bias
//! values.
//!
//! The `SDM_POOL_KERNEL` environment variable is exercised by a dedicated
//! CI leg that re-runs this suite with the kernel forced to `scalar`; the
//! equivalence tests still compare scalar with AVX2 there, and
//! `kernel_inventory_is_coherent` fails if the override did not take
//! effect.

use embedding::kernels::{accumulate_row_with, auto_kernel, SelectedKernel, KERNEL_ENV};
use embedding::{quantize_row, QuantScheme};
use proptest::prelude::*;

/// Every kernel this host can run, scalar always included first.
fn supported_kernels() -> Vec<SelectedKernel> {
    std::iter::once(SelectedKernel::SCALAR)
        .chain(SelectedKernel::avx2())
        .collect()
}

fn scheme_for(pick: u8) -> QuantScheme {
    match pick % 3 {
        0 => QuantScheme::Int8,
        1 => QuantScheme::Int4,
        _ => QuantScheme::Fp32,
    }
}

/// Runs one kernel over `row` re-buffered at byte `offset` (so vector
/// loads see every alignment class) and returns the accumulator's bit
/// patterns. `init` seeds the accumulator so the *add into out* step is
/// exercised against non-zero state, not just the dequantise.
fn pooled_bits(
    kernel: SelectedKernel,
    row: &[u8],
    offset: usize,
    scheme: QuantScheme,
    dim: usize,
    init: f32,
) -> Vec<u32> {
    let mut buf = vec![0u8; offset + row.len()];
    buf[offset..].copy_from_slice(row);
    let mut out = vec![init; dim];
    accumulate_row_with(kernel, &buf[offset..], scheme, &mut out)
        .unwrap_or_else(|e| panic!("kernel {kernel} rejected a well-formed row: {e}"));
    out.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    // Pinned case count and seed: failures name the case index and
    // reproduce exactly (same convention as tests/properties.rs).
    #![proptest_config(ProptestConfig::with_cases(96).with_seed(0x5d11_0008))]

    /// Every supported kernel matches scalar bit-for-bit at every buffer
    /// alignment.
    #[test]
    fn simd_pooling_is_bit_identical_to_scalar(
        values in prop::collection::vec(-8.0f32..8.0, 0..131),
        scheme_pick in 0u8..3,
        offset in 0usize..4,
        init in -4.0f32..4.0,
    ) {
        let scheme = scheme_for(scheme_pick);
        let dim = values.len();
        let row = quantize_row(&values, scheme);
        let reference = pooled_bits(SelectedKernel::SCALAR, &row, 0, scheme, dim, init);
        for kernel in supported_kernels() {
            let got = pooled_bits(kernel, &row, offset, scheme, dim, init);
            prop_assert_eq!(
                &got, &reference,
                "kernel {} diverged from scalar ({:?}, dim {}, offset {})",
                kernel, scheme, dim, offset
            );
        }
    }
}

/// Builds a raw int8 row (codes then little-endian f32 scale and bias)
/// without going through `quantize_row`, so non-finite parameters can be
/// injected directly.
fn raw_int8_row(codes: &[u8], scale: f32, bias: f32) -> Vec<u8> {
    let mut row = codes.to_vec();
    row.extend_from_slice(&scale.to_le_bytes());
    row.extend_from_slice(&bias.to_le_bytes());
    row
}

/// Same for int4: `packed` holds two codes per byte, low nibble first.
fn raw_int4_row(packed: &[u8], scale: f32, bias: f32) -> Vec<u8> {
    let mut row = packed.to_vec();
    row.extend_from_slice(&scale.to_le_bytes());
    row.extend_from_slice(&bias.to_le_bytes());
    row
}

/// Non-finite scale/bias must propagate identically through every
/// kernel: NaN and infinity arithmetic is lane-local in both the scalar
/// and the packed paths, so the bit patterns have to agree.
#[test]
fn non_finite_scale_and_bias_propagate_identically() {
    let codes: Vec<u8> = (0u8..23).map(|i| i.wrapping_mul(37)).collect();
    let dim = codes.len();
    let cases = [
        (f32::NAN, 0.5),
        (0.25, f32::NAN),
        (f32::INFINITY, -1.0),
        // code 0 * inf -> NaN in some lanes, inf in others: a good mix.
        (f32::NEG_INFINITY, f32::INFINITY),
    ];
    for (scale, bias) in cases {
        let row = raw_int8_row(&codes, scale, bias);
        let reference = pooled_bits(
            SelectedKernel::SCALAR,
            &row,
            0,
            QuantScheme::Int8,
            dim,
            0.25,
        );
        for kernel in supported_kernels() {
            for offset in 0..4 {
                let got = pooled_bits(kernel, &row, offset, QuantScheme::Int8, dim, 0.25);
                assert_eq!(
                    got, reference,
                    "kernel {kernel} diverged on scale {scale} bias {bias}"
                );
            }
        }
    }
}

/// Odd-dimension int4 rows carry a padding nibble in the last byte.
/// Every kernel must ignore it: garbage in the padding nibble changes
/// nothing, and all kernels agree with the clean row's scalar result.
#[test]
fn int4_padding_nibble_is_ignored_by_every_kernel() {
    for dim in [1usize, 3, 7, 9, 15, 33] {
        let packed_len = dim.div_ceil(2);
        let clean: Vec<u8> = (0..packed_len as u8)
            .map(|i| i.wrapping_mul(29) & 0x77)
            .collect();
        let mut dirty = clean.clone();
        // dim is odd, so the last byte's high nibble is padding.
        *dirty.last_mut().unwrap() |= 0xF0;
        let clean_row = raw_int4_row(&clean, 0.75, -0.25);
        let dirty_row = raw_int4_row(&dirty, 0.75, -0.25);
        let reference = pooled_bits(
            SelectedKernel::SCALAR,
            &clean_row,
            0,
            QuantScheme::Int4,
            dim,
            0.0,
        );
        for kernel in supported_kernels() {
            for offset in 0..4 {
                let got = pooled_bits(kernel, &dirty_row, offset, QuantScheme::Int4, dim, 0.0);
                assert_eq!(
                    got, reference,
                    "kernel {kernel} read the int4 padding nibble (dim {dim})"
                );
            }
        }
    }
}

/// Zero-dimension rows (parameter-only int8/int4 buffers, empty fp32
/// buffers) are accepted and leave the accumulator untouched.
#[test]
fn zero_dimension_rows_are_no_ops_for_every_kernel() {
    for scheme in [QuantScheme::Int8, QuantScheme::Int4, QuantScheme::Fp32] {
        let row = quantize_row(&[], scheme);
        assert_eq!(row.len(), scheme.row_bytes(0));
        for kernel in supported_kernels() {
            for offset in [0, 2] {
                assert!(pooled_bits(kernel, &row, offset, scheme, 0, 0.0).is_empty());
            }
        }
    }
}

/// The host reports its kernel inventory coherently: the AVX2 kernel
/// exists exactly when the CPU has AVX2, and the process-wide kernel is
/// AVX2 if and only if it exists — unless `SDM_POOL_KERNEL` is set, in
/// which case it must be scalar.
#[test]
fn kernel_inventory_is_coherent() {
    let has_avx2 = {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    assert_eq!(SelectedKernel::avx2().is_some(), has_avx2);
    let auto = auto_kernel();
    if std::env::var_os(KERNEL_ENV).is_some() {
        assert_eq!(
            auto,
            SelectedKernel::SCALAR,
            "{KERNEL_ENV} is set but the {auto} kernel serves"
        );
    } else {
        assert_eq!(auto.name() == "avx2", has_avx2, "auto kernel {auto}");
    }
}
