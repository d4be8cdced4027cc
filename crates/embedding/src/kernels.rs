//! SIMD fused dequant-accumulate pooling kernels with runtime dispatch.
//!
//! Every row served — from the FM table, the row cache, the shared tier or
//! an SM completion — flows through [`accumulate_row_with`] /
//! [`accumulate_row_weighted_with`], so pooling arithmetic sits on 100 % of the
//! hot path. This module provides explicit AVX2 implementations (via
//! [`core::arch::x86_64`], selected behind [`is_x86_feature_detected!`] at
//! runtime) of the six fused dequant-accumulate paths — int8 / int4 /
//! fp32, unweighted and weighted — with the scalar loops as the
//! bit-identity reference and the only path on every other host.
//!
//! # Bit-identity contract
//!
//! [`accumulate_row_with`] is an **element-wise add into `out`**, not a horizontal
//! reduction, so the vector kernels can and must stay bit-identical to the
//! scalar reference:
//!
//! * same arithmetic: `code as f32 * scale + bias`, then one separate
//!   accumulate add (three roundings for the weighted form: dequantise,
//!   scale by the weight, accumulate) — **no FMA contraction** anywhere;
//! * vector lanes map one-to-one to output positions (lane *i* only ever
//!   touches `out[i]`);
//! * a scalar tail handles odd dimensions and int4 nibble remainders with
//!   the exact same per-element expression.
//!
//! Both `u8` and 4-bit codes convert to `f32` exactly, and x86 packed
//! multiply/add round identically to their scalar counterparts, so
//! `tests/kernel_equivalence.rs` asserts `to_bits()` equality between the
//! vector kernels and scalar across schemes, dims, weights, unaligned row
//! buffers and NaN/infinity scale-bias parameters.
//!
//! # Dispatch
//!
//! [`SelectedKernel`] is the only type the fused entry points accept. It is
//! deliberately opaque: the AVX2 value comes only out of
//! [`SelectedKernel::avx2`], after a successful `is_x86_feature_detected!`
//! check, so holding one is proof the host supports it and the `unsafe`
//! `#[target_feature]` calls below are sound. The process-wide kernel
//! ([`auto_kernel`]) is AVX2 where the CPU has it and scalar otherwise;
//! setting the [`KERNEL_ENV`] environment variable to `scalar` forces the
//! scalar kernel (`ci.sh`'s scalar leg), and any other value is a
//! configuration error ([`kernel_env`]).
#![allow(unsafe_code)]

use crate::error::EmbeddingError;
use crate::quant::{row_params, QuantScheme};
use std::fmt;
use std::sync::OnceLock;

/// A concrete, runnable kernel choice.
///
/// The inner representation is private on purpose: an AVX2 value can only
/// come out of a successful feature-detection check, which is the safety
/// invariant the `#[target_feature]` dispatch below relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectedKernel(Arch);

/// The concrete implementations. SAFETY invariant: `Avx2` values are only
/// ever constructed by [`SelectedKernel::avx2`] after
/// `is_x86_feature_detected!` confirmed the feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Arch {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl SelectedKernel {
    /// The portable scalar kernel (always available).
    pub const SCALAR: SelectedKernel = SelectedKernel(Arch::Scalar);

    /// The 8-lane AVX2 kernel, or `None` on a host without AVX2.
    pub fn avx2() -> Option<SelectedKernel> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return Some(SelectedKernel(Arch::Avx2));
            }
        }
        None
    }

    /// Kernel name for logs and bench JSON: `scalar` or `avx2`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Arch::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Arch::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SelectedKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The environment variable that forces the scalar kernel process-wide.
pub const KERNEL_ENV: &str = "SDM_POOL_KERNEL";

/// Parses a value of [`KERNEL_ENV`] (`None` when unset): `Ok(true)` when it
/// forces the scalar kernel (`scalar`, ASCII case-insensitive), `Ok(false)`
/// when unset. Anything else is an error naming the variable, so a typo
/// cannot silently measure AVX2.
fn parse_kernel_env(value: Option<&str>) -> Result<bool, String> {
    match value {
        None => Ok(false),
        Some(name) if name.eq_ignore_ascii_case("scalar") => Ok(true),
        Some(name) => Err(format!(
            "{KERNEL_ENV}={name:?} is not understood; unset it or set it to `scalar`"
        )),
    }
}

/// [`parse_kernel_env`] applied to this process's environment.
pub fn kernel_env() -> Result<bool, String> {
    let value = std::env::var_os(KERNEL_ENV);
    parse_kernel_env(value.as_deref().map(|v| v.to_string_lossy()).as_deref())
}

/// The process-wide kernel used by the serving stack and the plain
/// `pool_quantized_into` entry point.
///
/// Resolved once: scalar when [`KERNEL_ENV`] is `scalar` (how `ci.sh`
/// forces the scalar path through the test suite on AVX2 runners), else
/// AVX2 where the CPU has it, else scalar. An unrecognised value leaves
/// detection in charge here; `SdmConfig::validate` reports it.
pub fn auto_kernel() -> SelectedKernel {
    static AUTO: OnceLock<SelectedKernel> = OnceLock::new();
    *AUTO.get_or_init(|| match kernel_env() {
        Ok(true) => SelectedKernel::SCALAR,
        _ => SelectedKernel::avx2().unwrap_or(SelectedKernel::SCALAR),
    })
}

/// Fused dequantise-and-accumulate of one row into `out` with an explicit
/// kernel: `out[i] += code[i] as f32 * scale + bias` (int8/int4) or
/// `out[i] += row[i]` (fp32). Bit-identical across kernels.
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] when the buffer length does not
/// match `scheme.row_bytes(out.len())`.
#[inline]
pub fn accumulate_row_with(
    kernel: SelectedKernel,
    buf: &[u8],
    scheme: QuantScheme,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    dispatch::<false>(kernel, buf, scheme, 1.0, out)
}

/// Weighted variant of [`accumulate_row_with`]:
/// `out[i] += (code[i] as f32 * scale + bias) * weight`
/// (SparseLengthsWeightedSum). Bit-identical across kernels.
///
/// # Errors
///
/// Returns [`EmbeddingError::MalformedRow`] for a wrong buffer length.
pub fn accumulate_row_weighted_with(
    kernel: SelectedKernel,
    buf: &[u8],
    scheme: QuantScheme,
    weight: f32,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    dispatch::<true>(kernel, buf, scheme, weight, out)
}

/// Prefetches the leading cache lines of a row buffer into L1.
///
/// Used to hide the memory latency of the *next* row while the current one
/// is being accumulated (the arena layouts keep rows contiguous, so the
/// first few lines cover a typical 64-dim int8/int4 row plus parameters).
/// A pure hint: no-op on non-x86_64 and never a memory access, so it cannot
/// fault and has no effect on results.
#[inline]
pub fn prefetch_row(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        const MAX_LINES: usize = 4;
        let lines = bytes.len().div_ceil(LINE).min(MAX_LINES);
        for line in 0..lines {
            // SAFETY: `line * LINE` is strictly less than `bytes.len()`, so
            // the pointer stays inside the allocation; prefetch is a hint
            // and performs no actual memory access.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(bytes.as_ptr().add(line * LINE).cast()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = bytes;
    }
}

/// Shared validation + scheme/kernel dispatch. `W` selects the weighted
/// forms at compile time so the unweighted hot loops never pay the extra
/// multiply.
#[inline]
fn dispatch<const W: bool>(
    kernel: SelectedKernel,
    buf: &[u8],
    scheme: QuantScheme,
    weight: f32,
    out: &mut [f32],
) -> Result<(), EmbeddingError> {
    let dim = out.len();
    let expected = scheme.row_bytes(dim);
    if buf.len() != expected {
        return Err(EmbeddingError::MalformedRow {
            expected,
            actual: buf.len(),
        });
    }
    match scheme {
        QuantScheme::Fp32 => match kernel.0 {
            Arch::Scalar => scalar_fp32::<W>(buf, weight, out),
            // SAFETY: the Arch invariant guarantees the feature was detected.
            #[cfg(target_arch = "x86_64")]
            Arch::Avx2 => unsafe { x86::fp32_avx2::<W>(buf, weight, out) },
        },
        QuantScheme::Int8 => {
            let (scale, bias) = row_params(buf);
            let codes = &buf[..dim];
            match kernel.0 {
                Arch::Scalar => scalar_int8::<W>(codes, scale, bias, weight, out),
                // SAFETY: the Arch invariant guarantees the feature was detected.
                #[cfg(target_arch = "x86_64")]
                Arch::Avx2 => unsafe { x86::int8_avx2::<W>(codes, scale, bias, weight, out) },
            }
        }
        QuantScheme::Int4 => {
            let (scale, bias) = row_params(buf);
            let codes = &buf[..dim.div_ceil(2)];
            match kernel.0 {
                Arch::Scalar => scalar_int4_from::<W>(codes, 0, scale, bias, weight, out),
                // SAFETY: the Arch invariant guarantees the feature was detected.
                #[cfg(target_arch = "x86_64")]
                Arch::Avx2 => unsafe { x86::int4_avx2::<W>(codes, scale, bias, weight, out) },
            }
        }
    }
    Ok(())
}

// --- scalar reference kernels (also the vector kernels' tail loops) ------

/// `out[i] += codes[i] as f32 * scale + bias` (optionally `* weight`).
fn scalar_int8<const W: bool>(codes: &[u8], scale: f32, bias: f32, weight: f32, out: &mut [f32]) {
    for (o, &code) in out.iter_mut().zip(codes) {
        let v = code as f32 * scale + bias;
        *o += if W { v * weight } else { v };
    }
}

/// Int4 scalar loop starting at element `start` (so the vector kernels can
/// hand over mid-row with the correct nibble parity). Low nibble first,
/// high nibble second; the padding nibble of an odd-dim row is never read.
fn scalar_int4_from<const W: bool>(
    codes: &[u8],
    start: usize,
    scale: f32,
    bias: f32,
    weight: f32,
    out: &mut [f32],
) {
    for (i, o) in out.iter_mut().enumerate().skip(start) {
        let byte = codes[i / 2];
        let code = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
        let v = code as f32 * scale + bias;
        *o += if W { v * weight } else { v };
    }
}

/// `out[i] += row[i]` (optionally `* weight`) over little-endian f32 bytes.
fn scalar_fp32<const W: bool>(buf: &[u8], weight: f32, out: &mut [f32]) {
    for (o, c) in out.iter_mut().zip(buf.chunks_exact(4)) {
        let v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        *o += if W { v * weight } else { v };
    }
}

// --- x86_64 vector kernels ----------------------------------------------
//
// Every kernel keeps the scalar arithmetic exactly: convert codes to f32
// (exact for 0..=255), packed multiply by the splatted scale, packed add of
// the splatted bias, optional packed multiply by the splatted weight, then
// one packed add into `out` — each operation correctly rounded per lane,
// matching the scalar sequence rounding for rounding. No FMA anywhere.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{scalar_fp32, scalar_int4_from, scalar_int8};
    use core::arch::x86_64::*;

    /// Dequantise + accumulate eight lanes: `cur + ((codes*scale)+bias)[*w]`.
    ///
    /// # Safety
    ///
    /// Callable only where AVX2 is enabled, and `o` must hold at least 8
    /// f32s: the unaligned load and store below do not check its length.
    #[target_feature(enable = "avx2")]
    fn step8<const W: bool>(
        codes_f: __m256,
        scale: __m256,
        bias: __m256,
        weight: __m256,
        o: &mut [f32],
    ) {
        let mut v = _mm256_add_ps(_mm256_mul_ps(codes_f, scale), bias);
        if W {
            v = _mm256_mul_ps(v, weight);
        }
        // SAFETY: `o` holds at least 8 f32s (checked by every caller).
        unsafe {
            let cur = _mm256_loadu_ps(o.as_ptr());
            _mm256_storeu_ps(o.as_mut_ptr(), _mm256_add_ps(cur, v));
        }
    }

    /// AVX2 int8: 8 codes per step, scalar tail for `dim % 8` elements.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. `codes.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn int8_avx2<const W: bool>(
        codes: &[u8],
        scale: f32,
        bias: f32,
        weight: f32,
        out: &mut [f32],
    ) {
        let scale_v = _mm256_set1_ps(scale);
        let bias_v = _mm256_set1_ps(bias);
        let weight_v = _mm256_set1_ps(weight);
        let mut code_chunks = codes.chunks_exact(8);
        let mut out_chunks = out.chunks_exact_mut(8);
        for (c, o) in (&mut code_chunks).zip(&mut out_chunks) {
            // SAFETY: `c` holds exactly 8 bytes.
            let raw = unsafe { _mm_loadl_epi64(c.as_ptr().cast()) };
            let codes_f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw));
            step8::<W>(codes_f, scale_v, bias_v, weight_v, o);
        }
        scalar_int8::<W>(
            code_chunks.remainder(),
            scale,
            bias,
            weight,
            out_chunks.into_remainder(),
        );
    }

    /// AVX2 int4: SIMD nibble unpack of 4 bytes into 8 codes per step,
    /// scalar tail for `dim % 8` elements (including the padding nibble of
    /// odd dims, which is never read).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    /// `codes.len() == out.len().div_ceil(2)`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn int4_avx2<const W: bool>(
        codes: &[u8],
        scale: f32,
        bias: f32,
        weight: f32,
        out: &mut [f32],
    ) {
        let scale_v = _mm256_set1_ps(scale);
        let bias_v = _mm256_set1_ps(bias);
        let weight_v = _mm256_set1_ps(weight);
        let low_mask = _mm_set1_epi8(0x0F);
        let dim = out.len();
        let main = dim - (dim % 8);
        for k in (0..main).step_by(8) {
            let at = k / 2;
            let raw = u32::from_le_bytes([codes[at], codes[at + 1], codes[at + 2], codes[at + 3]]);
            let packed = _mm_cvtsi32_si128(raw as i32);
            let lo = _mm_and_si128(packed, low_mask);
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(packed), low_mask);
            // Interleave to element order: b0&F, b0>>4, b1&F, b1>>4, ...
            let nibbles = _mm_unpacklo_epi8(lo, hi);
            let codes_f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(nibbles));
            step8::<W>(codes_f, scale_v, bias_v, weight_v, &mut out[k..k + 8]);
        }
        scalar_int4_from::<W>(codes, main, scale, bias, weight, out);
    }

    /// AVX2 fp32: 8 elements per step, scalar tail.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. `buf.len() == out.len() * 4`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fp32_avx2<const W: bool>(buf: &[u8], weight: f32, out: &mut [f32]) {
        let weight_v = _mm256_set1_ps(weight);
        let mut byte_chunks = buf.chunks_exact(32);
        let mut out_chunks = out.chunks_exact_mut(8);
        for (b, o) in (&mut byte_chunks).zip(&mut out_chunks) {
            // SAFETY: `b` holds exactly 32 bytes (unaligned load, LE lanes).
            let mut v = unsafe { _mm256_loadu_ps(b.as_ptr().cast()) };
            if W {
                v = _mm256_mul_ps(v, weight_v);
            }
            // SAFETY: `o` holds exactly 8 f32s.
            unsafe {
                let cur = _mm256_loadu_ps(o.as_ptr());
                _mm256_storeu_ps(o.as_mut_ptr(), _mm256_add_ps(cur, v));
            }
        }
        scalar_fp32::<W>(byte_chunks.remainder(), weight, out_chunks.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_row;

    fn sample_row(dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| (i as f32 * 0.73).sin() * 3.0 - 0.4)
            .collect()
    }

    fn supported_kernels() -> Vec<SelectedKernel> {
        std::iter::once(SelectedKernel::SCALAR)
            .chain(SelectedKernel::avx2())
            .collect()
    }

    #[test]
    fn kernel_names() {
        assert_eq!(SelectedKernel::SCALAR.name(), "scalar");
        if let Some(avx2) = SelectedKernel::avx2() {
            assert_eq!(avx2.to_string(), "avx2");
        }
    }

    #[test]
    fn kernel_env_accepts_only_unset_or_scalar() {
        assert_eq!(parse_kernel_env(None), Ok(false));
        assert_eq!(parse_kernel_env(Some("scalar")), Ok(true));
        assert_eq!(parse_kernel_env(Some("SCALAR")), Ok(true));
        for bad in ["sse2", "scalr"] {
            let err = parse_kernel_env(Some(bad)).expect_err(bad);
            assert!(err.contains(KERNEL_ENV) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn all_kernels_match_scalar_bitwise_on_quantized_rows() {
        for scheme in [QuantScheme::Int8, QuantScheme::Int4, QuantScheme::Fp32] {
            for dim in [0usize, 1, 3, 4, 7, 8, 15, 16, 33, 64, 127] {
                let row = sample_row(dim);
                let q = quantize_row(&row, scheme);
                let mut reference = vec![0.125f32; dim];
                accumulate_row_with(SelectedKernel::SCALAR, &q, scheme, &mut reference)
                    .expect("scalar accumulate");
                for kernel in supported_kernels() {
                    let mut out = vec![0.125f32; dim];
                    accumulate_row_with(kernel, &q, scheme, &mut out)
                        .unwrap_or_else(|e| panic!("{kernel} accumulate failed: {e}"));
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "kernel {kernel}, scheme {scheme}, dim {dim}");
                }
            }
        }
    }

    #[test]
    fn weighted_kernels_match_scalar_bitwise() {
        for scheme in [QuantScheme::Int8, QuantScheme::Int4, QuantScheme::Fp32] {
            for dim in [5usize, 8, 31, 64] {
                for weight in [0.0f32, 1.0, -2.5, 0.333] {
                    let row = sample_row(dim);
                    let q = quantize_row(&row, scheme);
                    let mut reference = vec![0.5f32; dim];
                    accumulate_row_weighted_with(
                        SelectedKernel::SCALAR,
                        &q,
                        scheme,
                        weight,
                        &mut reference,
                    )
                    .expect("scalar weighted accumulate");
                    for kernel in supported_kernels() {
                        let mut out = vec![0.5f32; dim];
                        accumulate_row_weighted_with(kernel, &q, scheme, weight, &mut out)
                            .unwrap_or_else(|e| panic!("{kernel} weighted failed: {e}"));
                        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got, want,
                            "kernel {kernel}, scheme {scheme}, dim {dim}, weight {weight}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_buffers_rejected_by_every_kernel() {
        for kernel in supported_kernels() {
            let mut out = vec![0.0f32; 8];
            assert!(matches!(
                accumulate_row_with(kernel, &[0u8; 3], QuantScheme::Int8, &mut out),
                Err(EmbeddingError::MalformedRow { .. })
            ));
            assert!(matches!(
                accumulate_row_weighted_with(kernel, &[0u8; 3], QuantScheme::Fp32, 1.0, &mut out),
                Err(EmbeddingError::MalformedRow { .. })
            ));
        }
    }

    #[test]
    fn prefetch_is_harmless() {
        prefetch_row(&[]);
        prefetch_row(&[1, 2, 3]);
        prefetch_row(&vec![0u8; 1024]);
    }

    #[test]
    fn auto_kernel_is_cached_and_runnable() {
        let k = auto_kernel();
        assert_eq!(k, auto_kernel());
        let mut out = vec![0.0f32; 4];
        let q = quantize_row(&[1.0, 2.0, 3.0, 4.0], QuantScheme::Int8);
        accumulate_row_with(k, &q, QuantScheme::Int8, &mut out).expect("auto kernel runs");
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
