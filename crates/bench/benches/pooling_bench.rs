//! Criterion bench backing Table 3/4 and §A.5: the cost of dequantise + pool
//! that the pooled-embedding cache and load-time de-quantisation avoid —
//! plus the seed-vs-slice comparison for the zero-copy hot path.
//!
//! `seed_vecvec` reproduces the seed implementation exactly (one fresh
//! `Vec<f32>` per row via `dequantize_row`, summed into a freshly allocated
//! output); `slice_into` is the current hot path (`pool_quantized_into`
//! fusing dequantise+accumulate into one reused output buffer). The
//! acceptance bar for the hot-path PR is ≥ 2× between the two.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embedding::kernels::SelectedKernel;
use embedding::{pooling, QuantScheme};

/// Deterministic quantised rows: `pf` rows of `dim` elements.
fn quantized_rows(pf: usize, dim: usize, scheme: QuantScheme) -> Vec<Vec<u8>> {
    (0..pf)
        .map(|i| {
            let values: Vec<f32> = (0..dim).map(|j| ((i * j) as f32).sin()).collect();
            embedding::quantize_row(&values, scheme)
        })
        .collect()
}

/// The seed pooling path, byte for byte: per-row dequantise into a fresh
/// `Vec<f32>`, then a second pass summing into a freshly allocated output.
fn pool_seed_style(rows: &[&[u8]], scheme: QuantScheme, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    for &raw in rows {
        let values = embedding::dequantize_row(raw, scheme, dim).unwrap();
        for (o, v) in out.iter_mut().zip(&values) {
            *o += *v;
        }
    }
    out
}

fn pooling_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_quantized");
    group.sample_size(30);
    for &pf in &[10usize, 40, 100] {
        for (name, scheme) in [("int8", QuantScheme::Int8), ("fp32", QuantScheme::Fp32)] {
            let dim = 64;
            let rows = quantized_rows(pf, dim, scheme);
            let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
            group.bench_with_input(BenchmarkId::new(name, pf), &pf, |b, _| {
                b.iter(|| pooling::pool_quantized(&row_refs, scheme, dim).unwrap())
            });
        }
    }
    group.finish();
}

/// Seed `Vec<Vec<f32>>`-style pooling vs the slice-based `_into` hot path.
fn seed_vs_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_hotpath");
    group.sample_size(30);
    let dim = 64;
    for &pf in &[10usize, 40, 100] {
        let rows = quantized_rows(pf, dim, QuantScheme::Int8);
        let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        group.bench_with_input(BenchmarkId::new("seed_vecvec", pf), &pf, |b, _| {
            b.iter(|| pool_seed_style(&row_refs, QuantScheme::Int8, dim))
        });
        let mut out = vec![0.0f32; dim];
        group.bench_with_input(BenchmarkId::new("slice_into", pf), &pf, |b, _| {
            b.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                pooling::pool_quantized_into(row_refs.iter().copied(), QuantScheme::Int8, &mut out)
                    .unwrap();
                black_box(out[0])
            })
        });
    }
    group.finish();
}

/// Scalar vs AVX2 (where the host has it) on identical rows, per scheme.
/// The bit-identity contract means this is a pure speed comparison: any
/// divergence in the pooled values is caught by `tests/kernel_equivalence`,
/// not here. This group is the repo's only per-kernel timing.
fn kernel_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_kernels");
    group.sample_size(30);
    let (pf, dim) = (40usize, 64usize);
    let kernels: Vec<SelectedKernel> = std::iter::once(SelectedKernel::SCALAR)
        .chain(SelectedKernel::avx2())
        .collect();
    for (name, scheme) in [
        ("int8", QuantScheme::Int8),
        ("int4", QuantScheme::Int4),
        ("fp32", QuantScheme::Fp32),
    ] {
        let rows = quantized_rows(pf, dim, scheme);
        let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0.0f32; dim];
        for &kernel in &kernels {
            let id = BenchmarkId::new(name, kernel.name());
            group.bench_with_input(id, &pf, |b, _| {
                b.iter(|| {
                    out.iter_mut().for_each(|v| *v = 0.0);
                    pooling::pool_quantized_into_with(
                        kernel,
                        row_refs.iter().copied(),
                        scheme,
                        &mut out,
                    )
                    .unwrap();
                    black_box(out[0])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, pooling_cost, seed_vs_slice, kernel_comparison);
criterion_main!(benches);
