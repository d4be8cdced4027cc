//! Temporal and spatial locality analysis (paper Figures 4 and 5).

use std::collections::{HashMap, HashSet};

/// Computes the cumulative distribution of accesses over rows ranked by
/// popularity: the returned points are `(fraction_of_unique_rows,
/// fraction_of_accesses)` with rows ordered hottest-first (the curve plotted
/// in paper Figure 4). The curve is sampled at `points` evenly spaced row
/// fractions; an empty access stream yields an empty curve.
pub fn temporal_locality_cdf(accesses: &[u64], points: usize) -> Vec<(f64, f64)> {
    if accesses.is_empty() || points == 0 {
        return Vec::new();
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &row in accesses {
        *counts.entry(row).or_default() += 1;
    }
    let mut freqs: Vec<u64> = counts.values().copied().collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = freqs.iter().sum();
    let unique = freqs.len();

    // Prefix sums over the ranked rows.
    let mut cumulative = Vec::with_capacity(unique);
    let mut running = 0u64;
    for f in &freqs {
        running += f;
        cumulative.push(running);
    }

    (1..=points)
        .map(|p| {
            let frac_rows = p as f64 / points as f64;
            let idx = ((frac_rows * unique as f64).ceil() as usize).clamp(1, unique) - 1;
            (frac_rows, cumulative[idx] as f64 / total as f64)
        })
        .collect()
}

/// Computes the paper's spatial-locality proxy (Figure 5) for one access
/// stream: the average over windows of
/// `(unique indices / unique 4 KiB blocks) / (rows per block)`.
///
/// A value of 1.0 means every touched block had all of its rows touched
/// (perfect spatial locality); `1 / rows_per_block` means every touched row
/// sat in its own block (no spatial locality). Returns 0.0 for an empty
/// stream or degenerate row size.
pub fn spatial_locality(
    accesses: &[u64],
    row_bytes: usize,
    block_bytes: usize,
    window: usize,
) -> f64 {
    if accesses.is_empty() || row_bytes == 0 || block_bytes == 0 {
        return 0.0;
    }
    let rows_per_block = (block_bytes / row_bytes).max(1) as f64;
    let window = window.max(1);
    let mut ratios = Vec::new();
    for chunk in accesses.chunks(window) {
        let unique_rows: HashSet<u64> = chunk.iter().copied().collect();
        let unique_blocks: HashSet<u64> = chunk
            .iter()
            .map(|&row| row * row_bytes as u64 / block_bytes as u64)
            .collect();
        if unique_blocks.is_empty() {
            continue;
        }
        let ratio = unique_rows.len() as f64 / unique_blocks.len() as f64;
        ratios.push((ratio / rows_per_block).min(1.0));
    }
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_stream_yields_empty_results() {
        assert!(temporal_locality_cdf(&[], 10).is_empty());
        assert_eq!(spatial_locality(&[], 128, 4096, 100), 0.0);
    }

    #[test]
    fn uniform_accesses_have_linear_cdf() {
        let accesses: Vec<u64> = (0..1000u64).collect();
        let curve = temporal_locality_cdf(&accesses, 10);
        assert_eq!(curve.len(), 10);
        for (frac_rows, frac_accesses) in curve {
            assert!((frac_rows - frac_accesses).abs() < 0.01);
        }
    }

    #[test]
    fn zipfian_accesses_have_concave_cdf() {
        let sampler = ZipfSampler::new(10_000, 1.0, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let accesses = sampler.sample_many(&mut rng, 50_000);
        // Shares of the accesses taken by the hottest 1 %, 10 % and 50 %.
        let curve = temporal_locality_cdf(&accesses, 100);
        let (top1, top10, top50) = (curve[0].1, curve[9].1, curve[49].1);
        assert!(top10 > 0.5, "top10 = {top10}");
        assert!(top1 > 0.15, "top1 = {top1}");
        assert!(top50 > top10);
        // CDF is monotone non-decreasing and ends at 1.
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_rows_show_high_spatial_locality() {
        // 32 rows of 128B per 4KiB block, accessed block by block.
        let accesses: Vec<u64> = (0..32 * 100u64).collect();
        let s = spatial_locality(&accesses, 128, 4096, 3200);
        assert!(s > 0.9, "s = {s}");
    }

    #[test]
    fn strided_rows_show_low_spatial_locality() {
        // One row per block.
        let accesses: Vec<u64> = (0..1000u64).map(|i| i * 32).collect();
        let s = spatial_locality(&accesses, 128, 4096, 1000);
        assert!(s < 0.05, "s = {s}");
    }

    #[test]
    fn zipf_scrambled_trace_has_low_spatial_locality() {
        // The paper's key observation: temporal locality without spatial
        // locality.
        let sampler = ZipfSampler::new(100_000, 0.9, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let accesses = sampler.sample_many(&mut rng, 30_000);
        let s = spatial_locality(&accesses, 128, 4096, 5_000);
        assert!(s < 0.3, "s = {s}");
    }

    #[test]
    fn degenerate_parameters_are_safe() {
        let accesses = vec![1, 2, 3];
        assert_eq!(spatial_locality(&accesses, 0, 4096, 10), 0.0);
        assert_eq!(spatial_locality(&accesses, 128, 0, 10), 0.0);
        // window of zero is clamped
        assert!(spatial_locality(&accesses, 128, 4096, 0) > 0.0);
        assert!(temporal_locality_cdf(&accesses, 0).is_empty());
    }
}
