//! Statistical sanity checks for the Zipf workload generator: the rank →
//! frequency curve must actually be ordered and heavy-tailed (the paper's
//! temporal-locality premise, Figures 4/5), not merely in-range.

#![expect(
    clippy::disallowed_types,
    reason = "a test tallying sampled rows, off the serving path"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use workload::ZipfSampler;

const ROWS: u64 = 10_000;
const DRAWS: usize = 200_000;

fn row_counts(sampler: &ZipfSampler, seed: u64) -> HashMap<u64, u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..DRAWS {
        *counts.entry(sampler.sample(&mut rng)).or_default() += 1;
    }
    counts
}

/// Mean frequency per popularity decile, hottest decile first.
fn decile_means(counts: &HashMap<u64, u64>) -> Vec<f64> {
    let mut freqs: Vec<u64> = counts.values().copied().collect();
    freqs.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
    let decile = (freqs.len() / 10).max(1);
    freqs
        .chunks(decile)
        .take(10)
        .map(|c| c.iter().sum::<u64>() as f64 / c.len() as f64)
        .collect()
}

#[test]
fn mean_rank_frequency_is_heavy_tailed_and_matches_harmonic_prediction() {
    let sampler = ZipfSampler::new(ROWS, 1.0, 42).unwrap();
    let counts = row_counts(&sampler, 7);

    // Theoretical anchor, not just shape: for s = 1 the hottest rank draws
    // P(1) = 1/H_n ≈ 1/9.788 ≈ 0.102 of all samples (n = 10_000). The
    // rank→row scramble can merge another rank onto the same row, adding
    // at most a few permille, so the window is asymmetric upward.
    // (Sorting observed frequencies and asserting they descend would be a
    // tautology — this pins the curve to the distribution itself.)
    let hottest = *counts.values().max().unwrap() as f64 / DRAWS as f64;
    assert!(
        (0.08..0.14).contains(&hottest),
        "hottest-row share {hottest} far from harmonic prediction 0.102"
    );

    // Heavy-tailed: the hottest decile must dominate the coldest by a
    // large factor (the near-uniform test below shows the same measure
    // staying flat).
    let means = decile_means(&counts);
    let ratio = means[0] / means.last().unwrap().max(1.0);
    assert!(ratio > 10.0, "decile ratio {ratio} too flat for s=1.0");
}

#[test]
fn near_uniform_exponent_is_flat_by_the_same_measure() {
    let sampler = ZipfSampler::new(ROWS, 0.0, 42).unwrap();
    let means = decile_means(&row_counts(&sampler, 7));
    let ratio = means[0] / means.last().unwrap().max(1.0);
    // Not 1.0 even for a perfectly flat sampler: the rank→row scramble
    // merges colliding ranks onto one row (doubling its frequency) and
    // Poisson noise spreads the order statistics, which together push the
    // sorted-decile ratio to ~5 at these parameters. The point is the
    // contrast with the genuinely skewed case, which exceeds 10.
    assert!(
        ratio < 8.0,
        "near-uniform sampler looks skewed: ratio {ratio}"
    );
}

#[test]
fn skew_increases_monotonically_with_exponent() {
    let mut top_shares = Vec::new();
    for (i, s) in [0.4, 0.8, 1.2].into_iter().enumerate() {
        let sampler = ZipfSampler::new(ROWS, s, 42).unwrap();
        let counts = row_counts(&sampler, 100 + i as u64);
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
        let top_1pct: u64 = freqs.iter().take(freqs.len() / 100 + 1).sum();
        top_shares.push(top_1pct as f64 / DRAWS as f64);
    }
    assert!(
        top_shares[0] < top_shares[1] && top_shares[1] < top_shares[2],
        "top-1% shares not increasing with s: {top_shares:?}"
    );
}

#[test]
fn hot_set_is_stable_across_sampling_seeds() {
    // The rank→row scramble is a deterministic property of the sampler, so
    // two independent sampling runs must largely agree on which rows are
    // hottest — popularity is distributional, not sampling noise.
    let sampler = ZipfSampler::new(ROWS, 1.0, 42).unwrap();
    let top = |seed: u64| -> Vec<u64> {
        let counts = row_counts(&sampler, seed);
        let mut rows: Vec<(u64, u64)> = counts.into_iter().collect();
        rows.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
        rows.into_iter().take(20).map(|(r, _)| r).collect()
    };
    let a = top(1);
    let b = top(2);
    let overlap = a.iter().filter(|r| b.contains(r)).count();
    assert!(overlap >= 14, "only {overlap}/20 hot rows overlap");
}
