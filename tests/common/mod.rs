//! Helpers shared by the integration suites.

/// A comparison or digest of scores that are all one value guards nothing.
/// At any MLP divisor about half of all weight seeds leave the model zoo's
/// ReLU stacks dead, and such a replica scores exactly 0.0 for every item,
/// so every suite that compares scores asserts its inputs are *live*: at
/// least two distinct values and a non-zero variance across all of them.
pub fn assert_live_scores<'a>(tag: &str, scores: impl IntoIterator<Item = &'a [f32]>) {
    let scores: Vec<f32> = scores.into_iter().flatten().copied().collect();
    let mut distinct: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "{tag}: all {} scores are {:?} — the comparison is blind",
        scores.len(),
        scores.first()
    );
    let n = scores.len() as f64;
    let mean = scores.iter().map(|&s| f64::from(s)).sum::<f64>() / n;
    let variance = scores
        .iter()
        .map(|&s| (f64::from(s) - mean).powi(2))
        .sum::<f64>()
        / n;
    assert!(
        variance.is_finite() && variance > 0.0,
        "{tag}: score variance {variance} — the comparison is blind"
    );
}
