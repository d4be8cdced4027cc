//! Helpers shared by the integration suites.
//!
//! A suite declares `pub mod common;`: each uses a subset of these helpers,
//! and the unused items of a public module are not dead code.

use dlrm::ModelConfig;
use sdm_core::{SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use workload::{Query, QueryGenerator, RoutingPolicy, WorkloadConfig};

/// The shape of a generated query stream.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Distinct users in the population.
    pub users: u64,
    /// Cap on items per query; a query ranks `min(model.item_batch, cap)`.
    pub item_cap: u32,
    /// Zipf exponent of user popularity; `None` keeps
    /// [`WorkloadConfig::default`]'s.
    pub skew: Option<f64>,
}

/// The first `count` queries of the seeded stream `shape` draws for `model`.
pub fn stream(model: &ModelConfig, shape: Stream, count: usize, seed: u64) -> Vec<Query> {
    let default = WorkloadConfig::default();
    let cfg = WorkloadConfig {
        item_batch: model.item_batch.min(shape.item_cap),
        user_population: shape.users,
        user_zipf_exponent: shape.skew.unwrap_or(default.user_zipf_exponent),
        ..default
    };
    QueryGenerator::new(&model.tables, cfg, seed)
        .unwrap()
        .generate(count)
}

/// Positions `0..queries.len()`: the selection that serves a whole stream
/// through [`ServingHost::run_selected_batch`].
pub fn identity_picks(queries: &[Query]) -> Vec<usize> {
    (0..queries.len()).collect()
}

/// One serving stream: a 1-shard host.
pub fn single_stream(model: &ModelConfig, config: &SdmConfig, seed: u64) -> ServingHost {
    ServingHost::build(model, config, seed, 1, RoutingPolicy::UserSticky).unwrap()
}

/// The configuration the scaled model-zoo replicas serve under: room on
/// the devices for their SM image and a 4 MiB cache budget.
pub fn scaled_config() -> SdmConfig {
    SdmConfig {
        device_capacity: Bytes::from_mib(64),
        cache: sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(4)),
        ..SdmConfig::for_tests()
    }
}

/// Asserts `got` equals `want` up to float reassociation: a relative
/// tolerance of `1e-4` (absolute below magnitude 1).
pub fn assert_scores_close(got: &[f32], want: &[f32], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: score count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4 * a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{context}: score {i} diverges beyond reassociation tolerance: {a} vs {b}"
        );
    }
}

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
