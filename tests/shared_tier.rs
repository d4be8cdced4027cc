//! Shared host cache tier: equivalence, conservation and cross-shard reuse.
//!
//! What the tier must and must not change:
//!
//! * **Disabled tier (the default)** — serving is bit-identical to the
//!   committed PR-4 behaviour: a 1-shard host (exact mode, and relaxed
//!   window 1) reproduces the single-stream `Shard` scores, latencies,
//!   clock and counters exactly, and `ServingHost::shared_tier()` is
//!   `None`.
//! * **Enabled tier** — scores stay within f32 reassociation tolerance of
//!   the single-stream baseline at every shard count: a shared-tier hit
//!   pools the same row bytes a private hit or SM read would have, only
//!   the hit/miss split (and therefore the summation order) moves.
//! * **Conservation** — every SM-resident row access is exactly one of
//!   {private hit, shared hit, SM read}, so
//!   `row_cache_hits + shared_tier_hits + sm_reads` (plus pruned zero
//!   rows) is invariant across shard counts and tier states.
//! * **Cross-shard reuse** — on a skewed Zipf stream with private caches
//!   too small for the hot set, shards serve each other's promotions:
//!   cross-shard hits are strictly positive and SM reads drop relative to
//!   the tier-off host.

mod common;

use common::assert_live_scores;
use dlrm::model_zoo;
use sdm_core::{SdmConfig, ServingHost, Shard};
use sdm_metrics::units::Bytes;
use workload::{Query, QueryGenerator, RoutingPolicy, WorkloadConfig};

fn skewed_queries(model: &dlrm::ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch.min(8),
        ..WorkloadConfig::skewed(48, 1.1)
    };
    QueryGenerator::new(&model.tables, cfg, seed)
        .unwrap()
        .generate(count)
}

/// Pooled cache off (whole-operator replay would hide the row path) and a
/// private row budget small enough that divided slices cannot hold the hot
/// set — the regime the shared tier exists for.
fn constrained_config() -> SdmConfig {
    let mut config = SdmConfig::for_tests();
    config.cache.row_cache_budget = Bytes::from_kib(64);
    config.cache.pooled_cache_budget = Bytes::ZERO;
    config
}

fn assert_scores_close(got: &[f32], want: &[f32], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: score count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4 * a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{context}: score {i} diverges beyond reassociation tolerance: {a} vs {b}"
        );
    }
}

/// With the tier disabled (the default config), a 1-shard host — in exact
/// mode and at relaxed window 1 — remains bit-identical to the
/// single-stream system across the M1–M3 scaled replicas.
#[test]
fn tier_disabled_single_shard_serving_is_bit_identical() {
    // Divisor 40, seed 93 — the `refactor_identity` replicas: divisor 60 at
    // seed 60 scores 0.0 everywhere.
    let models = [
        model_zoo::scaled_model(&model_zoo::m1(), 400_000, 40.0),
        model_zoo::scaled_model(&model_zoo::m2(), 400_000, 40.0),
        {
            // M3 is terabyte-scale (2700 tables); a user+item subset
            // exercises the same code paths at a fraction of the cost.
            let mut m3 = model_zoo::scaled_model(&model_zoo::m3(), 4_000_000, 40.0);
            let user: Vec<_> = m3
                .tables
                .iter()
                .filter(|t| t.kind == embedding::TableKind::User)
                .take(20)
                .cloned()
                .collect();
            let item: Vec<_> = m3
                .tables
                .iter()
                .filter(|t| t.kind == embedding::TableKind::Item)
                .take(10)
                .cloned()
                .collect();
            m3.tables = user.into_iter().chain(item).collect();
            m3
        },
    ];
    for model in &models {
        let seed = 93;
        let queries = skewed_queries(model, 24, seed);
        for window in [None, Some(1)] {
            let config = match window {
                None => SdmConfig::for_tests(),
                Some(w) => SdmConfig::for_tests().with_relaxed_batching(w),
            };
            assert!(config.cache.shared_tier_budget.is_zero());
            let mut host =
                ServingHost::build(model, &config, seed, 1, RoutingPolicy::UserSticky).unwrap();
            assert!(host.shared_tier().is_none(), "tier must be off by default");
            let mut system = Shard::build(model, config, seed).unwrap();
            host.run_batch(&queries).unwrap();
            system.run_batch(&queries).unwrap();
            let tag = format!("{} (window {window:?})", model.name);
            assert_eq!(host.len(), system.batch_len(), "{tag}: batch length");
            assert_live_scores(&tag, (0..host.len()).map(|i| host.scores(i)));
            for i in 0..host.len() {
                assert_eq!(host.scores(i), system.batch_scores(i), "{tag}: query {i}");
                assert_eq!(
                    host.latency(i),
                    system.batch_latency(i),
                    "{tag}: latency {i}"
                );
            }
            assert_eq!(host.shard(0).now(), system.now(), "{tag}: clock");
            let a = host.stats();
            let b = system.manager().stats();
            assert_eq!(a.row_cache_hits, b.row_cache_hits, "{tag}: hits");
            assert_eq!(a.sm_reads, b.sm_reads, "{tag}: sm reads");
            assert_eq!(a.io_time, b.io_time, "{tag}: io time");
            assert_eq!(a.shared_tier_hits, 0, "{tag}: no tier, no tier hits");
            assert_eq!(a.shared_tier_misses, 0, "{tag}: no tier, no tier probes");
        }
    }
}

/// With the tier enabled at 2 and 4 shards, scores stay reassociation-tight
/// against the single-stream baseline, the row-access conservation law
/// holds, and cross-shard hits are strictly positive on the skewed stream.
#[test]
fn tier_enabled_sharding_stays_equivalent_and_recovers_reuse() {
    let model = model_zoo::tiny(3, 2, 500);
    let queries = skewed_queries(&model, 64, 71);
    let config = constrained_config();

    // Baseline: single stream, tier off.
    let mut baseline = Shard::build(&model, config.clone(), 71).unwrap();
    baseline.run_batch(&queries).unwrap();
    assert_live_scores(
        "baseline",
        (0..baseline.batch_len()).map(|i| baseline.batch_scores(i)),
    );
    let base = baseline.manager().stats().clone();
    let base_accesses = base.row_cache_hits + base.sm_reads + base.pruned_zero_rows;
    assert_eq!(base.shared_tier_hits, 0);

    for shards in [2usize, 4] {
        // Tier-off host at the same shard count, for the SM-read contrast.
        let mut off =
            ServingHost::build(&model, &config, 71, shards, RoutingPolicy::UserSticky).unwrap();
        off.run_batch(&queries).unwrap();
        let off_stats = off.stats();

        let enabled = config.clone().with_shared_tier(Bytes::from_mib(2));
        let mut host =
            ServingHost::build(&model, &enabled, 71, shards, RoutingPolicy::UserSticky).unwrap();
        let tier = host.shared_tier().expect("tier enabled");
        assert_eq!(tier.stripe_count(), enabled.cache.shared_tier_stripes);
        host.run_batch(&queries).unwrap();

        let tag = format!("{shards} shards");
        for i in 0..queries.len() {
            assert_scores_close(
                host.scores(i),
                baseline.batch_scores(i),
                &format!("{tag}: query {i}"),
            );
        }

        // Conservation: per-query decisions are partition-invariant, and
        // every SM-resident row access is exactly one of private hit,
        // shared hit, or SM read.
        let agg = host.stats();
        assert_eq!(agg.pooled_ops, base.pooled_ops, "{tag}: pooled_ops");
        assert_eq!(
            agg.fm_direct_lookups, base.fm_direct_lookups,
            "{tag}: fm lookups"
        );
        assert_eq!(
            agg.row_cache_hits + agg.shared_tier_hits + agg.sm_reads + agg.pruned_zero_rows,
            base_accesses,
            "{tag}: row-access conservation"
        );

        // The reuse the tier exists for: strictly positive cross-shard
        // hits, and strictly fewer SM reads than the tier-off host.
        assert!(agg.shared_tier_hits > 0, "{tag}: no shared hits");
        assert!(
            agg.shared_tier_cross_hits > 0,
            "{tag}: no cross-shard hits on a skewed stream"
        );
        assert!(agg.shared_tier_hit_rate() > 0.0);
        assert!(agg.shared_tier_cross_hit_rate() > 0.0);
        assert!(
            agg.sm_reads < off_stats.sm_reads,
            "{tag}: tier did not reduce SM reads ({} vs {})",
            agg.sm_reads,
            off_stats.sm_reads
        );
        assert!(agg.shared_tier_promotions > 0);

        // Tier bookkeeping: resident, bounded, and populated.
        let tier = host.shared_tier().unwrap();
        assert!(!tier.is_empty());
        assert!(tier.memory_used() <= tier.budget());
        let cache_stats = tier.stats();
        assert_eq!(cache_stats.hits, agg.shared_tier_hits, "{tag}: tier hits");
        assert!(cache_stats.insertions > 0);
    }
}

/// The relaxed (overlapped) executor serves correctly through the shared
/// tier: scores stay tight against the exact tier-on host and the same
/// conservation law holds.
#[test]
fn relaxed_mode_with_shared_tier_stays_equivalent() {
    let model = model_zoo::tiny(2, 1, 400);
    let queries = skewed_queries(&model, 48, 83);
    let exact_cfg = constrained_config().with_shared_tier(Bytes::from_mib(2));
    let relaxed_cfg = exact_cfg.clone().with_relaxed_batching(4);

    let mut exact =
        ServingHost::build(&model, &exact_cfg, 83, 2, RoutingPolicy::UserSticky).unwrap();
    let mut relaxed =
        ServingHost::build(&model, &relaxed_cfg, 83, 2, RoutingPolicy::UserSticky).unwrap();
    exact.run_batch(&queries).unwrap();
    relaxed.run_batch(&queries).unwrap();

    assert_live_scores("exact", (0..exact.len()).map(|i| exact.scores(i)));
    for i in 0..queries.len() {
        assert_scores_close(relaxed.scores(i), exact.scores(i), &format!("query {i}"));
    }
    let a = exact.stats();
    let b = relaxed.stats();
    assert_eq!(
        a.row_cache_hits + a.shared_tier_hits + a.sm_reads,
        b.row_cache_hits + b.shared_tier_hits + b.sm_reads,
        "row-access conservation across batch modes"
    );
    assert!(b.shared_tier_hits > 0);
    assert!(b.shared_tier_cross_hits > 0);
}

/// Repeated batches on a tier-enabled host settle into shared-tier serving:
/// the steady-state batch performs no SM reads at all once the tier holds
/// the hot set, while the tier-off host keeps re-reading rows its divided
/// private slices cannot retain.
#[test]
fn steady_state_tier_serving_eliminates_duplicate_sm_reads() {
    let model = model_zoo::tiny(2, 1, 400);
    let queries = skewed_queries(&model, 48, 97);
    let config = constrained_config().with_shared_tier(Bytes::from_mib(4));
    let mut host = ServingHost::build(&model, &config, 97, 4, RoutingPolicy::UserSticky).unwrap();
    host.run_batch(&queries).unwrap();
    host.run_batch(&queries).unwrap();
    let warmed = host.stats();
    host.run_batch(&queries).unwrap();
    let after = host.stats();
    let steady_sm_reads = after.sm_reads - warmed.sm_reads;
    assert_eq!(
        steady_sm_reads, 0,
        "steady-state batch still read {steady_sm_reads} rows from SM"
    );
    assert!(after.shared_tier_hits > warmed.shared_tier_hits);
    // The tier caches each hot row once for the whole host.
    let tier = host.shared_tier().unwrap();
    assert!(!tier.is_empty());
    assert!(tier.memory_used() <= tier.budget());
}
