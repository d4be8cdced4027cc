//! Sharded-serving equivalence: a `ServingHost` must produce, per query
//! id, the same scores as the single-stream baseline (a 1-shard host) — no
//! matter how many shards serve the batch or which routing policy
//! partitions it — and its cache counters must obey the conservation laws
//! partitioning cannot break.
//!
//! What is (and isn't) invariant under sharding:
//!
//! * **Scores** — invariant up to f32 reassociation. Shards are seeded
//!   identically, so every replica materialises bit-identical tables and
//!   MLPs, and each query pools exactly the same row values. The
//!   *summation order* is not invariant, though: the hot path accumulates
//!   row-cache hits during the index scan and misses later as their IO
//!   completions drain (a deliberate PR-2 overlap optimisation), so a
//!   different hit/miss split — which is what sharding changes — pools the
//!   same values in a different order. Multi-shard scores are therefore
//!   compared within a tight reassociation tolerance, and a 1-shard host
//!   is asserted bit-exact. (The pooled-embedding cache adds a second
//!   order effect — it is keyed on the index *multiset* — so the main
//!   sweep disables it and a separate case covers the pooled-enabled
//!   path.)
//! * **Per-operator / per-row totals** — `pooled_ops`, `fm_direct_lookups`
//!   and `pruned_zero_rows` are decided per query, so their totals are
//!   invariant; `row_cache_hits + sm_reads` (every SM row access is exactly
//!   one of the two) is invariant too. The hit/miss *split* is not — that
//!   is precisely the cache-contention effect measured multi-stream QPS
//!   exists to capture.
//! * **1 shard** — everything is invariant: a single-shard host divides
//!   nothing and runs its one shard inline, so every routing policy
//!   reproduces the baseline bit for bit, latencies and clock included.

pub mod common;

use common::{
    assert_live_scores, assert_scores_close, identity_picks, scaled_config, single_stream, Stream,
};
use dlrm::model_zoo;
use sdm_core::{SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use workload::RoutingPolicy;

const SHARD_COUNTS: &[usize] = &[1, 2, 4];
const POLICIES: &[RoutingPolicy] = &[RoutingPolicy::RoundRobin, RoutingPolicy::UserSticky];

/// Small population so users repeat and sticky routing has per-shard
/// locality to exploit.
const STREAM: Stream = Stream {
    users: 200,
    item_cap: 8,
    skew: None,
};

/// The main sweep config: pooled cache off (see module docs).
fn exact_config() -> SdmConfig {
    let mut config = scaled_config();
    config.cache.pooled_cache_budget = Bytes::ZERO;
    config
}

/// Runs `queries` through the single-stream baseline and through sharded
/// hosts at every `SHARD_COUNTS` × `POLICIES` combination, asserting score
/// equivalence per query id and the partition-invariant counter totals.
fn assert_sharding_equivalent(model: &dlrm::ModelConfig, config: &SdmConfig, seed: u64) {
    let queries = common::stream(model, STREAM, 48, seed);
    let all = identity_picks(&queries);
    let mut baseline = single_stream(model, config, seed);
    let report = baseline.run_selected_batch(&queries, &all).unwrap();
    assert_eq!(report.queries, queries.len() as u64);
    assert_live_scores(
        &format!("{} seed {seed}", model.name),
        (0..baseline.len()).map(|i| baseline.scores(i)),
    );
    let base = baseline.stats();

    for &shards in SHARD_COUNTS {
        for &policy in POLICIES {
            let mut host = ServingHost::build(model, config, seed, shards, policy).unwrap();
            let host_report = host.run_selected_batch(&queries, &all).unwrap();
            assert_eq!(host_report.queries, queries.len() as u64);
            assert_eq!(host.len(), baseline.len());

            // Scores per query id: bit-exact at 1 shard, reassociation
            // tolerance beyond (see module docs).
            for i in 0..queries.len() {
                if shards == 1 {
                    assert_eq!(
                        host.scores(i),
                        baseline.scores(i),
                        "{}: scores diverge at query {i} (1 shard, {policy:?})",
                        model.name
                    );
                } else {
                    assert_scores_close(
                        host.scores(i),
                        baseline.scores(i),
                        &format!("{}: query {i} ({shards} shards, {policy:?})", model.name),
                    );
                }
            }

            // Partition-invariant counter totals.
            let agg = host.stats();
            let tag = format!("{} ({shards} shards, {policy:?})", model.name);
            assert_eq!(agg.pooled_ops, base.pooled_ops, "{tag}: pooled_ops");
            assert_eq!(
                agg.fm_direct_lookups, base.fm_direct_lookups,
                "{tag}: fm_direct_lookups"
            );
            assert_eq!(
                agg.pruned_zero_rows, base.pruned_zero_rows,
                "{tag}: pruned_zero_rows"
            );
            assert_eq!(
                agg.row_cache_hits + agg.sm_reads,
                base.row_cache_hits + base.sm_reads,
                "{tag}: SM row accesses"
            );

            // A single-shard host *is* the baseline: latencies, clock and
            // the full counter block match exactly.
            if shards == 1 {
                for i in 0..queries.len() {
                    assert_eq!(host.latency(i), baseline.latency(i), "{tag}: latency");
                }
                assert_eq!(host.shard(0).now(), baseline.shard(0).now(), "{tag}: clock");
                assert_eq!(agg.row_cache_hits, base.row_cache_hits, "{tag}: hits");
                assert_eq!(agg.sm_reads, base.sm_reads, "{tag}: sm_reads");
                assert_eq!(
                    agg.pooled_cache_hits, base.pooled_cache_hits,
                    "{tag}: pooled hits"
                );
                assert_eq!(agg.sm_bytes_read, base.sm_bytes_read, "{tag}: sm bytes");
                assert_eq!(agg.sm_bus_bytes, base.sm_bus_bytes, "{tag}: bus bytes");
                assert_eq!(agg.io_time, base.io_time, "{tag}: io time");
                assert_eq!(agg.pooling_time, base.pooling_time, "{tag}: pooling time");
                assert_eq!(
                    host_report.mean_latency, report.mean_latency,
                    "{tag}: mean latency"
                );
                assert_eq!(
                    host_report.p99_latency, report.p99_latency,
                    "{tag}: p99 latency"
                );
            }
        }
    }
}

#[test]
fn tiny_model_sharding_is_equivalent() {
    assert_sharding_equivalent(&model_zoo::tiny(3, 2, 500), &exact_config(), 41);
}

#[test]
fn tiny_pruned_model_sharding_is_equivalent() {
    let mut model = model_zoo::tiny(2, 1, 400);
    model.tables[0].pruned_fraction = 0.4;
    assert_sharding_equivalent(&model, &exact_config(), 42);
}

#[test]
fn m1_scaled_sharding_is_equivalent() {
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 60.0);
    assert_sharding_equivalent(&model, &exact_config(), 43);
}

#[test]
fn m2_scaled_sharding_is_equivalent() {
    let model = model_zoo::scaled_model(&model_zoo::m2(), 400_000, 60.0);
    assert_sharding_equivalent(&model, &exact_config(), 44);
}

#[test]
fn m3_scaled_sharding_is_equivalent() {
    // M3 is the terabyte-scale model (2700 tables); sharding decisions are
    // made per query and equivalence per embedding operator, so a subset of
    // its tables exercises the same code paths at a fraction of the cost.
    // Divisor 40, seed 93: divisor 300 at seed 45 scores 0.0 everywhere.
    let mut model = model_zoo::scaled_model(&model_zoo::m3(), 4_000_000, 40.0);
    let user: Vec<_> = model
        .tables
        .iter()
        .filter(|t| t.kind == embedding::TableKind::User)
        .take(40)
        .cloned()
        .collect();
    let item: Vec<_> = model
        .tables
        .iter()
        .filter(|t| t.kind == embedding::TableKind::Item)
        .take(20)
        .cloned()
        .collect();
    model.tables = user.into_iter().chain(item).collect();
    assert_sharding_equivalent(&model, &exact_config(), 93);
}

#[test]
fn pooled_cache_enabled_sharding_keeps_scores_equivalent() {
    // With the pooled-embedding cache on, a hit replays a previously
    // pooled vector — same values, possibly a different summation order —
    // so the reassociation tolerance applies at every shard count except
    // one, where the host is the baseline bit for bit.
    let model = model_zoo::tiny(3, 2, 500);
    let config = scaled_config();
    let queries = common::stream(&model, STREAM, 48, 46);
    let all = identity_picks(&queries);
    let mut baseline = single_stream(&model, &config, 46);
    baseline.run_selected_batch(&queries, &all).unwrap();
    assert_live_scores("pooled-on", (0..baseline.len()).map(|i| baseline.scores(i)));
    let base = baseline.stats();
    for &shards in SHARD_COUNTS {
        for &policy in POLICIES {
            let mut host = ServingHost::build(&model, &config, 46, shards, policy).unwrap();
            host.run_selected_batch(&queries, &all).unwrap();
            for i in 0..queries.len() {
                if shards == 1 {
                    assert_eq!(
                        host.scores(i),
                        baseline.scores(i),
                        "scores diverge at query {i} (1 shard, {policy:?})"
                    );
                } else {
                    assert_scores_close(
                        host.scores(i),
                        baseline.scores(i),
                        &format!("pooled-on query {i} ({shards} shards, {policy:?})"),
                    );
                }
            }
            let agg = host.stats();
            assert_eq!(agg.pooled_ops, base.pooled_ops);
            assert_eq!(agg.fm_direct_lookups, base.fm_direct_lookups);
        }
    }
}

#[test]
fn sticky_routing_concentrates_cache_locality() {
    // The reason user-sticky routing exists (paper Figure 4c): pinning a
    // user's repeating sequences to one shard must not *lower* the
    // aggregate row-cache hit count relative to spraying them round-robin
    // across shards. (With divided per-shard budgets the two policies see
    // the same total capacity, so this compares pure locality.)
    let model = model_zoo::tiny(2, 1, 500);
    let config = exact_config();
    let queries = common::stream(&model, STREAM, 160, 47);
    let mut hits = Vec::new();
    for &policy in POLICIES {
        let mut host = ServingHost::build(&model, &config, 47, 4, policy).unwrap();
        host.run_selected_batch(&queries, &identity_picks(&queries))
            .unwrap();
        hits.push(host.stats().row_cache_hits);
    }
    let (rr, sticky) = (hits[0], hits[1]);
    assert!(
        sticky >= rr,
        "sticky routing lost locality: {sticky} hits vs round-robin {rr}"
    );
}
