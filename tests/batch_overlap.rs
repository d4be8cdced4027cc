//! Relaxed (overlapped) batch execution contracts — paper §3.2.
//!
//! Three pinned-down guarantees:
//!
//! 1. **Window-1 bit-identity** — `BatchMode::Relaxed { max_inflight_queries: 1 }`
//!    starts every query at the instant the previous one finished, which is
//!    exactly the exact-mode schedule: scores, latency breakdowns, clocks,
//!    cache counters and IO totals are bit-for-bit equal across M1–M3 at
//!    batch sizes 1/8/33 — with the pooled cache roomy, off, and evicting.
//! 2. **Reassociation-tight scores at deeper windows** — with more queries
//!    in flight the IO completion order changes, so per-element summation
//!    order may differ, but every per-query score stays within a tight
//!    f32-reassociation tolerance of the exact result.
//! 3. **Counter conservation** — every row access is either a cache hit or
//!    an SM read, and every SM read is one submitted IO: with the pooled
//!    cache disabled, `row_cache_hits + sm_reads + pruned_zero_rows` and
//!    `sm_reads == submitted` are invariant across modes and windows.
//!
//! Plus the throughput side: on a cold M1-scaled stream the relaxed mode
//! must deliver a shorter virtual makespan (higher `virtual_qps`) and a
//! strictly deeper mean device-queue depth than exact mode.

pub mod common;

use common::{
    assert_live_scores, assert_scores_close, identity_picks, scaled_config, single_stream, Stream,
};
use dlrm::model_zoo;
use sdm_core::{BatchMode, SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use workload::{Query, RoutingPolicy};

const BATCH_SIZES: &[usize] = &[1, 8, 33];

const STREAM: Stream = Stream {
    users: 400,
    item_cap: 8,
    skew: None,
};

/// [`assert_window1_identical_on`] over the suite's default stream.
fn assert_window1_identical(model: &dlrm::ModelConfig, config: SdmConfig, seed: u64) {
    let total: usize = BATCH_SIZES.iter().sum();
    let queries = common::stream(model, STREAM, total, seed);
    assert_window1_identical_on(model, config, seed, &queries);
}

/// Runs the same stream through exact mode and `Relaxed { 1 }` on two
/// identically built 1-shard hosts and asserts bit-identical behaviour, warm
/// state included (batch sizes consume successive chunks of one stream).
fn assert_window1_identical_on(
    model: &dlrm::ModelConfig,
    config: SdmConfig,
    seed: u64,
    queries: &[Query],
) {
    assert_eq!(queries.len(), BATCH_SIZES.iter().sum::<usize>());
    let mut exact = single_stream(model, &config, seed);
    let mut relaxed = single_stream(model, &config.with_relaxed_batching(1), seed);
    let all = identity_picks(queries);
    let mut compared = Vec::new();
    let mut at = 0usize;
    for &batch in BATCH_SIZES {
        let picks = &all[at..at + batch];
        at += batch;

        let er = exact.run_selected_batch(queries, picks).unwrap();
        let rr = relaxed.run_selected_batch(queries, picks).unwrap();

        assert_eq!(exact.len(), relaxed.len());
        for i in 0..exact.len() {
            compared.extend_from_slice(exact.scores(i));
        }
        for i in 0..exact.len() {
            assert_eq!(
                exact.scores(i),
                relaxed.scores(i),
                "{}: scores diverge at query {i} (batch {batch})",
                model.name
            );
            assert_eq!(
                exact.latency(i),
                relaxed.latency(i),
                "{}: latency diverges at query {i} (batch {batch})",
                model.name
            );
        }
        assert_eq!(er.virtual_makespan, rr.virtual_makespan);
        assert_eq!(er.queries, rr.queries);

        let (exact, relaxed) = (exact.shard(0), relaxed.shard(0));
        assert_eq!(exact.now(), relaxed.now(), "{}: clocks diverge", model.name);

        // Cache and IO counters identical.
        let a = exact.manager().stats();
        let b = relaxed.manager().stats();
        assert_eq!(a.pooled_ops, b.pooled_ops);
        assert_eq!(a.pooled_cache_hits, b.pooled_cache_hits);
        assert_eq!(a.row_cache_hits, b.row_cache_hits);
        assert_eq!(a.sm_reads, b.sm_reads);
        assert_eq!(a.fm_direct_lookups, b.fm_direct_lookups);
        assert_eq!(a.pruned_zero_rows, b.pruned_zero_rows);
        assert_eq!(a.sm_bytes_read, b.sm_bytes_read);
        assert_eq!(a.sm_bus_bytes, b.sm_bus_bytes);
        assert_eq!(a.io_time, b.io_time);
        assert_eq!(a.pooling_time, b.pooling_time);

        let ia = exact.manager().io_engine().stats();
        let ib = relaxed.manager().io_engine().stats();
        assert_eq!(ia.submitted, ib.submitted);
        assert_eq!(ia.queue_delay, ib.queue_delay);
        assert_eq!(ia.device_time, ib.device_time);
        assert_eq!(ia.queue_depth.depth_samples, ib.queue_depth.depth_samples);
        assert_eq!(ia.queue_depth.depth_sum, ib.queue_depth.depth_sum);
        assert_eq!(ia.queue_depth.max_depth, ib.queue_depth.max_depth);

        // Row-cache contents converged identically.
        use sdm_cache::RowCache;
        assert_eq!(
            exact.manager().row_cache().len(),
            relaxed.manager().row_cache().len()
        );
        assert_eq!(
            exact.manager().row_cache().memory_used(),
            relaxed.manager().row_cache().memory_used()
        );
    }
    assert_live_scores(&format!("{} seed {seed}", model.name), [&compared[..]]);
}

#[test]
fn window1_is_bit_identical_tiny() {
    assert_window1_identical(&model_zoo::tiny(3, 2, 500), SdmConfig::for_tests(), 11);
    let mut pruned = model_zoo::tiny(2, 1, 400);
    pruned.tables[0].pruned_fraction = 0.4;
    assert_window1_identical(&pruned, SdmConfig::for_tests(), 13);
}

#[test]
fn window1_is_bit_identical_m1() {
    // Divisor 40, seed 93: divisor 60 at seed 21 scores 0.0 everywhere.
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 40.0);
    assert_window1_identical(&model, scaled_config(), 93);
}

#[test]
fn window1_is_bit_identical_under_pooled_cache_eviction() {
    // The other window-1 cases leave the pooled cache roomy (4 MiB, no
    // evictions). Here a skewed stream replays users against a pooled
    // cache that evicts, so *when* a pooled vector is inserted decides what
    // it displaces and what later operators hit: the identity holds only
    // because every mode inserts in program order.
    // MLP divisor 40 at seed 93: live scores (see `refactor_identity`).
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 40.0);
    let mut config = SdmConfig::for_tests();
    config.cache.row_cache_budget = Bytes::from_kib(96);
    config.cache.pooled_cache_budget = Bytes::from_kib(64);
    let total: usize = BATCH_SIZES.iter().sum();
    let skewed = Stream {
        users: 48,
        skew: Some(1.1),
        ..STREAM
    };
    let queries = common::stream(&model, skewed, total, 93);
    assert_window1_identical_on(&model, config.clone(), 93, &queries);

    // The case means what it says only while the pooled cache both hits
    // and evicts on this stream.
    let mut probe = single_stream(&model, &config, 93);
    probe
        .run_selected_batch(&queries, &identity_picks(&queries))
        .unwrap();
    let pooled = probe.shard(0).manager().pooled_cache().stats();
    assert!(pooled.hits > 0 && pooled.evictions > 0, "{pooled:?}");
}

#[test]
fn window1_is_bit_identical_m2() {
    let model = model_zoo::scaled_model(&model_zoo::m2(), 400_000, 60.0);
    assert_window1_identical(&model, scaled_config(), 22);
}

#[test]
fn window1_is_bit_identical_m3() {
    // Same M3 subset rationale as the batch_equivalence suite: equivalence
    // is decided per embedding operator.
    let mut model = model_zoo::scaled_model(&model_zoo::m3(), 4_000_000, 300.0);
    let user: Vec<_> = model
        .tables
        .iter()
        .filter(|t| t.kind == embedding::TableKind::User)
        .take(60)
        .cloned()
        .collect();
    let item: Vec<_> = model
        .tables
        .iter()
        .filter(|t| t.kind == embedding::TableKind::Item)
        .take(30)
        .cloned()
        .collect();
    model.tables = user.into_iter().chain(item).collect();
    assert_window1_identical(&model, scaled_config(), 23);
}

#[test]
fn deeper_windows_stay_reassociation_tight() {
    // Divisor 40, seed 93: divisor 60 at seed 31 scores 0.0 everywhere.
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 40.0);
    let queries = common::stream(&model, STREAM, 42, 93);
    let all = identity_picks(&queries);
    let mut exact = single_stream(&model, &scaled_config(), 93);
    exact.run_selected_batch(&queries, &all).unwrap();
    assert_live_scores(&model.name, (0..exact.len()).map(|i| exact.scores(i)));
    for window in [2usize, 4, 8] {
        let cfg = scaled_config().with_relaxed_batching(window);
        let mut relaxed = single_stream(&model, &cfg, 93);
        relaxed.run_selected_batch(&queries, &all).unwrap();
        assert_eq!(exact.len(), relaxed.len());
        for i in 0..exact.len() {
            assert_scores_close(
                relaxed.scores(i),
                exact.scores(i),
                &format!("window {window}, query {i}"),
            );
        }
    }
}

#[test]
fn counters_are_conserved_across_modes() {
    // Pooled cache off: a pooled hit answers an operator without touching
    // its rows, so the row-level conservation law is exact only with rows
    // resolved through the row cache alone (see module docs).
    let mut config = scaled_config();
    config.cache.pooled_cache_budget = Bytes::ZERO;
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 60.0);
    let queries = common::stream(&model, STREAM, 40, 41);

    let mut accesses: Vec<u64> = Vec::new();
    for mode in [
        BatchMode::Exact,
        BatchMode::Relaxed {
            max_inflight_queries: 1,
        },
        BatchMode::Relaxed {
            max_inflight_queries: 4,
        },
        BatchMode::Relaxed {
            max_inflight_queries: 8,
        },
    ] {
        let cfg = config.clone().with_batch_mode(mode);
        let mut host = single_stream(&model, &cfg, 41);
        host.run_selected_batch(&queries, &identity_picks(&queries))
            .unwrap();
        let manager = host.shard(0).manager();
        let stats = manager.stats();
        let io = manager.io_engine().stats();
        // Every SM read is exactly one submitted IO (minus the loader's
        // image writes, which go through the device array, not the engine).
        assert_eq!(
            stats.sm_reads, io.submitted,
            "{mode:?}: sm_reads != submitted IOs"
        );
        accesses.push(stats.row_cache_hits + stats.sm_reads + stats.pruned_zero_rows);
    }
    for w in accesses.windows(2) {
        assert_eq!(
            w[0], w[1],
            "hit+miss+pruned totals must be mode-invariant: {accesses:?}"
        );
    }
}

#[test]
fn relaxed_mode_overlaps_io_and_deepens_queues() {
    // Cold M1 stream: the relaxed pipeline must shorten the virtual
    // makespan and drive the device queues strictly deeper, at equal or
    // higher p99 per-query latency (the documented trade-off).
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 60.0);
    let queries = common::stream(&model, STREAM, 64, 51);
    let all = identity_picks(&queries);

    let mut exact = single_stream(&model, &scaled_config(), 51);
    let er = exact.run_selected_batch(&queries, &all).unwrap();
    let exact_depth = exact.queue_depth();

    let cfg = scaled_config().with_relaxed_batching(8);
    let mut relaxed = single_stream(&model, &cfg, 51);
    let rr = relaxed.run_selected_batch(&queries, &all).unwrap();
    let relaxed_depth = relaxed.queue_depth();

    assert!(
        rr.virtual_makespan < er.virtual_makespan,
        "relaxed makespan {} not shorter than exact {}",
        rr.virtual_makespan,
        er.virtual_makespan
    );
    assert!(rr.virtual_qps > er.virtual_qps);
    assert!(
        relaxed_depth.mean_depth() > exact_depth.mean_depth(),
        "relaxed mean queue depth {:.2} not deeper than exact {:.2}",
        relaxed_depth.mean_depth(),
        exact_depth.mean_depth()
    );
    assert!(
        rr.p99_latency >= er.p99_latency,
        "deeper queues cannot lower tail latency"
    );
}

#[test]
fn serving_host_runs_relaxed_shards() {
    // The mode plumbs through ServingHost via the divided config: a
    // relaxed host produces reassociation-tight scores vs an exact host at
    // every shard count, and reports deeper aggregate queue occupancy.
    let model = model_zoo::tiny(2, 1, 400);
    let queries = common::stream(&model, STREAM, 24, 61);
    let all = identity_picks(&queries);
    for shards in [1usize, 2, 4] {
        let mut exact = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            61,
            shards,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        let relaxed_cfg = SdmConfig::for_tests().with_relaxed_batching(4);
        let mut relaxed =
            ServingHost::build(&model, &relaxed_cfg, 61, shards, RoutingPolicy::UserSticky)
                .unwrap();
        exact.run_selected_batch(&queries, &all).unwrap();
        relaxed.run_selected_batch(&queries, &all).unwrap();
        assert_eq!(exact.len(), relaxed.len());
        assert_live_scores(
            &format!("{shards} shard(s)"),
            (0..exact.len()).map(|i| exact.scores(i)),
        );
        for i in 0..exact.len() {
            assert_scores_close(
                relaxed.scores(i),
                exact.scores(i),
                &format!("{shards} shard(s), query {i}"),
            );
        }
        assert!(
            relaxed.queue_depth().mean_depth() >= exact.queue_depth().mean_depth(),
            "{shards} shard(s): relaxed host queues not deeper"
        );
        assert_eq!(relaxed.shard(0).batch_mode(), relaxed_cfg.batch_mode);
    }
}
