//! Equivalence suite: one N-query batch must be **bit-identical** to N
//! one-query batches — same scores, same latency breakdowns, same cache
//! hit/miss counters, same IO byte totals — across the model zoo and a
//! range of batch sizes.
//!
//! This is the contract that makes batching a pure host-side optimisation:
//! one set of scratch buffers and one result arena serve the whole batch,
//! but under exact batching every query still observes exactly the
//! virtual-time and cache state a query-at-a-time serving loop would have
//! produced.

pub mod common;

use common::{assert_live_scores, identity_picks, scaled_config, single_stream, Stream};
use dlrm::model_zoo;
use sdm_cache::RowCache;
use sdm_core::SdmConfig;

/// Batch sizes exercised for every model: single query, small batch, and a
/// batch larger than the paper's typical ranking burst.
const BATCH_SIZES: &[usize] = &[1, 8, 33];

const STREAM: Stream = Stream {
    users: 400,
    item_cap: 8,
    skew: None,
};

/// Runs the same stream as one-query batches and as whole batches on two
/// identically built 1-shard hosts and asserts bit-identical behaviour.
///
/// The two hosts are built once and the batch sizes consume successive
/// chunks of one query stream, so the suite also proves equivalence on
/// *warm* cache state, not just from cold.
fn assert_equivalent(model: &dlrm::ModelConfig, config: SdmConfig, seed: u64) {
    let total: usize = BATCH_SIZES.iter().sum();
    let queries = common::stream(model, STREAM, total, seed);
    let all = identity_picks(&queries);
    let mut looped = single_stream(model, &config, seed);
    let mut batched = single_stream(model, &config, seed);
    let mut compared = Vec::new();
    let mut at = 0usize;
    for &batch in BATCH_SIZES {
        let picks = &all[at..at + batch];
        at += batch;

        let mut loop_results = Vec::new();
        for k in 0..picks.len() {
            looped.run_selected_batch(&queries, &picks[k..=k]).unwrap();
            loop_results.push((looped.scores(0).to_vec(), looped.latency(0)));
        }
        let report = batched.run_selected_batch(&queries, picks).unwrap();

        // Per-query results: scores bit-for-bit, latency breakdowns equal.
        assert_eq!(batched.len(), picks.len());
        assert_eq!(report.queries, picks.len() as u64);
        for (i, (scores, latency)) in loop_results.iter().enumerate() {
            assert_eq!(
                scores.as_slice(),
                batched.scores(i),
                "{}: scores diverge at query {i} (batch {batch})",
                model.name
            );
            assert_eq!(
                *latency,
                batched.latency(i),
                "{}: latency diverges at query {i} (batch {batch})",
                model.name
            );
            compared.extend_from_slice(scores);
        }

        let (looped, batched) = (looped.shard(0), batched.shard(0));
        // Virtual clocks advanced identically.
        assert_eq!(
            looped.now(),
            batched.now(),
            "{}: clocks diverge",
            model.name
        );

        // Cache hit/miss counters identical.
        let a = looped.manager().stats();
        let b = batched.manager().stats();
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

        // IO engine totals identical (submissions, bytes, queueing).
        let ia = looped.manager().io_engine().stats();
        let ib = batched.manager().io_engine().stats();
        assert_eq!(ia.submitted, ib.submitted);
        assert_eq!(ia.completed, ib.completed);
        assert_eq!(ia.bus_bytes, ib.bus_bytes);
        assert_eq!(ia.requested_bytes, ib.requested_bytes);
        assert_eq!(ia.queue_delay, ib.queue_delay);
        assert_eq!(ia.device_time, ib.device_time);

        // Row-cache state itself converged to the same contents.
        assert_eq!(
            looped.manager().row_cache().len(),
            batched.manager().row_cache().len()
        );
        assert_eq!(
            looped.manager().row_cache().memory_used(),
            batched.manager().row_cache().memory_used()
        );
    }
    assert_live_scores(&format!("{} seed {seed}", model.name), [&compared[..]]);
}

#[test]
fn tiny_models_batch_equals_loop() {
    assert_equivalent(&model_zoo::tiny(3, 2, 500), SdmConfig::for_tests(), 11);
    assert_equivalent(&model_zoo::tiny(1, 0, 300), SdmConfig::for_tests(), 12);
}

#[test]
fn tiny_pruned_model_batch_equals_loop() {
    let mut model = model_zoo::tiny(2, 1, 400);
    model.tables[0].pruned_fraction = 0.4;
    assert_equivalent(&model, SdmConfig::for_tests(), 13);
}

#[test]
fn m1_scaled_batch_equals_loop() {
    // Divisor 40, seed 93: divisor 60 at seed 21 scores 0.0 everywhere.
    let model = model_zoo::scaled_model(&model_zoo::m1(), 400_000, 40.0);
    assert_equivalent(&model, scaled_config(), 93);
}

#[test]
fn m2_scaled_batch_equals_loop() {
    let model = model_zoo::scaled_model(&model_zoo::m2(), 400_000, 60.0);
    assert_equivalent(&model, scaled_config(), 22);
}

#[test]
fn m3_scaled_batch_equals_loop() {
    // M3 is the terabyte-scale model (2700 tables); equivalence is decided
    // per embedding operator, so a subset of its tables exercises exactly
    // the same code paths at a fraction of the cost. Keep the first 60 user
    // and 30 item tables with their real M3 descriptors.
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
    assert_equivalent(&model, scaled_config(), 23);
}

#[test]
fn nand_flash_block_granularity_batch_equals_loop() {
    // The heavier IO path (block reads, read amplification) must stay
    // equivalent too.
    let model = model_zoo::tiny(2, 1, 400);
    assert_equivalent(&model, SdmConfig::for_tests().with_nand_flash(), 31);
}
