//! Deterministic fault-injection properties over random [`FaultPlan`]s.
//!
//! Every case pins its RNG seed (suite-level proptest seed + per-device
//! fault seeds derived from the case's generated seed), so a failing case
//! index reproduces bit-exactly. The properties are the resilience
//! contract of the serving path:
//!
//! * **Conservation** — every embedding-row lookup is accounted for
//!   exactly once: the sum of `fm_direct_lookups`, `row_cache_hits`,
//!   `shared_tier_hits`, `sm_reads`, `pruned_zero_rows` and
//!   `degraded_rows` equals the number of lookups the query stream asked
//!   for, no matter what faults were injected. Faults may move a lookup
//!   between buckets (a read that exhausts retries degrades instead of
//!   hitting the cache next round); they may never lose or double-count
//!   one.
//! * **End-to-end detection** — the per-row checksum catches *every*
//!   injected bit flip (the retry policy keeps the IO deadline disabled
//!   here, so no corrupted attempt is abandoned before verification).
//! * **Inertness** — an attached but all-zero-rate plan is bit-identical
//!   to no plan at all: same scores, same counters, zero degraded rows.
//! * **Replay** — the same fault seed replays bit-identically: same
//!   scores, same injected and handled fault ledgers.

pub mod common;

use common::{identity_picks, single_stream, Stream};
use dlrm::model_zoo;
use io_engine::ResilienceStats;
use proptest::prelude::*;
use scm_device::{DeviceId, FaultPlan, FaultStats};
use sdm_core::{SdmConfig, SdmStats, ServingHost};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use workload::Query;

/// Small population so later rounds re-hit warmed rows and the
/// conservation sum exercises cache hits, not just SM reads.
const STREAM: Stream = Stream {
    users: 8,
    item_cap: u32::MAX,
    skew: None,
};

/// Row lookups the stream requests per pass (the conservation target).
fn total_lookups(queries: &[Query]) -> u64 {
    queries
        .iter()
        .map(|q| {
            q.user_requests
                .iter()
                .chain(&q.item_requests)
                .map(|r| r.lookups() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Pooled-operator caching off: a pooled-cache hit skips its row lookups
/// entirely, which would make the conservation target stream-dependent.
fn fault_config() -> SdmConfig {
    let mut config = SdmConfig::for_tests();
    config.cache.pooled_cache_budget = Bytes::ZERO;
    config
}

/// Attaches `plan_for(device_index)` to every SM device of the stream.
fn attach_plans(host: &mut ServingHost, mut plan_for: impl FnMut(usize) -> Option<FaultPlan>) {
    let array = host.shard_mut(0).manager_mut().io_engine_mut().array_mut();
    for d in 0..array.len() {
        let plan = plan_for(d);
        array
            .device_mut(DeviceId(d))
            .expect("device index in range")
            .set_fault_plan(plan);
    }
}

/// Sum of the fault ledgers of every attached plan.
fn injected(host: &ServingHost) -> FaultStats {
    let mut total = FaultStats::default();
    for (_, device) in host.shard(0).manager().io_engine().array().iter() {
        if let Some(plan) = device.fault_plan() {
            total.merge(plan.stats());
        }
    }
    total
}

/// Serves `rounds` passes of the stream, returning the score fingerprint
/// of the final pass plus the cumulative serving and IO-resilience
/// statistics of the stream's manager and of its engine, which owns the
/// retry/checksum/hedge ledger.
fn serve(
    host: &mut ServingHost,
    queries: &[Query],
    rounds: usize,
) -> (Vec<f32>, SdmStats, ResilienceStats) {
    let all = identity_picks(queries);
    let mut scores = Vec::new();
    for _ in 0..rounds {
        scores.clear();
        host.run_selected_batch(queries, &all)
            .expect("injected faults never fail a query");
        for i in 0..host.len() {
            scores.extend_from_slice(host.scores(i));
        }
    }
    let manager = host.shard(0).manager();
    (
        scores,
        manager.stats().clone(),
        manager.io_engine().stats().resilience,
    )
}

/// The conservation sum: every resolved row lookup lands in exactly one
/// of these buckets.
fn accounted_lookups(stats: &SdmStats) -> u64 {
    stats.fm_direct_lookups
        + stats.row_cache_hits
        + stats.shared_tier_hits
        + stats.sm_reads
        + stats.pruned_zero_rows
        + stats.degraded_rows
}

/// The counters replay must reproduce bit-exactly.
fn resilience_fingerprint(stats: &SdmStats, io: &ResilienceStats) -> [u64; 9] {
    [
        stats.sm_reads,
        stats.row_cache_hits,
        stats.pruned_zero_rows,
        stats.degraded_rows,
        io.retries,
        io.transient_errors,
        io.checksum_failures,
        io.deadline_timeouts,
        io.hedges,
    ]
}

/// Per-device fault seed derived from the case's generated seed, so
/// device RNG streams are decorrelated but pure functions of the case.
fn device_seed(fault_seed: u64, device: usize) -> u64 {
    fault_seed ^ (device as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

proptest! {
    // Pinned case count and seed: CI runs are deterministic and a failure
    // report's case index reproduces exactly.
    #![proptest_config(ProptestConfig::with_cases(12).with_seed(0x5d11_0007))]

    #[test]
    fn random_fault_plans_uphold_the_resilience_contract(
        transient in 0.0f64..0.25,
        corruption in 0.0f64..0.12,
        stuck in 0.0f64..0.08,
        storm_mult in 1.0f64..6.0,
        fault_seed in 0u64..u64::MAX,
        query_seed in 1u64..10_000,
    ) {
        let model = model_zoo::tiny(3, 2, 400);
        let queries = common::stream(&model, STREAM, 18, query_seed);
        let rounds = 2usize;
        let expected = total_lookups(&queries) * rounds as u64;
        let storm_end = SimInstant::EPOCH + SimDuration::from_secs(3600);
        let stuck_latency = SimDuration::from_micros(200);

        // Baseline: no plans attached.
        let mut baseline = single_stream(&model, &fault_config(), 11);
        let (base_scores, base_stats, base_io) = serve(&mut baseline, &queries, rounds);
        prop_assert_eq!(accounted_lookups(&base_stats), expected);
        prop_assert_eq!(base_stats.degraded_rows, 0);
        prop_assert_eq!(base_io.checksum_failures, 0);

        // Attached but all-zero-rate plan: bit-identical to no plan.
        let mut inert = single_stream(&model, &fault_config(), 11);
        attach_plans(&mut inert, |d| Some(FaultPlan::new(device_seed(fault_seed, d))));
        let (inert_scores, inert_stats, inert_io) = serve(&mut inert, &queries, rounds);
        prop_assert_eq!(&inert_scores, &base_scores);
        prop_assert_eq!(accounted_lookups(&inert_stats), expected);
        prop_assert_eq!(inert_stats.degraded_rows, 0);
        prop_assert_eq!(
            resilience_fingerprint(&inert_stats, &inert_io),
            resilience_fingerprint(&base_stats, &base_io)
        );
        prop_assert_eq!(injected(&inert).total(), 0);

        // Random faulty plan on every device. The default retry policy
        // keeps the IO deadline disabled, so every corrupted attempt
        // reaches checksum verification.
        let plan_for = |d: usize| {
            Some(
                FaultPlan::new(device_seed(fault_seed, d))
                    .with_transient_errors(transient)
                    .with_corruption(corruption)
                    .with_stuck(stuck, stuck_latency)
                    .with_storm(SimInstant::EPOCH, storm_end, storm_mult),
            )
        };
        let mut faulty = single_stream(&model, &fault_config(), 11);
        attach_plans(&mut faulty, plan_for);
        let (faulty_scores, faulty_stats, faulty_io) = serve(&mut faulty, &queries, rounds);
        let faulty_injected = injected(&faulty);

        // Conservation: faults moved lookups between buckets, never lost
        // or double-counted one.
        prop_assert_eq!(accounted_lookups(&faulty_stats), expected);

        // End-to-end detection: the checksum caught every injected flip.
        prop_assert_eq!(faulty_io.checksum_failures, faulty_injected.corruptions);
        // Every injected transient error was observed by the retry layer.
        prop_assert_eq!(faulty_io.transient_errors, faulty_injected.transient_errors);
        // Recovery is value-exact: unless a row actually degraded to
        // zeros, retried/re-read payloads reproduce the fault-free scores
        // bit-identically (storms and stuck IOs only cost time).
        if faulty_stats.degraded_rows == 0 {
            prop_assert_eq!(&faulty_scores, &base_scores);
        }

        // Replay: the same fault seed reproduces the run bit-exactly.
        let mut replay = single_stream(&model, &fault_config(), 11);
        attach_plans(&mut replay, plan_for);
        let (replay_scores, replay_stats, replay_io) = serve(&mut replay, &queries, rounds);
        prop_assert_eq!(&replay_scores, &faulty_scores);
        prop_assert_eq!(
            resilience_fingerprint(&replay_stats, &replay_io),
            resilience_fingerprint(&faulty_stats, &faulty_io)
        );
        let replay_injected = injected(&replay);
        prop_assert_eq!(replay_injected.transient_errors, faulty_injected.transient_errors);
        prop_assert_eq!(replay_injected.corruptions, faulty_injected.corruptions);
        prop_assert_eq!(replay_injected.stuck, faulty_injected.stuck);
        prop_assert_eq!(replay_injected.storm_reads, faulty_injected.storm_reads);
    }
}
