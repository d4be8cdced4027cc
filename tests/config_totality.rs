//! Config totality: `ServingHost::build` is total over `SdmConfig`.
//!
//! Over generated configurations — zero and oversized budgets, a
//! memory-optimized fraction outside [0, 1] or NaN, `Relaxed { 0 }`, zero
//! devices, SGL reads on the 3DXP DIMM profile, a zero-stripe shared tier,
//! zero engine limits, `max_attempts: 0` — and 0–3 shards, the one way to
//! build a server either returns a typed `SdmError` or builds a host that
//! serves 8 queries through `run_selected_batch` with finite scores and
//! the row-access conservation law of the `shared_tier` suite: every
//! looked-up row is exactly one of {fast-memory direct, private hit,
//! shared hit, SM read, pruned zero, degraded}, and only a pooled-cache
//! hit (which replays a whole operator) skips rows. A config that
//! `SdmConfig::validate` rejects is rejected by `build` with the same
//! error, and nothing panics.

pub mod common;

use common::{identity_picks, Stream};
use dlrm::model_zoo;
use proptest::prelude::*;
use scm_device::TechnologyProfile;
use sdm_core::{AccessGranularity, BatchMode, SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::RoutingPolicy;

const STREAM: Stream = Stream {
    users: 16,
    item_cap: u32::MAX,
    skew: None,
};

/// One generated knob: `edges[p]` for `p < edges.len()`, otherwise one of
/// the valid values. Knobs are drawn from `0..16`, so each edge value comes
/// up one case in sixteen and about a third of all cases build and serve.
fn knob<T: Clone>(p: u8, edges: &[T], valid: &[T]) -> T {
    let p = usize::from(p);
    match edges.get(p) {
        Some(edge) => edge.clone(),
        None => valid[p % valid.len()].clone(),
    }
}

proptest! {
    // Pinned case count and seed: a failure names a case that reproduces
    // exactly.
    #![proptest_config(ProptestConfig::with_cases(128).with_seed(0x5d11_0038))]

    #[test]
    fn every_config_is_rejected_or_serves(
        budgets in (0u8..16, 0u8..16, 0u8..16, 0u8..16, 0u8..16),
        cache in (0u8..16, 0u8..16, 0u8..16, 0u8..16),
        devices in (0u8..16, 0u8..16, 0u8..16, 0u8..16),
        engine in (0u8..16, 0u8..16, 0u8..16),
        shards in 0usize..4,
    ) {
        let (fm, row, pooled, tier, capacity) = budgets;
        let (fraction, stripes, placement, mode) = cache;
        let (count, technology, granularity, attempts) = devices;
        let (per_device, per_table, tables) = engine;
        let (kib, mib) = (Bytes::from_kib, Bytes::from_mib);
        // Oversized budgets stay in the tens of MiB: the memory-optimized
        // engine sizes its bucket array from its budget.
        let mut config = SdmConfig::for_tests();
        config.fm_budget = knob(fm, &[Bytes::ZERO], &[mib(8), Bytes::from_gib(1)]);
        config.cache.row_cache_budget =
            knob(row, &[Bytes::ZERO, mib(64)], &[kib(16), mib(4)]);
        config.cache.pooled_cache_budget =
            knob(pooled, &[mib(64)], &[Bytes::ZERO, kib(16), mib(1)]);
        config.cache.shared_tier_budget =
            knob(tier, &[mib(64)], &[Bytes::ZERO, Bytes::ZERO, mib(1)]);
        config.device_capacity = knob(capacity, &[Bytes::ZERO, kib(4)], &[mib(64)]);
        config.cache.memory_optimized_fraction =
            knob(fraction, &[-0.25, 1.5, f64::NAN], &[0.0, 0.5, 1.0]);
        config.cache.shared_tier_stripes = knob(stripes, &[0], &[1, 8]);
        config.placement = knob(
            placement,
            &[],
            &[
                sdm_core::PlacementPolicy::SmOnlyWithCache,
                sdm_core::PlacementPolicy::FixedFmThenSm { dram_budget: kib(8) },
            ],
        );
        config.device_count = knob(count, &[0], &[1, 2, 3]);
        config.technology = knob(
            technology,
            &[],
            &[
                TechnologyProfile::optane_ssd(),
                TechnologyProfile::nand_flash(),
                TechnologyProfile::dimm_3dxp(),
            ],
        );
        config.granularity =
            knob(granularity, &[], &[AccessGranularity::Sgl, AccessGranularity::Block]);
        let default = config.io.clone();
        config.io.max_outstanding_per_device =
            knob(per_device, &[0], &[1, default.max_outstanding_per_device]);
        config.io.max_outstanding_per_table =
            knob(per_table, &[0], &[1, default.max_outstanding_per_table]);
        config.io.max_tables_in_flight = knob(tables, &[0], &[1, default.max_tables_in_flight]);
        config.io.retry.max_attempts = knob(attempts, &[0], &[1, 4]);
        config.batch_mode = knob(
            mode,
            &[BatchMode::Relaxed { max_inflight_queries: 0 }],
            &[BatchMode::Exact, BatchMode::Relaxed { max_inflight_queries: 4 }],
        );

        let model = model_zoo::tiny(2, 1, 300);
        let queries = common::stream(&model, STREAM, 8, 38);
        let all = identity_picks(&queries);
        let tag = format!("{shards} shard(s), {config:?}");
        let built = catch_unwind(AssertUnwindSafe(|| {
            ServingHost::build(&model, &config, 38, shards, RoutingPolicy::UserSticky)
        }));
        let Ok(built) = built else {
            return Err(TestCaseError::fail(format!("build panicked: {tag}")));
        };
        let mut host = match (config.validate(), built) {
            (Err(want), Err(got)) => {
                prop_assert_eq!(got.to_string(), want.to_string(), "{}", tag);
                return Ok(());
            }
            (Err(want), Ok(_)) => {
                return Err(TestCaseError::fail(format!(
                    "validate() rejects ({want}) but build accepts: {tag}"
                )));
            }
            // A valid config may still not fit: a typed layout or device
            // error, or a budget slice that divides down to zero.
            (Ok(()), Err(_)) => return Ok(()),
            (Ok(()), Ok(host)) => host,
        };

        let served =
            catch_unwind(AssertUnwindSafe(|| host.run_selected_batch(&queries, &all)));
        let Ok(served) = served else {
            return Err(TestCaseError::fail(format!("serving panicked: {tag}")));
        };
        let report = match served {
            Ok(report) => report,
            Err(e) => {
                return Err(TestCaseError::fail(format!("built but cannot serve ({e}): {tag}")));
            }
        };
        prop_assert_eq!(report.queries, 8, "{}", tag);
        for i in 0..host.len() {
            let finite = host.scores(i).iter().all(|s| s.is_finite());
            prop_assert!(finite, "query {}: {}", i, tag);
        }
        let stats = host.stats();
        let looked_up: u64 = queries.iter().map(|q| q.total_lookups() as u64).sum();
        let accounted = stats.fm_direct_lookups
            + stats.row_cache_hits
            + stats.shared_tier_hits
            + stats.sm_reads
            + stats.pruned_zero_rows
            + stats.degraded_rows;
        if stats.pooled_cache_hits == 0 {
            prop_assert_eq!(accounted, looked_up, "{}", tag);
        } else {
            prop_assert!(accounted < looked_up, "{} > {}: {}", accounted, looked_up, tag);
        }
    }
}
