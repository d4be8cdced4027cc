//! A full model update against the obviously right answer.
//!
//! `ModelUpdater::apply` rewrites the SM image, snapshots the rows the
//! private cache holds, invalidates, and reads those rows back from the new
//! image as bulk IO (see `sdm_core`'s update module docs). What that must
//! and must not do:
//!
//! * **No stale row, at any cache level** — after an update, scores equal
//!   `InferenceEngine` + `DramBackend` over tables regenerated at the new
//!   version, on one stream and on a two-shard host behind a shared tier.
//! * **The re-read is an ordinary read** — one gathered command per device
//!   block; under a pinned-seed `FaultPlan` every injected corruption is
//!   detected, nothing is served degraded, the rows of a command that
//!   exhausts its retries are simply absent (later demand misses read
//!   them), and one seed replays to an equal `UpdateReport`.
//! * **The window is on the clock** — the first batch after an update
//!   carries `write_time + rewarm_time` in its makespan, the next does not,
//!   and without an update the manager's clock never runs ahead of the
//!   shard's, which is what makes the shard's clock raise an identity on
//!   every workload that does not update.

pub mod common;

use common::{assert_scores_close, identity_picks, single_stream, Stream};
use dlrm::{
    model_zoo, ComputeModel, DramBackend, InferenceEngine, ModelConfig, PoolingBuffers, QueryResult,
};
use embedding::EmbeddingTable;
use io_engine::{EngineConfig, RetryConfig};
use scm_device::{DeviceId, FaultPlan, FaultStats};
use sdm_cache::{RowCache, RowKey};
use sdm_core::{ModelUpdater, SdmConfig, SdmMemoryManager, ServingHost, UpdateKind, UpdateReport};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use workload::{Query, RoutingPolicy};

const ENGINE_SEED: u64 = 23;

const STREAM: Stream = Stream {
    users: 40,
    item_cap: u32::MAX,
    skew: None,
};

/// Scores of `queries` from the engine over DRAM tables: SM-resident tables
/// regenerated exactly as an update to `version` writes them (`None`: as
/// loaded), everything else as loaded.
fn reference_scores(
    manager: &SdmMemoryManager,
    version: Option<u64>,
    queries: &[Query],
) -> Vec<Vec<f32>> {
    let loaded = manager.loaded();
    let tables = loaded.model.tables.iter().map(|desc| match version {
        Some(v) if loaded.on_sm(desc.id) => {
            let stored = &loaded.table(desc.id).unwrap().stored;
            EmbeddingTable::generate(stored, v ^ u64::from(desc.id))
        }
        _ => EmbeddingTable::generate(desc, manager.config().seed),
    });
    let mut dram = DramBackend::from_tables(tables.collect());
    let engine =
        InferenceEngine::new(loaded.model.clone(), ComputeModel::default(), ENGINE_SEED).unwrap();
    let mut buffers = PoolingBuffers::new();
    let mut result = QueryResult::default();
    let score = |q| {
        engine
            .execute_into(q, &mut dram, SimInstant::EPOCH, &mut buffers, &mut result)
            .unwrap();
        result.scores.clone()
    };
    queries.iter().map(score).collect()
}

/// The privately cached rows, in key order.
fn resident_keys(manager: &SdmMemoryManager) -> Vec<RowKey> {
    let mut rows = Vec::new();
    manager.row_cache().append_resident_lru_first(&mut rows);
    let mut keys: Vec<RowKey> = rows.into_iter().map(|(_, key)| key).collect();
    keys.sort_unstable();
    keys
}

fn attach_plans(system: &mut ServingHost, mut plan_for: impl FnMut(usize) -> Option<FaultPlan>) {
    let array = system
        .shard_mut(0)
        .manager_mut()
        .io_engine_mut()
        .array_mut();
    for d in 0..array.len() {
        let plan = plan_for(d);
        array.device_mut(DeviceId(d)).unwrap().set_fault_plan(plan);
    }
}

fn injected(system: &ServingHost) -> FaultStats {
    let mut total = FaultStats::default();
    for (_, device) in system.shard(0).manager().io_engine().array().iter() {
        if let Some(plan) = device.fault_plan() {
            total.merge(plan.stats());
        }
    }
    total
}

fn device_seed(fault_seed: u64, device: usize) -> u64 {
    fault_seed ^ (device as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Tables long enough that a warm-up's rows spread over hundreds of device
/// blocks: the refill, one command per block, then issues hundreds of
/// commands — enough for a few-per-cent fault plan to hit several — and
/// takes longer than a batch of all-hit queries.
fn long_tables() -> ModelConfig {
    model_zoo::tiny(3, 1, 50_000)
}

/// The sorted, distinct `(device, device block)` pairs holding the first
/// byte of `keys`' rows: the refill reads each such block with one command.
fn blocks_of(manager: &SdmMemoryManager, keys: &[RowKey]) -> Vec<(usize, u64)> {
    let block_of = |key: &RowKey| {
        let placement = manager.loaded().layout.placement(key.table).unwrap();
        let device = DeviceId(placement.device_index);
        let profile = manager
            .io_engine()
            .array()
            .device(device)
            .unwrap()
            .profile();
        let offset = placement.row_offset(key.row).unwrap();
        (device.0, offset / profile.access_granularity.as_u64())
    };
    let mut blocks: Vec<(usize, u64)> = keys.iter().map(block_of).collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

#[test]
fn every_row_served_after_an_update_comes_from_the_new_image() {
    let model = model_zoo::tiny(3, 1, 500);
    let queries = common::stream(&model, STREAM, 24, 5);
    let all = identity_picks(&queries);
    let mut system = single_stream(&model, &SdmConfig::for_tests(), ENGINE_SEED);
    system.run_selected_batch(&queries, &all).unwrap();
    let before = resident_keys(system.shard(0).manager());
    assert!(!before.is_empty());

    let report =
        ModelUpdater::apply(system.shard_mut(0).manager_mut(), UpdateKind::Full, 77).unwrap();
    assert_eq!(report.rows_rewarmed, before.len() as u64);
    assert_eq!(resident_keys(system.shard(0).manager()), before);

    // Every row these queries touch was resident and was re-read, so the
    // replay is all hits, pooled in index order exactly as DRAM pools them:
    // bit-equal to the new image, and nowhere near the old one.
    let sm_reads = system.shard(0).manager().stats().sm_reads;
    system.run_selected_batch(&queries, &all).unwrap();
    assert_eq!(system.shard(0).manager().stats().sm_reads, sm_reads);
    let new = reference_scores(system.shard(0).manager(), Some(77), &queries);
    let old = reference_scores(system.shard(0).manager(), None, &queries);
    for (i, want) in new.iter().enumerate() {
        assert_eq!(system.scores(i), want.as_slice(), "query {i}");
    }
    assert!(
        (0..queries.len()).any(|i| system.scores(i) != old[i].as_slice()),
        "the check cannot tell the two images apart"
    );
}

/// Builds, attaches the pinned plans, warms, updates; returns the system,
/// the report and the resident keys from before the update.
fn faulty_update(
    model: &ModelConfig,
    queries: &[Query],
    retry: RetryConfig,
    plan_for: impl Fn(usize) -> Option<FaultPlan>,
) -> (ServingHost, UpdateReport, Vec<RowKey>) {
    let mut config = SdmConfig::for_tests().with_nand_flash();
    config.cache.pooled_cache_budget = Bytes::ZERO;
    let mut system = single_stream(model, &config, ENGINE_SEED);
    system
        .run_selected_batch(queries, &identity_picks(queries))
        .unwrap();
    let before = resident_keys(system.shard(0).manager());
    attach_plans(&mut system, plan_for);
    let engine = system.shard_mut(0).manager_mut().io_engine_mut();
    let tuned = EngineConfig {
        retry,
        ..engine.config().clone()
    };
    engine.set_config(tuned);
    let report =
        ModelUpdater::apply(system.shard_mut(0).manager_mut(), UpdateKind::Full, 31).unwrap();
    (system, report, before)
}

#[test]
fn the_reread_pays_for_faults_like_any_other_read() {
    let model = long_tables();
    let queries = common::stream(&model, STREAM, 32, 9);
    let plan_for = |d: usize| {
        Some(
            FaultPlan::new(device_seed(0x5d11_0020, d))
                .with_transient_errors(0.05)
                .with_corruption(0.03),
        )
    };
    // Five attempts: at these rates no read of this run exhausts them.
    let retry = RetryConfig {
        max_attempts: 5,
        ..RetryConfig::default()
    };
    let (mut system, report, before) = faulty_update(&model, &queries, retry, plan_for);
    let io = system.shard(0).manager().io_engine().stats().resilience;
    let faults = injected(&system);
    assert!(faults.corruptions > 0 && faults.transient_errors > 0);
    assert_eq!(io.checksum_failures, faults.corruptions);
    assert_eq!(io.transient_errors, faults.transient_errors);
    assert_eq!(io.exhausted, 0);
    assert_eq!(report.rows_rewarmed, before.len() as u64);
    assert_eq!(resident_keys(system.shard(0).manager()), before);

    // No corrupted payload reached the cache: the replay is all hits and
    // bit-equal to the new image.
    system
        .run_selected_batch(&queries, &identity_picks(&queries))
        .unwrap();
    assert_eq!(system.shard(0).manager().stats().degraded_rows, 0);
    let want = reference_scores(system.shard(0).manager(), Some(31), &queries);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(system.scores(i), want.as_slice(), "query {i}");
    }

    // Same seeds, same report — times included.
    let (_, replayed, _) = faulty_update(&model, &queries, retry, plan_for);
    assert_eq!(replayed, report);
}

#[test]
fn a_row_whose_reread_fails_is_absent_not_degraded() {
    let model = long_tables();
    let queries = common::stream(&model, STREAM, 32, 9);
    let plan_for =
        |d: usize| Some(FaultPlan::new(device_seed(0x5d11_0021, d)).with_transient_errors(0.2));
    let one_shot = RetryConfig {
        max_attempts: 1,
        ..RetryConfig::default()
    };
    let (mut system, report, before) = faulty_update(&model, &queries, one_shot, plan_for);
    let exhausted = system
        .shard(0)
        .manager()
        .io_engine()
        .stats()
        .resilience
        .exhausted;
    assert!(exhausted > 0, "the plan failed no re-read");
    let after = resident_keys(system.shard(0).manager());
    assert_eq!(after.len() as u64, report.rows_rewarmed);
    assert!(after.iter().all(|key| before.binary_search(key).is_ok()));
    // Conservation per row: a snapshot row was re-read or its command
    // exhausted its retries, and such a command loses its whole block —
    // one lost block per exhausted command, none of its rows kept.
    let absent: Vec<RowKey> = before
        .iter()
        .filter(|key| after.binary_search(key).is_err())
        .copied()
        .collect();
    assert_eq!(
        report.rows_rewarmed + absent.len() as u64,
        before.len() as u64
    );
    let manager = system.shard(0).manager();
    let (lost, kept) = (blocks_of(manager, &absent), blocks_of(manager, &after));
    assert_eq!(lost.len() as u64, exhausted);
    assert!(lost.iter().all(|block| kept.binary_search(block).is_err()));
    assert_eq!(system.shard(0).manager().stats().degraded_rows, 0);

    // With the device healthy again the missing rows are demand misses like
    // any other (an operator naming one twice misses twice): read from the
    // new image, cached, never served as zeros.
    attach_plans(&mut system, |_| None);
    let sm_reads = system.shard(0).manager().stats().sm_reads;
    system
        .run_selected_batch(&queries, &identity_picks(&queries))
        .unwrap();
    assert!(system.shard(0).manager().stats().sm_reads >= sm_reads + exhausted);
    assert_eq!(system.shard(0).manager().stats().degraded_rows, 0);
    assert_eq!(resident_keys(system.shard(0).manager()), before);
    let want = reference_scores(system.shard(0).manager(), Some(31), &queries);
    for (i, want) in want.iter().enumerate() {
        assert_scores_close(system.scores(i), want, &format!("query {i}"));
    }
}

#[test]
fn the_update_window_lands_in_the_first_batch_and_only_there() {
    let model = long_tables();
    let queries = common::stream(&model, STREAM, 48, 13);
    for config in [
        SdmConfig::for_tests().with_nand_flash(),
        SdmConfig::for_tests()
            .with_nand_flash()
            .with_relaxed_batching(8),
    ] {
        let exact = config.batch_mode == sdm_core::BatchMode::Exact;
        let mut host = single_stream(&model, &config, ENGINE_SEED);
        let all = identity_picks(&queries);
        // Without an update the manager never runs ahead of the shard.
        for batch in all[..32].chunks(8) {
            host.run_selected_batch(&queries, batch).unwrap();
            let shard = host.shard(0);
            assert!(shard.manager().now() <= shard.now());
        }

        let shard = host.shard_mut(0);
        let report = ModelUpdater::apply(shard.manager_mut(), UpdateKind::Full, 4).unwrap();
        assert!(report.rows_rewarmed > 0);
        let window = report.write_time + report.rewarm_time;
        assert_eq!(shard.manager().now(), shard.now() + window);

        let first = host.run_selected_batch(&queries, &all[32..40]).unwrap();
        let makespan = first.virtual_makespan;
        assert!(makespan >= window, "{makespan} < {window}");
        if exact {
            // Serial service: the makespan is the window plus the queries.
            let served = (0..host.len()).map(|i| host.latency(i).total);
            assert_eq!(makespan, window + served.sum::<SimDuration>());
        }
        let shard = host.shard(0);
        assert!(shard.manager().now() <= shard.now());
        let second = host.run_selected_batch(&queries, &all[40..]).unwrap();
        let makespan = second.virtual_makespan;
        assert!(makespan < window, "{makespan} >= {window}");
    }
}

#[test]
fn a_host_update_clears_the_tier_once_and_serves_no_stale_row() {
    let model = model_zoo::tiny(3, 1, 600);
    let queries = common::stream(&model, STREAM, 48, 17);
    // Private slices too small for the hot set, so the tier serves rows the
    // private caches dropped — before and after the update.
    let mut config = SdmConfig::for_tests().with_shared_tier(Bytes::from_mib(2));
    config.cache.row_cache_budget = Bytes::from_kib(24);
    config.cache.pooled_cache_budget = Bytes::ZERO;
    let build =
        || ServingHost::build(&model, &config, ENGINE_SEED, 2, RoutingPolicy::UserSticky).unwrap();
    let (mut host, mut per_shard) = (build(), build());
    let all = identity_picks(&queries);
    for _ in 0..2 {
        host.run_selected_batch(&queries, &all).unwrap();
        per_shard.run_selected_batch(&queries, &all).unwrap();
    }

    let report = host.apply_update(UpdateKind::Full, 55).unwrap();
    let resident: usize = (0..2)
        .map(|s| host.shard(s).manager().row_cache().len())
        .sum();
    assert_eq!(report.rows_rewarmed, resident as u64);
    assert!(report.rewarm_time > SimDuration::ZERO);
    // What the shards re-read was promoted and nothing cleared it since.
    let tier = host.shared_tier().unwrap();
    assert!(tier.len() >= host.shard(0).manager().row_cache().len());
    // The same update shard by shard, as a caller without this entry point
    // would do it: correct too, but each clear drops the earlier re-reads.
    for s in 0..2 {
        let manager = per_shard.shard_mut(s).manager_mut();
        ModelUpdater::apply(manager, UpdateKind::Full, 55).unwrap();
    }

    let tier_hits = host.stats().shared_tier_hits;
    host.run_selected_batch(&queries, &all).unwrap();
    per_shard.run_selected_batch(&queries, &all).unwrap();
    assert!(
        host.stats().shared_tier_hits > tier_hits,
        "the tier level was not exercised after the update"
    );
    let manager = host.shard(0).manager();
    let new = reference_scores(manager, Some(55), &queries);
    let old = reference_scores(manager, None, &queries);
    let mut differs = false;
    for (i, want) in new.iter().enumerate() {
        assert_scores_close(host.scores(i), want, &format!("host query {i}"));
        assert_scores_close(per_shard.scores(i), want, &format!("per-shard query {i}"));
        differs |= host
            .scores(i)
            .iter()
            .zip(&old[i])
            .any(|(a, b)| (a - b).abs() > 1e-3);
    }
    assert!(differs, "the check cannot tell the two images apart");
}
