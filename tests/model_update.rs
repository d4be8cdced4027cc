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
//! * **The re-read is an ordinary read** — under a pinned-seed `FaultPlan`
//!   every injected corruption is detected, nothing is served degraded, a
//!   row whose re-read exhausts its retries is simply absent (a later
//!   demand miss reads it), and one seed replays to an equal `UpdateReport`.
//! * **The window is on the clock** — the first batch after an update
//!   carries `write_time + rewarm_time` in its makespan, the next does not,
//!   and without an update the manager's clock never runs ahead of the
//!   shard's, which is what makes the shard's clock raise an identity on
//!   every workload that does not update.

use dlrm::{model_zoo, ComputeModel, DramBackend, InferenceEngine, ModelConfig};
use embedding::EmbeddingTable;
use io_engine::{EngineConfig, RetryConfig};
use scm_device::{DeviceId, FaultPlan, FaultStats};
use sdm_cache::{RowCache, RowKey};
use sdm_core::{
    ModelUpdater, SdmConfig, SdmMemoryManager, ServingHost, Shard, UpdateKind, UpdateReport,
};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use workload::{Query, QueryGenerator, RoutingPolicy, WorkloadConfig};

const ENGINE_SEED: u64 = 23;

fn queries_for(model: &ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch,
        user_population: 40,
        ..WorkloadConfig::default()
    };
    QueryGenerator::new(&model.tables, cfg, seed)
        .unwrap()
        .generate(count)
}

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
    let score = |q| {
        engine
            .execute(q, &mut dram, SimInstant::EPOCH)
            .unwrap()
            .scores
    };
    queries.iter().map(score).collect()
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

/// The privately cached rows, in key order.
fn resident_keys(manager: &SdmMemoryManager) -> Vec<RowKey> {
    let mut rows = Vec::new();
    manager.row_cache().append_resident_lru_first(&mut rows);
    let mut keys: Vec<RowKey> = rows.into_iter().map(|(_, key)| key).collect();
    keys.sort_unstable();
    keys
}

fn attach_plans(system: &mut Shard, mut plan_for: impl FnMut(usize) -> Option<FaultPlan>) {
    let array = system.manager_mut().io_engine_mut().array_mut();
    for d in 0..array.len() {
        let plan = plan_for(d);
        array.device_mut(DeviceId(d)).unwrap().set_fault_plan(plan);
    }
}

fn injected(system: &Shard) -> FaultStats {
    let mut total = FaultStats::default();
    for (_, device) in system.manager().io_engine().array().iter() {
        if let Some(plan) = device.fault_plan() {
            total.merge(plan.stats());
        }
    }
    total
}

fn device_seed(fault_seed: u64, device: usize) -> u64 {
    fault_seed ^ (device as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[test]
fn every_row_served_after_an_update_comes_from_the_new_image() {
    let model = model_zoo::tiny(3, 1, 500);
    let queries = queries_for(&model, 24, 5);
    let mut system = Shard::build(&model, SdmConfig::for_tests(), ENGINE_SEED).unwrap();
    system.run_batch(&queries).unwrap();
    let before = resident_keys(system.manager());
    assert!(!before.is_empty());

    let report = ModelUpdater::apply(system.manager_mut(), UpdateKind::Full, 77).unwrap();
    assert_eq!(report.rows_rewarmed, before.len() as u64);
    assert_eq!(resident_keys(system.manager()), before);

    // Every row these queries touch was resident and was re-read, so the
    // replay is all hits, pooled in index order exactly as DRAM pools them:
    // bit-equal to the new image, and nowhere near the old one.
    let sm_reads = system.manager().stats().sm_reads;
    system.run_batch(&queries).unwrap();
    assert_eq!(system.manager().stats().sm_reads, sm_reads);
    let new = reference_scores(system.manager(), Some(77), &queries);
    let old = reference_scores(system.manager(), None, &queries);
    for (i, want) in new.iter().enumerate() {
        assert_eq!(system.batch_scores(i), want.as_slice(), "query {i}");
    }
    assert!(
        (0..queries.len()).any(|i| system.batch_scores(i) != old[i].as_slice()),
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
) -> (Shard, UpdateReport, Vec<RowKey>) {
    let mut config = SdmConfig::for_tests().with_nand_flash();
    config.cache.pooled_cache_budget = Bytes::ZERO;
    let mut system = Shard::build(model, config, ENGINE_SEED).unwrap();
    system.run_batch(queries).unwrap();
    let before = resident_keys(system.manager());
    attach_plans(&mut system, plan_for);
    let engine = system.manager_mut().io_engine_mut();
    let tuned = EngineConfig {
        retry,
        ..engine.config().clone()
    };
    engine.set_config(tuned);
    let report = ModelUpdater::apply(system.manager_mut(), UpdateKind::Full, 31).unwrap();
    (system, report, before)
}

#[test]
fn the_reread_pays_for_faults_like_any_other_read() {
    let model = model_zoo::tiny(3, 1, 600);
    let queries = queries_for(&model, 32, 9);
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
    let io = system.manager().io_engine().stats().resilience;
    let faults = injected(&system);
    assert!(faults.corruptions > 0 && faults.transient_errors > 0);
    assert_eq!(io.checksum_failures, faults.corruptions);
    assert_eq!(io.transient_errors, faults.transient_errors);
    assert_eq!(io.exhausted, 0);
    assert_eq!(report.rows_rewarmed, before.len() as u64);
    assert_eq!(resident_keys(system.manager()), before);

    // No corrupted payload reached the cache: the replay is all hits and
    // bit-equal to the new image.
    system.run_batch(&queries).unwrap();
    assert_eq!(system.manager().stats().degraded_rows, 0);
    let want = reference_scores(system.manager(), Some(31), &queries);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(system.batch_scores(i), want.as_slice(), "query {i}");
    }

    // Same seeds, same report — times included.
    let (_, replayed, _) = faulty_update(&model, &queries, retry, plan_for);
    assert_eq!(replayed, report);
}

#[test]
fn a_row_whose_reread_fails_is_absent_not_degraded() {
    let model = model_zoo::tiny(3, 1, 600);
    let queries = queries_for(&model, 32, 9);
    let plan_for =
        |d: usize| Some(FaultPlan::new(device_seed(0x5d11_0021, d)).with_transient_errors(0.2));
    let one_shot = RetryConfig {
        max_attempts: 1,
        ..RetryConfig::default()
    };
    let (mut system, report, before) = faulty_update(&model, &queries, one_shot, plan_for);
    let exhausted = system.manager().io_engine().stats().resilience.exhausted;
    assert!(exhausted > 0, "the plan failed no re-read");
    assert_eq!(report.rows_rewarmed + exhausted, before.len() as u64);
    let after = resident_keys(system.manager());
    assert_eq!(after.len() as u64, report.rows_rewarmed);
    assert!(after.iter().all(|key| before.binary_search(key).is_ok()));
    assert_eq!(system.manager().stats().degraded_rows, 0);

    // With the device healthy again the missing rows are demand misses like
    // any other (an operator naming one twice misses twice): read from the
    // new image, cached, never served as zeros.
    attach_plans(&mut system, |_| None);
    let sm_reads = system.manager().stats().sm_reads;
    system.run_batch(&queries).unwrap();
    assert!(system.manager().stats().sm_reads >= sm_reads + exhausted);
    assert_eq!(system.manager().stats().degraded_rows, 0);
    assert_eq!(resident_keys(system.manager()), before);
    let want = reference_scores(system.manager(), Some(31), &queries);
    for (i, want) in want.iter().enumerate() {
        assert_scores_close(system.batch_scores(i), want, &format!("query {i}"));
    }
}

#[test]
fn the_update_window_lands_in_the_first_batch_and_only_there() {
    let model = model_zoo::tiny(3, 1, 600);
    let queries = queries_for(&model, 48, 13);
    for config in [
        SdmConfig::for_tests().with_nand_flash(),
        SdmConfig::for_tests()
            .with_nand_flash()
            .with_relaxed_batching(8),
    ] {
        let exact = config.batch_mode == sdm_core::BatchMode::Exact;
        let mut shard = Shard::build(&model, config, ENGINE_SEED).unwrap();
        // Without an update the manager never runs ahead of the shard.
        for batch in queries[..32].chunks(8) {
            shard.run_batch(batch).unwrap();
            assert!(shard.manager().now() <= shard.now());
        }

        let report = ModelUpdater::apply(shard.manager_mut(), UpdateKind::Full, 4).unwrap();
        assert!(report.rows_rewarmed > 0);
        let window = report.write_time + report.rewarm_time;
        assert_eq!(shard.manager().now(), shard.now() + window);

        let first = shard.run_batch(&queries[32..40]).unwrap();
        assert!(first.makespan >= window, "{} < {window}", first.makespan);
        if exact {
            // Serial service: the makespan is the window plus the queries.
            let served = (0..shard.batch_len()).map(|i| shard.batch_latency(i).total);
            assert_eq!(first.makespan, window + served.sum::<SimDuration>());
        }
        assert!(shard.manager().now() <= shard.now());
        let second = shard.run_batch(&queries[40..]).unwrap();
        assert!(second.makespan < window, "{} >= {window}", second.makespan);
    }
}

#[test]
fn a_host_update_clears_the_tier_once_and_serves_no_stale_row() {
    let model = model_zoo::tiny(3, 1, 600);
    let queries = queries_for(&model, 48, 17);
    // Private slices too small for the hot set, so the tier serves rows the
    // private caches dropped — before and after the update.
    let mut config = SdmConfig::for_tests().with_shared_tier(Bytes::from_mib(2));
    config.cache.row_cache_budget = Bytes::from_kib(24);
    config.cache.pooled_cache_budget = Bytes::ZERO;
    let build =
        || ServingHost::build(&model, &config, ENGINE_SEED, 2, RoutingPolicy::UserSticky).unwrap();
    let (mut host, mut per_shard) = (build(), build());
    for _ in 0..2 {
        host.run_batch(&queries).unwrap();
        per_shard.run_batch(&queries).unwrap();
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
    host.run_batch(&queries).unwrap();
    per_shard.run_batch(&queries).unwrap();
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
