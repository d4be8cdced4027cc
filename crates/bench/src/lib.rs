//! Shared helpers for the experiment binaries (`exp_*`) and Criterion
//! benches that regenerate the paper's tables and figures.
//!
//! Every binary prints a self-contained report to stdout, with the
//! paper-reported value beside each value it reproduces.
//!
//! # Panic policy
//!
//! The workspace-wide `unwrap_used`/`expect_used` deny applies here too,
//! but the measurement helpers *deliberately* abort on setup or serving
//! failures: every caller is an `exp_*` binary or a Criterion bench where
//! crashing with the failure message is the correct error handling, and
//! threading `Result` through every helper would only obscure what is
//! being measured. Each such function carries a `# Panics` doc section and
//! a local, justified `#[allow(clippy::expect_used)]`; new non-harness
//! code in this crate still has to opt in consciously.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

// Harness crate (crate docs, "Panic policy"): the measurement helpers
// abort on setup/serving failures by design, and the experiment report
// printer writes to stdout — that *is* this crate's output channel.
// sdm-analyze: allow-file(no-unwrap-outside-tests)
// sdm-analyze: allow-file(no-print-in-libs)

use dlrm::{model_zoo, ModelConfig};
use io_engine::RetryConfig;
use scm_device::{DeviceId, FaultPlan, FaultStats};
use sdm_core::{Frontend, FrontendConfig, FrontendReport, SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use sdm_metrics::{LatencyHistogram, SimDuration, SimInstant};
use workload::{
    ArrivalGenerator, ArrivalProcess, Query, QueryGenerator, RoutingPolicy, WorkloadConfig,
};

/// Divisor applied to paper-scale row counts so experiments run in seconds
/// on a development machine. Capacity-derived results always use the
/// unscaled descriptors.
const DEFAULT_CAPACITY_DIVISOR: u64 = 200_000;

/// Divisor applied to MLP widths for the materialised replicas.
const DEFAULT_MLP_DIVISOR: f64 = 40.0;

/// Seed used by all experiments (printed so runs are reproducible).
pub const EXPERIMENT_SEED: u64 = 0x5d_2022;

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
    println!("seed = {EXPERIMENT_SEED:#x}");
}

/// Builds the laptop-scale replica of a paper model.
pub fn scaled(model: &ModelConfig) -> ModelConfig {
    model_zoo::scaled_model(model, DEFAULT_CAPACITY_DIVISOR, DEFAULT_MLP_DIVISOR)
}

/// A default SDM configuration sized for the scaled replicas.
pub fn bench_sdm_config() -> SdmConfig {
    SdmConfig {
        device_capacity: Bytes::from_mib(256),
        fm_budget: Bytes::from_mib(32),
        cache: sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(16)),
        seed: EXPERIMENT_SEED,
        ..SdmConfig::default()
    }
}

/// Builds a full SDM system for a scaled model: one serving stream, which is
/// a 1-shard host.
///
/// # Panics
///
/// Panics when the configuration cannot be built — experiments treat that as
/// a fatal setup error.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn build_system(model: &ModelConfig, config: SdmConfig) -> ServingHost {
    ServingHost::build(
        model,
        &config,
        EXPERIMENT_SEED,
        1,
        RoutingPolicy::UserSticky,
    )
    .expect("failed to build SDM system")
}

/// The selection of every query in `queries`, in stream order: how a whole
/// stream is served through [`ServingHost::run_selected_batch`].
pub fn identity_picks(queries: &[Query]) -> Vec<usize> {
    (0..queries.len()).collect()
}

/// Generates a query stream for a (scaled) model.
///
/// # Panics
///
/// Panics when the workload generator rejects the model (empty table set).
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn queries_for(model: &ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch.min(16),
        user_population: 5_000,
        user_zipf_exponent: 0.8,
        inference_eval: false,
    };
    let mut generator =
        QueryGenerator::new(&model.tables, cfg, seed).expect("workload generation failed");
    generator.generate(count)
}

/// Generates a heavily skewed query stream (small hot user set under a
/// steep Zipf exponent) — the workload shape under which cross-shard row
/// reuse shows up, used by the shared-tier measurements.
///
/// # Panics
///
/// Panics when the workload generator rejects the model (empty table set).
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn skewed_queries_for(model: &ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch.min(16),
        ..WorkloadConfig::skewed(64, 1.1)
    };
    let mut generator =
        QueryGenerator::new(&model.tables, cfg, seed).expect("workload generation failed");
    generator.generate(count)
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One execution mode's cold batch on the virtual clock, as
/// [`measure_batch_modes`] records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeRun {
    /// Batch throughput: queries over the batch makespan.
    pub qps: f64,
    /// Median query latency.
    pub p50_latency: SimDuration,
    /// 99th-percentile query latency.
    pub p99_latency: SimDuration,
    /// Mean device-queue depth seen by the batch's submissions.
    pub mean_queue_depth: f64,
    /// Deepest device queue seen by the batch's submissions.
    pub max_queue_depth: usize,
}

/// Measures the exact-vs-relaxed batch trade-off on the *virtual* clock:
/// one freshly built system per mode runs the same cold query stream, so
/// every number (makespan QPS, p50/p99 latency, observed queue depth) is
/// deterministic and machine-independent. Returns `(exact, relaxed)`.
///
/// # Panics
///
/// Panics when a system cannot be built or a batch fails — experiments
/// treat both as fatal setup errors.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_batch_modes(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    window: usize,
) -> (ModeRun, ModeRun) {
    let run = |cfg: SdmConfig| {
        let mut host = build_system(model, cfg);
        let report = host
            .run_selected_batch(queries, &identity_picks(queries))
            .expect("mode batch failed");
        let shard = host.shard(0);
        let depth = &shard.manager().io_engine().stats().queue_depth;
        ModeRun {
            qps: report.virtual_qps,
            p50_latency: shard.batch_hist().percentile(0.5),
            p99_latency: report.p99_latency,
            mean_queue_depth: depth.mean_depth(),
            max_queue_depth: depth.max_depth,
        }
    };
    (
        run(config.clone()),
        run(config.clone().with_relaxed_batching(window)),
    )
}

/// A host's third batch over one stream, as [`measure_tier`] records it:
/// virtual QPS and the batch's deltas of the shared tier's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierRun {
    /// Batch throughput on the virtual clock.
    pub virtual_qps: f64,
    /// Shared-tier probes that hit.
    pub shared_hits: u64,
    /// Shared-tier probes that missed.
    pub shared_misses: u64,
    /// Hits served by a row another shard promoted.
    pub cross_shard_hits: u64,
}

impl TierRun {
    /// Share of shared-tier probes that hit (0 when the tier was never
    /// probed).
    pub fn hit_rate(&self) -> f64 {
        self.share(self.shared_hits)
    }

    /// Share of shared-tier probes served by a row another shard promoted.
    pub fn cross_shard_hit_rate(&self) -> f64 {
        self.share(self.cross_shard_hits)
    }

    fn share(&self, hits: u64) -> f64 {
        let probes = self.shared_hits + self.shared_misses;
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        }
    }
}

/// Measures a host on the *virtual* clock after warm-up: a `shards`-shard
/// host (user-sticky routing) serves `queries` three times and the third
/// batch is recorded — private caches warmed and, when `config` attaches a
/// shared tier, the tier populated.
///
/// The regime the tier exists for is a private row-cache budget smaller
/// than the hot row set (dividing it across shards shrinks every slice
/// further) with the pooled-embedding cache off, so whole-operator replay
/// cannot mask the row path in the measured batch.
///
/// # Panics
///
/// Panics when a host cannot be built or a batch fails — experiments treat
/// both as fatal setup errors.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_tier(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    shards: usize,
) -> TierRun {
    let mut host = ServingHost::build(
        model,
        config,
        EXPERIMENT_SEED,
        shards,
        RoutingPolicy::UserSticky,
    )
    .expect("failed to build serving host");
    let all = identity_picks(queries);
    host.run_selected_batch(queries, &all)
        .expect("warmup batch failed");
    host.run_selected_batch(queries, &all)
        .expect("warmup batch failed");
    let before = host.stats();
    let run = host
        .run_selected_batch(queries, &all)
        .expect("measured batch failed");
    let stats = host.stats();
    TierRun {
        virtual_qps: run.virtual_qps,
        shared_hits: stats.shared_tier_hits - before.shared_tier_hits,
        shared_misses: stats.shared_tier_misses - before.shared_tier_misses,
        cross_shard_hits: stats.shared_tier_cross_hits - before.shared_tier_cross_hits,
    }
}

/// Measures the open-loop latency-vs-offered-load curve on the *virtual*
/// clock: for each offered rate, a freshly built 1-shard host (cold
/// caches) serves the query stream through a [`Frontend`] fed by seeded
/// Poisson arrivals at that rate. One report per rate, in order; every
/// field is deterministic.
///
/// # Panics
///
/// Panics when a host, front end or generator cannot be built or a batch
/// fails — experiments treat these as fatal setup errors.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_load_curve(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    frontend: &FrontendConfig,
    rates: &[f64],
    arrival_seed: u64,
) -> Vec<FrontendReport> {
    rates
        .iter()
        .map(|&rate| {
            let mut host =
                ServingHost::build(model, config, EXPERIMENT_SEED, 1, RoutingPolicy::UserSticky)
                    .expect("failed to build serving host");
            let mut fe = Frontend::new(*frontend).expect("invalid frontend config");
            let mut arrivals =
                ArrivalGenerator::new(ArrivalProcess::Poisson { rate_qps: rate }, arrival_seed)
                    .expect("invalid arrival process");
            fe.run(&mut host, queries, &mut arrivals)
                .expect("open-loop run failed")
        })
        .collect()
}

/// One fault condition served to completion: its serving and fault
/// ledgers summed over every round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRun {
    /// Queries served over the summed virtual makespan of the rounds.
    pub virtual_qps: f64,
    /// Rows looked up: cache and tier hits, SM reads, pruned and degraded.
    pub row_accesses: u64,
    /// Rows pooled as zeros after every attempt failed.
    pub degraded_rows: u64,
    /// Transient read errors the fault plans injected.
    pub injected_transient: u64,
    /// Bit-flip corruptions the fault plans injected.
    pub injected_corruptions: u64,
    /// Stuck IOs the fault plans injected.
    pub injected_stuck: u64,
    /// Corruptions the end-to-end checksum caught.
    pub detected_corruptions: u64,
    /// Injected corruptions the checksum did not catch.
    pub corrupted_served: u64,
    /// IO retries.
    pub retries: u64,
    /// IOs abandoned at their deadline.
    pub deadline_timeouts: u64,
    /// Hedged duplicate reads issued.
    pub hedges: u64,
    /// Hedges that completed before their primary.
    pub hedge_wins: u64,
    /// Shard-batches routed away from an unhealthy shard.
    pub failovers: u64,
}

/// Everything the fault-resilience measurement produces: one run per
/// condition plus the cross-run gates CI pins.
#[derive(Debug, Clone, Copy)]
pub struct FaultResilienceOutcome {
    /// No fault plans: the baseline every retention compares to.
    pub healthy: FaultRun,
    /// A plan on every device with every rate zero.
    pub empty_plan: FaultRun,
    /// Every fault mode at a low rate under a long latency storm.
    pub storm: FaultRun,
    /// Stuck IOs against a per-IO deadline.
    pub stuck: FaultRun,
    /// One shard's devices mostly failing and massively slowed.
    pub outage: FaultRun,
    /// The hedge delay the faulty conditions ran with, derived from the
    /// healthy run's p99 IO latency (the classic hedged-request recipe).
    pub hedge_after: SimDuration,
    /// Whether two storm runs under the same fault seed produced
    /// bit-identical scores and counters (deterministic replay gate).
    pub replay_identical: bool,
    /// Whether the attached-but-empty-plan run was bit-identical to the
    /// plan-free run (the "resilience compiled in but inert" gate).
    pub empty_plan_identical: bool,
}

impl FaultResilienceOutcome {
    /// Corrupted payloads served across all five conditions — CI pins this
    /// to zero.
    pub fn corrupted_served(&self) -> u64 {
        [
            &self.healthy,
            &self.empty_plan,
            &self.storm,
            &self.stuck,
            &self.outage,
        ]
        .iter()
        .map(|run| run.corrupted_served)
        .sum()
    }
}

/// One fault condition executed to completion: its run plus a bit-exact
/// fingerprint (last batch's scores) for replay comparisons.
struct ConditionRun {
    run: FaultRun,
    scores: Vec<f32>,
    /// p99 of caller-visible IO latency across all shard engines.
    io_p99: SimDuration,
}

/// Runs `rounds` batches of `queries` on a fresh host with `plan_for`
/// attached to every device (`(shard, device) -> plan`), then folds the
/// serving and fault ledgers into one run.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
fn run_fault_condition(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    shards: usize,
    rounds: usize,
    mut plan_for: impl FnMut(usize, usize) -> Option<FaultPlan>,
) -> ConditionRun {
    let mut host = ServingHost::build(
        model,
        config,
        EXPERIMENT_SEED,
        shards,
        RoutingPolicy::UserSticky,
    )
    .expect("failed to build serving host");
    for s in 0..host.shards() {
        let array = host.shard_mut(s).manager_mut().io_engine_mut().array_mut();
        for d in 0..array.len() {
            let plan = plan_for(s, d);
            array
                .device_mut(DeviceId(d))
                .expect("device index in range")
                .set_fault_plan(plan);
        }
    }
    let mut total_makespan = SimDuration::ZERO;
    let mut served = 0u64;
    let all = identity_picks(queries);
    for _ in 0..rounds.max(1) {
        // Injected faults never fail a batch: reads retry, rows degrade to
        // zeros, unhealthy shards are routed around.
        let report = host
            .run_selected_batch(queries, &all)
            .expect("resilience batch failed");
        total_makespan += report.virtual_makespan;
        served += report.queries;
    }
    let stats = host.stats();
    let mut injected = FaultStats::default();
    let mut io_hist = LatencyHistogram::new();
    for s in 0..host.shards() {
        let engine = host.shard(s).manager().io_engine();
        io_hist.merge(&engine.stats().latency);
        for (_, device) in engine.array().iter() {
            if let Some(plan) = device.fault_plan() {
                injected.merge(plan.stats());
            }
        }
    }
    let mut scores = Vec::new();
    for i in 0..host.len() {
        scores.extend_from_slice(host.scores(i));
    }
    let row_accesses = stats.row_cache_hits
        + stats.shared_tier_hits
        + stats.sm_reads
        + stats.pruned_zero_rows
        + stats.degraded_rows;
    ConditionRun {
        run: FaultRun {
            virtual_qps: if total_makespan.is_zero() {
                0.0
            } else {
                served as f64 / total_makespan.as_secs_f64()
            },
            row_accesses,
            degraded_rows: stats.degraded_rows,
            injected_transient: injected.transient_errors,
            injected_corruptions: injected.corruptions,
            injected_stuck: injected.stuck,
            detected_corruptions: stats.io_checksum_failures,
            // Valid wherever every corrupted attempt reaches checksum
            // verification — conditions that inject corruption run with a
            // zero IO deadline, so nothing is abandoned unverified.
            corrupted_served: injected
                .corruptions
                .saturating_sub(stats.io_checksum_failures),
            retries: stats.io_retries,
            deadline_timeouts: stats.io_deadline_timeouts,
            hedges: stats.io_hedges,
            hedge_wins: stats.io_hedge_wins,
            failovers: stats.shard_failovers,
        },
        scores,
        io_p99: io_hist.p99(),
    }
}

/// Per-shard-and-device fault seed: decorrelates device RNG streams while
/// staying a pure function of the run's fault seed.
fn device_fault_seed(fault_seed: u64, shard: usize, device: usize) -> u64 {
    fault_seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (device as u64 + 1)
}

/// Measures end-to-end fault resilience on the *virtual* clock. Five
/// deterministic conditions, each a fresh host serving the same stream:
///
/// * `healthy` — no fault plans; the baseline every retention compares to.
/// * `empty_plan` — a [`FaultPlan`] attached to every device but with all
///   rates zero; must be bit-identical to `healthy` with zero degraded
///   rows (resilience machinery present but inert).
/// * `storm` — transient errors, bit-flip corruption, occasional stuck
///   IOs and a latency-storm window on every device, served with bounded
///   retries and hedged reads (hedge delay = healthy p99 IO latency).
///   Run **twice** under the same fault seed; the runs must be
///   bit-identical (`replay_identical`).
/// * `stuck` — stuck IOs against a per-IO deadline, exercising
///   abandon-and-retry.
/// * `outage` — one shard's devices massively degraded (high transient
///   rate plus a whole-run storm), exercising degraded rows and
///   health-based shard failover.
///
/// # Panics
///
/// Panics when a host cannot be built or a batch fails — experiments
/// treat both as fatal setup errors.
pub fn measure_fault_resilience(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    shards: usize,
    rounds: usize,
    fault_seed: u64,
) -> FaultResilienceOutcome {
    // Healthy and empty-plan runs use the caller's stock engine config
    // (default retry policy), so the empty-plan gate certifies the exact
    // pre-resilience hot path.
    let healthy = run_fault_condition(model, config, queries, shards, rounds, |_, _| None);
    let empty = run_fault_condition(model, config, queries, shards, rounds, |s, d| {
        Some(FaultPlan::new(device_fault_seed(fault_seed, s, d)))
    });
    let empty_plan_identical = empty.scores == healthy.scores
        && empty.run.virtual_qps == healthy.run.virtual_qps
        && empty.run.row_accesses == healthy.run.row_accesses
        && empty.run.retries == healthy.run.retries;
    let hedge_after = healthy.io_p99;

    // Storm: every fault mode at low rate plus a long latency storm.
    // Retries + hedging absorb it; corruption detection must be total.
    let mut storm_cfg = config.clone();
    storm_cfg.io.retry = RetryConfig {
        max_attempts: 4,
        hedge_after: Some(hedge_after),
        ..RetryConfig::default()
    };
    let storm_end = SimInstant::EPOCH + SimDuration::from_secs(3600);
    let stuck_latency = hedge_after.max(SimDuration::from_micros(1)) * 50;
    let storm_plan = |seed_base: u64| {
        move |s: usize, d: usize| {
            Some(
                FaultPlan::new(device_fault_seed(seed_base, s, d))
                    .with_transient_errors(0.05)
                    .with_corruption(0.02)
                    .with_stuck(0.01, stuck_latency)
                    .with_storm(SimInstant::EPOCH, storm_end, 6.0),
            )
        }
    };
    let storm = run_fault_condition(
        model,
        &storm_cfg,
        queries,
        shards,
        rounds,
        storm_plan(fault_seed),
    );
    let storm_replay = run_fault_condition(
        model,
        &storm_cfg,
        queries,
        shards,
        rounds,
        storm_plan(fault_seed),
    );
    let replay_identical = storm.run == storm_replay.run && storm.scores == storm_replay.scores;

    // Stuck: hung IOs against a per-IO deadline (abandon and retry).
    let mut stuck_cfg = config.clone();
    stuck_cfg.io.retry = RetryConfig {
        max_attempts: 4,
        io_deadline: hedge_after.max(SimDuration::from_micros(1)) * 4,
        ..RetryConfig::default()
    };
    let stuck = run_fault_condition(model, &stuck_cfg, queries, shards, rounds, |s, d| {
        Some(FaultPlan::new(device_fault_seed(fault_seed, s, d)).with_stuck(0.03, stuck_latency))
    });

    // Outage: one shard's devices mostly failing and massively slowed —
    // rows degrade to zeros and the host routes batches away from it.
    let outage_shard = shards.saturating_sub(1);
    let outage = run_fault_condition(model, config, queries, shards, rounds, |s, d| {
        (s == outage_shard).then(|| {
            FaultPlan::new(device_fault_seed(fault_seed, s, d))
                .with_transient_errors(0.5)
                .with_storm(SimInstant::EPOCH, storm_end, 20.0)
        })
    });

    FaultResilienceOutcome {
        healthy: healthy.run,
        empty_plan: empty.run,
        storm: storm.run,
        stuck: stuck.run,
        outage: outage.run,
        hedge_after,
        replay_identical,
        empty_plan_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_models_build_quickly_and_small() {
        let m1 = scaled(&model_zoo::m1());
        assert!(m1.embedding_capacity() < Bytes::from_mib(8));
        assert_eq!(m1.tables.len(), model_zoo::m1().tables.len());
    }

    #[test]
    fn build_system_and_run_one_query() {
        let model = scaled(&model_zoo::m1());
        let mut host = build_system(&model, bench_sdm_config());
        let queries = queries_for(&model, 1, 1);
        let report = host
            .run_selected_batch(&queries, &identity_picks(&queries))
            .unwrap();
        assert_eq!(report.queries, 1);
        assert!(!host.scores(0).is_empty());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.205), "20.5%");
    }

    #[test]
    fn measure_batch_modes_shows_the_overlap_trade_off() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = queries_for(&model, 32, 9);
        let (exact, relaxed) = measure_batch_modes(&model, &SdmConfig::for_tests(), &queries, 8);
        assert!(exact.qps > 0.0);
        assert!(relaxed.qps >= exact.qps);
        assert!(relaxed.mean_queue_depth > exact.mean_queue_depth);
    }

    #[test]
    fn measure_tier_shows_cross_shard_reuse() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = skewed_queries_for(&model, 48, 11);
        // The tier's regime: private row caches too small for the hot set
        // (so private misses persist in steady state) and the pooled cache
        // off (so whole-operator replay cannot mask the row path).
        let mut config = SdmConfig::for_tests();
        config.cache.row_cache_budget = Bytes::from_kib(16);
        config.cache.pooled_cache_budget = Bytes::ZERO;
        let off = measure_tier(&model, &config, &queries, 2);
        let on = measure_tier(
            &model,
            &config.clone().with_shared_tier(Bytes::from_mib(2)),
            &queries,
            2,
        );
        assert_eq!(off.shared_hits, 0, "tier-off runs never probe the tier");
        assert_eq!(off.hit_rate(), 0.0);
        assert!(on.shared_hits > 0);
        assert!(on.cross_shard_hit_rate() > 0.0);
        assert!(on.virtual_qps >= off.virtual_qps);
    }

    #[test]
    fn measure_fault_resilience_gates_hold_on_a_tiny_model() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = queries_for(&model, 24, 7);
        let out = measure_fault_resilience(&model, &SdmConfig::for_tests(), &queries, 2, 6, 42);
        assert!(out.empty_plan_identical, "empty plan must be inert");
        assert_eq!(out.empty_plan.degraded_rows, 0);
        assert!(
            out.replay_identical,
            "same seed must replay bit-identically"
        );
        let healthy = out.healthy;
        assert!(healthy.virtual_qps > 0.0);
        let injected =
            |r: &FaultRun| r.injected_transient + r.injected_corruptions + r.injected_stuck;
        assert_eq!(injected(&healthy), 0);
        assert_eq!(healthy.degraded_rows, 0);
        let storm = out.storm;
        assert!(injected(&storm) > 0, "storm must inject faults");
        assert_eq!(
            storm.detected_corruptions, storm.injected_corruptions,
            "checksums must catch every injected flip: {storm:?}"
        );
        assert_eq!(out.corrupted_served(), 0);
        assert!(storm.retries > 0);
        let retention = storm.virtual_qps / healthy.virtual_qps;
        assert!(retention > 0.0 && retention < 1.0, "retention {retention}");
        assert!(
            out.stuck.deadline_timeouts > 0,
            "deadline must abandon stuck IOs"
        );
        let outage = out.outage;
        assert!(
            outage.degraded_rows > 0,
            "outage must degrade rows: {outage:?}"
        );
        assert!(
            outage.failovers > 0,
            "outage must trigger failover: {outage:?}"
        );
    }
}
