//! Shared helpers for the experiment binaries (`exp_*`) and Criterion
//! benches that regenerate the paper's tables and figures.
//!
//! Every binary prints a self-contained report to stdout; EXPERIMENTS.md
//! records the paper-reported values next to the values these binaries
//! produce.
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
use sdm_core::{Frontend, FrontendConfig, SdmConfig, ServingHost, Shard};
use sdm_metrics::units::Bytes;
use sdm_metrics::{
    BatchModeMeasurement, BatchModeReport, CachePolicyMeasurement, CachePolicyReport,
    LatencyHistogram, LoadCurveReport, MultiStreamReport, ResilienceMeasurement, ResilienceReport,
    SharedTierMeasurement, SharedTierReport, SimDuration, SimInstant,
};
use workload::{
    ArrivalGenerator, ArrivalProcess, Query, QueryGenerator, RoutingPolicy, WorkloadConfig,
};

/// Divisor applied to paper-scale row counts so experiments run in seconds
/// on a development machine. Capacity-derived results always use the
/// unscaled descriptors.
pub const DEFAULT_CAPACITY_DIVISOR: u64 = 200_000;

/// Divisor applied to MLP widths for the materialised replicas.
pub const DEFAULT_MLP_DIVISOR: f64 = 40.0;

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

/// Builds a full SDM system for a scaled model.
///
/// # Panics
///
/// Panics when the configuration cannot be built — experiments treat that as
/// a fatal setup error.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn build_system(model: &ModelConfig, config: SdmConfig) -> Shard {
    Shard::build(model, config, EXPERIMENT_SEED).expect("failed to build SDM system")
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

/// Measures wall-clock multi-stream throughput: for each entry of
/// `stream_counts`, builds a [`ServingHost`] with that many shards
/// (user-sticky routing, evenly divided budgets), warms it on the full
/// stream, then records the median-wall-clock round of `rounds` repeated
/// `run_batch` calls into a [`MultiStreamReport`].
///
/// The median (rather than the minimum) keeps scheduler jitter out of the
/// scaling ratios without hiding the real cost of thread coordination.
///
/// # Panics
///
/// Panics when a host cannot be built or a batch fails — experiments treat
/// both as fatal setup errors.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_streams(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    stream_counts: &[usize],
    rounds: usize,
) -> MultiStreamReport {
    let rounds = rounds.max(1);
    let mut report = MultiStreamReport::new();
    for &streams in stream_counts {
        let mut host = ServingHost::build(
            model,
            config,
            EXPERIMENT_SEED,
            streams,
            RoutingPolicy::UserSticky,
        )
        .expect("failed to build serving host");
        // Warm caches, scratch capacity and the partition buffers.
        host.run_batch(queries).expect("warmup batch failed");
        host.run_batch(queries).expect("warmup batch failed");
        let mut runs: Vec<sdm_core::HostReport> = (0..rounds)
            .map(|_| host.run_batch(queries).expect("measured batch failed"))
            .collect();
        runs.sort_by(|a, b| f64::total_cmp(&a.wall_seconds, &b.wall_seconds));
        report.record(runs[runs.len() / 2].measurement());
    }
    report
}

/// Measures the exact-vs-relaxed batch trade-off on the *virtual* clock:
/// one freshly built system per mode runs the same cold query stream, so
/// every number (makespan QPS, p50/p99 latency, observed queue depth) is
/// deterministic and machine-independent — which is what lets CI gate on
/// them numerically.
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
) -> BatchModeReport {
    let mut report = BatchModeReport::new();
    for relaxed in [false, true] {
        let cfg = if relaxed {
            config.clone().with_relaxed_batching(window)
        } else {
            config.clone()
        };
        let mut system =
            Shard::build(model, cfg, EXPERIMENT_SEED).expect("failed to build SDM system");
        let qps = system.run_batch(queries).expect("mode batch failed");
        let depth = &system.manager().io_engine().stats().queue_depth;
        let m = BatchModeMeasurement {
            queries: qps.queries,
            makespan: qps.makespan,
            p50_latency: system.batch_hist().percentile(0.5),
            p99_latency: qps.p99_latency,
            mean_queue_depth: depth.mean_depth(),
            max_queue_depth: depth.max_depth,
        };
        if relaxed {
            report.record_relaxed(m);
        } else {
            report.record_exact(m);
        }
    }
    report
}

/// Measures the shared-tier trade-off on the *virtual* clock: for each
/// shard count, a tier-off and a tier-on host (identical seeds and routing)
/// serve the same skewed stream, and the third batch — private caches
/// warmed, tier populated — is recorded. Reported counters are the
/// measured batch's deltas, not cumulative totals.
///
/// `config` should model the regime the tier exists for: a private
/// row-cache budget *smaller than the hot row set* (dividing it across
/// shards shrinks every slice further) and the pooled-embedding cache
/// disabled, so the row path stays live in the measured batch instead of
/// being short-circuited by whole-operator replay. In that regime the
/// measured batch is deterministic: private miss patterns are per-shard
/// LRU state, and the tier — sized by `tier_budget` to hold the hot set at
/// the host level — serves every probe, turning what would be repeated SM
/// reads (tier off) into sub-microsecond DRAM hits (tier on).
///
/// # Panics
///
/// Panics when a host cannot be built or a batch fails — experiments treat
/// both as fatal setup errors.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_shared_tier(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    shard_counts: &[usize],
    tier_budget: Bytes,
) -> SharedTierReport {
    let mut report = SharedTierReport::new();
    for &shards in shard_counts {
        for enabled in [false, true] {
            let cfg = if enabled {
                config.clone().with_shared_tier(tier_budget)
            } else {
                config.clone()
            };
            let mut host = ServingHost::build(
                model,
                &cfg,
                EXPERIMENT_SEED,
                shards,
                RoutingPolicy::UserSticky,
            )
            .expect("failed to build serving host");
            // Two warmup batches settle the private LRU states and (when
            // enabled) promote the stream's hot rows into the shared tier.
            host.run_batch(queries).expect("warmup batch failed");
            host.run_batch(queries).expect("warmup batch failed");
            let before = host.stats();
            let run = host.run_batch(queries).expect("measured batch failed");
            let stats = host.stats();
            report.record(SharedTierMeasurement {
                shards,
                enabled,
                queries: run.queries,
                virtual_qps: run.virtual_qps,
                shared_hits: stats.shared_tier_hits - before.shared_tier_hits,
                shared_misses: stats.shared_tier_misses - before.shared_tier_misses,
                cross_shard_hits: stats.shared_tier_cross_hits - before.shared_tier_cross_hits,
                promotions: stats.shared_tier_promotions - before.shared_tier_promotions,
            });
        }
    }
    report
}

/// Measures the admission-policy A/B on the *virtual* clock: for each
/// shard count, one host per [`sdm_cache::TierAdmission`] policy (identical
/// seeds and routing) serves the same skewed stream through a *capacity
/// constrained* shared tier, and the third batch — private caches warmed,
/// tier populated and churning — is recorded. Reported counters are the
/// measured batch's deltas, not cumulative totals.
///
/// Unlike [`measure_shared_tier`], `tier_budget` here should be *smaller
/// than the stream's hot row set*, so the tier's LRU actually evicts and
/// the admission policy has something to decide: under always-admit every
/// single-touch tail row displaces resident head rows, while the
/// second-touch doorkeeper turns those promotions away (the
/// `admission_denied` delta) and keeps the head resident.
///
/// # Panics
///
/// Panics when a host cannot be built, a batch fails, or the configured
/// tier budget is zero — experiments treat these as fatal setup errors.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_cache_policies(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    shard_counts: &[usize],
    tier_budget: Bytes,
) -> CachePolicyReport {
    use sdm_cache::TierAdmission;
    assert!(!tier_budget.is_zero(), "cache-policy lab needs a live tier");
    let mut report = CachePolicyReport::new();
    for &shards in shard_counts {
        for (admission, policy) in [
            (TierAdmission::Always, "always_admit"),
            (TierAdmission::SecondTouch, "second_touch"),
        ] {
            let cfg = config
                .clone()
                .with_shared_tier(tier_budget)
                .with_shared_tier_admission(admission);
            let mut host = ServingHost::build(
                model,
                &cfg,
                EXPERIMENT_SEED,
                shards,
                RoutingPolicy::UserSticky,
            )
            .expect("failed to build serving host");
            // Two warmup batches settle the private LRU states and let the
            // doorkeeper see every hot row at least twice; the constrained
            // tier keeps evicting, so the measured batch still exercises
            // admission on every promotion attempt.
            host.run_batch(queries).expect("warmup batch failed");
            host.run_batch(queries).expect("warmup batch failed");
            let before = host.stats();
            let denied_before = host
                .shared_tier()
                .expect("cache-policy lab host has a shared tier")
                .admission_denied();
            let run = host.run_batch(queries).expect("measured batch failed");
            let stats = host.stats();
            let denied_after = host
                .shared_tier()
                .expect("cache-policy lab host has a shared tier")
                .admission_denied();
            report.record(CachePolicyMeasurement {
                shards,
                policy,
                queries: run.queries,
                virtual_qps: run.virtual_qps,
                shared_hits: stats.shared_tier_hits - before.shared_tier_hits,
                shared_misses: stats.shared_tier_misses - before.shared_tier_misses,
                promotions: stats.shared_tier_promotions - before.shared_tier_promotions,
                admission_denied: denied_after - denied_before,
            });
        }
    }
    report
}

/// Measures the open-loop latency-vs-offered-load curve on the *virtual*
/// clock: for each offered rate, a freshly built 1-shard host (cold
/// caches, same stream capacity regime as the batch-mode measurement)
/// serves the query stream through a [`Frontend`] fed by seeded Poisson
/// arrivals at that rate. Every recorded point — p50/p99, shed rate,
/// served QPS — is deterministic, so CI gates on curve-shape invariants.
///
/// Rates should be passed in increasing order so
/// [`LoadCurveReport::p99_monotone`] checks the intended shape.
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
) -> LoadCurveReport {
    let mut report = LoadCurveReport::new();
    for &rate in rates {
        let mut host =
            ServingHost::build(model, config, EXPERIMENT_SEED, 1, RoutingPolicy::UserSticky)
                .expect("failed to build serving host");
        let mut fe = Frontend::new(*frontend).expect("invalid frontend config");
        let mut arrivals =
            ArrivalGenerator::new(ArrivalProcess::Poisson { rate_qps: rate }, arrival_seed)
                .expect("invalid arrival process");
        let run = fe
            .run(&mut host, queries, &mut arrivals)
            .expect("open-loop run failed");
        report.record(run.load_point(rate));
    }
    report
}

/// Everything the fault-resilience measurement produces: the
/// per-condition [`ResilienceReport`] plus the cross-run gates CI pins.
#[derive(Debug, Clone)]
pub struct FaultResilienceOutcome {
    /// Per-condition measurements (`healthy`, `empty_plan`, `storm`,
    /// `stuck`, `outage`).
    pub report: ResilienceReport,
    /// The hedge delay the faulty conditions ran with, derived from the
    /// healthy run's p99 IO latency (the classic hedged-request recipe).
    pub hedge_after: SimDuration,
    /// Whether two storm runs under the same fault seed produced
    /// bit-identical scores and counters (deterministic replay gate).
    pub replay_identical: bool,
    /// Whether the attached-but-empty-plan run was bit-identical to the
    /// plan-free run (the "resilience compiled in but inert" gate).
    pub empty_plan_identical: bool,
    /// Degraded rows of the empty-plan run — CI pins this to zero.
    pub empty_plan_degraded_rows: u64,
}

/// One fault condition executed to completion: its measurement plus a
/// bit-exact fingerprint (last batch's scores) for replay comparisons.
struct ConditionRun {
    measurement: ResilienceMeasurement,
    scores: Vec<f32>,
    /// p99 of caller-visible IO latency across all shard engines.
    io_p99: SimDuration,
}

/// Runs `rounds` batches of `queries` on a fresh host with `plan_for`
/// attached to every device (`(shard, device) -> plan`), then folds the
/// serving and fault ledgers into one measurement.
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
fn run_fault_condition(
    label: &str,
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
    for _ in 0..rounds.max(1) {
        // Injected faults never fail a batch: reads retry, rows degrade to
        // zeros, unhealthy shards are routed around.
        let report = host.run_batch(queries).expect("resilience batch failed");
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
        measurement: ResilienceMeasurement {
            label: label.to_string(),
            queries: served,
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
// Harness policy: a fatal setup/serving error aborts the experiment
// with the message below (crate docs, "Panic policy").
#[allow(clippy::expect_used)]
pub fn measure_fault_resilience(
    model: &ModelConfig,
    config: &SdmConfig,
    queries: &[Query],
    shards: usize,
    rounds: usize,
    fault_seed: u64,
) -> FaultResilienceOutcome {
    let mut report = ResilienceReport::new();

    // Healthy and empty-plan runs use the caller's stock engine config
    // (default retry policy), so the empty-plan gate certifies the exact
    // pre-resilience hot path.
    let healthy = run_fault_condition("healthy", model, config, queries, shards, rounds, |_, _| {
        None
    });
    let empty = run_fault_condition(
        "empty_plan",
        model,
        config,
        queries,
        shards,
        rounds,
        |s, d| Some(FaultPlan::new(device_fault_seed(fault_seed, s, d))),
    );
    let empty_plan_identical = empty.scores == healthy.scores
        && empty.measurement.virtual_qps == healthy.measurement.virtual_qps
        && empty.measurement.row_accesses == healthy.measurement.row_accesses
        && empty.measurement.retries == healthy.measurement.retries;
    let empty_plan_degraded_rows = empty.measurement.degraded_rows;
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
        "storm",
        model,
        &storm_cfg,
        queries,
        shards,
        rounds,
        storm_plan(fault_seed),
    );
    let storm_replay = run_fault_condition(
        "storm",
        model,
        &storm_cfg,
        queries,
        shards,
        rounds,
        storm_plan(fault_seed),
    );
    let replay_identical =
        storm.measurement == storm_replay.measurement && storm.scores == storm_replay.scores;

    // Stuck: hung IOs against a per-IO deadline (abandon and retry).
    let mut stuck_cfg = config.clone();
    stuck_cfg.io.retry = RetryConfig {
        max_attempts: 4,
        io_deadline: hedge_after.max(SimDuration::from_micros(1)) * 4,
        ..RetryConfig::default()
    };
    let stuck = run_fault_condition(
        "stuck",
        model,
        &stuck_cfg,
        queries,
        shards,
        rounds,
        |s, d| {
            Some(
                FaultPlan::new(device_fault_seed(fault_seed, s, d)).with_stuck(0.03, stuck_latency),
            )
        },
    );

    // Outage: one shard's devices mostly failing and massively slowed —
    // rows degrade to zeros and the host routes batches away from it.
    let outage_shard = shards.saturating_sub(1);
    let outage = run_fault_condition("outage", model, config, queries, shards, rounds, |s, d| {
        (s == outage_shard).then(|| {
            FaultPlan::new(device_fault_seed(fault_seed, s, d))
                .with_transient_errors(0.5)
                .with_storm(SimInstant::EPOCH, storm_end, 20.0)
        })
    });

    report.record(healthy.measurement);
    report.record(empty.measurement);
    report.record(storm.measurement);
    report.record(stuck.measurement);
    report.record(outage.measurement);
    FaultResilienceOutcome {
        report,
        hedge_after,
        replay_identical,
        empty_plan_identical,
        empty_plan_degraded_rows,
    }
}

/// Extracts the numeric value of `"field":` inside the object introduced by
/// `"section":` from a `BENCH_*.json` document (the hand-rolled emitter's
/// format: flat single-level section objects; no JSON crate is vendored).
/// Returns `None` when either key is missing from that section or the
/// value does not parse — a field that only exists in a *later* section is
/// not silently substituted.
pub fn json_field(text: &str, section: &str, field: &str) -> Option<f64> {
    let sec = format!("\"{section}\":");
    let start = text.find(&sec)? + sec.len();
    let scoped = &text[start..];
    // Bound the search to the section's own object.
    let scoped = &scoped[..scoped.find('}').unwrap_or(scoped.len())];
    let key = format!("\"{field}\":");
    let at = scoped.find(&key)? + key.len();
    let rest = scoped[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Deterministic quantised rows for the pooling benchmarks (`pf` rows of
/// `dim` elements), shared by `pooling_bench` and `exp_hotpath` so both
/// measure the same inputs.
pub fn bench_quantized_rows(pf: usize, dim: usize, scheme: embedding::QuantScheme) -> Vec<Vec<u8>> {
    (0..pf)
        .map(|i| {
            let values: Vec<f32> = (0..dim).map(|j| ((i * j) as f32).sin()).collect();
            embedding::quantize_row(&values, scheme)
        })
        .collect()
}

/// The seed pooling path, byte for byte: per-row dequantise into a fresh
/// `Vec<f32>`, then a second pass summing into a freshly allocated output.
/// Kept as the baseline the slice-based hot path is measured against.
///
/// # Panics
///
/// Panics on malformed row buffers — benchmark inputs are trusted.
// Harness policy: malformed benchmark rows abort the experiment (crate
// docs, "Panic policy").
#[allow(clippy::unwrap_used)]
pub fn pool_seed_style(rows: &[&[u8]], scheme: embedding::QuantScheme, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    for &raw in rows {
        let values = embedding::dequantize_row(raw, scheme, dim).unwrap();
        for (o, v) in out.iter_mut().zip(&values) {
            *o += *v;
        }
    }
    out
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
        let mut system = build_system(&model, bench_sdm_config());
        let queries = queries_for(&model, 1, 1);
        let result = system.run_query(&queries[0]).unwrap();
        assert!(!result.scores.is_empty());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.205), "20.5%");
    }

    #[test]
    fn json_field_scopes_to_section() {
        let doc = r#"{
  "batch": {
    "model": "M1-scaled",
    "run_batch_qps": 1916.6
  },
  "batch_light": {
    "run_batch_qps": 61945.5
  },
  "multi_stream": {
    "host_cores": 4,
    "qps_streams_1": 1528.9
  }
}"#;
        assert_eq!(json_field(doc, "batch", "run_batch_qps"), Some(1916.6));
        assert_eq!(
            json_field(doc, "batch_light", "run_batch_qps"),
            Some(61945.5)
        );
        assert_eq!(json_field(doc, "multi_stream", "host_cores"), Some(4.0));
        assert_eq!(json_field(doc, "multi_stream", "missing"), None);
        assert_eq!(json_field(doc, "missing", "run_batch_qps"), None);
        // A field absent from the named section must not resolve to a
        // same-named field of a later section.
        assert_eq!(json_field(doc, "batch", "qps_streams_1"), None);
        assert_eq!(json_field(doc, "batch", "host_cores"), None);
    }

    #[test]
    fn measure_batch_modes_shows_the_overlap_trade_off() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = queries_for(&model, 32, 9);
        let report = measure_batch_modes(&model, &SdmConfig::for_tests(), &queries, 8);
        assert!(report.is_complete());
        assert!(report.qps_gain().unwrap() >= 1.0);
        assert!(report.depth_gain().unwrap() > 1.0);
        assert_eq!(report.exact().unwrap().queries, 32);
    }

    #[test]
    fn measure_shared_tier_shows_cross_shard_reuse() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = skewed_queries_for(&model, 48, 11);
        // The tier's regime: private row caches too small for the hot set
        // (so private misses persist in steady state) and the pooled cache
        // off (so whole-operator replay cannot mask the row path).
        let mut config = SdmConfig::for_tests();
        config.cache.row_cache_budget = Bytes::from_kib(16);
        config.cache.pooled_cache_budget = Bytes::ZERO;
        let report = measure_shared_tier(&model, &config, &queries, &[2], Bytes::from_mib(2));
        assert_eq!(report.len(), 2);
        let off = report.get(2, false).unwrap();
        let on = report.get(2, true).unwrap();
        assert_eq!(off.shared_hits, 0, "tier-off runs never probe the tier");
        assert!(on.shared_hits > 0);
        assert!(on.cross_shard_hit_rate() > 0.0);
        assert!(report.qps_gain(2).unwrap() >= 1.0);
    }

    #[test]
    fn measure_fault_resilience_gates_hold_on_a_tiny_model() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = queries_for(&model, 24, 7);
        let out = measure_fault_resilience(&model, &SdmConfig::for_tests(), &queries, 2, 6, 42);
        assert!(out.empty_plan_identical, "empty plan must be inert");
        assert_eq!(out.empty_plan_degraded_rows, 0);
        assert!(
            out.replay_identical,
            "same seed must replay bit-identically"
        );
        let healthy = out.report.get("healthy").unwrap();
        assert!(healthy.virtual_qps > 0.0);
        assert_eq!(healthy.injected_total(), 0);
        assert_eq!(healthy.degraded_rows, 0);
        let storm = out.report.get("storm").unwrap();
        assert!(storm.injected_total() > 0, "storm must inject faults");
        assert_eq!(
            storm.corruption_detection_rate(),
            1.0,
            "checksums must catch every injected flip: {storm:?}"
        );
        assert_eq!(out.report.total_corrupted_served(), 0);
        assert!(storm.retries > 0);
        let retention = out.report.qps_retention("storm", "healthy").unwrap();
        assert!(retention > 0.0 && retention < 1.0, "retention {retention}");
        let stuck = out.report.get("stuck").unwrap();
        assert!(
            stuck.deadline_timeouts > 0,
            "deadline must abandon stuck IOs"
        );
        let outage = out.report.get("outage").unwrap();
        assert!(
            outage.degraded_rows > 0,
            "outage must degrade rows: {outage:?}"
        );
        assert!(
            outage.failovers > 0,
            "outage must trigger failover: {outage:?}"
        );
    }

    #[test]
    fn measure_streams_records_every_count() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = queries_for(&model, 16, 3);
        let report = measure_streams(&model, &SdmConfig::for_tests(), &queries, &[1, 2], 3);
        assert_eq!(report.len(), 2);
        for m in report.iter() {
            assert_eq!(m.queries, 16);
            assert!(m.wall_qps() > 0.0);
        }
        assert!(report.speedup(2).is_some());
    }
}
