//! Deterministic serving scenarios on the virtual clock, pinned in
//! `BENCH_hotpath.json` and gated by exact equality.
//!
//! Every scenario serves the scaled M1 replica from fixed seeds, so each
//! printed value is a pure function of the code:
//!
//! 1. **`io_overlap`** — exact vs relaxed(8) batch execution over one cold
//!    stream (paper §3.2): batch QPS, p50/p99 query latency and device-queue
//!    depth per mode.
//! 2. **`shared_tier`** — tier off vs on at 2 and 4 shards on a skewed
//!    stream whose hot set overflows the private row caches: QPS, tier hit
//!    rate and the share of hits on rows another shard promoted.
//! 3. **`open_loop`** — latency, shed rate and served QPS at three offered
//!    Poisson rates through the SLO-aware front end, per batch mode.
//! 4. **`fault_resilience`** — injected faults (transient errors, bit flips,
//!    stuck IOs, latency storms, a shard outage) against retries,
//!    checksums, deadlines, hedged reads and failover.
//!
//! Usage: `exp_hotpath [--check] [--out PATH]` (default PATH
//! `BENCH_hotpath.json`). Without `--check` the document is written to
//! PATH. With `--check` nothing is written: every field of the fresh
//! document must equal the one in PATH, and no field may be missing or
//! extra. The only values exempt are the thread-interleaving fields
//! ([`interleaving`]), which depend on which shard thread promotes a row
//! first. Those, and every other scenario, are held to invariants
//! ([`invariants`]) in both modes.
//!
//! Wall-clock numbers are not here: the `benchmark/` harness measures them
//! against the parent's own spread, and the criterion benches keep the
//! per-kernel timings.

use sdm_bench::gate::{render, GateArgs};
use sdm_bench::{
    bench_sdm_config, header, measure_batch_modes, measure_fault_resilience, measure_load_curve,
    measure_tier, queries_for, scaled, skewed_queries_for, FaultResilienceOutcome, ModeRun,
    TierRun,
};
use sdm_core::{FrontendConfig, FrontendReport, SdmConfig, TokenBucketConfig};
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;

/// Relaxed-mode window of `io_overlap` and `open_loop`.
const WINDOW: usize = 8;

/// Shard counts of `shared_tier`. One shard is left out: its undivided private budget holds the hot set, so the tier is
/// never probed.
const TIER_COUNTS: [usize; 2] = [2, 4];

/// Offered Poisson rates of `open_loop`, straddling exact mode's capacity.
const OPEN_RATES: [f64; 3] = [100.0, 250.0, 1_600.0];

/// Minimum fraction of healthy virtual QPS the serving stack must retain
/// under the fault storm. The floor exists so a resilience regression
/// cannot pass just because the storm still serves something.
const STORM_QPS_FLOOR_FRAC: f64 = 0.05;

const OVERLAP_QUERIES: usize = 256;
const TIER_QUERIES: usize = 256;
const TIER_BUDGET: Bytes = Bytes::from_mib(8);
const OPEN_QUERIES: usize = 256;
const FAULT_QUERIES: usize = 96;
const FAULT_SHARDS: usize = 2;
/// Enough rounds for the health EWMAs to shake off the cold first batch,
/// so the outage shard separates as a straggler and reroutes engage.
const FAULT_ROUNDS: usize = 12;
const FAULT_SEED: u64 = 127;

/// Every scenario's in-memory result.
struct Scenarios {
    exact: ModeRun,
    relaxed: ModeRun,
    /// Per [`TIER_COUNTS`] entry: (tier off, tier on).
    tier: [(TierRun, TierRun); TIER_COUNTS.len()],
    frontend: FrontendConfig,
    /// One report per [`OPEN_RATES`] entry, per mode.
    open_exact: Vec<FrontendReport>,
    open_relaxed: Vec<FrontendReport>,
    faults: FaultResilienceOutcome,
}

fn run_scenarios() -> Scenarios {
    let m1 = scaled(&dlrm::model_zoo::m1());
    let (exact, relaxed) = measure_batch_modes(
        &m1,
        &bench_sdm_config(),
        &queries_for(&m1, OVERLAP_QUERIES, 103),
        WINDOW,
    );

    // The regime the tier exists for (paper §3): private row caches too
    // small for the hot row set, while one host-level tier holds it. The
    // pooled cache is off so whole-operator replay cannot mask the row path.
    let mut tier_config = bench_sdm_config();
    tier_config.cache.row_cache_budget = Bytes::from_kib(512);
    tier_config.cache.pooled_cache_budget = Bytes::ZERO;
    let tier_queries = skewed_queries_for(&m1, TIER_QUERIES, 107);
    let tier_run = |config: &SdmConfig, shards| measure_tier(&m1, config, &tier_queries, shards);
    let tier_on = tier_config.clone().with_shared_tier(TIER_BUDGET);
    let tier = TIER_COUNTS.map(|n| (tier_run(&tier_config, n), tier_run(&tier_on, n)));

    // One seeded Poisson stream per rate drives an exact and a relaxed host.
    let frontend = FrontendConfig {
        max_batch: 16,
        max_batch_delay: SimDuration::from_millis(5),
        max_queue_wait: SimDuration::from_millis(50),
        token_bucket: Some(TokenBucketConfig {
            capacity: 256.0,
            refill_per_sec: 5_000.0,
        }),
    };
    let open_queries = queries_for(&m1, OPEN_QUERIES, 109);
    let open = |config: SdmConfig| {
        measure_load_curve(&m1, &config, &open_queries, &frontend, &OPEN_RATES, 113)
    };
    let open_exact = open(bench_sdm_config());
    let open_relaxed = open(bench_sdm_config().with_relaxed_batching(WINDOW));

    // Small row cache, no pooled cache: the SM read path stays hot every
    // round, or a warmed cache would mask the injected faults.
    let mut fault_config = bench_sdm_config();
    fault_config.cache.row_cache_budget = Bytes::from_kib(512);
    fault_config.cache.pooled_cache_budget = Bytes::ZERO;
    let faults = measure_fault_resilience(
        &m1,
        &fault_config,
        &queries_for(&m1, FAULT_QUERIES, 127),
        FAULT_SHARDS,
        FAULT_ROUNDS,
        FAULT_SEED,
    );

    Scenarios {
        exact,
        relaxed,
        tier,
        frontend,
        open_exact,
        open_relaxed,
        faults,
    }
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The scenarios' contract, checked on the in-memory results. Returns one
/// message per violated invariant.
fn invariants(s: &Scenarios) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |holds: bool, what: String| {
        if !holds {
            failures.push(what);
        }
    };

    // Overlap across queries buys throughput and queue depth with some tail
    // latency, not with an order of magnitude of it. Each operator is
    // handed the instant its chain reaches it, so an exact run never puts
    // more reads on a device than its operators in flight at once can.
    let (e, r) = (&s.exact, &s.relaxed);
    require(
        r.qps >= e.qps,
        format!("io_overlap: relaxed_qps {} < exact_qps {}", r.qps, e.qps),
    );
    require(
        r.mean_queue_depth > e.mean_queue_depth,
        format!(
            "io_overlap: relaxed mean queue depth {} not above exact {}",
            r.mean_queue_depth, e.mean_queue_depth
        ),
    );
    let table_limit = bench_sdm_config().io.max_outstanding_per_table;
    require(
        e.max_queue_depth <= table_limit,
        format!(
            "io_overlap: exact max_queue_depth {} above max_outstanding_per_table {table_limit}",
            e.max_queue_depth
        ),
    );
    require(
        r.p99_latency <= e.p99_latency * 2,
        format!(
            "io_overlap: relaxed p99 {} above twice the exact p99 {}",
            r.p99_latency, e.p99_latency
        ),
    );

    for (&n, (off, on)) in TIER_COUNTS.iter().zip(&s.tier) {
        // The tier never costs throughput, and the reuse it exists to
        // recover stays strictly positive.
        require(
            on.virtual_qps >= off.virtual_qps,
            format!("shared_tier: on_qps_{n} < off_qps_{n}"),
        );
        require(
            on.cross_shard_hit_rate() > 0.0,
            format!("shared_tier: cross_shard_hit_rate_{n} not strictly positive"),
        );
    }

    // The open-loop curve's shape: nothing shed at the lowest rate, a free
    // host takes a light-load query on arrival (the batch timer is not in
    // its latency), p99 never falls as load rises, and no host serves more
    // than was offered.
    for (mode, curve) in [("exact", &s.open_exact), ("relaxed", &s.open_relaxed)] {
        require(
            curve[0].shed() == 0,
            format!("open_loop: {mode}_shed_rate_1 not zero at the lowest offered load"),
        );
        require(
            curve[0].p50_latency < s.frontend.max_batch_delay,
            format!("open_loop: {mode}_p50_us_1 not below max_batch_delay_us"),
        );
        require(
            curve
                .windows(2)
                .all(|w| w[0].p99_latency <= w[1].p99_latency),
            format!("open_loop: {mode} p99 not monotone non-decreasing in offered load"),
        );
        require(
            curve.iter().all(|p| p.served_qps <= p.offered_qps),
            format!("open_loop: {mode} served more than was offered"),
        );
    }

    // The robustness contract: no corrupted payload reaches a result, the
    // checksum catches every injected flip, an empty plan is inert, replay
    // under a pinned fault seed is bit-identical, and the storm, stuck and
    // outage machinery demonstrably engages.
    let f = &s.faults;
    require(
        f.corrupted_served() == 0,
        format!(
            "fault_resilience: corrupted_served {}",
            f.corrupted_served()
        ),
    );
    require(
        f.storm.injected_corruptions > 0
            && f.storm.detected_corruptions == f.storm.injected_corruptions,
        format!(
            "fault_resilience: checksum caught {} of {} injected corruptions",
            f.storm.detected_corruptions, f.storm.injected_corruptions
        ),
    );
    require(
        f.empty_plan.degraded_rows == 0 && f.empty_plan_identical,
        "fault_resilience: the empty plan is not inert".to_string(),
    );
    require(
        f.replay_identical,
        "fault_resilience: storm replay not bit-identical".to_string(),
    );
    require(
        f.storm.virtual_qps >= f.healthy.virtual_qps * STORM_QPS_FLOOR_FRAC,
        format!("fault_resilience: storm_qps below {STORM_QPS_FLOOR_FRAC} of healthy_qps"),
    );
    require(
        f.outage.failovers > 0 && f.outage.degraded_rows > 0 && f.stuck.deadline_timeouts > 0,
        "fault_resilience: outage failovers, outage degraded rows or stuck deadline \
         timeouts not strictly positive"
            .to_string(),
    );
    failures
}

/// `key => (format args)` pairs of one document section, printed.
macro_rules! fields {
    ($($key:expr => ($($value:tt)+)),* $(,)?) => {
        vec![$(($key.to_string(), format!($($value)+))),*]
    };
}

/// The document's sections: names, then field names and printed values.
fn sections(s: &Scenarios) -> Vec<(&'static str, Vec<(String, String)>)> {
    let (e, r) = (&s.exact, &s.relaxed);
    let io_overlap = fields![
        "model" => ("\"M1-scaled\""),
        "queries" => ("{OVERLAP_QUERIES}"),
        "max_inflight_queries" => ("{WINDOW}"),
        "exact_qps" => ("{:.1}", e.qps),
        "relaxed_qps" => ("{:.1}", r.qps),
        "qps_gain" => ("{:.4}", ratio(r.qps, e.qps)),
        "p50_latency_exact" => ("{:.3}", e.p50_latency.as_micros_f64()),
        "p50_latency_relaxed" => ("{:.3}", r.p50_latency.as_micros_f64()),
        "p99_latency_exact" => ("{:.3}", e.p99_latency.as_micros_f64()),
        "p99_latency_relaxed" => ("{:.3}", r.p99_latency.as_micros_f64()),
        "mean_queue_depth_exact" => ("{:.3}", e.mean_queue_depth),
        "mean_queue_depth_relaxed" => ("{:.3}", r.mean_queue_depth),
        "max_queue_depth_exact" => ("{}", e.max_queue_depth),
        "max_queue_depth_relaxed" => ("{}", r.max_queue_depth),
    ];

    let mut shared_tier = fields![
        "model" => ("\"M1-scaled\""),
        "queries" => ("{TIER_QUERIES}"),
        "budget_mib" => ("{:.1}", TIER_BUDGET.as_mib_f64()),
    ];
    let tiers = || TIER_COUNTS.iter().zip(&s.tier);
    for (n, (off, on)) in tiers() {
        shared_tier.extend(fields![
            format!("off_qps_{n}") => ("{:.1}", off.virtual_qps),
            format!("on_qps_{n}") => ("{:.1}", on.virtual_qps),
        ]);
    }
    for (n, (off, on)) in tiers() {
        shared_tier.extend(fields![
            format!("qps_gain_{n}") => ("{:.4}", ratio(on.virtual_qps, off.virtual_qps)),
        ]);
    }
    for (n, (_, on)) in tiers() {
        shared_tier.extend(fields![format!("hit_rate_{n}") => ("{:.4}", on.hit_rate())]);
    }
    for (n, (_, on)) in tiers() {
        shared_tier.extend(fields![
            format!("cross_shard_hit_rate_{n}") => ("{:.4}", on.cross_shard_hit_rate()),
        ]);
    }

    let fe = &s.frontend;
    let mut open_loop = fields![
        "model" => ("\"M1-scaled\""),
        "queries" => ("{OPEN_QUERIES}"),
        "max_batch" => ("{}", fe.max_batch),
        "max_batch_delay_us" => ("{}", fe.max_batch_delay.as_micros()),
        "slo_us" => ("{}", fe.max_queue_wait.as_micros()),
    ];
    for (i, rate) in OPEN_RATES.iter().enumerate() {
        let n = i + 1;
        // Arrivals do not depend on the mode (same process and seed), so
        // one offered_qps field serves both.
        open_loop.extend(fields![
            format!("target_qps_{n}") => ("{rate:.1}"),
            format!("offered_qps_{n}") => ("{:.1}", s.open_exact[i].offered_qps),
        ]);
        for (mode, curve) in [("exact", &s.open_exact), ("relaxed", &s.open_relaxed)] {
            let p = &curve[i];
            open_loop.extend(fields![
                format!("{mode}_p50_us_{n}") => ("{:.3}", p.p50_latency.as_micros_f64()),
                format!("{mode}_p99_us_{n}") => ("{:.3}", p.p99_latency.as_micros_f64()),
                format!("{mode}_shed_rate_{n}") => ("{:.4}", p.shed_rate()),
                format!("{mode}_served_qps_{n}") => ("{:.1}", p.served_qps),
            ]);
        }
    }

    let f = &s.faults;
    let fault_resilience = fields![
        "model" => ("\"M1-scaled\""),
        "queries" => ("{FAULT_QUERIES}"),
        "shards" => ("{FAULT_SHARDS}"),
        "rounds" => ("{FAULT_ROUNDS}"),
        "fault_seed" => ("{FAULT_SEED}"),
        "hedge_after_us" => ("{:.3}", f.hedge_after.as_micros_f64()),
        "healthy_qps" => ("{:.1}", f.healthy.virtual_qps),
        "storm_qps" => ("{:.1}", f.storm.virtual_qps),
        "stuck_qps" => ("{:.1}", f.stuck.virtual_qps),
        "outage_qps" => ("{:.1}", f.outage.virtual_qps),
        "storm_retention" => ("{:.4}", ratio(f.storm.virtual_qps, f.healthy.virtual_qps)),
        "storm_qps_floor_frac" => ("{STORM_QPS_FLOOR_FRAC:.4}"),
        "injected_transient" => ("{}", f.storm.injected_transient),
        "injected_corruptions" => ("{}", f.storm.injected_corruptions),
        "injected_stuck" => ("{}", f.storm.injected_stuck),
        "detected_corruptions" => ("{}", f.storm.detected_corruptions),
        "corrupted_served" => ("{}", f.corrupted_served()),
        "storm_degraded_rows" => ("{}", f.storm.degraded_rows),
        "outage_degraded_rows" => ("{}", f.outage.degraded_rows),
        "storm_retries" => ("{}", f.storm.retries),
        "storm_hedges" => ("{}", f.storm.hedges),
        "storm_hedge_wins" => ("{}", f.storm.hedge_wins),
        "stuck_deadline_timeouts" => ("{}", f.stuck.deadline_timeouts),
        "outage_failovers" => ("{}", f.outage.failovers),
        "empty_plan_degraded_rows" => ("{}", f.empty_plan.degraded_rows),
        "empty_plan_identical" => ("{}", u8::from(f.empty_plan_identical)),
        "replay_identical" => ("{}", u8::from(f.replay_identical)),
    ];

    vec![
        ("io_overlap", io_overlap),
        ("shared_tier", shared_tier),
        ("open_loop", open_loop),
        ("fault_resilience", fault_resilience),
    ]
}

/// Fields whose value depends on thread interleaving: which shard thread
/// promotes a row into the tier first sets its origin tag. They are held to
/// invariants, not to their committed values.
fn interleaving(field: &str) -> bool {
    field.starts_with("shared_tier.cross_shard_hit_rate_")
}

fn main() {
    let args = GateArgs::from_env("exp_hotpath", "BENCH_hotpath.json");
    header("Deterministic serving scenarios (virtual clock)");
    let scenarios = run_scenarios();
    let doc = render("sdm-hotpath-v1", &sections(&scenarios));
    print!("{doc}");

    let mut failures = invariants(&scenarios);
    failures.extend(args.apply(&doc, interleaving));
    args.finish(&failures);
    println!("every invariant holds");
}
