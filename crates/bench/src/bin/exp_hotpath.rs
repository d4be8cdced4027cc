//! Hot-path tracking experiment: measures the zero-copy serving loop and
//! writes machine-readable numbers to `BENCH_hotpath.json` so the perf
//! trajectory is tracked from PR to PR.
//!
//! Five measurements (release build recommended; 1–4 are wall clock, 5 is
//! virtual-clock and therefore deterministic):
//!
//! 1. **Pooling** — seed-style `Vec<Vec<f32>>` pooling (fresh vector per
//!    row + fresh output) vs the fused slice-based `pool_quantized_into`
//!    hot path, in ns/row.
//! 2. **Batch serving** — looped `run_query` vs `run_batch` over the same
//!    warmed M1 stream, in queries/second of host wall time.
//! 3. **Allocations** — heap allocations per query on the warmed hot path,
//!    counted by a `GlobalAlloc` wrapper around the system allocator
//!    (expected: 0 for `run_batch` / `run_query_into`).
//! 4. **Multi-stream serving** — *measured* wall-clock QPS of a
//!    `ServingHost` at 1/2/4/8 shards over the same M1 stream, plus the
//!    scaling-efficiency ratio against perfectly linear scaling. This is
//!    the measurement that replaced the removed
//!    `QpsReport::qps_with_streams` extrapolation; the delivered numbers
//!    depend on the machine's core count (recorded alongside).
//! 5. **Cross-query IO overlap** — exact vs relaxed batch execution on the
//!    *virtual* clock (paper §3.2): batch QPS, p50/p99 query latency and
//!    observed device-queue depth per mode. Deterministic, so CI gates on
//!    these numbers directly.
//! 6. **Shared host cache tier** — tier-on vs tier-off serving at 1/2/4
//!    shards on a skewed Zipf stream, on the *virtual* clock: batch QPS,
//!    shared-tier hit rate and the cross-shard hit rate (hits served by a
//!    row another shard promoted). Deterministic, so CI gates on the gain
//!    and on cross-shard reuse staying strictly positive.
//! 7. **Cache-admission policy lab** — always-admit vs the second-touch
//!    doorkeeper at 1/2/4 shards over the same skewed stream, but through a
//!    *capacity-constrained* shared tier (smaller than the hot row set, so
//!    the LRU churns and admission has something to decide). Virtual clock;
//!    CI gates the doorkeeper's hit rate never falling below always-admit
//!    and the constrained always-admit QPS staying within tolerance of the
//!    full-budget tier numbers.
//! 8. **Cache-hit latency** — wall-clock ns per warmed hit in each cache
//!    level (private row cache, shared tier, pooled-embedding cache), the
//!    numbers the ROADMAP's perf-trajectory item tracks.
//! 9. **Open-loop serving** — latency-vs-offered-load curve on the
//!    *virtual* clock: a seeded Poisson arrival stream drives an
//!    SLO-aware front end (dynamic batching, token-bucket admission, load
//!    shedding) over exact- and relaxed-mode hosts at three offered rates.
//!    Deterministic; CI gates the curve's shape (p99 monotone in offered
//!    load, zero shed at the lowest rate, served ≤ offered).
//! 10. **Fault resilience** — seeded fault injection (transient errors,
//!     bit flips, stuck IOs, latency storms) vs the end-to-end handling
//!     stack (checksums, retries, deadlines, hedged reads, degraded rows,
//!     shard failover) on the *virtual* clock. Deterministic; CI gates
//!     zero corrupted results served, total corruption detection, a storm
//!     throughput floor, zero degraded rows under an empty plan and
//!     bit-identical replay per fault seed.
//!
//! Usage: `exp_hotpath [--quick] [--out PATH] [--check]`. Quick mode
//! shrinks the iteration counts for CI smoke runs; `--check` compares the
//! fresh numbers against the committed `BENCH_hotpath.json` (read before it
//! is overwritten) and exits non-zero on a >25 % regression in the gated
//! fields or a violated overlap invariant.

use dlrm::QueryResult;
use embedding::kernels::{self, SelectedKernel};
use embedding::{pooling, PoolKernel, QuantScheme};
use sdm_bench::{
    bench_quantized_rows, bench_sdm_config, build_system, header, json_field, measure_batch_modes,
    measure_cache_policies, measure_fault_resilience, measure_load_curve, measure_shared_tier,
    measure_streams, pool_seed_style, queries_for, scaled, skewed_queries_for,
};
use sdm_cache::{CacheConfig, DualRowCache, PooledEmbeddingCache, RowCache, RowKey, SharedRowTier};
use sdm_core::{FrontendConfig, TokenBucketConfig};
use sdm_metrics::alloc_hook;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::time::Instant;

/// System allocator wrapper feeding the sdm-metrics allocation hook.
struct CountingAllocator;

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`; the layout is forwarded
    // unchanged and the hook only touches an atomic counter.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_hook::note_alloc(layout.size());
        System.alloc(layout)
    }
    // SAFETY: same contract as `System.alloc_zeroed`; the layout is
    // forwarded unchanged and the hook only touches an atomic counter.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        alloc_hook::note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    // SAFETY: same contract as `System.realloc`; pointer, layout and size
    // are forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            alloc_hook::note_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: same contract as `System.dealloc`; pointer and layout are
    // forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allowed wall-clock regression vs the committed snapshot (25 %).
const REGRESSION_TOLERANCE: f64 = 0.25;

/// Minimum fraction of healthy virtual QPS the serving stack must retain
/// under the fault storm (transient errors + bit flips + stuck IOs + a
/// 6x latency storm). The measured retention is far higher; the floor
/// exists so a resilience regression cannot hide inside run-to-run noise.
const STORM_QPS_FLOOR_FRAC: f64 = 0.05;

/// The `--check` gate: compares gated fields of the fresh document against
/// the committed baseline and verifies the overlap invariants. Returns the
/// failure messages (empty = pass).
///
/// `compare_wall_clock` gates the machine-dependent fields (pooling ns/row,
/// batch and multi-stream QPS); the caller sets it only when the fresh run
/// and the snapshot report the same `host_cores`, so a slower CI runner
/// cannot fail spuriously. The virtual-clock `io_overlap` fields are
/// deterministic and always gated.
fn regression_failures(baseline: &str, fresh: &str, compare_wall_clock: bool) -> Vec<String> {
    let mut failures = Vec::new();
    // (section, field, higher_is_better)
    // The shared-tier QPS and hit-rate fields are deterministic (virtual
    // clock over deterministic cache states); the cross-shard *attribution*
    // rates are not quite — origin tags depend on which shard's warmup
    // thread promoted a row first — so those are gated as strictly-positive
    // invariants below rather than compared numerically.
    let deterministic = [
        ("io_overlap", "relaxed_qps", true),
        ("shared_tier", "on_qps_2", true),
        ("shared_tier", "on_qps_4", true),
        ("shared_tier", "hit_rate_4", true),
        ("open_loop", "exact_served_qps_3", true),
        ("open_loop", "relaxed_served_qps_3", true),
        ("fault_resilience", "healthy_qps", true),
        ("fault_resilience", "storm_qps", true),
    ];
    // The `cache_latency` ns/hit fields are deliberately *not* gated:
    // single-digit-nanosecond microbenches jitter well past 25 % run to
    // run; they are tracked in the JSON (and presence-checked by ci.sh)
    // as trajectory numbers only.
    let wall_clock = [
        ("pooling", "slice_ns_per_row", false),
        ("batch", "run_batch_qps", true),
        ("multi_stream", "qps_streams_1", true),
        ("multi_stream", "qps_streams_4", true),
    ];
    let mut compare = |section: &str, field: &str, higher_is_better: bool| {
        let (Some(base), Some(now)) = (
            json_field(baseline, section, field),
            json_field(fresh, section, field),
        ) else {
            failures.push(format!(
                "{section}.{field}: missing in baseline or fresh run"
            ));
            return;
        };
        let regressed = if higher_is_better {
            now < base * (1.0 - REGRESSION_TOLERANCE)
        } else {
            now > base * (1.0 + REGRESSION_TOLERANCE)
        };
        if regressed {
            failures.push(format!(
                "{section}.{field}: {now:.3} regressed >{:.0}% vs baseline {base:.3}",
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    };
    for (section, field, higher_is_better) in deterministic {
        compare(section, field, higher_is_better);
    }
    if compare_wall_clock {
        for (section, field, higher_is_better) in wall_clock {
            compare(section, field, higher_is_better);
        }
    }

    // Pooling-kernel invariants on the fresh run: every supported kernel
    // must have produced bit-identical pooled vectors (the kernels'
    // documented contract — a lane-order or FMA slip shows up here), and
    // on a host with a SIMD kernel the auto dispatch may never be slower
    // than scalar on the headline int8 path.
    let pool_kernel = |field: &str| json_field(fresh, "pooling_kernels", field);
    match pool_kernel("bit_identical") {
        Some(1.0) => {}
        other => failures.push(format!(
            "pooling_kernels: kernels not bit-identical ({other:?})"
        )),
    }
    match (pool_kernel("simd_available"), pool_kernel("simd_speedup")) {
        (Some(0.0), Some(_)) => {} // scalar-only host
        (Some(_), Some(speedup)) if speedup >= 1.0 => {}
        other => failures.push(format!(
            "pooling_kernels: simd kernel slower than scalar or fields missing ({other:?})"
        )),
    }

    // Overlap invariants on the fresh run (virtual clock — deterministic).
    let overlap = |field: &str| json_field(fresh, "io_overlap", field);
    match (overlap("exact_qps"), overlap("relaxed_qps")) {
        (Some(exact), Some(relaxed)) if relaxed >= exact => {}
        other => failures.push(format!("io_overlap: relaxed_qps < exact_qps ({other:?})")),
    }
    match (
        overlap("mean_queue_depth_exact"),
        overlap("mean_queue_depth_relaxed"),
    ) {
        (Some(exact), Some(relaxed)) if relaxed > exact => {}
        other => failures.push(format!(
            "io_overlap: relaxed queue depth not strictly deeper ({other:?})"
        )),
    }
    // Each embedding operator is handed the instant its chain reaches it,
    // so an exact run never has more reads on a device than its operators
    // in flight at once can put there: no read queues behind reads its own
    // query has not reached yet.
    let table_limit = bench_sdm_config().io.max_outstanding_per_table as f64;
    match overlap("max_queue_depth_exact") {
        Some(depth) if depth <= table_limit => {}
        other => failures.push(format!(
            "io_overlap: exact max_queue_depth above max_outstanding_per_table \
             {table_limit} ({other:?})"
        )),
    }
    // Overlap across queries buys throughput with some tail latency, not
    // with an order of magnitude of it.
    match (overlap("p99_latency_exact"), overlap("p99_latency_relaxed")) {
        (Some(exact), Some(relaxed)) if relaxed <= 2.0 * exact => {}
        other => failures.push(format!(
            "io_overlap: relaxed p99 above twice the exact p99 ({other:?})"
        )),
    }

    // Shared-tier invariants on the fresh run (virtual clock —
    // deterministic): enabling the tier must never cost batch throughput on
    // the skewed stream at 2+ shards, and the cross-shard hit rate — the
    // reuse the tier exists to recover — must stay strictly positive.
    let tier = |field: &str| json_field(fresh, "shared_tier", field);
    for shards in [2u32, 4] {
        match (
            tier(&format!("off_qps_{shards}")),
            tier(&format!("on_qps_{shards}")),
        ) {
            (Some(off), Some(on)) if on >= off => {}
            other => failures.push(format!(
                "shared_tier: on_qps_{shards} < off_qps_{shards} ({other:?})"
            )),
        }
        match tier(&format!("cross_shard_hit_rate_{shards}")) {
            Some(rate) if rate > 0.0 => {}
            other => failures.push(format!(
                "shared_tier: cross_shard_hit_rate_{shards} not strictly positive ({other:?})"
            )),
        }
    }

    // Cache-admission policy invariants on the fresh run: the
    // capacity-constrained always-admit tier may cost some throughput
    // against the full-budget tier, but never more than the regression
    // tolerance; and on the skewed stream the second-touch doorkeeper —
    // which exists to keep single-touch tail rows from displacing the
    // resident head — must never hit *less* often than always-admit. At 1
    // and 2 shards the comparison is deterministic and gated strictly; at
    // 4 shards promotion order depends on thread interleaving and the
    // per-run hit rates jitter by a few tenths of a percent, so that
    // comparison carries a small noise allowance — a real doorkeeper
    // regression (tail rows admitted first-touch, head evicted) moves the
    // rate by far more.
    let policy = |field: &str| json_field(fresh, "cache_policies", field);
    for shards in [1u32, 2, 4] {
        match (
            policy(&format!("always_admit_qps_{shards}")),
            tier(&format!("on_qps_{shards}")),
        ) {
            (Some(constrained), Some(full))
                if constrained >= full * (1.0 - REGRESSION_TOLERANCE) => {}
            other => failures.push(format!(
                "cache_policies: always_admit_qps_{shards} regressed >{:.0}% vs \
                 shared_tier on_qps_{shards} ({other:?})",
                REGRESSION_TOLERANCE * 100.0
            )),
        }
        let hit_rate_noise = if shards >= 4 { 0.01 } else { 0.0 };
        match (
            policy(&format!("second_touch_hit_rate_{shards}")),
            policy(&format!("always_admit_hit_rate_{shards}")),
        ) {
            (Some(second), Some(always)) if second >= always - hit_rate_noise => {}
            other => failures.push(format!(
                "cache_policies: second_touch_hit_rate_{shards} below \
                 always_admit_hit_rate_{shards} ({other:?})"
            )),
        }
    }

    // Open-loop curve-shape invariants on the fresh run (virtual clock —
    // deterministic). Gated on shape, not on jitter-prone absolutes: p99
    // must be monotone non-decreasing in offered load, nothing may be shed
    // at the lowest rate, the batcher's timer is not inside light-load
    // latency (a free host takes the query on arrival), and a host can
    // never serve more than was offered.
    let open = |field: &str| json_field(fresh, "open_loop", field);
    for mode in ["exact", "relaxed"] {
        match open(&format!("{mode}_shed_rate_1")) {
            Some(rate) if rate <= 0.0 => {}
            other => failures.push(format!(
                "open_loop: {mode}_shed_rate_1 not zero at the lowest offered load ({other:?})"
            )),
        }
        match (
            open(&format!("{mode}_p50_us_1")),
            open("max_batch_delay_us"),
        ) {
            (Some(p50), Some(delay)) if p50 < delay => {}
            other => failures.push(format!(
                "open_loop: {mode}_p50_us_1 not below max_batch_delay_us — the median \
                 light-load query waited out the batch timer ({other:?})"
            )),
        }
        let p99 = |i: usize| open(&format!("{mode}_p99_us_{i}"));
        match (p99(1), p99(2), p99(3)) {
            (Some(a), Some(b), Some(c)) if a <= b && b <= c => {}
            other => failures.push(format!(
                "open_loop: {mode} p99 not monotone non-decreasing in offered load ({other:?})"
            )),
        }
        for i in 1..=3usize {
            match (
                open(&format!("{mode}_served_qps_{i}")),
                open(&format!("offered_qps_{i}")),
            ) {
                (Some(served), Some(offered)) if served <= offered => {}
                other => failures.push(format!(
                    "open_loop: {mode}_served_qps_{i} exceeds offered_qps_{i} ({other:?})"
                )),
            }
        }
    }

    // Fault-resilience invariants on the fresh run (virtual clock —
    // deterministic). These are the robustness contract, not perf numbers:
    // a corrupted payload may never reach a query result, an attached but
    // empty fault plan must be perfectly inert, replay under a pinned
    // fault seed must be bit-identical, the checksum must catch every
    // injected flip, and the storm/outage machinery must demonstrably
    // engage (throughput floor, failovers, deadline timeouts).
    let fault = |field: &str| json_field(fresh, "fault_resilience", field);
    for (field, expected) in [
        ("corrupted_served", 0.0),
        ("empty_plan_degraded_rows", 0.0),
        ("empty_plan_identical", 1.0),
        ("replay_identical", 1.0),
    ] {
        match fault(field) {
            Some(v) if v == expected => {}
            other => failures.push(format!(
                "fault_resilience: {field} != {expected} ({other:?})"
            )),
        }
    }
    match (fault("injected_corruptions"), fault("detected_corruptions")) {
        (Some(injected), Some(detected)) if injected > 0.0 && detected == injected => {}
        other => failures.push(format!(
            "fault_resilience: checksum did not catch every injected corruption ({other:?})"
        )),
    }
    match (fault("healthy_qps"), fault("storm_qps")) {
        (Some(healthy), Some(storm)) if storm >= healthy * STORM_QPS_FLOOR_FRAC => {}
        other => failures.push(format!(
            "fault_resilience: storm_qps below {:.0}% of healthy_qps ({other:?})",
            STORM_QPS_FLOOR_FRAC * 100.0
        )),
    }
    for field in [
        "outage_failovers",
        "stuck_deadline_timeouts",
        "outage_degraded_rows",
    ] {
        match fault(field) {
            Some(v) if v > 0.0 => {}
            other => failures.push(format!(
                "fault_resilience: {field} not strictly positive ({other:?})"
            )),
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    // The committed snapshot is the regression baseline; read it before the
    // fresh numbers overwrite it.
    let baseline = if check {
        std::fs::read_to_string(&out_path).ok()
    } else {
        None
    };

    header("Hot path: arena-backed rows, slice pooling, batched execution");
    let (pool_iters, batch_reps) = if quick { (2_000, 9) } else { (40_000, 36) };

    // --- 1. Pooling: seed Vec<Vec<f32>> path vs slice-based into-path. ---
    let pf = 40usize;
    let dim = 64usize;
    let rows = bench_quantized_rows(pf, dim, QuantScheme::Int8);
    let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();

    // Warm both paths, then time.
    let mut sink = 0.0f32;
    for _ in 0..pool_iters / 10 {
        sink += black_box(pool_seed_style(
            black_box(&row_refs),
            QuantScheme::Int8,
            dim,
        ))[0];
    }
    let start = Instant::now();
    for _ in 0..pool_iters {
        sink += black_box(pool_seed_style(
            black_box(&row_refs),
            QuantScheme::Int8,
            dim,
        ))[0];
    }
    let seed_ns_per_row = start.elapsed().as_nanos() as f64 / (pool_iters as f64) / (pf as f64);

    let mut out = vec![0.0f32; dim];
    for _ in 0..pool_iters / 10 {
        out.iter_mut().for_each(|v| *v = 0.0);
        pooling::pool_quantized_into(
            black_box(row_refs.iter().copied()),
            QuantScheme::Int8,
            &mut out,
        )
        .unwrap();
        sink += black_box(&out)[0];
    }
    let start = Instant::now();
    for _ in 0..pool_iters {
        out.iter_mut().for_each(|v| *v = 0.0);
        pooling::pool_quantized_into(
            black_box(row_refs.iter().copied()),
            QuantScheme::Int8,
            &mut out,
        )
        .unwrap();
        sink += black_box(&out)[0];
    }
    let slice_ns_per_row = start.elapsed().as_nanos() as f64 / (pool_iters as f64) / (pf as f64);
    let pooling_speedup = seed_ns_per_row / slice_ns_per_row;

    println!("\n  pooling (int8, pf={pf}, dim={dim})");
    println!("    seed Vec<Vec<f32>> path   {seed_ns_per_row:>8.2} ns/row");
    println!("    slice-based into path     {slice_ns_per_row:>8.2} ns/row");
    println!("    speedup                   {pooling_speedup:>8.2}x");

    // --- 1b. Per-kernel fused dequant-accumulate pooling (SIMD A/B). ---
    // Every kernel the host supports is measured over identical rows for
    // each quantisation scheme; the JSON records ns/row per (scheme,
    // kernel), the auto-dispatched kernel's name, and two fresh-run
    // invariants the --check gate enforces: cross-kernel bit-identity and
    // (on SIMD hosts) an auto-kernel speedup of at least 1.0x over scalar
    // on the headline int8 path.
    let auto = kernels::auto_kernel();
    let supported: Vec<SelectedKernel> = [PoolKernel::Scalar, PoolKernel::Sse2, PoolKernel::Avx2]
        .into_iter()
        .filter(|k| k.is_supported())
        .map(PoolKernel::resolve)
        .collect();
    let mut kernels_json = format!(
        "\"pf\": {pf},\n    \"dim\": {dim},\n    \"kernel\": \"{}\",\n    \
         \"simd_available\": {}",
        auto.name(),
        u8::from(auto.is_simd())
    );
    let mut bit_identical = true;
    let mut simd_speedup = 1.0f64;
    println!(
        "\n  pooling kernels (pf={pf}, dim={dim}, auto={})",
        auto.name()
    );
    for (scheme, tag) in [
        (QuantScheme::Int8, "int8"),
        (QuantScheme::Int4, "int4"),
        (QuantScheme::Fp32, "fp32"),
    ] {
        let kernel_rows = bench_quantized_rows(pf, dim, scheme);
        let kernel_refs: Vec<&[u8]> = kernel_rows.iter().map(|r| r.as_slice()).collect();
        let mut reference_bits: Option<Vec<u32>> = None;
        let mut scalar_ns = 0.0f64;
        for &kernel in &supported {
            // Bit-identity first: one pooled pass per kernel, compared
            // lane for lane against scalar (always the first entry).
            out.iter_mut().for_each(|v| *v = 0.0);
            pooling::pool_quantized_into_with(
                kernel,
                kernel_refs.iter().copied(),
                scheme,
                &mut out,
            )
            .unwrap();
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            match &reference_bits {
                None => reference_bits = Some(bits),
                Some(reference) => bit_identical &= &bits == reference,
            }

            for _ in 0..pool_iters / 10 {
                out.iter_mut().for_each(|v| *v = 0.0);
                pooling::pool_quantized_into_with(
                    kernel,
                    black_box(kernel_refs.iter().copied()),
                    scheme,
                    &mut out,
                )
                .unwrap();
                sink += black_box(&out)[0];
            }
            let start = Instant::now();
            for _ in 0..pool_iters {
                out.iter_mut().for_each(|v| *v = 0.0);
                pooling::pool_quantized_into_with(
                    kernel,
                    black_box(kernel_refs.iter().copied()),
                    scheme,
                    &mut out,
                )
                .unwrap();
                sink += black_box(&out)[0];
            }
            let ns = start.elapsed().as_nanos() as f64 / (pool_iters as f64) / (pf as f64);
            if kernel == SelectedKernel::SCALAR {
                scalar_ns = ns;
            }
            if matches!(scheme, QuantScheme::Int8) && kernel == auto && auto.is_simd() {
                simd_speedup = scalar_ns / ns;
            }
            println!("    {tag:<5} {:<7} {ns:>8.2} ns/row", kernel.name());
            kernels_json.push_str(&format!(",\n    \"{tag}_{}_ns\": {ns:.3}", kernel.name()));
        }
    }
    kernels_json.push_str(&format!(
        ",\n    \"simd_speedup\": {simd_speedup:.3},\n    \"bit_identical\": {}",
        u8::from(bit_identical)
    ));
    println!("    int8 auto-vs-scalar speedup {simd_speedup:>6.2}x");
    println!("    bit identical across kernels: {bit_identical}");

    // --- 2. Batch serving: looped run_query vs run_batch, on the heavy
    // M1 replica (operator math dominates, so the loop overhead is a small
    // slice) and on a light model (where the per-query serving-loop
    // overhead the batch path amortises is clearly visible). ---
    let batch = 64usize;

    // Median-of-rounds timing: alternate the two serving loops and take
    // each side's median round. The median (rather than the minimum)
    // captures what batching actually buys at this scale — the looped path
    // pays the allocator on every query, which shows up as a heavier tail
    // rather than a slower best case.
    let measure = |model: &dlrm::ModelConfig, reps: usize| -> (f64, f64) {
        let rounds = 9usize;
        let reps = (reps.max(rounds) / rounds).max(1);
        let queries = queries_for(model, batch, 99);
        // One system serves both paths (identical warmed cache state and
        // heap layout), and the rounds alternate so scheduler drift hits
        // both sides equally.
        let mut system = build_system(model, bench_sdm_config());
        let _ = system.run_queries(&queries).unwrap();
        for q in &queries {
            system.run_query(q).unwrap();
        }
        let _ = system.run_batch(&queries).unwrap();

        let mut loop_rounds = Vec::with_capacity(rounds);
        let mut batch_rounds = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let start = Instant::now();
            for _ in 0..reps {
                for q in &queries {
                    system.run_query(q).unwrap();
                }
            }
            loop_rounds.push(start.elapsed().as_secs_f64());

            let start = Instant::now();
            for _ in 0..reps {
                system.run_batch(&queries).unwrap();
            }
            batch_rounds.push(start.elapsed().as_secs_f64());
        }
        let median = |xs: &mut Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        let per_round = (reps * batch) as f64;
        (
            per_round / median(&mut loop_rounds),
            per_round / median(&mut batch_rounds),
        )
    };

    let m1 = scaled(&dlrm::model_zoo::m1());
    let (looped_qps, batch_qps) = measure(&m1, batch_reps);
    let batch_gain = batch_qps / looped_qps;
    println!("\n  serving loop (M1 scaled, batch={batch}, warmed)");
    println!("    looped run_query          {looped_qps:>12.0} q/s (host wall clock)");
    println!("    run_batch                 {batch_qps:>12.0} q/s (host wall clock)");
    println!("    gain                      {batch_gain:>8.3}x");

    let light = dlrm::model_zoo::tiny(4, 2, 2_000);
    let (light_looped_qps, light_batch_qps) = measure(&light, batch_reps * 40);
    let light_gain = light_batch_qps / light_looped_qps;
    println!("\n  serving loop (tiny model, batch={batch}, warmed)");
    println!("    looped run_query          {light_looped_qps:>12.0} q/s (host wall clock)");
    println!("    run_batch                 {light_batch_qps:>12.0} q/s (host wall clock)");
    println!("    gain                      {light_gain:>8.3}x");

    // --- 3. Allocations per query on the warmed hot path (M1 stream). ---
    let queries = queries_for(&m1, batch, 99);
    let mut system = build_system(&m1, bench_sdm_config());
    let mut result = QueryResult::default();
    for _ in 0..2 {
        for q in &queries {
            system.run_query_into(q, &mut result).unwrap();
        }
    }
    system.run_batch(&queries).unwrap();
    system.run_batch(&queries).unwrap();
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    for q in &queries {
        system.run_query_into(q, &mut result).unwrap();
    }
    alloc_hook::set_enabled(false);
    let run_query_allocs = alloc_hook::allocations() as f64 / batch as f64;

    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    system.run_batch(&queries).unwrap();
    alloc_hook::set_enabled(false);
    let run_batch_allocs = alloc_hook::allocations() as f64 / batch as f64;

    println!("\n  allocations/query (warmed)");
    println!("    run_query_into            {run_query_allocs:>8.3}");
    println!("    run_batch                 {run_batch_allocs:>8.3}");

    // --- 4. Multi-stream serving: measured wall-clock QPS per shard
    // count (user-sticky routing, evenly divided budgets). ---
    let stream_counts = [1usize, 2, 4, 8];
    let (stream_queries, stream_rounds) = if quick { (96, 5) } else { (384, 9) };
    let ms_queries = queries_for(&m1, stream_queries, 101);
    let ms = measure_streams(
        &m1,
        &bench_sdm_config(),
        &ms_queries,
        &stream_counts,
        stream_rounds,
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n  multi-stream serving (M1 scaled, {stream_queries} queries, {cores} cores)");
    for m in ms.iter() {
        let speedup = ms.speedup(m.streams).unwrap_or(0.0);
        let eff = ms.scaling_efficiency(m.streams).unwrap_or(0.0);
        println!(
            "    {} stream(s)               {:>12.0} q/s  (speedup {:>5.2}x, efficiency {})",
            m.streams,
            m.wall_qps(),
            speedup,
            sdm_bench::pct(eff),
        );
    }
    let qps_at = |streams: usize| ms.get(streams).map(|m| m.wall_qps()).unwrap_or(0.0);
    let speedup_4 = ms.speedup(4).unwrap_or(0.0);
    let efficiency_4 = ms.scaling_efficiency(4).unwrap_or(0.0);

    // --- 5. Cross-query IO overlap: exact vs relaxed batch execution on
    // the virtual clock (deterministic; numerically gated by CI). ---
    let overlap_window = 8usize;
    // Same size in quick and full mode: the measurement is virtual-clock
    // (cheap and deterministic), and the CI gate compares quick runs
    // against the committed full-mode snapshot.
    let overlap_batch = 256usize;
    let overlap_queries = queries_for(&m1, overlap_batch, 103);
    let overlap = measure_batch_modes(&m1, &bench_sdm_config(), &overlap_queries, overlap_window);
    let (oe, or) = (
        *overlap.exact().expect("exact mode measured"),
        *overlap.relaxed().expect("relaxed mode measured"),
    );
    println!(
        "\n  cross-query IO overlap (M1 scaled, {overlap_batch} cold queries, \
         window {overlap_window}, virtual clock)"
    );
    println!(
        "    exact    {:>12.0} q/s  p50 {:>9} p99 {:>9}  depth mean {:>5.2} max {:>3}",
        oe.qps(),
        oe.p50_latency,
        oe.p99_latency,
        oe.mean_queue_depth,
        oe.max_queue_depth,
    );
    println!(
        "    relaxed  {:>12.0} q/s  p50 {:>9} p99 {:>9}  depth mean {:>5.2} max {:>3}",
        or.qps(),
        or.p50_latency,
        or.p99_latency,
        or.mean_queue_depth,
        or.max_queue_depth,
    );
    println!(
        "    gain                      {:>8.3}x qps, {:>5.2}x p99, {:>5.2}x depth",
        overlap.qps_gain().unwrap_or(0.0),
        overlap.p99_ratio().unwrap_or(0.0),
        overlap.depth_gain().unwrap_or(0.0),
    );

    // --- 6. Shared host cache tier: tier-on vs tier-off at 1/2/4 shards
    // on a skewed Zipf stream (virtual clock; deterministic; CI-gated).
    // Same stream size in quick and full mode so the gate compares like
    // with like. ---
    let tier_counts = [1usize, 2, 4];
    let tier_batch = 256usize;
    let tier_budget = Bytes::from_mib(8);
    // The regime the tier exists for (paper §3): private row caches too
    // small for the hot row set — dividing the budget across shards shrinks
    // every slice further — while one host-level tier holds the whole hot
    // set. The pooled cache is off so whole-operator replay cannot mask the
    // row path in the measured batch.
    let mut tier_config = bench_sdm_config();
    tier_config.cache.row_cache_budget = Bytes::from_kib(512);
    tier_config.cache.pooled_cache_budget = Bytes::ZERO;
    let tier_queries = skewed_queries_for(&m1, tier_batch, 107);
    let tiers = measure_shared_tier(&m1, &tier_config, &tier_queries, &tier_counts, tier_budget);
    println!(
        "\n  shared host cache tier (M1 scaled, {tier_batch} skewed queries, \
         512KiB private row budget, {tier_budget} tier budget, virtual clock)"
    );
    for &shards in &tier_counts {
        let off = tiers.get(shards, false).expect("tier-off measured");
        let on = tiers.get(shards, true).expect("tier-on measured");
        println!(
            "    {shards} shard(s)  off {:>12.0} q/s  on {:>12.0} q/s  \
             (gain {:>5.2}x, hit rate {}, cross-shard {})",
            off.virtual_qps,
            on.virtual_qps,
            tiers.qps_gain(shards).unwrap_or(0.0),
            sdm_bench::pct(on.hit_rate()),
            sdm_bench::pct(on.cross_shard_hit_rate()),
        );
    }
    let tier_at =
        |shards: usize, enabled: bool| *tiers.get(shards, enabled).expect("tier run measured");

    // --- 7. Cache-admission policy lab: always-admit vs the second-touch
    // doorkeeper on the same skewed stream, but through a tier too small
    // for the hot row set, so the LRU churns and admission matters
    // (virtual clock; deterministic; CI-gated). ---
    // Sized below the skewed stream's hot row set (which fits at ~512KiB;
    // the full-budget tier above serves it at 100 %), so the constrained
    // tier's LRU keeps evicting and the admission policy decides what
    // stays resident.
    let policy_budget = Bytes::from_kib(384);
    let policies = measure_cache_policies(
        &m1,
        &tier_config,
        &tier_queries,
        &tier_counts,
        policy_budget,
    );
    println!(
        "\n  cache-admission policy lab (M1 scaled, {tier_batch} skewed queries, \
         512KiB private row budget, {policy_budget} constrained tier, virtual clock)"
    );
    for &shards in &tier_counts {
        let always = policies
            .get(shards, "always_admit")
            .expect("always-admit run measured");
        let second = policies
            .get(shards, "second_touch")
            .expect("second-touch run measured");
        println!(
            "    {shards} shard(s)  always {:>12.0} q/s (hit {})  second-touch {:>12.0} q/s \
             (hit {}, denied {:>6})",
            always.virtual_qps,
            sdm_bench::pct(always.hit_rate()),
            second.virtual_qps,
            sdm_bench::pct(second.hit_rate()),
            second.admission_denied,
        );
    }
    // Flat key/value body of the cache_policies JSON section (single
    // level, like open_loop, for the hand-rolled `json_field` reader).
    let mut cache_policies_json = format!(
        "\"model\": \"M1-scaled\",\n    \"queries\": {tier_batch},\n    \
         \"budget_mib\": {:.1}",
        policy_budget.as_mib_f64()
    );
    for &shards in &tier_counts {
        let always = policies
            .get(shards, "always_admit")
            .expect("always-admit run measured");
        let second = policies
            .get(shards, "second_touch")
            .expect("second-touch run measured");
        cache_policies_json.push_str(&format!(
            ",\n    \"always_admit_qps_{shards}\": {:.1},\n    \
             \"second_touch_qps_{shards}\": {:.1},\n    \
             \"always_admit_hit_rate_{shards}\": {:.4},\n    \
             \"second_touch_hit_rate_{shards}\": {:.4},\n    \
             \"second_touch_denied_{shards}\": {}",
            always.virtual_qps,
            second.virtual_qps,
            always.hit_rate(),
            second.hit_rate(),
            second.admission_denied,
        ));
    }

    // --- 8. Cache-hit latency: wall-clock ns per warmed hit in each cache
    // level. ---
    let hit_iters = if quick { 40_000usize } else { 400_000 };
    let row_bytes = [7u8; 128];
    let keys: Vec<RowKey> = (0..1024u64).map(|i| RowKey::new(0, i)).collect();

    let mut row_cache = DualRowCache::new(CacheConfig::with_total_budget(Bytes::from_mib(4)));
    for key in &keys {
        row_cache.insert(*key, &row_bytes);
    }
    let mut checksum = 0u64;
    for i in 0..hit_iters / 10 {
        checksum += u64::from(row_cache.get(&keys[i % keys.len()]).unwrap()[0]);
    }
    let start = Instant::now();
    for i in 0..hit_iters {
        checksum += u64::from(row_cache.get(black_box(&keys[i % keys.len()])).unwrap()[0]);
    }
    let row_hit_ns = start.elapsed().as_nanos() as f64 / hit_iters as f64;

    let shared_tier = SharedRowTier::new(Bytes::from_mib(4), 8);
    for key in &keys {
        shared_tier.insert(*key, &row_bytes, 0);
    }
    let start = Instant::now();
    for i in 0..hit_iters {
        shared_tier
            .lookup_with(black_box(&keys[i % keys.len()]), 1, |bytes| {
                checksum += u64::from(bytes[0]);
            })
            .expect("warmed shared-tier hit");
    }
    let shared_hit_ns = start.elapsed().as_nanos() as f64 / hit_iters as f64;

    let mut pooled_cache = PooledEmbeddingCache::new(Bytes::from_mib(4), 2);
    let sequences: Vec<Vec<u64>> = (0..256u64)
        .map(|i| (0..8).map(|j| i * 8 + j).collect())
        .collect();
    let vector = [0.5f32; 64];
    for seq in &sequences {
        pooled_cache.insert(0, seq, &vector);
    }
    let mut fsum = 0.0f32;
    let start = Instant::now();
    for i in 0..hit_iters {
        fsum += pooled_cache
            .lookup(0, black_box(&sequences[i % sequences.len()]))
            .expect("warmed pooled hit")[0];
    }
    let pooled_hit_ns = start.elapsed().as_nanos() as f64 / hit_iters as f64;
    black_box(checksum);
    black_box(fsum);

    println!("\n  cache-hit latency (warmed, wall clock)");
    println!("    row cache (dual)          {row_hit_ns:>8.1} ns/hit");
    println!("    shared tier (striped)     {shared_hit_ns:>8.1} ns/hit");
    println!("    pooled cache (keyed)      {pooled_hit_ns:>8.1} ns/hit");

    // --- 9. Open-loop serving: latency-vs-offered-load curve on the
    // virtual clock (deterministic; curve-shape gated by CI). The same
    // seeded Poisson arrival stream drives an exact-mode and a
    // relaxed-mode host at each offered rate, straddling the exact mode's
    // measured capacity (~470 virtual q/s cold, section 5) so the curve
    // shows the serving story: both modes meet the SLO at low load, and at
    // the top rate the exact host sheds hard while the relaxed host's
    // overlap absorbs far more of the offered load. Same sizes in quick
    // and full mode so the gate compares like with like. ---
    let open_rates = [100.0f64, 250.0, 1_600.0];
    let open_count = 256usize;
    let open_queries = queries_for(&m1, open_count, 109);
    let open_frontend = FrontendConfig {
        max_batch: 16,
        max_batch_delay: SimDuration::from_millis(5),
        max_queue_wait: SimDuration::from_millis(50),
        token_bucket: Some(TokenBucketConfig {
            capacity: 256.0,
            refill_per_sec: 5_000.0,
        }),
    };
    let open_arrival_seed = 113u64;
    let open_exact = measure_load_curve(
        &m1,
        &bench_sdm_config(),
        &open_queries,
        &open_frontend,
        &open_rates,
        open_arrival_seed,
    );
    let open_relaxed = measure_load_curve(
        &m1,
        &bench_sdm_config().with_relaxed_batching(overlap_window),
        &open_queries,
        &open_frontend,
        &open_rates,
        open_arrival_seed,
    );
    println!(
        "\n  open-loop serving (M1 scaled, {open_count} queries/point, max_batch 16, \
         close deadline 5ms, SLO 50ms, virtual clock)"
    );
    for (mode, curve) in [("exact", &open_exact), ("relaxed", &open_relaxed)] {
        for point in curve.iter() {
            println!(
                "    {mode:<8} offered {:>6.0} q/s  p50 {:>9} p99 {:>9}  \
                 shed {:>6}  served {:>6.0} q/s  batch {:>5.2}",
                point.offered_qps_target,
                point.p50_latency,
                point.p99_latency,
                sdm_bench::pct(point.shed_rate()),
                point.served_qps,
                point.mean_batch,
            );
        }
    }
    let open_point = |curve: &sdm_metrics::LoadCurveReport, i: usize| {
        *curve.get(i).expect("load point measured")
    };
    // Flat key/value body of the open_loop JSON section (the hand-rolled
    // `json_field` reader scopes a section to its first `}`, so the
    // section must stay a single-level object).
    let mut open_loop_json = format!(
        "\"model\": \"M1-scaled\",\n    \"queries\": {open_count},\n    \
         \"max_batch\": 16,\n    \"max_batch_delay_us\": 5000,\n    \"slo_us\": 50000"
    );
    for (i, &rate) in open_rates.iter().enumerate() {
        let n = i + 1;
        let e = open_point(&open_exact, i);
        let r = open_point(&open_relaxed, i);
        // Arrivals are mode-independent (same process and seed), so one
        // measured offered_qps field serves both modes.
        open_loop_json.push_str(&format!(
            ",\n    \"target_qps_{n}\": {rate:.1},\n    \
             \"offered_qps_{n}\": {:.1},\n    \
             \"exact_p50_us_{n}\": {:.3},\n    \
             \"exact_p99_us_{n}\": {:.3},\n    \
             \"exact_shed_rate_{n}\": {:.4},\n    \
             \"exact_served_qps_{n}\": {:.1},\n    \
             \"relaxed_p50_us_{n}\": {:.3},\n    \
             \"relaxed_p99_us_{n}\": {:.3},\n    \
             \"relaxed_shed_rate_{n}\": {:.4},\n    \
             \"relaxed_served_qps_{n}\": {:.1}",
            e.offered_qps,
            e.p50_latency.as_micros_f64(),
            e.p99_latency.as_micros_f64(),
            e.shed_rate(),
            e.served_qps,
            r.p50_latency.as_micros_f64(),
            r.p99_latency.as_micros_f64(),
            r.shed_rate(),
            r.served_qps,
        ));
    }

    // --- 10. Fault resilience: injected faults vs the end-to-end handling
    // stack on the virtual clock (deterministic; CI-gated). Same sizes in
    // quick and full mode so the gate compares like with like. ---
    let fault_shards = 2usize;
    // Enough rounds for the health EWMAs to shake off the cold first batch
    // so the outage shard separates as a straggler and reroutes engage.
    let fault_rounds = 12usize;
    let fault_batch = 96usize;
    let fault_seed = 127u64;
    // Small row cache, no pooled cache: the SM read path must stay hot
    // every round — a fully warmed cache would mask the injected faults
    // (and the outage shard's storm latency) after the first batch.
    let mut fault_config = bench_sdm_config();
    fault_config.cache.row_cache_budget = Bytes::from_kib(512);
    fault_config.cache.pooled_cache_budget = Bytes::ZERO;
    let fault_queries = queries_for(&m1, fault_batch, 127);
    let fr = measure_fault_resilience(
        &m1,
        &fault_config,
        &fault_queries,
        fault_shards,
        fault_rounds,
        fault_seed,
    );
    let fr_get = |label: &str| fr.report.get(label).expect("fault condition measured");
    let (fr_healthy, fr_empty, fr_storm, fr_stuck, fr_outage) = (
        fr_get("healthy"),
        fr_get("empty_plan"),
        fr_get("storm"),
        fr_get("stuck"),
        fr_get("outage"),
    );
    println!(
        "\n  fault resilience (M1 scaled, {fault_batch} queries x {fault_rounds} rounds, \
         {fault_shards} shards, fault seed {fault_seed}, hedge after {}, virtual clock)",
        fr.hedge_after,
    );
    for m in fr.report.iter() {
        println!(
            "    {:<10} {:>10.0} q/s  injected {:>5}  degraded {:>4}  retries {:>5}  \
             hedges {:>3} (won {:>3})  timeouts {:>4}  failovers {:>3}",
            m.label,
            m.virtual_qps,
            m.injected_total(),
            m.degraded_rows,
            m.retries,
            m.hedges,
            m.hedge_wins,
            m.deadline_timeouts,
            m.failovers,
        );
    }
    println!(
        "    storm retention {}  corruption detection {}  corrupted served {}  \
         empty-plan identical {}  replay identical {}",
        sdm_bench::pct(fr.report.qps_retention("storm", "healthy").unwrap_or(0.0)),
        sdm_bench::pct(fr_storm.corruption_detection_rate()),
        fr.report.total_corrupted_served(),
        fr.empty_plan_identical,
        fr.replay_identical,
    );
    // Flat key/value body of the fault_resilience JSON section (single
    // level, like open_loop, for the hand-rolled `json_field` reader).
    let fault_json = format!(
        "\"model\": \"M1-scaled\",\n    \"queries\": {fault_batch},\n    \
         \"shards\": {fault_shards},\n    \"rounds\": {fault_rounds},\n    \
         \"fault_seed\": {fault_seed},\n    \
         \"hedge_after_us\": {hedge_us:.3},\n    \
         \"healthy_qps\": {healthy_qps:.1},\n    \
         \"storm_qps\": {storm_qps:.1},\n    \
         \"stuck_qps\": {stuck_qps:.1},\n    \
         \"outage_qps\": {outage_qps:.1},\n    \
         \"storm_retention\": {storm_retention:.4},\n    \
         \"storm_qps_floor_frac\": {floor_frac:.4},\n    \
         \"injected_transient\": {injected_transient},\n    \
         \"injected_corruptions\": {injected_corruptions},\n    \
         \"injected_stuck\": {injected_stuck},\n    \
         \"detected_corruptions\": {detected_corruptions},\n    \
         \"corrupted_served\": {corrupted_served},\n    \
         \"storm_degraded_rows\": {storm_degraded},\n    \
         \"outage_degraded_rows\": {outage_degraded},\n    \
         \"storm_retries\": {storm_retries},\n    \
         \"storm_hedges\": {storm_hedges},\n    \
         \"storm_hedge_wins\": {storm_hedge_wins},\n    \
         \"stuck_deadline_timeouts\": {stuck_timeouts},\n    \
         \"outage_failovers\": {outage_failovers},\n    \
         \"empty_plan_degraded_rows\": {empty_degraded},\n    \
         \"empty_plan_identical\": {empty_identical},\n    \
         \"replay_identical\": {replay_identical}",
        hedge_us = fr.hedge_after.as_micros_f64(),
        healthy_qps = fr_healthy.virtual_qps,
        storm_qps = fr_storm.virtual_qps,
        stuck_qps = fr_stuck.virtual_qps,
        outage_qps = fr_outage.virtual_qps,
        storm_retention = fr.report.qps_retention("storm", "healthy").unwrap_or(0.0),
        floor_frac = STORM_QPS_FLOOR_FRAC,
        injected_transient = fr_storm.injected_transient,
        injected_corruptions = fr_storm.injected_corruptions,
        injected_stuck = fr_storm.injected_stuck,
        detected_corruptions = fr_storm.detected_corruptions,
        corrupted_served = fr.report.total_corrupted_served(),
        storm_degraded = fr_storm.degraded_rows,
        outage_degraded = fr_outage.degraded_rows,
        storm_retries = fr_storm.retries,
        storm_hedges = fr_storm.hedges,
        storm_hedge_wins = fr_storm.hedge_wins,
        stuck_timeouts = fr_stuck.deadline_timeouts,
        outage_failovers = fr_outage.failovers,
        empty_degraded = fr_empty.degraded_rows,
        empty_identical = u8::from(fr.empty_plan_identical),
        replay_identical = u8::from(fr.replay_identical),
    );

    // --- Emit BENCH_hotpath.json (hand-rolled: no JSON crate vendored). ---
    let json = format!(
        "{{\n  \"schema\": \"sdm-hotpath-v1\",\n  \"quick\": {quick},\n  \
         \"pooling\": {{\n    \"pf\": {pf},\n    \"dim\": {dim},\n    \
         \"seed_ns_per_row\": {seed_ns_per_row:.3},\n    \
         \"slice_ns_per_row\": {slice_ns_per_row:.3},\n    \
         \"speedup\": {pooling_speedup:.3}\n  }},\n  \
         \"pooling_kernels\": {{\n    {kernels_json}\n  }},\n  \
         \"batch\": {{\n    \"model\": \"M1-scaled\",\n    \"batch_size\": {batch},\n    \
         \"looped_run_query_qps\": {looped_qps:.1},\n    \
         \"run_batch_qps\": {batch_qps:.1},\n    \
         \"gain\": {batch_gain:.4}\n  }},\n  \
         \"batch_light\": {{\n    \"model\": \"tiny(4,2,2000)\",\n    \"batch_size\": {batch},\n    \
         \"looped_run_query_qps\": {light_looped_qps:.1},\n    \
         \"run_batch_qps\": {light_batch_qps:.1},\n    \
         \"gain\": {light_gain:.4}\n  }},\n  \
         \"allocations_per_query\": {{\n    \
         \"run_query_into\": {run_query_allocs:.3},\n    \
         \"run_batch\": {run_batch_allocs:.3}\n  }},\n  \
         \"multi_stream\": {{\n    \"model\": \"M1-scaled\",\n    \
         \"queries\": {stream_queries},\n    \"host_cores\": {cores},\n    \
         \"qps_streams_1\": {q1:.1},\n    \
         \"qps_streams_2\": {q2:.1},\n    \
         \"qps_streams_4\": {q4:.1},\n    \
         \"qps_streams_8\": {q8:.1},\n    \
         \"speedup_4\": {speedup_4:.4},\n    \
         \"scaling_efficiency_4\": {efficiency_4:.4}\n  }},\n  \
         \"io_overlap\": {{\n    \"model\": \"M1-scaled\",\n    \
         \"queries\": {overlap_batch},\n    \
         \"max_inflight_queries\": {overlap_window},\n    \
         \"exact_qps\": {exact_qps:.1},\n    \
         \"relaxed_qps\": {relaxed_qps:.1},\n    \
         \"qps_gain\": {qps_gain:.4},\n    \
         \"p50_latency_exact\": {p50_exact:.3},\n    \
         \"p50_latency_relaxed\": {p50_relaxed:.3},\n    \
         \"p99_latency_exact\": {p99_exact:.3},\n    \
         \"p99_latency_relaxed\": {p99_relaxed:.3},\n    \
         \"mean_queue_depth_exact\": {depth_exact:.3},\n    \
         \"mean_queue_depth_relaxed\": {depth_relaxed:.3},\n    \
         \"max_queue_depth_exact\": {max_depth_exact},\n    \
         \"max_queue_depth_relaxed\": {max_depth_relaxed}\n  }},\n  \
         \"shared_tier\": {{\n    \"model\": \"M1-scaled\",\n    \
         \"queries\": {tier_batch},\n    \
         \"budget_mib\": {tier_budget_mib:.1},\n    \
         \"off_qps_1\": {t_off_1:.1},\n    \
         \"on_qps_1\": {t_on_1:.1},\n    \
         \"off_qps_2\": {t_off_2:.1},\n    \
         \"on_qps_2\": {t_on_2:.1},\n    \
         \"off_qps_4\": {t_off_4:.1},\n    \
         \"on_qps_4\": {t_on_4:.1},\n    \
         \"qps_gain_2\": {t_gain_2:.4},\n    \
         \"qps_gain_4\": {t_gain_4:.4},\n    \
         \"hit_rate_2\": {t_hit_2:.4},\n    \
         \"hit_rate_4\": {t_hit_4:.4},\n    \
         \"cross_shard_hit_rate_2\": {t_cross_2:.4},\n    \
         \"cross_shard_hit_rate_4\": {t_cross_4:.4},\n    \
         \"promotions_4\": {t_promo_4}\n  }},\n  \
         \"cache_policies\": {{\n    {cache_policies_json}\n  }},\n  \
         \"open_loop\": {{\n    {open_loop_json}\n  }},\n  \
         \"fault_resilience\": {{\n    {fault_json}\n  }},\n  \
         \"cache_latency\": {{\n    \
         \"row_hit_ns\": {row_hit_ns:.1},\n    \
         \"shared_hit_ns\": {shared_hit_ns:.1},\n    \
         \"pooled_hit_ns\": {pooled_hit_ns:.1}\n  }}\n}}\n",
        q1 = qps_at(1),
        q2 = qps_at(2),
        q4 = qps_at(4),
        q8 = qps_at(8),
        exact_qps = oe.qps(),
        relaxed_qps = or.qps(),
        qps_gain = overlap.qps_gain().unwrap_or(0.0),
        p50_exact = oe.p50_latency.as_nanos() as f64 / 1_000.0,
        p50_relaxed = or.p50_latency.as_nanos() as f64 / 1_000.0,
        p99_exact = oe.p99_latency.as_nanos() as f64 / 1_000.0,
        p99_relaxed = or.p99_latency.as_nanos() as f64 / 1_000.0,
        depth_exact = oe.mean_queue_depth,
        depth_relaxed = or.mean_queue_depth,
        max_depth_exact = oe.max_queue_depth,
        max_depth_relaxed = or.max_queue_depth,
        tier_budget_mib = tier_budget.as_mib_f64(),
        t_off_1 = tier_at(1, false).virtual_qps,
        t_on_1 = tier_at(1, true).virtual_qps,
        t_off_2 = tier_at(2, false).virtual_qps,
        t_on_2 = tier_at(2, true).virtual_qps,
        t_off_4 = tier_at(4, false).virtual_qps,
        t_on_4 = tier_at(4, true).virtual_qps,
        t_gain_2 = tiers.qps_gain(2).unwrap_or(0.0),
        t_gain_4 = tiers.qps_gain(4).unwrap_or(0.0),
        t_hit_2 = tier_at(2, true).hit_rate(),
        t_hit_4 = tier_at(4, true).hit_rate(),
        t_cross_2 = tier_at(2, true).cross_shard_hit_rate(),
        t_cross_4 = tier_at(4, true).cross_shard_hit_rate(),
        t_promo_4 = tier_at(4, true).promotions,
    );
    std::fs::write(&out_path, &json).expect("failed to write BENCH_hotpath.json");
    println!("\n  wrote {out_path}");
    black_box(sink);

    // --- Numeric regression gate (--check). ---
    if check {
        println!("\n  regression gate vs committed {out_path}");
        match baseline {
            None => println!("    no committed baseline found; skipping comparison"),
            Some(base) => {
                // Wall-clock fields only compare like with like.
                let compare_wall_clock = json_field(&base, "multi_stream", "host_cores")
                    == json_field(&json, "multi_stream", "host_cores");
                if !compare_wall_clock {
                    println!(
                        "    (host_cores differs from baseline; gating only the \
                         deterministic io_overlap fields)"
                    );
                }
                let failures = regression_failures(&base, &json, compare_wall_clock);
                if failures.is_empty() {
                    println!("    all gated fields within tolerance; overlap invariants hold");
                } else {
                    for f in &failures {
                        println!("    FAIL {f}");
                    }
                    std::process::exit(1);
                }
            }
        }
    }
}
