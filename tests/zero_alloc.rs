//! Steady-state allocation audit: on a fully warmed cache, the serving hot
//! path — `ServingHost::run_selected_batch` with warm scratch and reused
//! picks, one query at a time or a whole batch — performs **zero heap
//! allocations per query**.
//!
//! A counting `GlobalAlloc` wrapper reports every allocation into
//! `sdm_metrics::alloc_hook`; the assertions below turn the hook on around
//! the measured serving loops only, so test-harness and setup allocations
//! do not pollute the count.

pub mod common;

use common::{identity_picks, single_stream, Stream};
use dlrm::model_zoo;
use io_engine::RetryConfig;
use sdm_cache::RowCache;
use sdm_core::{BatchMode, Frontend, FrontendConfig, SdmConfig, ServingHost, TokenBucketConfig};
use sdm_metrics::alloc_hook;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use workload::{ArrivalGenerator, ArrivalProcess, Query};

/// System allocator wrapper that reports into the sdm-metrics hook.
struct CountingAllocator;

// SAFETY: defers every operation to the system allocator unchanged; the
// hook call is side-effect-only bookkeeping.
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
        // A growth is a fresh allocation from the hot path's point of view.
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

/// Small population so the stream re-hits the same index sequences and
/// the caches genuinely warm up.
const STREAM: Stream = Stream {
    users: 8,
    item_cap: u32::MAX,
    skew: None,
};

/// Serves `queries` one query per batch, each batch's picks a one-element
/// slice of `all` (the reused pick list).
fn serve_one_by_one(host: &mut ServingHost, queries: &[Query], all: &[usize]) {
    for k in 0..all.len() {
        host.run_selected_batch(queries, &all[k..=k]).unwrap();
    }
}

/// Warm every level: row cache, pooled cache, scratch-buffer capacity,
/// batch-scratch capacity — by running the exact stream we will measure,
/// one query per batch and whole.
fn warm(host: &mut ServingHost, queries: &[Query], all: &[usize]) {
    for _ in 0..3 {
        serve_one_by_one(host, queries, all);
    }
    host.run_selected_batch(queries, all).unwrap();
    host.run_selected_batch(queries, all).unwrap();
}

// The measurements share one test because the allocation hook is
// process-global and the harness runs tests concurrently.
#[test]
fn warmed_hot_path_performs_zero_allocations() {
    let model = model_zoo::tiny(3, 2, 400);
    let queries = common::stream(&model, STREAM, 12, 7);
    let all = identity_picks(&queries);
    let mut system = single_stream(&model, &SdmConfig::for_tests(), 7);
    warm(&mut system, &queries, &all);

    // --- one-query batches with reused picks ---
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    serve_one_by_one(&mut system, &queries, &all);
    alloc_hook::set_enabled(false);
    let per_query = alloc_hook::allocations();
    assert_eq!(
        per_query,
        0,
        "steady-state one-query batches allocated {per_query} times over {} queries \
         ({} bytes)",
        queries.len(),
        alloc_hook::allocated_bytes()
    );

    // --- one batch over the same warmed stream ---
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let report = system.run_selected_batch(&queries, &all).unwrap();
    alloc_hook::set_enabled(false);
    let batch_allocs = alloc_hook::allocations();
    assert_eq!(
        batch_allocs, 0,
        "steady-state batch allocated {batch_allocs} times for {} queries",
        report.queries
    );
    assert_eq!(report.queries, queries.len() as u64);

    // Sanity: the caches really were hot (this is what makes zero
    // allocations meaningful — no IO path, pure cache serving).
    let stats = system.shard(0).manager().stats();
    assert!(
        stats.row_cache_hits + stats.pooled_cache_hits > 0,
        "stream never hit a cache; the measurement is vacuous"
    );

    // --- relaxed (overlapped) batch over a warmed stream ---
    // The same loop as exact, handed different start instants: the ring of
    // in-flight finish instants is a reused field, so a deeper window
    // allocates nothing either.
    let relaxed_cfg = SdmConfig::for_tests().with_batch_mode(BatchMode::Relaxed {
        max_inflight_queries: 4,
    });
    let mut relaxed = single_stream(&model, &relaxed_cfg, 7);
    for _ in 0..3 {
        relaxed.run_selected_batch(&queries, &all).unwrap();
    }
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let relaxed_report = relaxed.run_selected_batch(&queries, &all).unwrap();
    alloc_hook::set_enabled(false);
    let relaxed_allocs = alloc_hook::allocations();
    assert_eq!(
        relaxed_allocs, 0,
        "steady-state relaxed batch allocated {relaxed_allocs} times for {} queries",
        relaxed_report.queries
    );
    assert_eq!(relaxed_report.queries, queries.len() as u64);

    // --- warmed hot path with the resilience machinery armed ---
    // Bounded retries, a per-IO deadline and hedged reads compiled in and
    // *enabled* (not the inert defaults) on fault-free devices: the warmed
    // no-fault serving loop must stay allocation-free with the resilience
    // layer in the build.
    let mut resilient_cfg = SdmConfig::for_tests();
    resilient_cfg.io.retry = RetryConfig {
        max_attempts: 4,
        io_deadline: SimDuration::from_millis(50),
        hedge_after: Some(SimDuration::from_millis(10)),
    };
    let mut resilient = single_stream(&model, &resilient_cfg, 7);
    warm(&mut resilient, &queries, &all);
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    serve_one_by_one(&mut resilient, &queries, &all);
    resilient.run_selected_batch(&queries, &all).unwrap();
    alloc_hook::set_enabled(false);
    let resilient_allocs = alloc_hook::allocations();
    assert_eq!(
        resilient_allocs,
        0,
        "steady-state serving with armed resilience allocated {resilient_allocs} times \
         over {} queries",
        queries.len()
    );
    assert_eq!(
        resilient.shard(0).manager().stats().degraded_rows,
        0,
        "fault-free devices must never degrade a row"
    );

    // --- warmed serving through the shared tier ---
    // A tiny private row cache forces private misses every query; the
    // shared tier (populated by the warmup passes' promotions) then serves
    // them. The stripe lookup — hash, mutex lock, recency-stamp touch,
    // closure accumulate out of the stripe arena — must allocate nothing.
    let mut tier_cfg = SdmConfig::for_tests().with_shared_tier(Bytes::from_mib(4));
    tier_cfg.cache.row_cache_budget = Bytes::from_kib(2);
    tier_cfg.cache.pooled_cache_budget = Bytes::ZERO;
    let mut tiered = single_stream(&model, &tier_cfg, 7);
    for _ in 0..3 {
        serve_one_by_one(&mut tiered, &queries, &all);
    }
    let hits_before = tiered.shard(0).manager().stats().shared_tier_hits;
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    serve_one_by_one(&mut tiered, &queries, &all);
    alloc_hook::set_enabled(false);
    let tier_allocs = alloc_hook::allocations();
    assert_eq!(
        tier_allocs,
        0,
        "steady-state shared-tier serving allocated {tier_allocs} times over {} queries",
        queries.len()
    );
    assert!(
        tiered.shard(0).manager().stats().shared_tier_hits > hits_before,
        "measured loop never hit the shared tier; the measurement is vacuous"
    );

    // --- warmed open-loop front end: admission → batch → serve ---
    // The front end owns its pick list, logs and latency histogram; the
    // host owns the selection scratch. A repeat of the same seeded arrival
    // stream therefore touches only retained capacity: token-bucket
    // refill, SLO check, batch close and dispatch allocate nothing.
    let frontend_config = FrontendConfig {
        max_batch: 4,
        max_batch_delay: SimDuration::from_micros(500),
        max_queue_wait: SimDuration::from_millis(50),
        token_bucket: Some(TokenBucketConfig {
            capacity: 64.0,
            refill_per_sec: 1_000_000.0,
        }),
    };
    let mut host = single_stream(&model, &SdmConfig::for_tests(), 7);
    let mut frontend = Frontend::new(frontend_config).unwrap();
    let open_loop = ArrivalProcess::Poisson { rate_qps: 5_000.0 };
    for _ in 0..3 {
        let mut arrivals = ArrivalGenerator::new(open_loop, 21).unwrap();
        frontend.run(&mut host, &queries, &mut arrivals).unwrap();
    }
    let mut arrivals = ArrivalGenerator::new(open_loop, 21).unwrap();
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let frontend_report = frontend.run(&mut host, &queries, &mut arrivals).unwrap();
    alloc_hook::set_enabled(false);
    let frontend_allocs = alloc_hook::allocations();
    assert_eq!(
        frontend_allocs,
        0,
        "steady-state open-loop serving allocated {frontend_allocs} times over {} arrivals",
        queries.len()
    );
    assert_eq!(frontend_report.offered, queries.len() as u64);
    assert!(
        frontend_report.served > 0,
        "open-loop run served nothing; the measurement is vacuous"
    );

    // --- steady-state MISS path: SM reads on every batch ---
    // A row cache a quarter of the stream's working set, the pooled cache
    // off and eight queries in flight: every batch evicts, reads from the
    // devices and refills. The per-IO machinery — inline read commands,
    // recycled completion buffers, resolved counter handles, the arena's
    // bins and boundary maps, the in-place completion sort — must run on
    // retained capacity alone once warmed.
    let miss_model = model_zoo::tiny(3, 2, 4_000);
    let miss_stream = Stream {
        users: 64,
        ..STREAM
    };
    let miss_queries = common::stream(&miss_model, miss_stream, 48, 11);
    let miss_all = identity_picks(&miss_queries);
    let miss_config = |row_cache_budget: Bytes| {
        let mut cfg = SdmConfig::for_tests().with_batch_mode(BatchMode::Relaxed {
            max_inflight_queries: 8,
        });
        cfg.cache.row_cache_budget = row_cache_budget;
        cfg.cache.pooled_cache_budget = Bytes::ZERO;
        cfg
    };
    let working_set = {
        let mut roomy = single_stream(&miss_model, &miss_config(Bytes::from_mib(4)), 11);
        roomy.run_selected_batch(&miss_queries, &miss_all).unwrap();
        roomy.shard(0).manager().row_cache().memory_used()
    };
    let mut missing = single_stream(
        &miss_model,
        &miss_config(Bytes(working_set.as_u64() / 4)),
        11,
    );
    for _ in 0..12 {
        missing
            .run_selected_batch(&miss_queries, &miss_all)
            .unwrap();
    }
    let manager = missing.shard(0).manager();
    let reads_before = manager.stats().sm_reads;
    let evictions_before = manager.row_cache().small_engine_stats().evictions;
    for batch in 0..4 {
        alloc_hook::reset();
        alloc_hook::set_enabled(true);
        missing
            .run_selected_batch(&miss_queries, &miss_all)
            .unwrap();
        alloc_hook::set_enabled(false);
        let miss_allocs = alloc_hook::allocations();
        assert_eq!(
            miss_allocs,
            0,
            "steady-state miss-path batch {batch} allocated {miss_allocs} times over {} queries \
             ({} bytes)",
            miss_queries.len(),
            alloc_hook::allocated_bytes()
        );
    }
    let manager = missing.shard(0).manager();
    let reads = manager.stats().sm_reads - reads_before;
    let evictions = manager.row_cache().small_engine_stats().evictions - evictions_before;
    assert!(
        reads > 4 * 200 && evictions > 4 * 100,
        "measured batches made {reads} SM reads and {evictions} evictions; \
         the miss-path measurement is vacuous"
    );

    // Control: a cold host's first batch grows its scratch and fills its
    // caches, so it does allocate — proving the counter actually observes
    // this code path.
    let mut cold = single_stream(&model, &SdmConfig::for_tests(), 7);
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    cold.run_selected_batch(&queries, &all).unwrap();
    alloc_hook::set_enabled(false);
    assert!(
        alloc_hook::allocations() > 0,
        "control failed: the counting allocator is not installed"
    );
}
