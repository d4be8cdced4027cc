//! Open-loop serving integration tests: load-curve determinism, dynamic-
//! batcher invariants under randomised traffic, and the batch-mode median
//! regression that the interpolated histogram percentiles fixed.

use dlrm::model_zoo;
use proptest::prelude::*;
use sdm_bench::{bench_sdm_config, measure_batch_modes, measure_load_curve, queries_for, scaled};
use sdm_core::{CloseReason, Frontend, FrontendConfig, QueryOutcome, SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use workload::{ArrivalGenerator, ArrivalProcess, RoutingPolicy};

/// The full pipeline — arrival generator, front end, serving host,
/// per-rate reports — is a pure function of its seeds: two runs agree
/// bit-for-bit, and changing only the arrival seed perturbs the curve.
#[test]
fn load_curve_is_deterministic_for_fixed_seeds() {
    let model = model_zoo::tiny(3, 2, 400);
    let queries = queries_for(&model, 64, 11);
    let frontend = FrontendConfig {
        max_batch: 8,
        max_batch_delay: SimDuration::from_millis(2),
        max_queue_wait: SimDuration::from_millis(20),
        token_bucket: None,
    };
    let rates = [200.0, 20_000.0];
    let config = SdmConfig::for_tests();
    let a = measure_load_curve(&model, &config, &queries, &frontend, &rates, 17);
    let b = measure_load_curve(&model, &config, &queries, &frontend, &rates, 17);
    assert_eq!(
        a, b,
        "identical seeds must reproduce the load curve exactly"
    );
    assert_eq!(a.len(), rates.len());
    let c = measure_load_curve(&model, &config, &queries, &frontend, &rates, 18);
    assert_ne!(a, c, "a different arrival seed must perturb the curve");
}

/// Far below capacity nothing is shed and every arrival is served.
#[test]
fn trickle_traffic_is_served_in_full() {
    let model = model_zoo::tiny(2, 1, 300);
    let queries = queries_for(&model, 24, 9);
    let mut host = ServingHost::build(
        &model,
        &SdmConfig::for_tests(),
        9,
        1,
        RoutingPolicy::UserSticky,
    )
    .unwrap();
    let mut frontend = Frontend::new(FrontendConfig {
        max_batch: 8,
        max_batch_delay: SimDuration::from_millis(1),
        max_queue_wait: SimDuration::from_millis(500),
        token_bucket: None,
    })
    .unwrap();
    let mut arrivals =
        ArrivalGenerator::new(ArrivalProcess::Poisson { rate_qps: 20.0 }, 5).unwrap();
    let report = frontend.run(&mut host, &queries, &mut arrivals).unwrap();
    assert_eq!(report.offered, queries.len() as u64);
    assert_eq!(report.served, report.offered);
    assert_eq!(report.shed(), 0);
}

proptest! {
    // Case count and RNG seed pinned for deterministic CI (see
    // tests/properties.rs). Each case drives a real single-shard host, so
    // the count stays modest.
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x5d11_0006))]

    /// Whatever the traffic and batcher settings, the dynamic batcher
    /// honours its envelope: no batch exceeds `max_batch`, no batch closes
    /// later than its oldest query's deadline, batches dispatch in order,
    /// the host is never idle while an admitted query waits (the start
    /// law), queries are served first in, first out, and the per-query
    /// bookkeeping conserves arrivals.
    #[test]
    fn dynamic_batcher_honours_its_envelope(
        rate_exp in 1.0f64..6.0,
        max_batch in 1usize..12,
        delay_us in 100u64..20_000,
        slo_us in 0u64..100_000,
        arrival_seed in 0u64..1_000,
    ) {
        let rate_qps = 10f64.powf(rate_exp);
        let model = model_zoo::tiny(2, 1, 300);
        let queries = queries_for(&model, 40, 9);
        let mut host =
            ServingHost::build(&model, &SdmConfig::for_tests(), 9, 1, RoutingPolicy::UserSticky)
                .unwrap();
        let config = FrontendConfig {
            max_batch,
            max_batch_delay: SimDuration::from_micros(delay_us),
            max_queue_wait: SimDuration::from_micros(slo_us),
            token_bucket: None,
        };
        let mut frontend = Frontend::new(config).unwrap();
        let mut arrivals =
            ArrivalGenerator::new(ArrivalProcess::Poisson { rate_qps }, arrival_seed).unwrap();
        let report = frontend.run(&mut host, &queries, &mut arrivals).unwrap();

        // Conservation: every arrival is either served or shed, and the
        // served-rate can never exceed the offered rate.
        prop_assert_eq!(report.offered, queries.len() as u64);
        prop_assert_eq!(report.served + report.shed(), report.offered);
        prop_assert!(report.served_qps <= report.offered_qps + 1e-9);

        // Batch envelope.
        let mut dispatched = 0u64;
        let mut last_close = None;
        let mut host_free = None;
        let mut served = frontend.query_log().iter().filter_map(|q| match q.outcome {
            QueryOutcome::Served { completed } => Some((q.arrival, completed)),
            _ => None,
        });
        for batch in frontend.batch_log() {
            prop_assert!(batch.len >= 1 && batch.len <= max_batch);
            if batch.reason == CloseReason::Full {
                prop_assert_eq!(batch.len, max_batch);
            }
            prop_assert!(
                batch.closed_at.duration_since(batch.oldest_arrival) <= config.max_batch_delay,
                "batch closed {:?} after its oldest arrival (deadline {:?})",
                batch.closed_at.duration_since(batch.oldest_arrival),
                config.max_batch_delay
            );
            prop_assert!(batch.started_at >= batch.closed_at);
            prop_assert!(batch.completed_at >= batch.started_at);
            if let Some(prev) = last_close {
                prop_assert!(batch.closed_at >= prev, "batches must dispatch in close order");
            }
            last_close = Some(batch.closed_at);
            // Start law: the batch starts when the previous one completes,
            // or on its oldest query's arrival if the host was idle then.
            let law = host_free.map_or(batch.oldest_arrival, |free| batch.oldest_arrival.max(free));
            prop_assert_eq!(batch.started_at, law, "host idled with a query waiting: {:?}", batch);
            host_free = Some(batch.completed_at);
            // FIFO: the batch holds the next `len` served queries.
            for k in 0..batch.len {
                let (arrival, completed) = served.next().expect("batch log outruns the query log");
                prop_assert_eq!(completed, batch.completed_at);
                if k == 0 {
                    prop_assert_eq!(arrival, batch.oldest_arrival);
                }
            }
            dispatched += batch.len as u64;
        }
        prop_assert!(served.next().is_none(), "a served query belongs to no batch");
        prop_assert_eq!(dispatched, report.served);
    }
}

/// Once the host is busy at every arrival, the free-host close never
/// fires: batches close full or at their deadline and queue for the host,
/// exactly as a size-or-deadline batcher would close them.
#[test]
fn overload_closes_batches_full_or_on_deadline_only() {
    let model = model_zoo::tiny(2, 1, 300);
    let queries = queries_for(&model, 64, 9);
    let mut host = ServingHost::build(
        &model,
        &SdmConfig::for_tests(),
        9,
        1,
        RoutingPolicy::UserSticky,
    )
    .unwrap();
    let config = FrontendConfig {
        max_batch: 4,
        max_batch_delay: SimDuration::from_micros(3),
        max_queue_wait: SimDuration::from_secs(10),
        token_bucket: None,
    };
    let mut frontend = Frontend::new(config).unwrap();
    // ~1 µs gaps against a service time of tens of µs.
    let mut arrivals = ArrivalGenerator::new(ArrivalProcess::Poisson { rate_qps: 1e6 }, 7).unwrap();
    let report = frontend.run(&mut host, &queries, &mut arrivals).unwrap();
    assert_eq!(report.served, 64);
    let log = frontend.batch_log();
    // The first arrival meets an idle host; from then on it never is.
    assert_eq!(log[0].reason, CloseReason::HostFree);
    let queries_log = frontend.query_log();
    let mut free = log[0].completed_at;
    let mut next = log[0].len;
    let (mut full, mut deadline) = (0, 0);
    for (i, batch) in log.iter().enumerate().skip(1) {
        for record in &queries_log[next..next + batch.len] {
            assert!(free > record.arrival, "host idle at an arrival: {batch:?}");
        }
        next += batch.len;
        match batch.reason {
            CloseReason::Full => full += 1,
            CloseReason::Deadline => {
                deadline += 1;
                assert_eq!(
                    batch.closed_at,
                    batch.oldest_arrival + config.max_batch_delay
                );
            }
            CloseReason::Flush => assert_eq!(i, log.len() - 1),
            CloseReason::HostFree => panic!("busy host took a batch early: {batch:?}"),
        }
        assert_eq!(batch.started_at, free);
        free = batch.completed_at;
    }
    assert!(full > 0 && deadline > 0, "full {full}, deadline {deadline}");
}

/// Regression for the histogram percentile fix: on a cold M1-scaled stream
/// the exact and relaxed(8) medians are close enough that the old
/// bucket-lower-bound percentile collapsed them into the same value, hiding
/// the latency cost of overlapping. With within-bucket interpolation the
/// two medians are distinct (and both positive).
///
/// The medians must come from the user chain, the side whose SM reads the
/// two modes overlap differently. Under the default 16 MiB row cache the
/// user chain finishes inside the item chain — one fast-memory operator per
/// item table — so both medians are that item chain, 1 161 249 ns in either
/// mode, whatever the percentile does. A 448 KiB row cache with the pooled
/// cache off (`sm_bound`'s shape) makes the user chain critical while
/// keeping both medians inside one histogram bucket (1 219 978 and
/// 1 230 027 ns). At 480 KiB, where an SM operator's reads overlap its
/// walk and pooling, both user chains finish under the item chain; at
/// 384 KiB and below the medians leave the bucket.
#[test]
fn batch_mode_medians_are_distinguishable_on_m1() {
    let m1 = scaled(&model_zoo::m1());
    let queries = queries_for(&m1, 256, 109);
    let mut config = bench_sdm_config();
    config.cache.row_cache_budget = Bytes::from_kib(448);
    config.cache.pooled_cache_budget = Bytes::ZERO;
    let (exact, relaxed) = measure_batch_modes(&m1, &config, &queries, 8);
    assert!(!exact.p50_latency.is_zero());
    assert!(!relaxed.p50_latency.is_zero());
    // The histogram's bucket of a value: its power of two, split 16 ways.
    let bucket = |d: SimDuration| {
        let nanos = d.as_nanos();
        let exp = 63 - nanos.leading_zeros();
        (exp, ((nanos - (1 << exp)) << 4) >> exp)
    };
    assert_eq!(
        bucket(exact.p50_latency),
        bucket(relaxed.p50_latency),
        "the medians ({:?}, {:?}) no longer share a bucket: the test no longer \
         exercises interpolation",
        exact.p50_latency,
        relaxed.p50_latency
    );
    assert_ne!(
        exact.p50_latency, relaxed.p50_latency,
        "interpolated p50s must separate the two execution modes"
    );
}
