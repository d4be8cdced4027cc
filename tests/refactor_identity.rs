//! Refactor bit-identity suite: a refactor of the serving stack must not
//! move a single bit of serving behaviour (the shared tier admits every
//! promotion).
//!
//! The golden fingerprints below are captured from the parent commit of
//! whatever refactor leans on them (same scenarios, same seeds). Per
//! scenario they pin:
//!
//! * **scores** — every per-query score bit pattern across three batches
//!   (cold + two warm), so summation order and hit/miss routing are frozen.
//!   A digest only sees what its inputs show, so every scenario also asserts
//!   that its scores are *live* — at least two distinct values and a
//!   non-zero variance. The replicas this suite used before (MLP divisor
//!   60, weight seeds 90–92) scored exactly 0.0 for every item, and twelve
//!   digests of all-zero scores guarded nothing;
//! * **stats** — the merged [`sdm_core::SdmStats`] block plus every
//!   shard's virtual clock;
//! * **cache counters** — `CacheStats` of every engine (dual row cache,
//!   pooled-embedding cache, shared tier) with the `resident_bytes` gauge
//!   masked out;
//! * **resident bytes** — the masked gauge, separately. The arena
//!   size-class coalescing fix is *allowed* to lower retained bytes (that
//!   is its purpose), so this component is asserted as `<=` the golden
//!   value while everything else must match exactly.
//!
//! Scenarios: scaled M1–M3 replicas × shared tier off / on in exact mode,
//! under a capacity-constrained budget so the eviction and promotion paths
//! all run — each also run as relaxed(window 1), which must reproduce the
//! exact fingerprint of the same run (the pooled cache evicts here, so this
//! is the strong form of the `batch_overlap` window-1 contract) — plus one
//! relaxed(window 8) row per model with the pooled cache off: the guard for
//! "overlapped batches, no pooled cache: not a bit moves". Tier-off
//! scenarios use a
//! 2-shard host (shards are independent, so the per-shard thread
//! interleaving cannot move a bit); tier-on scenarios use a 1-shard host —
//! worker threads sharing the tier make multi-shard tier state
//! interleaving-dependent, and a bit-identity suite must only pin
//! deterministic executions. Every stripe path (promotion, hits,
//! eviction, in-place refresh) still runs single-shard.
//!
//! Last re-pin: a query issues one embedding operator per (side, table)
//! instead of one per request (`dlrm`'s engine docs), so the item chain pays
//! the per-operator overhead once per item table and every shard clock moved
//! (the stats digests). Item tables are fast-memory, so no row's pooling
//! order changed in exact mode and every exact score digest, every cache
//! counter digest and every `resident_bytes` held. The one score digest that
//! moved is M3 relaxed(8), pooled off: with overlapped queries the shorter
//! item chain moves the next queries' start instants, hence the device
//! queues their SM misses meet and the completion order those misses pool
//! in — float reassociation, not a routing change (its cache counters held).
//! The same re-pin dropped `SdmStats`' four write-only `frontend_*` fields.
//!
//! To re-capture (e.g. after an *intentional* behaviour change), run:
//! `SDM_CAPTURE_GOLDEN=1 cargo test --test refactor_identity -- --nocapture`
//! and paste the printed table over `GOLDEN`.

pub mod common;

use common::{assert_live_scores, identity_picks, Stream};
use dlrm::model_zoo;
use sdm_cache::RowCache;
use sdm_core::{SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use workload::RoutingPolicy;

/// FNV-1a, the same pinned-seed style the fault-injection suite uses:
/// deterministic, dependency-free, good enough to detect any bit flip.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn hash_str(hash: &mut u64, s: &str) {
    fnv1a(hash, s.as_bytes());
}

/// One scenario's frozen observable behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    scores: u64,
    stats: u64,
    cache_counters: u64,
    resident_bytes: u64,
}

/// A skewed stream: a small hot user set under a steep Zipf exponent.
const SKEWED: Stream = Stream {
    users: 48,
    item_cap: 8,
    skew: Some(1.1),
};

/// MLP divisor of the scaled replicas: the benchmark's.
const MLP_DIVISOR: f64 = 40.0;

/// Weight and stream seed of every scenario. Not arbitrary: at any divisor
/// about half of all weight seeds leave a ReLU stack dead and every score
/// exactly 0.0 (at this divisor 90–92 do, on all three models); 93 is live
/// on M1, M2 and M3, and `assert_live_scores` keeps it honest.
const SEED: u64 = 93;

/// The M1–M3 scaled replicas (M3 as the user+item subset the shared-tier
/// suite also uses — terabyte-scale table counts exercise nothing extra).
fn models() -> Vec<dlrm::ModelConfig> {
    vec![
        model_zoo::scaled_model(&model_zoo::m1(), 400_000, MLP_DIVISOR),
        model_zoo::scaled_model(&model_zoo::m2(), 400_000, MLP_DIVISOR),
        {
            let mut m3 = model_zoo::scaled_model(&model_zoo::m3(), 4_000_000, MLP_DIVISOR);
            let user: Vec<_> = m3
                .tables
                .iter()
                .filter(|t| t.kind == embedding::TableKind::User)
                .take(20)
                .cloned()
                .collect();
            let item: Vec<_> = m3
                .tables
                .iter()
                .filter(|t| t.kind == embedding::TableKind::Item)
                .take(10)
                .cloned()
                .collect();
            m3.tables = user.into_iter().chain(item).collect();
            m3
        },
    ]
}

/// One row of the scenario table.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    /// `None` = exact, `Some(w)` = relaxed with `w` queries in flight.
    window: Option<usize>,
    tier: bool,
    pooled: bool,
}

/// The pinned scenarios per model, in `GOLDEN` order. Every exact row is
/// also run as relaxed(window 1), whose fingerprint is not pinned but
/// computed: it must equal the exact row's, whatever that is.
const SCENARIOS: &[Scenario] = &[
    Scenario {
        window: None,
        tier: false,
        pooled: true,
    },
    Scenario {
        window: None,
        tier: true,
        pooled: true,
    },
    Scenario {
        window: Some(8),
        tier: false,
        pooled: false,
    },
];

/// Capacity-constrained budgets: private slices too small for the hot set
/// (so LRU eviction and, with the tier on, promotion churn all happen) and
/// a small pooled cache so the whole-operator replay path stays live too.
fn scenario_config(scenario: Scenario) -> SdmConfig {
    let mut config = match scenario.window {
        None => SdmConfig::for_tests(),
        Some(w) => SdmConfig::for_tests().with_relaxed_batching(w),
    };
    config.cache.row_cache_budget = Bytes::from_kib(96);
    config.cache.pooled_cache_budget = if scenario.pooled {
        Bytes::from_kib(64)
    } else {
        Bytes::ZERO
    };
    if scenario.tier {
        config.cache.shared_tier_budget = Bytes::from_kib(128);
        config.cache.shared_tier_stripes = 4;
    }
    config
}

fn run_scenario(model: &dlrm::ModelConfig, seed: u64, scenario: Scenario) -> Fingerprint {
    let queries = common::stream(model, SKEWED, 24, seed);
    let all = identity_picks(&queries);
    let config = scenario_config(scenario);
    // Tier-on runs must be single-shard to stay deterministic (see the
    // module docs); tier-off runs cover the multi-shard merge paths.
    let shards = if scenario.tier { 1 } else { 2 };
    let mut host =
        ServingHost::build(model, &config, seed, shards, RoutingPolicy::UserSticky).unwrap();

    let mut scores = 0xcbf2_9ce4_8422_2325u64;
    let mut all_scores = Vec::new();
    for _batch in 0..3 {
        host.run_selected_batch(&queries, &all).unwrap();
        for i in 0..host.len() {
            for s in host.scores(i) {
                fnv1a(&mut scores, &s.to_bits().to_le_bytes());
            }
            all_scores.extend_from_slice(host.scores(i));
        }
    }
    assert_live_scores(&format!("{} {scenario:?}", model.name), [&all_scores[..]]);

    let mut stats = 0xcbf2_9ce4_8422_2325u64;
    hash_str(&mut stats, &format!("{:?}", host.stats()));
    for i in 0..host.shards() {
        hash_str(&mut stats, &format!("{:?}", host.shard(i).now()));
    }

    let mut counters = 0xcbf2_9ce4_8422_2325u64;
    let mut resident = 0u64;
    let fold = |stats: &sdm_cache::CacheStats, h: &mut u64, r: &mut u64| {
        *r += stats.resident_bytes;
        let mut masked = stats.clone();
        masked.resident_bytes = 0;
        hash_str(h, &format!("{masked:?}"));
    };
    for i in 0..host.shards() {
        let manager = host.shard(i).manager();
        fold(manager.row_cache().stats(), &mut counters, &mut resident);
        fold(manager.pooled_cache().stats(), &mut counters, &mut resident);
    }
    if let Some(shared) = host.shared_tier() {
        fold(&shared.stats(), &mut counters, &mut resident);
        hash_str(&mut counters, &format!("len={}", shared.len()));
    }

    Fingerprint {
        scores,
        stats,
        cache_counters: counters,
        resident_bytes: resident,
    }
}

/// Golden fingerprints, model-major, then `SCENARIOS` order.
const GOLDEN: &[(u64, u64, u64, u64)] = &[
    (
        0xc5dbfaa4716ea75f,
        0xce5c55908d66daae,
        0xdbf1bcd47137602d,
        58464,
    ), // M1 exact
    (
        0xe408c10de5e85003,
        0x0222e5cf7c389d78,
        0x0afaed25641c2af6,
        157931,
    ), // M1 exact, tier
    (
        0x1a0a0cc25cebc613,
        0xd437bd27f517aeba,
        0x85ed0c1c8cdfaefd,
        0,
    ), // M1 relaxed(8), pooled off
    (
        0xfb8dcec046fe3cdc,
        0x18391a19182ef8a0,
        0x1847e2ce5336c35c,
        67356,
    ), // M2 exact
    (
        0x815e0028ffd06a04,
        0xe27a21f1f9cfd0f6,
        0x4dcfe3aee4f10405,
        163724,
    ), // M2 exact, tier
    (
        0xb7ae4a7e95ca527f,
        0x36efc306e4d7defb,
        0x902125ccd373eb26,
        0,
    ), // M2 relaxed(8), pooled off
    (
        0x36c6579892eddc7d,
        0xd7972bd42908afdc,
        0xfdc4956c871c9516,
        66744,
    ), // M3 exact
    (
        0x06914db1950da9c6,
        0x0619e6b83d31bd03,
        0x6cc303626761ff8a,
        191932,
    ), // M3 exact, tier
    (
        0x8b3806d8849948c1,
        0xeb0aea39f84cadd6,
        0xd5169d418cce03b3,
        0,
    ), // M3 relaxed(8), pooled off
];

#[test]
fn every_scenario_matches_its_golden_fingerprint() {
    let capture = std::env::var_os("SDM_CAPTURE_GOLDEN").is_some();
    let mut fresh = Vec::new();
    for model in &models() {
        for &scenario in SCENARIOS {
            let fp = run_scenario(model, SEED, scenario);
            if capture {
                println!(
                    "    ({:#018x}, {:#018x}, {:#018x}, {}), // {} {:?}",
                    fp.scores, fp.stats, fp.cache_counters, fp.resident_bytes, model.name, scenario
                );
            }
            if scenario.window.is_none() {
                let twin = Scenario {
                    window: Some(1),
                    ..scenario
                };
                assert_eq!(
                    run_scenario(model, SEED, twin),
                    fp,
                    "{} {twin:?}: relaxed(1) is not exact",
                    model.name
                );
            }
            fresh.push((model.name.clone(), scenario, fp));
        }
    }
    if capture {
        return;
    }
    assert_eq!(fresh.len(), GOLDEN.len(), "scenario count drifted");
    for ((name, scenario, fp), &(scores, stats, counters, resident)) in fresh.iter().zip(GOLDEN) {
        let tag = format!("{name} {scenario:?}");
        assert_eq!(fp.scores, scores, "{tag}: per-query scores diverged");
        assert_eq!(fp.stats, stats, "{tag}: SdmStats / clocks diverged");
        assert_eq!(fp.cache_counters, counters, "{tag}: CacheStats diverged");
        // The size-class coalescing fix may only *lower* retention.
        assert!(
            fp.resident_bytes <= resident,
            "{tag}: resident_bytes grew: {} > golden {}",
            fp.resident_bytes,
            resident
        );
    }
}
