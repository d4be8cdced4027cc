//! Lock-discipline instrumentation, end to end (debug builds).
//!
//! `sdm_cache::TrackedMutex` wraps the `SharedRowTier` stripe locks and the
//! memory manager calls `sdm_cache::assert_no_locks_held` at the SM submit
//! boundary. This suite seeds the violations the instrumentation exists to
//! catch — an order inversion, a lock held across submit, a re-entrant tier
//! call under `lookup_many` — and proves each is *detected* (a caught panic,
//! not a deadlock or a silent pass), then runs the full serving pipeline — exact, relaxed, and
//! shared-tier configurations — to show the discipline holds on the real
//! code. A release-build compilation of this test asserts the tracking
//! layer adds no bytes to the lock (`TrackedMutex` is a transparent
//! `Mutex`).

use sdm_cache::TrackedMutex;

#[cfg(debug_assertions)]
mod detection {
    use sdm_cache::{assert_no_locks_held, LockRegistry, SharedRowTier, TierProbe, TrackedMutex};
    use sdm_metrics::units::Bytes;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f` on a fresh thread so held-lock state from a caught panic
    /// cannot leak into other tests sharing this thread.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f)
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    }

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    /// Seeded violation 1: two locks acquired in opposite orders on one
    /// thread. The second ordering closes a cycle in the global
    /// acquired-while-held graph and must panic *before* blocking — this
    /// interleaving would not deadlock, but two threads running the two
    /// orderings concurrently can, so the inversion itself is the bug.
    #[test]
    fn lock_order_inversion_is_detected() {
        on_fresh_thread(|| {
            let shard_state = TrackedMutex::new("disc-shard-state", ());
            let completion_q = TrackedMutex::new("disc-completion-queue", ());
            {
                let _s = shard_state.lock();
                let _c = completion_q.lock(); // establishes state → queue
            }
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _c = completion_q.lock();
                let _s = shard_state.lock(); // queue → state: inversion
            }))
            .expect_err("inverted acquisition order must panic, not proceed");
            let msg = panic_message(err);
            assert!(msg.contains("lock order inversion"), "diagnostic: {msg}");
            assert!(
                msg.contains("disc-shard-state") && msg.contains("disc-completion-queue"),
                "diagnostic must name both lock classes: {msg}"
            );
        });
    }

    /// Seeded violation 2: an SM submission issued while a stripe lock is
    /// held. The real submit site is inside the memory manager, so the
    /// scenario is reproduced the way it would actually happen — caller
    /// code inside a `lookup_with` closure reaching a submit boundary —
    /// with `assert_no_locks_held` standing in for `engine.submit`.
    #[test]
    fn stripe_lock_held_across_submit_is_detected() {
        on_fresh_thread(|| {
            let tier = SharedRowTier::new(Bytes::from_kib(64), 4);
            let key = sdm_cache::RowKey::new(1, 7);
            assert!(tier.insert(key, &[9u8; 32], 0));
            let err = catch_unwind(AssertUnwindSafe(|| {
                tier.lookup_with(&key, 1, |_bytes| {
                    // Inside the closure the stripe lock is held — this is
                    // the "held across IO submit" contract violation.
                    assert_no_locks_held("SM submit boundary (seeded violation)");
                });
            }))
            .expect_err("submit boundary under a stripe lock must panic");
            let msg = panic_message(err);
            assert!(
                msg.contains("lock discipline violation"),
                "diagnostic: {msg}"
            );
            assert!(
                msg.contains("shared-tier-stripe"),
                "diagnostic must name the held stripe lock: {msg}"
            );
            // Detection must not corrupt the registry: after the caught
            // panic the guard has been dropped and the boundary is clean.
            assert!(LockRegistry::held_by_current_thread().is_empty());
            assert_no_locks_held("after recovery");
        });
    }

    /// The stripe locks really are tracked end to end: a lookup registers
    /// on the thread's held-lock stack while the closure runs and leaves
    /// nothing behind afterwards.
    #[test]
    fn stripe_locks_register_on_the_held_stack() {
        on_fresh_thread(|| {
            let tier = SharedRowTier::new(Bytes::from_kib(64), 2);
            let key = sdm_cache::RowKey::new(0, 3);
            tier.insert(key, &[1u8; 16], 0);
            let mut held_inside = Vec::new();
            tier.lookup_with(&key, 0, |_| {
                held_inside = LockRegistry::held_by_current_thread();
            });
            assert_eq!(held_inside, vec!["shared-tier-stripe"]);
            assert!(LockRegistry::held_by_current_thread().is_empty());
        });
    }

    /// Rows across all four stripes of a tier, resident, as one operator's
    /// probe list.
    fn resident_probes(tier: &SharedRowTier) -> Vec<TierProbe> {
        (0..32u32)
            .map(|i| {
                let key = sdm_cache::RowKey::new(2, u64::from(i));
                assert!(tier.insert(key, &[i as u8; 24], 0));
                TierProbe::new(key, i)
            })
            .collect()
    }

    /// The batched lookup visits stripe after stripe: whichever hit the
    /// closure is handed, exactly one stripe lock is held, and none is once
    /// the lookup returns.
    #[test]
    fn lookup_many_holds_one_stripe_lock_at_a_time() {
        on_fresh_thread(|| {
            let tier = SharedRowTier::new(Bytes::from_kib(64), 4);
            let mut probes = resident_probes(&tier);
            let mut held_inside = Vec::new();
            tier.lookup_many(&mut probes, 1, |_, _, _| {
                held_inside.push(LockRegistry::held_by_current_thread());
            });
            assert_eq!(held_inside.len(), 32, "every probe is resident");
            assert!(held_inside.iter().all(|h| h == &["shared-tier-stripe"]));
            assert!(LockRegistry::held_by_current_thread().is_empty());
            assert_no_locks_held("after lookup_many");
        });
    }

    /// Seeded violation 3: the hit closure calls back into the tier. The
    /// stripe it is called under is not re-entrant, so this would deadlock;
    /// the registry turns it into a panic.
    #[test]
    fn reentrant_tier_call_inside_lookup_many_is_detected() {
        on_fresh_thread(|| {
            let tier = SharedRowTier::new(Bytes::from_kib(64), 4);
            let mut probes = resident_probes(&tier);
            let first = sdm_cache::RowKey::new(2, 0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                tier.lookup_many(&mut probes[..1], 1, |_, _, _| {
                    tier.contains(&first);
                });
            }))
            .expect_err("re-entering the held stripe must panic, not deadlock");
            let msg = panic_message(err);
            assert!(msg.contains("recursive acquisition"), "diagnostic: {msg}");
            assert!(msg.contains("shared-tier-stripe"), "diagnostic: {msg}");
            assert!(LockRegistry::held_by_current_thread().is_empty());
        });
    }
}

/// The real pipeline obeys the discipline: a full serving run — exact
/// batching, relaxed (overlapped) batching, and the shared tier enabled
/// across shards — passes through the manager's `assert_no_locks_held`
/// submit hook on every SM miss without tripping it. In debug builds this
/// is the "clean run" half of the detection story; in release it is a
/// plain regression test.
#[test]
fn full_pipeline_runs_clean_under_lock_tracking() {
    use dlrm::model_zoo;
    use sdm_core::{SdmConfig, ServingHost};
    use sdm_metrics::units::Bytes;
    use workload::{QueryGenerator, RoutingPolicy, WorkloadConfig};

    let model = model_zoo::tiny(3, 2, 500);
    let queries = {
        let cfg = WorkloadConfig {
            item_batch: model.item_batch.min(8),
            ..WorkloadConfig::skewed(48, 1.1)
        };
        QueryGenerator::new(&model.tables, cfg, 71)
            .unwrap()
            .generate(48)
    };
    // Small private caches force SM traffic, so the submit hook actually
    // executes; the shared tier puts stripe locks on the serving path.
    let mut config = SdmConfig::for_tests();
    config.cache.row_cache_budget = Bytes::from_kib(64);
    config.cache.pooled_cache_budget = Bytes::ZERO;

    let all: Vec<usize> = (0..queries.len()).collect();
    let mut system = ServingHost::build(&model, &config, 71, 1, RoutingPolicy::UserSticky).unwrap();
    system.run_selected_batch(&queries, &all).unwrap();
    assert!(system.stats().sm_reads > 0, "exact: no SM traffic");

    let relaxed = config.clone().with_relaxed_batching(4);
    let mut host = ServingHost::build(&model, &relaxed, 71, 2, RoutingPolicy::UserSticky).unwrap();
    host.run_selected_batch(&queries, &all).unwrap();
    assert!(host.stats().sm_reads > 0, "relaxed: no SM traffic");

    let tiered = config.with_shared_tier(Bytes::from_mib(2));
    let mut host = ServingHost::build(&model, &tiered, 71, 4, RoutingPolicy::UserSticky).unwrap();
    host.run_selected_batch(&queries, &all).unwrap();
    let stats = host.stats();
    assert!(stats.sm_reads > 0, "tiered: no SM traffic");
    assert!(
        stats.shared_tier_hits > 0,
        "tiered: stripe locks never exercised"
    );
}

/// Release builds must pay nothing for the instrumentation: `TrackedMutex`
/// is layout-identical to `std::sync::Mutex` (the debug-only registry,
/// class ids, and guards do not exist). The runtime half of this claim is
/// measured by the `benchmark` harness's `sharded_tier` workload, whose
/// two shards take stripe locks on every shared-tier probe.
#[cfg(not(debug_assertions))]
#[test]
fn release_tracked_mutex_is_a_transparent_mutex() {
    use std::mem::{align_of, size_of};
    use std::sync::Mutex;
    assert_eq!(
        size_of::<TrackedMutex<[u64; 4]>>(),
        size_of::<Mutex<[u64; 4]>>()
    );
    assert_eq!(
        align_of::<TrackedMutex<[u64; 4]>>(),
        align_of::<Mutex<[u64; 4]>>()
    );
    assert_eq!(size_of::<TrackedMutex<()>>(), size_of::<Mutex<()>>());
}

/// Keeps the debug/release split honest in *both* build profiles: the
/// tracked wrapper always exposes `new(name, value)` + `lock()`, so crates
/// can use it unconditionally.
#[test]
fn tracked_mutex_api_is_profile_independent() {
    let m = TrackedMutex::new("profile-independent", 41u32);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 42);
}
