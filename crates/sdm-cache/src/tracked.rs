//! Debug-build lock-discipline instrumentation: [`TrackedMutex`] and the
//! global [`LockRegistry`].
//!
//! The SDM serving stack has two lock contracts the type system cannot
//! express:
//!
//! 1. **Order** — whenever two locks are ever held together, every thread
//!    must acquire them in one consistent global order, or two threads can
//!    deadlock on the inverted pair.
//! 2. **No lock across IO submission** — the [`crate::SharedRowTier`]
//!    stripe locks are sub-microsecond critical sections; holding one
//!    across an SM submit would serialise every shard behind a device
//!    latency. Fills happen at IO *completion* only, by design.
//!
//! Under `cfg(debug_assertions)` a [`TrackedMutex`] registers a lock class
//! per instance, every acquisition pushes onto a thread-local held-lock
//! stack, and the registry maintains a global lock-order graph (an edge
//! `A → B` means "B was acquired while A was held"). An acquisition that
//! would close a cycle in that graph — a potential deadlock, even if this
//! particular interleaving got through — panics immediately with both
//! class names. The [`assert_no_locks_held`] hook, called by the memory
//! manager at the SM submission boundary, panics when *any* tracked lock
//! is held, enforcing contract 2.
//!
//! In release builds `TrackedMutex` is a `#[repr(transparent)]` wrapper
//! over [`std::sync::Mutex`] with `#[inline]` forwarding and
//! [`assert_no_locks_held`] is an empty inline function: the tracking
//! types do not exist and the hot path pays nothing (the CI bench gate
//! measures this, and `tests/lock_discipline.rs` asserts the layout).
//!
//! Locking recovers from poison: a stripe can only be poisoned by a panic
//! in caller code running under a lookup closure, and the engine completes
//! every mutation before handing bytes out, so the data is consistent and
//! serving continues (the pre-existing [`crate::SharedRowTier`] policy).

use std::sync::{MutexGuard, PoisonError};

/// Recovers the inner guard from a poisoned lock (see module docs).
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(debug_assertions)]
mod imp {
    use super::recover;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::ops::{Deref, DerefMut};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Identifies one registered lock instance in the order graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct LockClassId(u32);

    /// The global lock-order graph: class names plus the "acquired while
    /// holding" edges observed so far, across all threads since process
    /// start.
    #[derive(Debug, Default)]
    struct OrderGraph {
        names: Vec<&'static str>,
        /// `edges[a]` holds every class acquired while `a` was held.
        // Debug-build lock-order bookkeeping, touched when a lock is taken
        // while another is held — not a per-row or per-operator lookup.
        // sdm-analyze: allow(default-hasher-on-serving-path)
        edges: HashMap<u32, HashSet<u32>>,
    }

    impl OrderGraph {
        /// True when `to` can reach `from` through recorded edges — i.e.
        /// adding `from → to` would close a cycle.
        fn reaches(&self, start: u32, goal: u32) -> bool {
            let mut stack = vec![start];
            let mut seen = HashSet::new(); // sdm-analyze: allow(default-hasher-on-serving-path)
            while let Some(n) = stack.pop() {
                if n == goal {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = self.edges.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        }
    }

    fn graph() -> &'static Mutex<OrderGraph> {
        static GRAPH: OnceLock<Mutex<OrderGraph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(OrderGraph::default()))
    }

    thread_local! {
        /// Lock classes currently held by this thread, in acquisition
        /// order (released entries are removed in place, so out-of-order
        /// release is fine).
        static HELD: RefCell<Vec<LockClassId>> = const { RefCell::new(Vec::new()) };
    }

    /// The debug-build lock-discipline registry (see module docs). All
    /// state is global; the type only namespaces the operations.
    #[derive(Debug)]
    pub struct LockRegistry;

    impl LockRegistry {
        /// Registers a new lock class and returns its id. Classes are
        /// per-instance: two mutexes sharing a name stay distinct nodes in
        /// the order graph.
        fn register(name: &'static str) -> LockClassId {
            let mut g = recover(graph().lock());
            let id = g.names.len() as u32;
            g.names.push(name);
            LockClassId(id)
        }

        /// Names of the lock classes this thread currently holds, in
        /// acquisition order.
        pub fn held_by_current_thread() -> Vec<&'static str> {
            let ids = HELD.with(|h| h.borrow().clone());
            let g = recover(graph().lock());
            ids.iter()
                .map(|id| g.names.get(id.0 as usize).copied().unwrap_or("?"))
                .collect()
        }

        /// Panics when this thread holds any tracked lock. `context` names
        /// the boundary being enforced (e.g. "SM submit").
        #[track_caller]
        pub(super) fn assert_none_held(context: &str) {
            let held = Self::held_by_current_thread();
            assert!(
                held.is_empty(),
                "lock discipline violation at `{context}`: tracked locks held: {held:?} \
                 (the contract forbids holding any lock across this boundary)"
            );
        }

        /// Records an acquisition attempt *before* blocking on the lock:
        /// panics on same-class re-entry (guaranteed self-deadlock on a
        /// non-reentrant mutex) and on any order inversion (a cycle in the
        /// global acquired-while-held graph — a potential deadlock even
        /// when this interleaving happens to get through).
        #[track_caller]
        fn on_acquire(class: LockClassId) {
            let held = HELD.with(|h| h.borrow().clone());
            if held.contains(&class) {
                let name = {
                    let g = recover(graph().lock());
                    g.names.get(class.0 as usize).copied().unwrap_or("?")
                };
                panic!("lock discipline violation: recursive acquisition of `{name}`");
            }
            {
                let mut g = recover(graph().lock());
                for h in &held {
                    if g.edges.get(&h.0).is_some_and(|e| e.contains(&class.0)) {
                        continue;
                    }
                    if g.reaches(class.0, h.0) {
                        let name = |id: u32| g.names.get(id as usize).copied().unwrap_or("?");
                        let (a, b) = (name(h.0), name(class.0));
                        drop(g);
                        panic!(
                            "lock order inversion: acquiring `{b}` while holding `{a}`, but \
                             `{a}` has previously been acquired while (transitively) holding \
                             `{b}` — a potential deadlock cycle"
                        );
                    }
                    g.edges.entry(h.0).or_default().insert(class.0);
                }
            }
            HELD.with(|h| h.borrow_mut().push(class));
        }

        fn on_release(class: LockClassId) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|c| *c == class) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Debug-build mutex wrapper feeding the [`LockRegistry`]. See the
    /// module docs for the release-build counterpart.
    #[derive(Debug)]
    pub struct TrackedMutex<T> {
        inner: Mutex<T>,
        class: LockClassId,
    }

    impl<T> TrackedMutex<T> {
        /// Wraps `value`, registering a fresh lock class under `name`.
        pub fn new(name: &'static str, value: T) -> Self {
            TrackedMutex {
                inner: Mutex::new(value),
                class: LockRegistry::register(name),
            }
        }

        /// Acquires the lock, recording the acquisition in the registry
        /// (order checked *before* blocking, so an inversion is reported
        /// even when it would have deadlocked). Recovers from poison.
        #[track_caller]
        pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
            LockRegistry::on_acquire(self.class);
            // The registry entry must be popped even if the lock panics.
            let guard = PopOnDrop(self.class);
            let inner = recover(self.inner.lock());
            std::mem::forget(guard);
            TrackedMutexGuard {
                inner,
                class: self.class,
            }
        }
    }

    /// Pops a registry entry on drop; armed only across the blocking
    /// `lock()` call inside [`TrackedMutex::lock`].
    struct PopOnDrop(LockClassId);

    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            LockRegistry::on_release(self.0);
        }
    }

    /// Guard returned by [`TrackedMutex::lock`]; releases the registry
    /// entry (then the lock) on drop.
    #[derive(Debug)]
    pub struct TrackedMutexGuard<'a, T> {
        inner: MutexGuard<'a, T>,
        class: LockClassId,
    }

    impl<T> Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for TrackedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for TrackedMutexGuard<'_, T> {
        fn drop(&mut self) {
            LockRegistry::on_release(self.class);
        }
    }
}

#[cfg(debug_assertions)]
pub use imp::{LockClassId, LockRegistry, TrackedMutex, TrackedMutexGuard};

#[cfg(not(debug_assertions))]
mod imp {
    use super::recover;
    use std::sync::{Mutex, MutexGuard};

    /// Release-build `TrackedMutex`: a transparent, zero-overhead wrapper
    /// over [`std::sync::Mutex`]. No registry, no classes, no graph — the
    /// tracking machinery does not exist in this build.
    #[derive(Debug)]
    #[repr(transparent)]
    pub struct TrackedMutex<T> {
        inner: Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// Wraps `value`; the class name is discarded at compile time.
        #[inline]
        pub fn new(_name: &'static str, value: T) -> Self {
            TrackedMutex {
                inner: Mutex::new(value),
            }
        }

        /// Acquires the lock (poison-recovering, like the debug build).
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            recover(self.inner.lock())
        }
    }
}

#[cfg(not(debug_assertions))]
pub use imp::TrackedMutex;

/// Panics when the current thread holds any [`TrackedMutex`] — the hook
/// the memory manager calls at the SM submission boundary ("no stripe
/// lock held across IO submit"). Free function so callers need no
/// registry import; an empty `#[inline]` no-op in release builds.
#[cfg(debug_assertions)]
#[track_caller]
pub fn assert_no_locks_held(context: &str) {
    imp::LockRegistry::assert_none_held(context);
}

/// Release-build no-op (see the debug-build documentation above).
#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn assert_no_locks_held(_context: &str) {}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f` on a fresh thread so its held-lock state and panics cannot
    /// leak into other tests on this thread.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f)
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    }

    #[test]
    fn lock_unlock_maintains_held_stack() {
        on_fresh_thread(|| {
            let a = TrackedMutex::new("stack-a", 1u32);
            let b = TrackedMutex::new("stack-b", 2u32);
            assert!(LockRegistry::held_by_current_thread().is_empty());
            let ga = a.lock();
            assert_eq!(LockRegistry::held_by_current_thread(), vec!["stack-a"]);
            let gb = b.lock();
            assert_eq!(
                LockRegistry::held_by_current_thread(),
                vec!["stack-a", "stack-b"]
            );
            // Out-of-order release keeps the stack consistent.
            drop(ga);
            assert_eq!(LockRegistry::held_by_current_thread(), vec!["stack-b"]);
            drop(gb);
            assert!(LockRegistry::held_by_current_thread().is_empty());
        });
    }

    #[test]
    fn guard_derefs_to_value() {
        let m = TrackedMutex::new("deref", 7u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn order_inversion_panics() {
        on_fresh_thread(|| {
            let a = TrackedMutex::new("inv-a", ());
            let b = TrackedMutex::new("inv-b", ());
            {
                let _ga = a.lock();
                let _gb = b.lock(); // records a → b
            }
            let _gb = b.lock();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _ga = a.lock(); // b → a closes the cycle
            }))
            .expect_err("inverted acquisition must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock order inversion"), "{msg}");
            assert!(msg.contains("inv-a") && msg.contains("inv-b"), "{msg}");
            // The failed acquisition must not linger on the held stack.
            assert_eq!(LockRegistry::held_by_current_thread(), vec!["inv-b"]);
        });
    }

    #[test]
    fn recursive_acquisition_panics() {
        on_fresh_thread(|| {
            let a = TrackedMutex::new("recursive", ());
            let _g = a.lock();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _again = a.lock();
            }))
            .expect_err("re-locking the same mutex on one thread must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("recursive acquisition"), "{msg}");
        });
    }

    #[test]
    fn assert_no_locks_held_panics_only_while_held() {
        on_fresh_thread(|| {
            assert_no_locks_held("clean");
            let m = TrackedMutex::new("held-check", ());
            let g = m.lock();
            let err = catch_unwind(AssertUnwindSafe(|| {
                assert_no_locks_held("SM submit");
            }))
            .expect_err("held lock must trip the boundary assert");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("SM submit") && msg.contains("held-check"),
                "{msg}"
            );
            drop(g);
            assert_no_locks_held("released");
        });
    }

    #[test]
    fn consistent_global_order_never_panics() {
        // Many threads taking a → b → c in the same order: no false
        // positives from the shared graph.
        let locks = std::sync::Arc::new((
            TrackedMutex::new("ord-a", ()),
            TrackedMutex::new("ord-b", ()),
            TrackedMutex::new("ord-c", ()),
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let locks = std::sync::Arc::clone(&locks);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let _a = locks.0.lock();
                        let _b = locks.1.lock();
                        let _c = locks.2.lock();
                    }
                });
            }
        });
    }

    #[test]
    fn poisoned_tracked_mutex_recovers() {
        let m = std::sync::Arc::new(TrackedMutex::new("poison", 5u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock() must recover from poison");
    }
}
