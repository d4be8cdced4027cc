//! Named monotonic counters.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter that can be shared across components.
///
/// Cloning a `Counter` produces a handle to the same underlying value.
///
/// # Example
///
/// ```
/// use sdm_metrics::Counter;
///
/// let c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n` to the counter and returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Adds one to the counter and returns the new value.
    pub fn incr(&self) -> u64 {
        self.add(1)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A set of named counters, used by components to expose their internal
/// statistics (IOs issued, cache hits, bytes moved, …).
///
/// # Example
///
/// ```
/// use sdm_metrics::CounterSet;
///
/// let set = CounterSet::new();
/// set.counter("reads").add(2);
/// set.counter("reads").incr();
/// assert_eq!(set.value("reads"), 3);
/// assert_eq!(set.value("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    counters: Arc<parking_counters::Registry>,
}

/// Internal registry keeping name → counter mappings behind a mutex-free
/// read path would be overkill here; a plain `std::sync::Mutex` suffices for
/// statistics that are read rarely.
mod parking_counters {
    use super::Counter;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    #[derive(Debug, Default)]
    pub struct Registry {
        inner: Mutex<BTreeMap<String, Counter>>,
    }

    impl Registry {
        /// Counters are atomics mutated outside the registry lock, so a
        /// panic while the map guard is held cannot leave the map itself
        /// inconsistent — recover the guard instead of propagating poison.
        fn locked(&self) -> MutexGuard<'_, BTreeMap<String, Counter>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        pub fn counter(&self, name: &str) -> Counter {
            self.locked().entry(name.to_owned()).or_default().clone()
        }

        pub fn value(&self, name: &str) -> Option<u64> {
            self.locked().get(name).map(Counter::get)
        }

        pub fn snapshot(&self) -> BTreeMap<String, u64> {
            self.locked()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect()
        }

        pub fn reset_all(&self) {
            for c in self.locked().values() {
                c.reset();
            }
        }
    }
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        CounterSet {
            counters: Arc::new(parking_counters::Registry::default()),
        }
    }

    /// Returns (creating on first use) the counter with the given name.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.counter(name)
    }

    /// Current value of a named counter; zero when the counter does not
    /// exist yet.
    pub fn value(&self, name: &str) -> u64 {
        self.counters.value(name).unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.counters.snapshot()
    }

    /// Resets every counter in the set to zero.
    pub fn reset_all(&self) {
        self.counters.reset_all();
    }

    /// Adds every counter of `other` into this set, creating counters on
    /// first sight. Both sets stay usable; the adds are atomic, so a
    /// host-level set can be aggregated (e.g. per-device counters across
    /// serving shards) while other threads keep counting.
    pub fn merge_from(&self, other: &CounterSet) {
        for (name, value) in other.snapshot() {
            self.counter(&name).add(value);
        }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        let mut first = true;
        for (k, v) in snap {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_reset() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        assert_eq!(c.add(5), 5);
        assert_eq!(c.incr(), 6);
        assert_eq!(c.reset(), 6);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_clones_share_value() {
        let c = Counter::new();
        let d = c.clone();
        c.add(2);
        d.add(3);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_set_creates_on_demand() {
        let set = CounterSet::new();
        assert_eq!(set.value("io.reads"), 0);
        set.counter("io.reads").add(7);
        assert_eq!(set.value("io.reads"), 7);
        let snap = set.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap["io.reads"], 7);
    }

    #[test]
    fn counter_set_reset_all() {
        let set = CounterSet::new();
        set.counter("a").add(1);
        set.counter("b").add(2);
        set.reset_all();
        assert_eq!(set.value("a"), 0);
        assert_eq!(set.value("b"), 0);
    }

    #[test]
    fn counter_set_display_nonempty() {
        let set = CounterSet::new();
        assert_eq!(set.to_string(), "(empty)");
        set.counter("x").add(1);
        assert_eq!(set.to_string(), "x=1");
    }

    #[test]
    fn counter_set_merge_from_aggregates_across_sets() {
        let host = CounterSet::new();
        host.counter("hits").add(1);
        let shard_a = CounterSet::new();
        shard_a.counter("hits").add(4);
        shard_a.counter("misses").add(2);
        let shard_b = CounterSet::new();
        shard_b.counter("hits").add(5);
        host.merge_from(&shard_a);
        host.merge_from(&shard_b);
        assert_eq!(host.value("hits"), 10);
        assert_eq!(host.value("misses"), 2);
        // Sources are unchanged.
        assert_eq!(shard_a.value("hits"), 4);
        assert_eq!(shard_b.value("misses"), 0);
    }

    #[test]
    fn counter_set_shared_across_clones() {
        let set = CounterSet::new();
        let other = set.clone();
        set.counter("hits").add(4);
        assert_eq!(other.value("hits"), 4);
    }
}
