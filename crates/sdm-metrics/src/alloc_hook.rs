//! Allocation-counter hook for hot-path allocation audits.
//!
//! The serving loop's steady-state guarantee — *zero heap allocations per
//! query on a fully warmed cache* — is asserted by tests and benches that
//! install a counting `GlobalAlloc` wrapper around the system allocator.
//! This crate forbids `unsafe`, so the wrapper itself lives in the test /
//! bench binaries; what lives here is the safe, process-wide counter the
//! wrappers report into and the control surface (`enable` / `reset` /
//! `allocations`) the assertions use.
//!
//! Counting is disabled by default and the disabled fast path is a single
//! relaxed atomic load, so shipping the hook in release builds costs
//! effectively nothing.
//!
//! # Example (inside a test binary)
//!
//! ```ignore
//! use std::alloc::{GlobalAlloc, Layout, System};
//!
//! struct Counting;
//! unsafe impl GlobalAlloc for Counting {
//!     unsafe fn alloc(&self, l: Layout) -> *mut u8 {
//!         sdm_metrics::alloc_hook::note_alloc(l.size());
//!         System.alloc(l)
//!     }
//!     unsafe fn dealloc(&self, p: *mut u8, l: Layout) { System.dealloc(p, l) }
//! }
//! #[global_allocator]
//! static ALLOC: Counting = Counting;
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Reports one allocation of `size` bytes. Called by a counting
/// `GlobalAlloc` wrapper; a no-op while counting is disabled.
#[inline]
pub fn note_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Turns counting on or off (process-wide).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Zeroes the counters (does not change the enabled flag).
pub fn reset() {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ALLOCATED_BYTES.store(0, Ordering::SeqCst);
}

/// Allocations observed while enabled since the last [`reset`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Bytes allocated while enabled since the last [`reset`].
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::SeqCst)
}

/// RAII guard: counts allocations for the duration of a scope.
///
/// Creating the guard resets the counters and enables counting; dropping it
/// disables counting again. Read the totals through [`allocations`] /
/// [`allocated_bytes`] *before* relying on numbers from a later scope.
#[derive(Debug)]
pub struct CountingScope(());

impl CountingScope {
    /// Starts a counting scope.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        reset();
        set_enabled(true);
        CountingScope(())
    }

    /// Allocations observed so far in this scope.
    pub fn allocations(&self) -> u64 {
        allocations()
    }
}

impl Drop for CountingScope {
    fn drop(&mut self) {
        set_enabled(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test (not several) because the hook is process-global state and
    // the test harness runs tests concurrently.
    #[test]
    fn hook_counts_only_while_enabled() {
        // Tests in this crate run without a counting global allocator, so
        // `note_alloc` is driven by hand here.
        set_enabled(false);
        reset();
        note_alloc(128);
        assert_eq!(allocations(), 0);
        assert_eq!(allocated_bytes(), 0);

        let scope = CountingScope::new();
        note_alloc(100);
        note_alloc(28);
        assert_eq!(scope.allocations(), 2);
        assert_eq!(allocated_bytes(), 128);
        drop(scope);
        assert!(!ENABLED.load(Ordering::SeqCst));
        note_alloc(1);
        assert_eq!(allocations(), 2, "counting after drop must be off");
    }
}
