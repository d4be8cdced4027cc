//! Cache warmup tracking after a model update (paper §A.4).
//!
//! A full model update leaves the fast-memory cache cold; the paper observes
//! that caches warm up within a few minutes and derives the extra serving
//! capacity needed to cover the transient:
//! `extra = (r * w) / (p * t)` where `r` is the fraction of hosts updating
//! at a time, `w` the warmup duration, `p` the relative performance during
//! warmup and `t` the update interval.

use sdm_metrics::SimDuration;

/// Upper bound on retained per-window hit rates. Steady-state detection
/// keeps working past the cap; only the per-window history stops growing,
/// which keeps [`WarmupTracker::record`] allocation-free and the tracker's
/// memory bounded for the lifetime of a serving process.
const MAX_TRACKED_WINDOWS: usize = 4096;

/// Observes hit rate over fixed-size lookup windows and reports when the
/// cache has reached steady state.
#[derive(Debug, Clone)]
pub struct WarmupTracker {
    window: u64,
    steady_threshold: f64,
    current_hits: u64,
    current_lookups: u64,
    /// Hit rates of the first [`MAX_TRACKED_WINDOWS`] completed windows.
    window_rates: Vec<f64>,
    /// Total completed windows (may exceed the retained history).
    completed_windows: u64,
    steady_window: Option<usize>,
}

impl WarmupTracker {
    /// Creates a tracker: hit rates are evaluated every `window` lookups and
    /// the cache is declared warm once a window's hit rate reaches
    /// `steady_threshold`.
    pub fn new(window: u64, steady_threshold: f64) -> Self {
        WarmupTracker {
            window: window.max(1),
            steady_threshold: steady_threshold.clamp(0.0, 1.0),
            current_hits: 0,
            current_lookups: 0,
            // Full capacity up front so `record` never allocates on the
            // serving path (the zero-allocation steady-state guarantee).
            window_rates: Vec::with_capacity(MAX_TRACKED_WINDOWS),
            completed_windows: 0,
            steady_window: None,
        }
    }

    /// Records one cache lookup outcome.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.current_lookups += 1;
        if hit {
            self.current_hits += 1;
        }
        if self.current_lookups >= self.window {
            let rate = self.current_hits as f64 / self.current_lookups as f64;
            if self.window_rates.len() < MAX_TRACKED_WINDOWS {
                self.window_rates.push(rate);
            }
            if self.steady_window.is_none() && rate >= self.steady_threshold {
                self.steady_window = Some(self.completed_windows as usize);
            }
            self.completed_windows += 1;
            self.current_hits = 0;
            self.current_lookups = 0;
        }
    }

    /// Hit rate of each completed window, in order (capped at the first
    /// [`MAX_TRACKED_WINDOWS`] windows; steady-state detection is not).
    #[cfg(test)]
    pub(crate) fn window_rates(&self) -> &[f64] {
        &self.window_rates
    }

    /// Index of the first window at which steady state was reached, if any.
    #[cfg(test)]
    pub(crate) fn steady_state_window(&self) -> Option<usize> {
        self.steady_window
    }

    /// True once a window has reached the steady-state threshold.
    #[cfg(test)]
    pub(crate) fn is_warm(&self) -> bool {
        self.steady_window.is_some()
    }

    /// Number of lookups needed to reach steady state, if reached.
    #[cfg(test)]
    pub(crate) fn lookups_to_steady_state(&self) -> Option<u64> {
        self.steady_window.map(|w| (w as u64 + 1) * self.window)
    }
}

/// Extra serving capacity (as a fraction, e.g. `0.012` = 1.2 %) needed to
/// absorb warmup slowdown during rolling model updates (paper §A.4):
/// `(rolling_fraction * warmup_time) / (warmup_performance * update_interval)`.
///
/// Returns zero when the update interval or warmup performance is zero.
pub fn warmup_capacity_overhead(
    rolling_fraction: f64,
    warmup_time: SimDuration,
    warmup_performance: f64,
    update_interval: SimDuration,
) -> f64 {
    if update_interval.is_zero() || warmup_performance <= 0.0 {
        return 0.0;
    }
    (rolling_fraction.clamp(0.0, 1.0) * warmup_time.as_secs_f64())
        / (warmup_performance.min(1.0) * update_interval.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuOptimizedCache, MemoryOptimizedCache, RowCache, RowKey};
    use sdm_metrics::units::Bytes;

    /// Simulates the demand-fill loop the SDM manager runs: look up, record
    /// the outcome, insert on miss. Returns the tracker after `passes`
    /// sweeps over the working set.
    fn demand_fill<C: RowCache>(
        cache: &mut C,
        rows: u64,
        row_bytes: usize,
        passes: usize,
        window: u64,
    ) -> WarmupTracker {
        let mut tracker = WarmupTracker::new(window, 0.95);
        for _ in 0..passes {
            for row in 0..rows {
                let key = RowKey::new(0, row);
                let hit = cache.get(&key).is_some();
                tracker.record(hit);
                if !hit {
                    cache.insert(key, &vec![row as u8; row_bytes]);
                }
            }
        }
        tracker
    }

    #[test]
    fn memory_optimized_cache_warms_up_when_working_set_fits() {
        // 256 rows x (64 + overhead) bytes comfortably fit in 64 KiB.
        let mut cache = MemoryOptimizedCache::with_expected_row_size(Bytes::from_kib(64), 64);
        let tracker = demand_fill(&mut cache, 256, 64, 4, 256);

        // First sweep is all misses; later sweeps are all hits.
        assert!(tracker.window_rates()[0] < 0.05, "cold window should miss");
        assert!(tracker.is_warm(), "cache never reached steady state");
        assert_eq!(tracker.steady_state_window(), Some(1));
        assert_eq!(tracker.lookups_to_steady_state(), Some(512));
        assert_eq!(cache.stats().evictions, 0, "no eviction when the set fits");
    }

    #[test]
    fn cpu_optimized_cache_warms_up_when_working_set_fits() {
        let mut cache = CpuOptimizedCache::new(Bytes::from_kib(64));
        let tracker = demand_fill(&mut cache, 256, 64, 4, 256);
        assert!(tracker.is_warm());
        assert!(tracker.window_rates().last().unwrap() > &0.99);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn thrashing_working_set_never_warms_and_keeps_evicting() {
        // ~8 KiB budget vs a 256-row x 128-byte (~36 KiB + overhead) cycle:
        // sequential sweeps with LRU eviction never re-hit a resident row.
        let mut cache = CpuOptimizedCache::new(Bytes::from_kib(8));
        let tracker = demand_fill(&mut cache, 256, 128, 4, 256);

        assert!(!tracker.is_warm(), "thrashing cache reported steady state");
        for rate in tracker.window_rates() {
            assert!(*rate < 0.2, "window rate {rate} too high for a thrash loop");
        }
        assert!(cache.stats().evictions > 256, "eviction pressure expected");
        assert!(cache.memory_used() <= cache.budget());
    }

    #[test]
    fn tracker_detects_warmup_transition() {
        let mut t = WarmupTracker::new(100, 0.9);
        // Cold phase: 50% hit rate for 3 windows.
        for i in 0..300 {
            t.record(i % 2 == 0);
        }
        assert!(!t.is_warm());
        // Warm phase: 95% hit rate.
        for i in 0..200 {
            t.record(i % 20 != 0);
        }
        assert!(t.is_warm());
        assert_eq!(t.steady_state_window(), Some(3));
        assert_eq!(t.lookups_to_steady_state(), Some(400));
        assert_eq!(t.window_rates().len(), 5);
        assert!(t.window_rates()[0] < 0.6);
        assert!(t.window_rates()[4] > 0.9);
    }

    #[test]
    fn window_history_is_bounded_but_detection_keeps_working() {
        let mut t = WarmupTracker::new(1, 0.9);
        // Miss for longer than the retained history...
        for _ in 0..(MAX_TRACKED_WINDOWS + 100) {
            t.record(false);
        }
        assert_eq!(t.window_rates().len(), MAX_TRACKED_WINDOWS);
        assert!(!t.is_warm());
        // ...then steady state is still detected, past the cap.
        t.record(true);
        assert!(t.is_warm());
        assert_eq!(t.steady_state_window(), Some(MAX_TRACKED_WINDOWS + 100));
        assert_eq!(t.window_rates().len(), MAX_TRACKED_WINDOWS);
    }

    #[test]
    fn paper_example_overhead_is_small_single_digit_percent() {
        // r=10%, w=5 min, p=50%, t=30 min. Evaluating the paper's formula
        // (r*w)/(p*t) literally gives 3.3%; the paper's own numeric example
        // (1.2%) swaps w and t when plugging in. Either way the conclusion —
        // a small single-digit-percent over-provision — holds, which is what
        // this test pins down (`exp_warmup` prints the discrepancy).
        let overhead = warmup_capacity_overhead(
            0.10,
            SimDuration::from_secs(5 * 60),
            0.50,
            SimDuration::from_secs(30 * 60),
        );
        assert!(
            (overhead - 1.0 / 30.0).abs() < 1e-9,
            "overhead = {overhead}"
        );
        assert!(overhead < 0.05);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(
            warmup_capacity_overhead(0.1, SimDuration::from_secs(60), 0.5, SimDuration::ZERO),
            0.0
        );
        assert_eq!(
            warmup_capacity_overhead(
                0.1,
                SimDuration::from_secs(60),
                0.0,
                SimDuration::from_secs(60)
            ),
            0.0
        );
    }

    #[test]
    fn zero_window_is_clamped() {
        let mut t = WarmupTracker::new(0, 0.5);
        t.record(true);
        assert_eq!(t.window_rates().len(), 1);
    }
}
