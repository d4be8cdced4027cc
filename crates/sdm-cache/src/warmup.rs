//! The extra serving capacity a rolling model update costs (paper §A.4).
//!
//! A full model update leaves the fast-memory cache cold; the paper observes
//! that caches warm up within a few minutes and derives the extra serving
//! capacity needed to cover the transient:
//! `extra = (r * w) / (p * t)` where `r` is the fraction of hosts updating
//! at a time, `w` the warmup duration, `p` the relative performance during
//! warmup and `t` the update interval.

use sdm_metrics::SimDuration;

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
}
