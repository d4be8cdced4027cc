//! Log-bucketed latency histogram with percentile queries.

use crate::SimDuration;
use std::fmt;

/// Number of sub-buckets per power-of-two bucket. Higher means better
/// resolution at the cost of memory; 16 gives <6.25% relative error which is
/// more than enough for the p95/p99 style reporting used by the paper.
const SUB_BUCKETS: usize = 16;
/// `log2(SUB_BUCKETS)`: the sub-bucket of a value is a shift, not a division.
const SUB_BITS: usize = SUB_BUCKETS.trailing_zeros() as usize;
/// Maximum exponent tracked (2^40 ns ≈ 18 minutes), everything above clamps.
const MAX_EXP: usize = 40;

/// A latency histogram with logarithmic buckets.
///
/// Values are recorded as [`SimDuration`]s; percentiles interpolate by rank
/// within the containing bucket (never past its upper boundary), so the
/// relative error stays bounded by the bucket width while streams whose
/// quantiles fall inside the *same* bucket still report distinct values.
///
/// # Example
///
/// ```
/// use sdm_metrics::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=100u64 {
///     h.record(SimDuration::from_micros(i));
/// }
/// let p95 = h.percentile(0.95);
/// assert!(p95 >= SimDuration::from_micros(90));
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total: SimDuration,
    max: SimDuration,
    min: Option<SimDuration>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; (MAX_EXP + 1) * SUB_BUCKETS],
            count: 0,
            total: SimDuration::ZERO,
            max: SimDuration::ZERO,
            min: None,
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos == 0 {
            return 0;
        }
        let exp = 63 - nanos.leading_zeros() as usize;
        let exp = exp.min(MAX_EXP);
        let above = nanos - (1u64 << exp);
        // Position within [2^exp, 2^(exp+1)) split into SUB_BUCKETS slots:
        // `above * SUB_BUCKETS / 2^exp`, which for powers of two is a shift.
        // Past 2^(MAX_EXP+1) the quotient exceeds the slot count and clamps.
        let offset = if exp >= SUB_BITS {
            above >> (exp - SUB_BITS)
        } else {
            above << (SUB_BITS - exp)
        };
        exp * SUB_BUCKETS + (offset as usize).min(SUB_BUCKETS - 1)
    }

    fn bucket_upper_bound(index: usize) -> u64 {
        let exp = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let base = 1u64 << exp;
        base + (base as u128 * (sub as u128 + 1) / SUB_BUCKETS as u128) as u64
    }

    fn bucket_lower_bound(index: usize) -> u64 {
        let exp = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let base = 1u64 << exp;
        base + (base as u128 * sub as u128 / SUB_BUCKETS as u128) as u64
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let idx = Self::bucket_index(d.as_nanos());
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
        self.min = Some(match self.min {
            Some(m) => m.min(d),
            None => d,
        });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }

    /// Largest recorded sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Smallest recorded sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        self.min.unwrap_or(SimDuration::ZERO)
    }

    /// Returns an upper bound on the `q`-quantile (`q` in `[0, 1]`).
    ///
    /// The answer interpolates linearly within the bucket that holds the
    /// target rank (rank-weighted, rounded up), so two streams whose true
    /// quantiles differ by less than one bucket width still report different
    /// values. The result never exceeds the containing bucket's upper
    /// boundary (the rank-`n`-of-`n` position *is* that boundary) and is
    /// clamped into `[min, max]`, so it remains an upper bound on the true
    /// quantile whenever samples are not concentrated above the interpolated
    /// point within their bucket.
    ///
    /// Out-of-range `q` values are clamped. Returns zero for an empty
    /// histogram.
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= target {
                let lower = Self::bucket_lower_bound(idx);
                let width = Self::bucket_upper_bound(idx) - lower;
                // 1-based rank of the target within this bucket; rank n of n
                // lands exactly on the bucket's upper boundary.
                let rank = target - (seen - n);
                let interp = (width as u128 * rank as u128).div_ceil(n as u128) as u64;
                let bound = SimDuration::from_nanos(lower + interp);
                return bound.min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// Convenience accessor for the 50th percentile.
    pub fn p50(&self) -> SimDuration {
        self.percentile(0.50)
    }

    /// Convenience accessor for the 95th percentile.
    pub fn p95(&self) -> SimDuration {
        self.percentile(0.95)
    }

    /// Convenience accessor for the 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.percentile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            *b = 0;
        }
        self.count = 0;
        self.total = SimDuration::ZERO;
        self.max = SimDuration::ZERO;
        self.min = None;
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(0.99), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(42));
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), SimDuration::from_micros(42));
        assert_eq!(h.p99(), SimDuration::from_micros(42));
        assert_eq!(h.min(), SimDuration::from_micros(42));
        assert_eq!(h.max(), SimDuration::from_micros(42));
    }

    #[test]
    fn percentile_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.p50().as_micros() as f64;
        let p99 = h.p99().as_micros() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.10, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.10, "p99 = {p99}");
        assert!(h.percentile(1.0) == h.max());
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for us in [10u64, 20, 30] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.mean(), SimDuration::from_micros(20));
        assert_eq!(h.total, SimDuration::from_micros(60));
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_micros(1));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_micros(1));
        assert_eq!(a.max(), SimDuration::from_micros(1000));
    }

    #[test]
    fn reset_clears_state() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(5));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn zero_duration_sample_is_recorded() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p99(), SimDuration::ZERO);
    }

    #[test]
    fn interpolation_resolves_within_one_sub_bucket() {
        // 1000 evenly spaced samples inside ONE sub-bucket: [2^20, 2^20+2^16)
        // is a single bucket, so the pre-interpolation histogram answered
        // every quantile with the same upper boundary. Interpolation must
        // spread the answers across the bucket by rank.
        let base = 1u64 << 20;
        let mut h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(SimDuration::from_nanos(base + i * 64));
        }
        let p10 = h.percentile(0.10).as_nanos();
        let p50 = h.p50().as_nanos();
        let p90 = h.percentile(0.90).as_nanos();
        assert!(p10 < p50 && p50 < p90, "p10={p10} p50={p50} p90={p90}");
        // The bucket spans 65536 ns; the interpolated p50 sits near the
        // bucket's midpoint, not at its upper boundary.
        let width = 1u64 << 16;
        assert!(p50 >= base && p50 <= base + width * 55 / 100, "p50={p50}");
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        let mut x = 17u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_nanos(1 + x % 5_000_000));
        }
        let mut prev = SimDuration::ZERO;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            assert!(p >= prev, "percentile not monotone at q={i}");
            prev = p;
        }
        assert!(h.percentile(0.0) >= h.min());
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn shifted_bucket_index_equals_the_wide_division() {
        let divided = |nanos: u64| -> usize {
            if nanos == 0 {
                return 0;
            }
            let exp = (63 - nanos.leading_zeros() as usize).min(MAX_EXP);
            let base = 1u64 << exp;
            let offset = ((nanos - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
            exp * SUB_BUCKETS + offset.min(SUB_BUCKETS - 1)
        };
        let check = |nanos: u64| {
            assert_eq!(
                LatencyHistogram::bucket_index(nanos),
                divided(nanos),
                "nanos {nanos}"
            );
        };
        check(0);
        check(u64::MAX);
        // Every power-of-two boundary ±1, which covers the clamp region
        // above 2^(MAX_EXP+1) as well.
        for exp in 0..64 {
            let base = 1u64 << exp;
            for nanos in [base - 1, base, base + 1] {
                check(nanos);
            }
        }
        // Sub-bucket boundaries of the overflow bucket and the values
        // around where the clamp starts to bind.
        let top = 1u64 << MAX_EXP;
        for sub in 0..=(2 * SUB_BUCKETS as u64) {
            let edge = top + sub * (top >> SUB_BITS);
            for nanos in [edge - 1, edge, edge + 1] {
                check(nanos);
            }
        }
        // A million values spread over every magnitude.
        let mut x = 0x5d11_0007u64;
        for _ in 0..1_000_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            check(x >> (x >> 58));
        }
    }

    #[test]
    fn clamp_out_of_range_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(7));
        assert_eq!(h.percentile(-1.0), SimDuration::from_micros(7));
        assert_eq!(h.percentile(2.0), SimDuration::from_micros(7));
    }
}
