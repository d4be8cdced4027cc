//! Byte, power and cost units used by the device and datacenter models.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A quantity of bytes.
///
/// Used for capacities (DRAM per host, SSD capacity, model size) as well as
/// transfer sizes. The type is a plain newtype over `u64`; helpers are
/// provided for the usual SI-ish units (powers of two, as is conventional for
/// memory capacities).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a quantity from kibibytes.
    pub const fn from_kib(kib: u64) -> Bytes {
        Bytes(kib * 1024)
    }

    /// Creates a quantity from mebibytes.
    pub const fn from_mib(mib: u64) -> Bytes {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a quantity from gibibytes.
    pub const fn from_gib(gib: u64) -> Bytes {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// Creates a quantity from tebibytes.
    pub const fn from_tib(tib: u64) -> Bytes {
        Bytes(tib * 1024 * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Quantity expressed in fractional gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Quantity expressed in fractional mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Slice `index` of this quantity divided losslessly among `shards`:
    /// every share is `total / shards`, and the `total % shards` remainder
    /// bytes go one each to the first shards, so the shares always sum to
    /// the exact total. See [`split_share`].
    pub fn split_among(self, shards: u64, index: u64) -> Bytes {
        Bytes(split_share(self.0, shards, index))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// True when the quantity is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0.checked_div(rhs).unwrap_or(0))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

/// Share `index` (zero-based) of `total` divided losslessly among `shards`.
///
/// Every share is `total / shards`, and the `total % shards` remainder units
/// go one each to shares `0..remainder`, so
/// `(0..shards).map(|i| split_share(total, shards, i)).sum() == total` for
/// every input — unlike a plain truncating division, which silently drops
/// the remainder from the aggregate. `shards == 0` is treated as 1 (the
/// identity split), and `split_share(total, 1, 0) == total` exactly.
pub fn split_share(total: u64, shards: u64, index: u64) -> u64 {
    let shards = shards.max(1);
    total / shards + u64::from(index < total % shards)
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        const TIB: u64 = 1024 * GIB;
        if self.0 >= TIB {
            write!(f, "{:.2}TiB", self.0 as f64 / TIB as f64)
        } else if self.0 >= GIB {
            write!(f, "{:.2}GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2}MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2}KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// Electrical power in watts.
///
/// The paper reports normalized power numbers; [`Watts`] carries the absolute
/// model-level values and the `cluster` crate normalizes for reporting.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Watts(pub f64);

impl Watts {
    /// Zero watts.
    pub(crate) const ZERO: Watts = Watts(0.0);

    /// Raw value.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Ratio of this power to a baseline (used for normalized reporting).
    ///
    /// Returns zero when the baseline is zero or non-finite.
    pub fn normalized_to(self, baseline: Watts) -> f64 {
        if baseline.0 <= 0.0 || !baseline.0.is_finite() {
            0.0
        } else {
            self.0 / baseline.0
        }
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1_000_000.0 {
            write!(f, "{:.2}MW", self.0 / 1_000_000.0)
        } else if self.0.abs() >= 1_000.0 {
            write!(f, "{:.2}kW", self.0 / 1_000.0)
        } else {
            write!(f, "{:.1}W", self.0)
        }
    }
}

/// Relative cost per GB, normalized so DDR4 DRAM is `1.0` (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct RelativeCost(pub f64);

impl RelativeCost {
    /// Cost of DRAM per GB (the normalization baseline).
    pub const DRAM: RelativeCost = RelativeCost(1.0);

    /// Raw relative value.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl fmt::Display for RelativeCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}x DRAM/GB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(1).as_u64(), 1 << 30);
        assert_eq!(Bytes::from_tib(1).as_u64(), 1u64 << 40);
    }

    #[test]
    fn bytes_arithmetic_and_ordering() {
        let a = Bytes::from_mib(4);
        let b = Bytes::from_mib(1);
        assert_eq!(a + b, Bytes::from_mib(5));
        assert_eq!(a - b, Bytes::from_mib(3));
        assert_eq!(b - a, Bytes::ZERO);
        assert_eq!(a * 2, Bytes::from_mib(8));
        assert_eq!(a / 4, Bytes::from_mib(1));
        assert_eq!(a / 0, Bytes::ZERO);
        assert!(a > b);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn bytes_display_scales() {
        assert_eq!(Bytes(512).to_string(), "512B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.00KiB");
        assert_eq!(Bytes::from_gib(143).to_string(), "143.00GiB");
        assert!(Bytes::from_tib(1).to_string().ends_with("TiB"));
    }

    #[test]
    fn bytes_sum() {
        let total: Bytes = vec![Bytes(1), Bytes(2), Bytes(3)].into_iter().sum();
        assert_eq!(total, Bytes(6));
    }

    #[test]
    fn split_share_is_lossless_at_awkward_counts() {
        // Remainders land on the first shares and every total is conserved.
        for total in [0u64, 1, 6, 7, 64, 1000, u64::from(u32::MAX)] {
            for shards in [1u64, 2, 3, 4, 5, 7, 16] {
                let sum: u64 = (0..shards).map(|i| split_share(total, shards, i)).sum();
                assert_eq!(sum, total, "{total} split {shards} ways");
                // Shares are within one unit of each other, largest first.
                for i in 1..shards {
                    let prev = split_share(total, shards, i - 1);
                    let cur = split_share(total, shards, i);
                    assert!(prev == cur || prev == cur + 1);
                }
            }
        }
        // Identity and zero-shard clamping.
        assert_eq!(split_share(42, 1, 0), 42);
        assert_eq!(split_share(42, 0, 0), 42);
        // The motivating case: 7 queue slots over 4 shards used to lose 3.
        assert_eq!(
            (0..4).map(|i| split_share(7, 4, i)).collect::<Vec<_>>(),
            vec![2, 2, 2, 1]
        );
        assert_eq!(Bytes(7).split_among(4, 0), Bytes(2));
        assert_eq!(Bytes(7).split_among(4, 3), Bytes(1));
    }

    #[test]
    fn watts_normalization() {
        let a = Watts(400.0);
        let base = Watts(1000.0);
        assert!((a.normalized_to(base) - 0.4).abs() < 1e-12);
        assert_eq!(a.normalized_to(Watts::ZERO), 0.0);
    }

    #[test]
    fn watts_display() {
        assert_eq!(Watts(5.0).to_string(), "5.0W");
        assert_eq!(Watts(1500.0).to_string(), "1.50kW");
        assert_eq!(Watts(2_000_000.0).to_string(), "2.00MW");
    }
}
