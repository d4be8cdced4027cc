//! Virtual time used by the simulated device and IO stack.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with nanosecond resolution.
///
/// `SimDuration` mirrors the subset of `std::time::Duration` the stack needs,
/// but is its own newtype so simulated and wall-clock durations can never be
/// mixed by accident.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { nanos }
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            nanos: micros * 1_000,
        }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Creates a duration from fractional microseconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    fn from_micros_f64(micros: f64) -> Self {
        if !micros.is_finite() || micros <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration {
            nanos: (micros * 1_000.0).round() as u64,
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration {
            nanos: (secs * 1_000_000_000.0).round() as u64,
        }
    }

    /// Total nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Total whole microseconds in this duration (truncating).
    pub const fn as_micros(self) -> u64 {
        self.nanos / 1_000
    }

    /// Duration expressed as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.nanos as f64 / 1_000.0
    }

    /// Duration expressed as fractional milliseconds.
    fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1_000_000.0
    }

    /// Duration expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.nanos >= other.nanos {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.nanos <= other.nanos {
            self
        } else {
            other
        }
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos = self.nanos.saturating_add(rhs.nanos);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.nanos = self.nanos.saturating_sub(rhs.nanos);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_mul(rhs),
        }
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_micros_f64(self.as_micros_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos.checked_div(rhs).unwrap_or(0),
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.nanos >= 1_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// A point in simulated time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The origin of simulated time.
    pub const EPOCH: SimInstant = SimInstant { nanos: 0 };

    /// Creates an instant at an absolute nanosecond offset from the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant { nanos }
    }

    /// Nanoseconds elapsed since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Time elapsed since an earlier instant, saturating at zero.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        if self.nanos >= other.nanos {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos = self.nanos.saturating_add(rhs.nanos);
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2_000));
        assert_eq!(SimDuration::from_secs(3), SimDuration::from_millis(3_000));
    }

    #[test]
    fn duration_float_constructors_saturate() {
        assert_eq!(SimDuration::from_micros_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(3);
        assert_eq!((a + b).as_micros(), 13);
        assert_eq!((a - b).as_micros(), 7);
        assert_eq!((b - a), SimDuration::ZERO);
        assert_eq!((a * 3).as_micros(), 30);
        assert_eq!((a / 2).as_micros(), 5);
        assert_eq!((a / 0), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_display_scales() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.00us");
        assert!(SimDuration::from_millis(5).to_string().ends_with("ms"));
        assert!(SimDuration::from_secs(5).to_string().ends_with('s'));
    }

    #[test]
    fn instant_ordering_and_arithmetic() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_micros(10);
        assert!(t1 > t0);
        assert_eq!((t1 - t0).as_micros(), 10);
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }
}
