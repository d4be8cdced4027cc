//! Retry, per-IO deadline and hedged-read policy for the IO engine.
//!
//! Production NVMe stacks survive the failure modes a [`scm_device::FaultPlan`]
//! injects — transient command failures, stuck IOs, latency storms and payload
//! corruption — with three cooperating mechanisms, all reproduced here on the
//! virtual clock so they stay deterministic:
//!
//! * **bounded retry with exponential backoff**: a failed attempt is re-issued
//!   after `10 µs * 2^(attempt-1)`, up to
//!   `max_attempts` total attempts;
//! * **per-IO deadlines**: an IO whose device latency exceeds `io_deadline`
//!   is abandoned (its queue slot stays occupied until the device would have
//!   finished — the host cannot reclaim silicon) and re-issued, which is what
//!   bounds the damage of stuck IOs;
//! * **hedged reads**: when the primary completion would land later than
//!   `hedge_after` past the attempt start, a duplicate read is issued at that
//!   instant and the first *clean* completion wins — the classic
//!   tail-at-scale defence.
//!
//! The default configuration (3 attempts, deadline and hedging disabled) is
//! bit-identical to the pre-resilience engine whenever no faults fire: the
//! first attempt succeeds, no extra RNG draws, no extra latency.

use crate::error::IoError;
use sdm_metrics::SimDuration;

/// Backoff before the first retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_micros(10);

/// Factor the backoff grows by per extra attempt.
const BACKOFF_MULTIPLIER: u64 = 2;

/// Retry/deadline/hedging knobs, embedded in
/// [`crate::EngineConfig::retry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Total attempts per logical read, including the first (minimum 1).
    pub max_attempts: u32,
    /// Per-IO deadline: an attempt whose device latency exceeds this is
    /// abandoned and retried. [`SimDuration::ZERO`] disables deadlines.
    pub io_deadline: SimDuration,
    /// Hedged reads: when the primary attempt would complete later than
    /// this delay past the attempt start, issue a duplicate read at the
    /// delay mark and take the first clean completion. `None` disables
    /// hedging. Callers typically derive the delay from an observed p99.
    pub hedge_after: Option<SimDuration>,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            io_deadline: SimDuration::ZERO,
            hedge_after: None,
        }
    }
}

impl RetryConfig {
    /// Backoff to wait before re-issuing after the given (1-based) failed
    /// attempt: `BACKOFF_BASE * BACKOFF_MULTIPLIER^(attempt-1)`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(32);
        BACKOFF_BASE * BACKOFF_MULTIPLIER.saturating_pow(exp)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::InvalidConfig`] when `max_attempts` is zero.
    pub fn validate(&self) -> Result<(), IoError> {
        if self.max_attempts == 0 {
            return Err(IoError::InvalidConfig {
                reason: "retry.max_attempts must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Cumulative resilience counters of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Attempts re-issued after a failure (excludes first attempts).
    pub retries: u64,
    /// Attempts failed by a transient device error.
    pub transient_errors: u64,
    /// Attempts whose payload failed end-to-end checksum verification.
    /// Every detected corruption lands here; none of them is ever
    /// delivered to the caller.
    pub checksum_failures: u64,
    /// Attempts abandoned because they exceeded the per-IO deadline.
    pub deadline_timeouts: u64,
    /// Hedged (duplicate) reads issued.
    pub hedges: u64,
    /// Hedged reads that completed cleanly before the primary.
    pub hedge_wins: u64,
    /// Logical reads that exhausted every attempt and surfaced
    /// [`IoError::RetriesExhausted`] to the caller.
    pub exhausted: u64,
}

impl ResilienceStats {
    /// Folds another engine's counters into this one (multi-shard hosts).
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.retries += other.retries;
        self.transient_errors += other.transient_errors;
        self.checksum_failures += other.checksum_failures;
        self.deadline_timeouts += other.deadline_timeouts;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
        self.exhausted += other.exhausted;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let cfg = RetryConfig::default();
        assert_eq!(cfg.backoff(1), SimDuration::from_micros(10));
        assert_eq!(cfg.backoff(2), SimDuration::from_micros(20));
        assert_eq!(cfg.backoff(3), SimDuration::from_micros(40));
        // Saturates rather than overflowing for absurd attempt counts.
        assert!(cfg.backoff(200) >= cfg.backoff(3));
    }

    #[test]
    fn zero_attempts_is_invalid() {
        let cfg = RetryConfig {
            max_attempts: 0,
            ..RetryConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(IoError::InvalidConfig { .. })));
        assert!(RetryConfig::default().validate().is_ok());
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = ResilienceStats {
            retries: 1,
            transient_errors: 2,
            checksum_failures: 3,
            deadline_timeouts: 4,
            hedges: 5,
            hedge_wins: 1,
            exhausted: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.retries, 2);
        assert_eq!(a.deadline_timeouts, 8);
        assert_eq!(a.hedge_wins, 2);
    }
}
