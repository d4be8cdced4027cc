//! Open-loop arrival processes on the virtual clock.
//!
//! Closed-loop driving (feeding batches as fast as shards drain them)
//! measures makespan, not service quality: it cannot answer "what p99 do
//! we serve at X offered QPS". The generators here produce *offered* load
//! — arrival instants drawn independently of how fast the server happens
//! to be — so a front end can measure queueing, deadline misses, and shed
//! rate under a controlled load.
//!
//! All processes are deterministic per seed on the virtual
//! [`SimInstant`] timeline: the same `(process, seed)` pair yields the
//! same arrival sequence on every run, which is what lets benchmark
//! gates compare latency curves exactly instead of within a jitter band.

use rand::prelude::*;
use sdm_metrics::{SimDuration, SimInstant};

use crate::error::WorkloadError;

/// An open-loop arrival process: the law governing inter-arrival gaps.
///
/// Every variant is a (possibly time-varying) Poisson process — gaps are
/// exponential with the instantaneous rate evaluated at the previous
/// arrival. That piecewise approximation is standard for discrete-event
/// load generation and keeps sampling O(1) and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a fixed mean rate.
    Poisson {
        /// Mean offered load in queries per virtual second. Must be
        /// positive and finite.
        rate_qps: f64,
    },
    /// Square-wave load: each period opens with a burst window at
    /// `burst_qps`, then relaxes to `base_qps` for the remainder.
    Bursty {
        /// Rate outside the burst window, queries per virtual second.
        base_qps: f64,
        /// Rate inside the burst window, queries per virtual second.
        burst_qps: f64,
        /// Length of one burst/base cycle.
        period: SimDuration,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        burst_fraction: f64,
    },
}

impl ArrivalProcess {
    /// Validates the process parameters.
    pub(crate) fn validate(&self) -> Result<(), WorkloadError> {
        fn positive(value: f64, what: &'static str) -> Result<(), WorkloadError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(WorkloadError::InvalidConfig {
                    reason: format!("{what} must be positive and finite, got {value}"),
                })
            }
        }
        match *self {
            ArrivalProcess::Poisson { rate_qps } => positive(rate_qps, "Poisson rate_qps"),
            ArrivalProcess::Bursty {
                base_qps,
                burst_qps,
                period,
                burst_fraction,
            } => {
                positive(base_qps, "Bursty base_qps")?;
                positive(burst_qps, "Bursty burst_qps")?;
                if period.is_zero() {
                    return Err(WorkloadError::InvalidConfig {
                        reason: "Bursty period must be non-zero".to_string(),
                    });
                }
                if !(burst_fraction.is_finite() && burst_fraction > 0.0 && burst_fraction < 1.0) {
                    return Err(WorkloadError::InvalidConfig {
                        reason: format!(
                            "Bursty burst_fraction must be in (0, 1), got {burst_fraction}"
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// Instantaneous rate (queries per virtual second) at `now`.
    fn rate_at(&self, now: SimInstant) -> f64 {
        let elapsed = now.duration_since(SimInstant::EPOCH);
        match *self {
            ArrivalProcess::Poisson { rate_qps } => rate_qps,
            ArrivalProcess::Bursty {
                base_qps,
                burst_qps,
                period,
                burst_fraction,
            } => {
                let phase_nanos = elapsed.as_nanos() % period.as_nanos();
                let phase = phase_nanos as f64 / period.as_nanos() as f64;
                if phase < burst_fraction {
                    burst_qps
                } else {
                    base_qps
                }
            }
        }
    }
}

/// Seeded generator producing a monotone stream of arrival instants.
///
/// Cheap to construct (no heap allocation) and O(1) per sample; two
/// generators built from the same `(process, seed)` pair produce
/// identical sequences.
#[derive(Debug, Clone)]
pub struct ArrivalGenerator {
    process: ArrivalProcess,
    rng: StdRng,
    cursor: SimInstant,
}

impl ArrivalGenerator {
    /// Builds a generator starting at the virtual epoch.
    pub fn new(process: ArrivalProcess, seed: u64) -> Result<Self, WorkloadError> {
        process.validate()?;
        Ok(ArrivalGenerator {
            process,
            rng: StdRng::seed_from_u64(seed),
            cursor: SimInstant::EPOCH,
        })
    }

    /// Advances to and returns the next arrival instant.
    ///
    /// Gaps are exponential with the instantaneous rate at the previous
    /// arrival, via inversion sampling: `-ln(1 - u) / rate`.
    pub fn next_arrival(&mut self) -> SimInstant {
        let rate = self.process.rate_at(self.cursor);
        let u: f64 = self.rng.gen();
        let gap_secs = -(1.0 - u).ln() / rate;
        self.cursor += SimDuration::from_secs_f64(gap_secs);
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(process: ArrivalProcess, seed: u64, n: usize) -> Vec<SimInstant> {
        let mut gen = ArrivalGenerator::new(process, seed).expect("valid process");
        (0..n).map(|_| gen.next_arrival()).collect()
    }

    #[test]
    fn same_seed_means_identical_sequences() {
        for process in [
            ArrivalProcess::Poisson { rate_qps: 250.0 },
            ArrivalProcess::Bursty {
                base_qps: 100.0,
                burst_qps: 1000.0,
                period: SimDuration::from_millis(50),
                burst_fraction: 0.25,
            },
        ] {
            let a = collect(process, 0x5d_2022, 512);
            let b = collect(process, 0x5d_2022, 512);
            assert_eq!(a, b, "{process:?} not deterministic per seed");
            let c = collect(process, 0x5d_2023, 512);
            assert_ne!(a, c, "{process:?} ignored the seed");
        }
    }

    #[test]
    fn arrivals_are_monotone_non_decreasing() {
        let arrivals = collect(ArrivalProcess::Poisson { rate_qps: 10_000.0 }, 7, 2048);
        for pair in arrivals.windows(2) {
            assert!(pair[0] <= pair[1], "arrivals went backwards: {pair:?}");
        }
    }

    #[test]
    fn poisson_mean_rate_is_close_to_target() {
        let n = 20_000;
        let arrivals = collect(ArrivalProcess::Poisson { rate_qps: 500.0 }, 11, n);
        let span = arrivals[n - 1]
            .duration_since(SimInstant::EPOCH)
            .as_secs_f64();
        let measured = n as f64 / span;
        assert!(
            (measured - 500.0).abs() / 500.0 < 0.05,
            "measured {measured} qps vs target 500"
        );
    }

    #[test]
    fn bursty_rate_toggles() {
        let bursty = ArrivalProcess::Bursty {
            base_qps: 100.0,
            burst_qps: 900.0,
            period: SimDuration::from_millis(100),
            burst_fraction: 0.3,
        };
        let in_burst = SimInstant::EPOCH + SimDuration::from_millis(10);
        let in_base = SimInstant::EPOCH + SimDuration::from_millis(60);
        assert_eq!(bursty.rate_at(in_burst), 900.0);
        assert_eq!(bursty.rate_at(in_base), 100.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let bad = [
            ArrivalProcess::Poisson { rate_qps: 0.0 },
            ArrivalProcess::Poisson { rate_qps: f64::NAN },
            ArrivalProcess::Bursty {
                base_qps: 100.0,
                burst_qps: 500.0,
                period: SimDuration::ZERO,
                burst_fraction: 0.5,
            },
            ArrivalProcess::Bursty {
                base_qps: 100.0,
                burst_qps: 500.0,
                period: SimDuration::from_millis(10),
                burst_fraction: 1.0,
            },
        ];
        for process in bad {
            assert!(
                ArrivalGenerator::new(process, 1).is_err(),
                "{process:?} should be rejected"
            );
        }
    }
}
