//! Loaded-latency model: how device latency inflates as offered load
//! approaches the device's IOPS ceiling (paper Figure 3).

use crate::tech::TechnologyProfile;
use sdm_metrics::SimDuration;

/// Deterministic model of read latency as a function of device utilisation.
///
/// The model captures the qualitative behaviour the paper measures in
/// Figure 3:
///
/// * below the *knee* utilisation, latency stays near the technology's base
///   latency;
/// * above the knee it inflates like an M/M/1 queue, `1 / (1 - rho)`, so Nand
///   Flash (knee at ~50 % utilisation, 90 µs base) blows past a millisecond
///   well before its nominal IOPS ceiling while Optane stays in the tens of
///   microseconds almost to its ceiling;
/// * a small deterministic "tail" fraction of reads takes
///   `tail_multiplier × base` (Nand garbage-collection pauses), which is why
///   the paper's Nand deployment meets p95 but not p99.
///
/// The model is intentionally closed-form so experiments are reproducible.
#[derive(Debug, Clone)]
pub struct LoadedLatencyModel {
    base: SimDuration,
    knee: f64,
    tail_probability: f64,
    tail_multiplier: f64,
    max_iops: f64,
    /// Cap on the queueing inflation of the body of the distribution: past
    /// this point the device is saturated and throughput (not per-IO media
    /// latency) is the limit, which the device model expresses separately
    /// via Little's law.
    max_inflation: f64,
    /// Deterministic counter used to pick which reads land in the tail.
    tail_counter: u64,
}

impl LoadedLatencyModel {
    /// Builds the latency model for one technology profile.
    pub fn new(profile: &TechnologyProfile) -> Self {
        LoadedLatencyModel {
            base: profile.base_read_latency,
            knee: profile.knee_utilisation.clamp(0.01, 0.999),
            tail_probability: profile.tail_probability.clamp(0.0, 1.0),
            tail_multiplier: profile.tail_multiplier.max(1.0),
            max_iops: profile.max_read_iops.max(1.0),
            // Technologies with heavier tails (Nand) also degrade further
            // before saturating; Optane stays close to its base latency.
            max_inflation: (profile.tail_multiplier / 4.0).clamp(2.0, 6.0),
            tail_counter: 0,
        }
    }

    /// The unloaded base latency.
    pub fn base_latency(&self) -> SimDuration {
        self.base
    }

    /// Media latency for one access at the given utilisation (fraction of
    /// the IOPS ceiling, clamped to `[0, 0.99]`), excluding bus transfer and
    /// excluding the tail.
    fn latency_at_utilisation(&self, utilisation: f64) -> SimDuration {
        let rho = utilisation.clamp(0.0, 0.99);
        if rho <= self.knee {
            // Gentle linear rise up to the knee (controller pipelining hides
            // most of the queueing below the knee).
            let slope = 0.5; // +50% at the knee
            return self.base * (1.0 + slope * rho / self.knee);
        }
        // Past the knee: M/M/1-style inflation relative to the knee point,
        // capped once the device saturates (beyond that, throughput — not
        // per-IO media latency — is the limit).
        let at_knee = 1.5;
        let remaining = (rho - self.knee) / (1.0 - self.knee); // 0..1
        let inflation = (at_knee / (1.0 - remaining * 0.98)).min(self.max_inflation);
        self.base * inflation
    }

    /// Returns the latency for the next read, including the deterministic
    /// tail. Tail reads occur every `1/tail_probability` reads.
    pub fn next_read_latency(&mut self, utilisation: f64) -> SimDuration {
        let body = self.latency_at_utilisation(utilisation);
        if self.tail_probability <= 0.0 {
            return body;
        }
        self.tail_counter += 1;
        let period = (1.0 / self.tail_probability).round() as u64;
        if period > 0 && self.tail_counter.is_multiple_of(period) {
            self.base * self.tail_multiplier
        } else {
            body
        }
    }

    /// Effective IOPS the device can sustain while keeping latency under
    /// `target`: found by walking the utilisation curve.
    pub fn iops_at_latency_target(&self, target: SimDuration) -> f64 {
        if target < self.base {
            return 0.0;
        }
        let mut lo = 0.0f64;
        let mut hi = 0.99f64;
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if self.latency_at_utilisation(mid) <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo * self.max_iops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::TechnologyProfile;

    #[test]
    fn latency_monotone_in_utilisation() {
        let m = LoadedLatencyModel::new(&TechnologyProfile::nand_flash());
        let mut prev = SimDuration::ZERO;
        for i in 0..100 {
            let u = i as f64 / 100.0;
            let l = m.latency_at_utilisation(u);
            assert!(l >= prev, "latency decreased at u={u}");
            prev = l;
        }
    }

    #[test]
    fn nand_inflates_much_more_than_optane() {
        let mut nand = LoadedLatencyModel::new(&TechnologyProfile::nand_flash());
        let mut optane = LoadedLatencyModel::new(&TechnologyProfile::optane_ssd());
        let nand_loaded = nand.next_read_latency(0.9);
        let optane_loaded = optane.next_read_latency(0.9);
        // Optane stays in the tens of microseconds; Nand goes to hundreds.
        assert!(
            optane_loaded < SimDuration::from_micros(60),
            "{optane_loaded}"
        );
        assert!(nand_loaded > SimDuration::from_micros(200), "{nand_loaded}");
    }

    #[test]
    fn unloaded_latency_close_to_base() {
        let m = LoadedLatencyModel::new(&TechnologyProfile::optane_ssd());
        let l = m.latency_at_utilisation(0.01);
        assert!(l >= m.base_latency());
        assert!(l < m.base_latency() * 2);
    }

    #[test]
    fn tail_reads_are_periodic_and_slow() {
        let profile = TechnologyProfile::nand_flash();
        let mut m = LoadedLatencyModel::new(&profile);
        let mut tails = 0;
        let n = 1000;
        for _ in 0..n {
            if m.next_read_latency(0.1) >= profile.base_read_latency * profile.tail_multiplier {
                tails += 1;
            }
        }
        let expected = (n as f64 * profile.tail_probability) as i64;
        assert!((tails - expected).abs() <= 1, "tails = {tails}");
    }

    #[test]
    fn iops_at_latency_target_brackets_ceiling() {
        let profile = TechnologyProfile::optane_ssd();
        let m = LoadedLatencyModel::new(&profile);
        let at_loose = m.iops_at_latency_target(SimDuration::from_millis(10));
        assert!(at_loose > 0.9 * profile.max_read_iops);
        let at_tight = m.iops_at_latency_target(SimDuration::from_nanos(1));
        assert_eq!(at_tight, 0.0);
    }
}
