//! Serving scenarios: the Table 8 / Table 9 style deployment comparisons.

use crate::error::ClusterError;
use crate::roofline::hosts_needed;
use sdm_metrics::units::Watts;

/// One way of serving a model: a host type at a measured per-host QPS.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingScenario {
    /// Scenario name ("HW-L", "HW-SS + SDM", "HW-AN + ScaleOut", …).
    pub name: String,
    /// QPS one serving unit sustains at the latency target.
    pub qps_per_host: f64,
    /// Power of one serving unit. For scale-out deployments this should
    /// include the amortised share of the remote memory hosts (e.g.
    /// 1.0 + 0.25 in Table 9).
    pub power_per_host: Watts,
    /// Extra hosts that do not serve queries directly but are required per
    /// serving host (e.g. 0.2 HW-S per HW-AN when one HW-S serves five
    /// HW-ANs). Only used for host counting; their power must already be in
    /// `power_per_host`.
    pub auxiliary_hosts_per_host: f64,
}

impl ServingScenario {
    /// Creates a scenario with no auxiliary hosts.
    pub fn new(name: impl Into<String>, qps_per_host: f64, power_per_host: Watts) -> Self {
        ServingScenario {
            name: name.into(),
            qps_per_host,
            power_per_host,
            auxiliary_hosts_per_host: 0.0,
        }
    }

    /// Adds auxiliary (non-serving) hosts per serving host.
    pub fn with_auxiliary_hosts(mut self, per_host: f64) -> Self {
        self.auxiliary_hosts_per_host = per_host.max(0.0);
        self
    }

    /// Serving hosts needed for a total QPS.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`] for non-positive per-host QPS.
    fn serving_hosts(&self, total_qps: f64) -> Result<u64, ClusterError> {
        hosts_needed(total_qps, self.qps_per_host)
    }

    /// Total hosts (serving + auxiliary) for a total QPS.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`] for non-positive per-host QPS.
    pub fn total_hosts(&self, total_qps: f64) -> Result<u64, ClusterError> {
        let serving = self.serving_hosts(total_qps)?;
        Ok(serving + (serving as f64 * self.auxiliary_hosts_per_host).ceil() as u64)
    }

    /// Total power for a total QPS.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`] for non-positive per-host QPS.
    fn total_power(&self, total_qps: f64) -> Result<Watts, ClusterError> {
        let serving = self.serving_hosts(total_qps)?;
        Ok(self.power_per_host * serving as f64)
    }
}

/// Compares a set of scenarios at the same total QPS demand (one paper
/// table).
#[derive(Debug, Clone)]
pub struct ScenarioComparison {
    /// The total QPS every scenario must serve.
    pub total_qps: f64,
    /// The compared scenarios; the first one is the baseline.
    pub scenarios: Vec<ServingScenario>,
}

/// One row of a comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Scenario name.
    pub name: String,
    /// QPS per host.
    pub qps_per_host: f64,
    /// Power per host, normalized to the baseline's power per host.
    pub normalized_host_power: f64,
    /// Total hosts (serving + auxiliary).
    pub total_hosts: u64,
    /// Total power normalized to the baseline scenario's total power.
    pub normalized_total_power: f64,
}

impl ScenarioComparison {
    /// Evaluates every scenario and normalizes to the first (baseline) one.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when there are no scenarios or any scenario
    /// has a non-positive per-host QPS.
    pub fn evaluate(&self) -> Result<Vec<ComparisonRow>, ClusterError> {
        let Some(baseline) = self.scenarios.first() else {
            return Err(ClusterError::InvalidParameter {
                name: "scenarios",
                reason: "at least one scenario is required".into(),
            });
        };
        let baseline_power = baseline.total_power(self.total_qps)?;
        let baseline_host_power = baseline.power_per_host;
        self.scenarios
            .iter()
            .map(|s| {
                Ok(ComparisonRow {
                    name: s.name.clone(),
                    qps_per_host: s.qps_per_host,
                    normalized_host_power: s.power_per_host.normalized_to(baseline_host_power),
                    total_hosts: s.total_hosts(self.total_qps)?,
                    normalized_total_power: s
                        .total_power(self.total_qps)?
                        .normalized_to(baseline_power),
                })
            })
            .collect()
    }

    /// Power saving of scenario `index` relative to the baseline, as a
    /// fraction in `[0, 1]` (negative when it uses more power).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors and rejects an out-of-range index.
    pub fn power_saving(&self, index: usize) -> Result<f64, ClusterError> {
        let rows = self.evaluate()?;
        let row = rows.get(index).ok_or(ClusterError::InvalidParameter {
            name: "index",
            reason: format!("no scenario at index {index}"),
        })?;
        Ok(1.0 - row.normalized_total_power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 8 with its own inputs: HW-L serves 240 QPS at power 1.0,
    /// HW-SS + SDM serves 120 QPS at power 0.4 → 20% fleet power saving.
    #[test]
    fn table8_arithmetic_reproduces_20_percent_saving() {
        let total_qps = 240.0 * 1200.0;
        let comparison = ScenarioComparison {
            total_qps,
            scenarios: vec![
                ServingScenario::new("HW-L", 240.0, Watts(1.0)),
                ServingScenario::new("HW-SS + SDM", 120.0, Watts(0.4)),
            ],
        };
        let rows = comparison.evaluate().unwrap();
        assert_eq!(rows[0].total_hosts, 1200);
        assert_eq!(rows[1].total_hosts, 2400);
        assert!((rows[1].normalized_total_power - 0.8).abs() < 1e-9);
        let saving = comparison.power_saving(1).unwrap();
        assert!((saving - 0.2).abs() < 1e-9);
    }

    /// Paper Table 9: scale-out (1.0 + 0.25 power, 1500 + 300 hosts) vs
    /// HW-AN + SDM (throughput collapses) vs HW-AO + SDM (same QPS, no
    /// scale-out) → ~5% saving for Optane.
    #[test]
    fn table9_arithmetic_reproduces_5_percent_saving() {
        let total_qps = 450.0 * 1500.0;
        let comparison = ScenarioComparison {
            total_qps,
            scenarios: vec![
                ServingScenario::new("HW-AN + ScaleOut", 450.0, Watts(1.05))
                    .with_auxiliary_hosts(0.2),
                ServingScenario::new("HW-AN + SDM", 230.0, Watts(1.4)),
                ServingScenario::new("HW-AO + SDM", 450.0, Watts(1.0)),
            ],
        };
        let rows = comparison.evaluate().unwrap();
        assert_eq!(rows[0].total_hosts, 1800);
        assert_eq!(rows[2].total_hosts, 1500);
        // Nand SDM costs almost 2x the power of scale-out (2978/1575 ≈ 1.9).
        assert!(rows[1].normalized_total_power > 1.5);
        let optane_saving = comparison.power_saving(2).unwrap();
        assert!(
            (0.03..=0.08).contains(&optane_saving),
            "saving = {optane_saving}"
        );
    }

    #[test]
    fn empty_comparison_and_bad_index_are_errors() {
        let empty = ScenarioComparison {
            total_qps: 100.0,
            scenarios: vec![],
        };
        assert!(empty.evaluate().is_err());
        let one = ScenarioComparison {
            total_qps: 100.0,
            scenarios: vec![ServingScenario::new("a", 10.0, Watts(1.0))],
        };
        assert!(one.power_saving(3).is_err());
    }

    #[test]
    fn auxiliary_hosts_increase_host_count_only() {
        let s = ServingScenario::new("x", 100.0, Watts(2.0)).with_auxiliary_hosts(0.2);
        assert_eq!(s.serving_hosts(1000.0).unwrap(), 10);
        assert_eq!(s.total_hosts(1000.0).unwrap(), 12);
        assert!((s.total_power(1000.0).unwrap().as_f64() - 20.0).abs() < 1e-9);
    }
}
