//! Host CPU cost of reaping completions: interrupt-driven vs polled.
//!
//! Paper §A.1: at very high IO rates there is always work in the completion
//! queues, so removing the IRQ overhead and polling improves IOPS/core by
//! about 50 %. The paper could not deploy polling because operator-based
//! execution in Caffe2/PyTorch does not allow a producer–consumer pool across
//! all embedding operators — but it quantifies the opportunity, which this
//! model reproduces.

use sdm_metrics::SimDuration;
use serde::{Deserialize, Serialize};

/// How completions are harvested from the NVMe completion queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CompletionMode {
    /// Interrupt-driven completions: each IO pays IRQ + context switch cost.
    #[default]
    Interrupt,
    /// Polled completions: a core spins on the CQ; per-IO cost is lower but
    /// the polling core is fully consumed.
    Polling,
}

/// Per-IO host CPU cost model for submission + completion handling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuCostModel {
    /// CPU time to build and submit one request (io_uring SQE preparation).
    pub submit_cost: SimDuration,
    /// CPU time to handle one completion with interrupts.
    pub interrupt_completion_cost: SimDuration,
    /// CPU time to handle one completion when polling.
    pub polling_completion_cost: SimDuration,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        // Calibrated so that polling yields ~50% more IOPS/core, matching the
        // paper's observation: interrupt path ≈ 3 µs/IO total, polled path
        // ≈ 2 µs/IO total.
        CpuCostModel {
            submit_cost: SimDuration::from_nanos(700),
            interrupt_completion_cost: SimDuration::from_nanos(2_300),
            polling_completion_cost: SimDuration::from_nanos(1_300),
        }
    }
}

impl CpuCostModel {
    /// Host CPU time consumed by one IO end to end under the given mode.
    fn cpu_time_per_io(&self, mode: CompletionMode) -> SimDuration {
        match mode {
            CompletionMode::Interrupt => self.submit_cost + self.interrupt_completion_cost,
            CompletionMode::Polling => self.submit_cost + self.polling_completion_cost,
        }
    }

    /// IOs per second one core can sustain under the given mode.
    pub fn iops_per_core(&self, mode: CompletionMode) -> f64 {
        let per_io = self.cpu_time_per_io(mode).as_secs_f64();
        if per_io <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / per_io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polling_improves_iops_per_core_by_about_half() {
        let m = CpuCostModel::default();
        let gain = m.iops_per_core(CompletionMode::Polling)
            / m.iops_per_core(CompletionMode::Interrupt)
            - 1.0;
        assert!(gain > 0.40 && gain < 0.60, "gain = {gain}");
    }

    #[test]
    fn cpu_time_is_additive() {
        let m = CpuCostModel::default();
        assert_eq!(
            m.cpu_time_per_io(CompletionMode::Interrupt),
            m.submit_cost + m.interrupt_completion_cost
        );
        assert!(
            m.cpu_time_per_io(CompletionMode::Polling)
                < m.cpu_time_per_io(CompletionMode::Interrupt)
        );
    }

    #[test]
    fn default_mode_is_interrupt() {
        assert_eq!(CompletionMode::default(), CompletionMode::Interrupt);
    }
}
