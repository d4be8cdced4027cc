//! Datacenter-level modelling: hardware configurations, power, fleet
//! sizing, scale-out and multi-tenancy.
//!
//! The paper's headline results (Tables 8, 9, 10 and 11) are fleet-level
//! arithmetic on top of per-host measurements: given the QPS one host
//! sustains at the latency target and the host's power, how many hosts and
//! how many megawatts does the use case need, with and without Software
//! Defined Memory? This crate reproduces that arithmetic:
//!
//! * [`HostConfig`] — the hardware platforms of Table 7 (HW-L, HW-S, HW-SS,
//!   HW-AN, HW-AO and the future accelerator host of §5.3);
//! * [`PowerModel`] — component-level host power estimates;
//! * [`ServingScenario`] / [`ScenarioComparison`] — the Table 8/9 style
//!   deployments, fleets sized by Equation 7;
//! * [`multi_tenancy`] — the utilisation/power model behind Table 11;
//! * [`sizing`] — the IOPS → number-of-SSDs sizing of Table 10.
//!
//! # Example
//!
//! ```
//! use cluster::{HostConfig, PowerModel};
//!
//! let power = PowerModel::default();
//! let hw_l = power.host_power(&HostConfig::hw_l());
//! let hw_ss = power.host_power(&HostConfig::hw_ss());
//! // The single-socket SSD host draws well under half the dual-socket
//! // large-DRAM host (paper Table 8 uses 0.4x).
//! assert!(hw_ss.as_f64() / hw_l.as_f64() < 0.55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

mod error;
mod hardware;
pub mod multi_tenancy;
mod power;
mod scenario;
pub mod sizing;

pub use error::ClusterError;
pub use hardware::{AcceleratorSpec, HostConfig, SsdKind, SsdSpec};
pub use power::PowerModel;
pub use scenario::{ScenarioComparison, ServingScenario};
