//! Simulated Storage Class Memory (SCM) devices for the SDM stack.
//!
//! The paper evaluates its Software Defined Memory design on real NVMe Nand
//! Flash and Optane SSDs. This crate substitutes a deterministic device
//! simulator that reproduces the *performance envelope* those results are
//! driven by (paper Table 1 and Figure 3):
//!
//! * an IOPS ceiling and a loaded-latency curve (latency inflates as the
//!   device approaches its IOPS ceiling, with Nand Flash degrading much
//!   earlier and further than Optane);
//! * an access granularity (4 KiB blocks for Nand, 512 B for Optane, cache
//!   lines for DIMM/CXL 3DXP) producing read amplification for the 64–512 B
//!   embedding rows DLRM actually needs;
//! * NVMe-style reads with a Scatter-Gather-List *bit bucket* that transfers
//!   only the requested byte ranges over the bus (paper §4.1.1);
//! * endurance (drive writes per day) limiting model-update frequency;
//! * occasional long-tail latencies for Nand Flash (the reason the paper's
//!   HW-SS deployment meets p95 but not p99).
//!
//! The central types are [`TechnologyProfile`] (a named point in Table 1),
//! [`ScmDevice`] (one simulated drive holding real bytes) and
//! [`DeviceArray`] (a host's set of drives). A [`FaultPlan`] can be
//! attached per device to inject deterministic, seeded failures — transient
//! read errors, latency storms, stuck IOs and bit-flip corruption — that
//! the upper layers must survive; every [`ReadOutcome`] carries a
//! [`checksum64`] guard tag so corruption is always detectable.
//!
//! # Example
//!
//! ```
//! use scm_device::{ReadCommand, ScmDevice, TechnologyProfile};
//! use sdm_metrics::units::Bytes;
//!
//! # fn main() -> Result<(), scm_device::DeviceError> {
//! let mut dev = ScmDevice::new("ssd0", TechnologyProfile::optane_ssd(), Bytes::from_mib(4))?;
//! dev.write_at(0, &[7u8; 256])?;
//! let out = dev.read(&ReadCommand::sgl(0, 128), 1)?;
//! assert_eq!(out.data.len(), 128);
//! assert!(out.data.iter().all(|&b| b == 7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The read/write paths must stay panic-free: every failure is a typed
// `DeviceError` the IO engine's retry layer can act on. Tests opt back in
// locally with `#[allow(clippy::unwrap_used)]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

mod array;
mod block;
mod device;
mod error;
mod fault;
mod latency;
mod nvme;
mod tech;

pub use array::{DeviceArray, DeviceId};
pub use block::PageStore;
pub use device::{DeviceStats, ReadInfo, ReadOutcome, ScmDevice, WriteOutcome};
pub use error::DeviceError;
pub use fault::{checksum64, FaultPlan, FaultStats};
pub use nvme::{AccessMode, ReadCommand, SglRange};
pub use tech::{Sourcing, TechnologyKind, TechnologyProfile};
