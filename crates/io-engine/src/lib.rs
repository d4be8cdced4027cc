//! Asynchronous IO engine over simulated SCM devices.
//!
//! The paper issues multi-million IOPS against NVMe devices through
//! `io_uring` with `DIRECT-IO`, because going through the page cache (`mmap`)
//! wastes fast-memory space and triples access latency for the 128 B-ish
//! embedding rows DLRM reads (§4.1). This crate reproduces that software
//! layer on top of [`scm_device`]:
//!
//! * [`IoEngine`] — routes requests to devices, enforces the paper's tuning
//!   knobs (maximum outstanding IOs per device, per table, and the number of
//!   tables in flight), and computes per-request queueing + device latency on
//!   the virtual clock.
//! * [`MmapIo`] — the rejected design alternative: page-granularity reads
//!   through a simulated page cache, used by the mmap-vs-DIRECT-IO
//!   experiment.
//! * [`CompletionMode`] — interrupt-driven vs polled completions and their
//!   host CPU cost (§A.1: polling improves IOPS/core by ~50 % but was too
//!   complex to deploy).
//!
//! # Example
//!
//! ```
//! use io_engine::{EngineConfig, IoEngine, IoRequest};
//! use scm_device::{DeviceArray, DeviceId, ReadCommand, TechnologyProfile};
//! use sdm_metrics::units::Bytes;
//! use sdm_metrics::SimInstant;
//!
//! # fn main() -> Result<(), io_engine::IoError> {
//! let array = DeviceArray::homogeneous(
//!     TechnologyProfile::optane_ssd(), Bytes::from_mib(1), 1).unwrap();
//! let mut engine = IoEngine::new(array, EngineConfig::default());
//! let now = SimInstant::EPOCH;
//! engine.submit(IoRequest::new(DeviceId(0), ReadCommand::sgl(0, 128)).with_user_data(7), now)?;
//! let mut reaped = Vec::new();
//! let done_at = engine.drain_each(now, |c| reaped.push(c.user_data))?;
//! assert_eq!(reaped, [7]);
//! assert!(done_at > now);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The submission/completion paths must stay panic-free: every failure is a
// typed `IoError` the retry layer (and above it, degraded serving) can act
// on. Tests opt back in locally with `#[allow(clippy::unwrap_used)]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

mod completion;
mod engine;
mod error;
mod mmap;
mod retry;

pub use completion::{CompletionMode, CpuCostModel};
pub use engine::{EngineConfig, EngineStats, IoCompletion, IoEngine, IoRequest, IoStats};
pub use error::{FailureKind, IoError};
pub use mmap::MmapIo;
pub use retry::{ResilienceStats, RetryConfig};
