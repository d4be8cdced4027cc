//! Measurement and simulation-time primitives shared by the SDM stack.
//!
//! The reproduction runs on *virtual time* so device latencies, queueing
//! delays and warmup behaviour are deterministic and do not depend on the
//! wall-clock speed of the host running the experiments. There is no shared
//! clock object: every component is handed the [`SimInstant`] its work
//! starts at and returns the instant it finishes.
//!
//! The crate provides:
//!
//! * [`SimInstant`] and [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`LatencyHistogram`] — log-bucketed latency histograms with percentile
//!   queries (p50/p95/p99 as used throughout the paper).
//! * [`IntMap`] — a `HashMap` on a one-multiply-per-word hasher for the
//!   program-generated integer keys of the per-IO paths (arena offsets,
//!   chunk indices, table tags).
//! * [`units`] — byte, power and cost units used by the datacenter-level
//!   modelling.
//! * [`alloc_hook`] — process-wide allocation counters fed by counting
//!   `GlobalAlloc` wrappers in tests/benches, used to assert the serving
//!   loop's zero-allocation steady state.
//!
//! # Example
//!
//! ```
//! use sdm_metrics::{LatencyHistogram, SimDuration};
//!
//! let mut hist = LatencyHistogram::new();
//! for us in [10u64, 12, 15, 100, 400] {
//!     hist.record(SimDuration::from_micros(us));
//! }
//! assert!(hist.percentile(0.5) >= SimDuration::from_micros(10));
//! assert_eq!(hist.count(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

pub mod alloc_hook;
mod clock;
mod histogram;
mod inthash;
pub mod units;

pub use clock::{SimDuration, SimInstant};
pub use histogram::LatencyHistogram;
pub use inthash::{IntHasher, IntMap};
