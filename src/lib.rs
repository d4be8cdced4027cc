//! Umbrella crate for the SDM DLRM reproduction suite.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! a single dependency. See the individual crates for the actual APIs.
//!
//! # Workspace layout
//!
//! The stack is layered bottom-up (see the README for the full dependency
//! diagram):
//!
//! - [`sdm_metrics`] — simulated clock, latency histograms, byte/rate units
//! - [`scm_device`] — SCM technology profiles, block devices, NVMe queues
//! - [`io_engine`] — asynchronous IO engine (admission limits, retries,
//!   checksums, hedged reads) and the mmap read path
//! - [`embedding`] — table descriptors, quantization, pruning, pooling,
//!   SM placement layout
//! - [`sdm_cache`] — row and pooled-embedding caches with warmup tracking
//! - [`workload`] — Zipf query synthesis, traces, locality analysis
//! - [`dlrm`] — model zoo, MLP stacks, backends, the inference engine
//! - [`sdm_core`] — placement policies, load transforms, updates, and the
//!   serving loop tying everything together
//! - [`cluster`] — host configs, power, sizing, scale-out scenarios
//!
//! External dependencies are vendored offline shims (see `vendor/README.md`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

pub use cluster;
pub use dlrm;
pub use embedding;
pub use io_engine;
pub use scm_device;
pub use sdm_cache;
pub use sdm_core;
pub use sdm_metrics;
pub use workload;
