//! Synthetic DLRM inference workloads and access-locality analysis.
//!
//! The paper's locality study (Figures 4 and 5) and all end-to-end results
//! are driven by six days of production traces that are not publicly
//! available. This crate substitutes a deterministic generator that
//! reproduces the statistical properties those results depend on:
//!
//! * per-table index popularity follows a power law (Zipf), with item tables
//!   more skewed than user tables (Figure 4a/4b);
//! * popular indices are scattered across the table, so there is essentially
//!   no spatial locality at 4 KiB-block granularity (Figure 5);
//! * queries read user tables once (`user batch = 1`) and item tables once
//!   per ranked item (Table 2);
//! * the same user reappears across queries, so full index sequences repeat
//!   with a small probability — the effect the pooled-embedding cache
//!   exploits (§4.4);
//! * routing queries to hosts with a user-sticky policy concentrates each
//!   user's accesses on one host and raises per-host temporal locality
//!   (Figure 4c).
//!
//! # Example
//!
//! ```
//! use embedding::{TableDescriptor, TableKind};
//! use workload::{QueryGenerator, WorkloadConfig};
//!
//! let tables = vec![
//!     TableDescriptor::new(0, "user_a", TableKind::User, 10_000, 32).with_pooling_factor(20),
//!     TableDescriptor::new(1, "item_a", TableKind::Item, 10_000, 32).with_pooling_factor(5),
//! ];
//! let mut gen = QueryGenerator::new(&tables, WorkloadConfig::default(), 42).unwrap();
//! let q = gen.next_query();
//! assert_eq!(q.user_requests.len(), 1);
//! assert!(!q.item_requests.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

mod arrival;
mod error;
mod locality;
mod query;
mod router;
mod trace;
mod zipf;

pub use arrival::{ArrivalGenerator, ArrivalProcess};
pub use error::WorkloadError;
pub use locality::{spatial_locality, temporal_locality_cdf};
pub use query::{EmbeddingRequest, Query, QueryGenerator, WorkloadConfig};
pub use router::{RoutingPolicy, Scheduler};
pub use trace::AccessTrace;
pub use zipf::ZipfSampler;
