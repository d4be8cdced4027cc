//! Software Defined Memory (SDM) for massive DLRM inference — the paper's
//! primary contribution.
//!
//! The SDM stack extends the inference memory hierarchy beyond DRAM to
//! Storage Class Memory: embedding tables whose bandwidth demand is low
//! (predominantly the user-side tables, paper §2.2) are placed on NVMe
//! Nand-Flash or Optane devices, a unified row cache plus a
//! pooled-embedding cache in fast memory absorb the temporal locality, and
//! small-granularity SGL reads over an io_uring-style engine keep the IO
//! path cheap.
//!
//! The pieces fit together as follows:
//!
//! * [`SdmConfig`] — every tuning knob the paper exposes at deployment time
//!   (cache sizes, outstanding-IO limits, placement policy, de-prune /
//!   de-quantise at load, access granularity).
//! * [`PlacementPolicy`] / [`PlacementPlan`] — which tables sit directly in
//!   fast memory, which go to SM, and which get the cache (Table 5).
//! * [`ModelLoader`] — materialises a (scaled) model, applies de-pruning /
//!   de-quantisation, lays tables out on the devices and writes the image.
//! * [`SdmMemoryManager`] — the serving path. It implements
//!   [`dlrm::EmbeddingBackend`], so the unmodified DLRM inference engine can
//!   run on top of DRAM or SDM interchangeably.
//! * [`ModelUpdater`] / [`ServingHost::apply_update`] — full model updates
//!   that end with the rows the caches held re-read from the new image, and
//!   their endurance consequences (§A.3, §A.4).
//! * [`Shard`] / [`ServingHost`] — a `Shard` is one complete serving
//!   stream (engine, manager, clock, scratch); a host runs N of them on
//!   worker threads behind a
//!   [`workload::Scheduler`] routing policy, replacing the paper's linear
//!   single-stream QPS extrapolation with measured wall-clock throughput.
//! * [`Frontend`] — open-loop serving: seeded arrival processes, an
//!   SLO-aware work-conserving dynamic batcher (a batch closes when it is
//!   full, when the host can take it, or at its deadline) and token-bucket
//!   admission control with load shedding, turning makespan numbers into
//!   latency-vs-offered-load curves.
//!
//! # Example
//!
//! ```
//! use dlrm::model_zoo;
//! use sdm_core::{SdmConfig, ServingHost};
//! use workload::{QueryGenerator, RoutingPolicy, WorkloadConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = model_zoo::tiny(2, 1, 500);
//! // A single serving stream is a 1-shard host.
//! let mut host =
//!     ServingHost::build(&model, &SdmConfig::default(), 7, 1, RoutingPolicy::UserSticky)?;
//! let mut gen = QueryGenerator::new(
//!     &model.tables,
//!     WorkloadConfig { item_batch: model.item_batch, ..WorkloadConfig::default() },
//!     7,
//! )?;
//! let queries = gen.generate(4);
//! let report = host.run_selected_batch(&queries, &[0, 1, 2, 3])?;
//! assert_eq!(report.queries, 4);
//! assert_eq!(host.scores(0).len(), model.item_batch as usize);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod error;
mod frontend;
mod host;
mod loader;
mod manager;
mod placement;
mod shard;
mod stats;
mod update;

pub use config::{AccessGranularity, BatchMode, LoadTransform, SdmConfig};
pub use error::SdmError;
pub use frontend::{
    BatchRecord, CloseReason, Frontend, FrontendConfig, FrontendReport, QueryOutcome, QueryRecord,
    TokenBucketConfig,
};
pub use host::{HostReport, ServingHost};
pub use loader::{LoadedModel, LoadedTable, ModelLoader};
pub use manager::SdmMemoryManager;
pub use placement::{PlacementPlan, PlacementPolicy, TableLocation};
pub use shard::Shard;
pub use stats::SdmStats;
pub use update::{ModelUpdater, UpdateKind, UpdateReport};
