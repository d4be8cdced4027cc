//! Fast-memory caches for the Software Defined Memory stack.
//!
//! Paper §4.2–§4.4: access to the embedding rows kept on slow memory shows
//! strong temporal locality (power-law index popularity) and essentially no
//! spatial locality, so the SDM stack keeps an application-level **unified
//! row cache** in fast memory in front of the SM devices, rather than an OS
//! page cache or per-table caches. This crate provides:
//!
//! * [`MemoryOptimizedCache`] — low per-entry overhead, bucketed lookup
//!   (cheap in memory, slightly more CPU per hit);
//! * [`CpuOptimizedCache`] — classic hash + LRU index (more bytes per entry,
//!   cheaper CPU per hit);
//! * [`DualRowCache`] — the paper's production choice: route tables with
//!   rows ≤ 255 B to the memory-optimized engine and larger rows to the
//!   CPU-optimized engine (Figure 6);
//! * [`PooledEmbeddingCache`] — caches the *output* of whole embedding
//!   operators keyed by an order-invariant hash of the full index sequence
//!   (§4.4, Algorithm 1), skipping lookup + dequantisation + pooling on a
//!   hit;
//! * [`SharedRowTier`] — the host-shared second tier behind the per-shard
//!   private caches: K lock-striped arena-backed LRU partitions with a
//!   `&self` API, recovering the cross-shard row reuse that fully private
//!   per-shard caches lose;
//! * [`warmup_capacity_overhead`] — the extra serving capacity a rolling
//!   model update costs (§A.4).
//!
//! All caches store payloads in per-cache `SlabArena`s and return
//! *borrowed* slices on hit — the serving loop dequantises straight out of
//! the cache, so a warm lookup allocates nothing and copies nothing.
//!
//! # Example
//!
//! ```
//! use sdm_cache::{CacheConfig, DualRowCache, RowCache, RowKey};
//! use sdm_metrics::units::Bytes;
//!
//! let mut cache = DualRowCache::new(CacheConfig::with_total_budget(Bytes::from_mib(1)));
//! let key = RowKey::new(3, 42);
//! assert!(cache.get(&key).is_none());
//! cache.insert(key, &[7u8; 128]);
//! assert_eq!(cache.get(&key).unwrap(), &[7u8; 128]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro))]

mod arena;
mod config;
mod cpu_optimized;
mod dual;
mod engine;
mod error;
mod memory_optimized;
mod pooled;
mod row_cache;
mod shared;
mod stats;
mod warmup;

pub use config::CacheConfig;
pub use cpu_optimized::CpuOptimizedCache;
pub use dual::DualRowCache;
pub use engine::ArenaLru;
pub use error::CacheError;
pub use memory_optimized::MemoryOptimizedCache;
pub use pooled::{PooledEmbeddingCache, PooledKey};
pub use row_cache::{RowCache, RowKey};
pub use shared::{SharedHit, SharedRowTier, TierProbe};
pub use stats::CacheStats;
pub use warmup::warmup_capacity_overhead;
