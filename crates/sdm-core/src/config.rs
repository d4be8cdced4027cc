//! SDM deployment configuration — the union of every tuning knob the paper
//! exposes at model-deployment time.

use crate::error::SdmError;
use crate::placement::PlacementPolicy;
use io_engine::EngineConfig;
use scm_device::TechnologyProfile;
use sdm_cache::CacheConfig;
use sdm_metrics::units::Bytes;

/// Access granularity used for SM reads (paper §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessGranularity {
    /// SGL bit-bucket reads: only the row's bytes (DWORD aligned) cross the
    /// bus.
    #[default]
    Sgl,
    /// Whole-block reads with read amplification (the path without the
    /// paper's kernel/NVMe extension).
    Block,
}

/// How batches of queries move through the serving loop (paper §3.2).
///
/// The paper's serving stack hides SCM latency by keeping the device queues
/// deep: reads from many in-flight requests overlap, trading per-query tail
/// latency for batch throughput and queue occupancy. Here that is a
/// schedule of start instants over the one query path, in two rules. State
/// changes — row-cache fill, tier promotion, pooled-cache insert — apply in
/// program order, query by query, in every mode. `Relaxed { W }` starts
/// query *k* at `max(start[k−1] + issue cost of k−1, finish[k−W])` on the
/// virtual clock (the issue cost is the bottom MLP), and `Exact` is
/// `W = 1`: each query starts where the previous one finished.
///
/// Why the insert is in program order: an earlier split-phase path deferred
/// the pooled-cache insert to the query's finish, which made
/// `Relaxed { 1 }` differ from `Exact` whenever the pooled cache evicts
/// (scaled M1, 96 KiB row / 64 KiB pooled budgets, one shard, 72 queries:
/// 1 464 vs 1 530 pooled hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Batches execute exactly like a sequential per-query loop (the
    /// `batch_equivalence` contract): `Relaxed` with a window of 1.
    #[default]
    Exact,
    /// Overlapped execution: query *k* starts at `max(start[k−1] + issue
    /// cost of k−1, finish[k−W])`, so the SM reads of up to `W` queries
    /// share the device queues (`batch_overlap` contract: a window of 1 is
    /// bit-identical to [`BatchMode::Exact`]).
    Relaxed {
        /// In-flight query window; must be at least 1.
        max_inflight_queries: usize,
    },
}

/// Optional transformations applied when loading tables onto SM
/// (paper §4.5 and §A.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadTransform {
    /// Rebuild pruned tables as full tables on SM so the mapping tensors
    /// disappear from fast memory (Algorithm 2).
    pub deprune: bool,
    /// Expand int8/int4 rows to `f32` on SM so dequantisation is skipped at
    /// serving time (costs SM capacity and FM cache efficiency).
    pub dequantize: bool,
}

/// Full configuration of one SDM deployment on one host.
#[derive(Debug, Clone)]
pub struct SdmConfig {
    /// Technology used for the slow-memory devices.
    pub technology: TechnologyProfile,
    /// Number of SM devices on the host.
    pub device_count: usize,
    /// Capacity of each SM device.
    pub device_capacity: Bytes,
    /// Fast-memory budget available to the SDM stack (row cache + pooled
    /// cache + mapping tensors + directly placed tables).
    pub fm_budget: Bytes,
    /// Row/pooled cache configuration.
    pub cache: CacheConfig,
    /// IO engine tuning (outstanding-IO limits, retry policy).
    pub io: EngineConfig,
    /// Read granularity.
    pub granularity: AccessGranularity,
    /// Table placement policy.
    pub placement: PlacementPolicy,
    /// Load-time transformations.
    pub transform: LoadTransform,
    /// Batch execution mode (exact vs relaxed/overlapped).
    pub batch_mode: BatchMode,
    /// Seed for table materialisation.
    pub seed: u64,
}

impl Default for SdmConfig {
    fn default() -> Self {
        SdmConfig {
            technology: TechnologyProfile::optane_ssd(),
            device_count: 2,
            device_capacity: Bytes::from_mib(256),
            fm_budget: Bytes::from_mib(64),
            cache: CacheConfig::with_total_budget(Bytes::from_mib(48)),
            io: EngineConfig::default(),
            granularity: AccessGranularity::Sgl,
            placement: PlacementPolicy::SmOnlyWithCache,
            transform: LoadTransform::default(),
            batch_mode: BatchMode::default(),
            seed: 0x5d31,
        }
    }
}

impl SdmConfig {
    /// A configuration sized for unit tests: small devices, small caches.
    pub fn for_tests() -> Self {
        SdmConfig {
            device_capacity: Bytes::from_mib(64),
            fm_budget: Bytes::from_mib(8),
            cache: CacheConfig::with_total_budget(Bytes::from_mib(4)),
            ..SdmConfig::default()
        }
    }

    /// Uses Nand Flash devices instead of the default Optane.
    pub fn with_nand_flash(mut self) -> Self {
        self.technology = TechnologyProfile::nand_flash();
        self
    }

    /// Sets the batch execution mode (exact vs relaxed/overlapped).
    pub fn with_batch_mode(mut self, mode: BatchMode) -> Self {
        self.batch_mode = mode;
        self
    }

    /// Shorthand for relaxed batching with an in-flight window of `window`
    /// queries.
    pub fn with_relaxed_batching(self, window: usize) -> Self {
        self.with_batch_mode(BatchMode::Relaxed {
            max_inflight_queries: window,
        })
    }

    /// Enables the host-shared second cache tier with the given budget
    /// (paper §3's host-level DRAM cache in front of SM). The budget is a
    /// host-level resource: `SdmConfig::divide_among_indexed` does not
    /// divide it, and [`crate::ServingHost::build`] carves the tier out
    /// exactly once and hands every shard a handle — a 1-shard host, the
    /// single stream, included. Zero disables the tier (the default),
    /// which keeps single-tier serving bit-identical.
    pub fn with_shared_tier(mut self, budget: Bytes) -> Self {
        self.cache.shared_tier_budget = budget;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SdmError::InvalidConfig`] for zero devices or capacities
    /// and for an unrecognised `SDM_POOL_KERNEL` value, and propagates
    /// cache / IO configuration errors.
    pub fn validate(&self) -> Result<(), SdmError> {
        if self.device_count == 0 {
            return Err(SdmError::InvalidConfig {
                reason: "device_count must be at least 1".into(),
            });
        }
        if self.device_capacity.is_zero() {
            return Err(SdmError::InvalidConfig {
                reason: "device_capacity must be non-zero".into(),
            });
        }
        if self.fm_budget.is_zero() {
            return Err(SdmError::InvalidConfig {
                reason: "fm_budget must be non-zero".into(),
            });
        }
        if self.cache.row_cache_budget > self.fm_budget {
            return Err(SdmError::InvalidConfig {
                reason: format!(
                    "row cache budget {} exceeds fast-memory budget {}",
                    self.cache.row_cache_budget, self.fm_budget
                ),
            });
        }
        if self.granularity == AccessGranularity::Sgl && !self.technology.supports_sgl_bit_bucket {
            return Err(SdmError::InvalidConfig {
                reason: format!(
                    "technology {} does not support SGL reads; use block granularity",
                    self.technology.kind
                ),
            });
        }
        if let BatchMode::Relaxed {
            max_inflight_queries: 0,
        } = self.batch_mode
        {
            return Err(SdmError::InvalidConfig {
                reason: "relaxed batch mode needs max_inflight_queries >= 1".into(),
            });
        }
        // The pooling kernel is not a field: a value of SDM_POOL_KERNEL the
        // kernels do not understand would otherwise measure AVX2 silently.
        embedding::kernels::kernel_env().map_err(|reason| SdmError::InvalidConfig { reason })?;
        self.cache.validate()?;
        self.io.validate()?;
        Ok(())
    }

    /// The per-shard slice (`index` of `shards`) of this host configuration
    /// when serving with `shards` concurrent shards.
    ///
    /// Host-shared fast-memory resources are split **losslessly**: the
    /// overall FM budget, the row-cache and pooled-cache budgets, and the
    /// IO engine's device-queue limits each give every shard its
    /// `total / shards` share, with the remainder distributed one unit each
    /// to the first shards — so the per-shard slices always sum exactly to
    /// the host budget (a truncating division silently dropped the
    /// remainder from every resource). Each shard still serves the *full*
    /// model — a shard is a serving replica that owns a complete SM image —
    /// so the device technology, count and capacity carry over unchanged,
    /// as do placement policy and load transforms. The shared-tier budget
    /// is host-level and is never divided (the host builds one tier and
    /// hands every shard a handle).
    pub(crate) fn divide_among_indexed(&self, shards: usize, index: usize) -> SdmConfig {
        let n = shards.max(1) as u64;
        SdmConfig {
            fm_budget: self.fm_budget.split_among(n, index as u64),
            cache: self.cache.divide_among_indexed(shards, index),
            io: self.io.divide_among_indexed(shards, index),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SdmConfig::default().validate().is_ok());
        assert!(SdmConfig::for_tests().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_detected() {
        let mut c = SdmConfig::for_tests();
        c.device_count = 0;
        assert!(c.validate().is_err());

        let mut c = SdmConfig::for_tests();
        c.device_capacity = Bytes::ZERO;
        assert!(c.validate().is_err());

        let mut c = SdmConfig::for_tests();
        c.fm_budget = Bytes::ZERO;
        assert!(c.validate().is_err());

        let mut c = SdmConfig::for_tests();
        c.cache.row_cache_budget = Bytes::from_gib(100);
        assert!(c.validate().is_err());

        // SGL on a technology without bit-bucket support is rejected.
        let mut c = SdmConfig::for_tests();
        c.technology = TechnologyProfile::dimm_3dxp();
        assert!(c.validate().is_err());
        c.granularity = AccessGranularity::Block;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn batch_mode_round_trips_and_validates() {
        let c = SdmConfig::for_tests().with_relaxed_batching(8);
        assert_eq!(
            c.batch_mode,
            BatchMode::Relaxed {
                max_inflight_queries: 8
            }
        );
        assert!(c.validate().is_ok());
        // The divided per-shard slice keeps the mode.
        assert_eq!(c.divide_among_indexed(4, 0).batch_mode, c.batch_mode);

        let zero = SdmConfig::for_tests().with_relaxed_batching(0);
        assert!(zero.validate().is_err());
        assert_eq!(SdmConfig::for_tests().batch_mode, BatchMode::Exact);
    }

    #[test]
    fn indexed_division_conserves_every_budget() {
        // Awkward budgets and shard counts: nothing divides evenly, yet the
        // per-shard slices must sum exactly to the host configuration.
        let mut c = SdmConfig::for_tests().with_shared_tier(Bytes::from_mib(2));
        c.fm_budget = Bytes(10_000_019);
        c.cache.row_cache_budget = Bytes(1_000_003);
        c.cache.pooled_cache_budget = Bytes(65_537);
        c.io.max_outstanding_per_device = 7;
        c.io.max_tables_in_flight = 13;
        for shards in [1usize, 3, 5, 7] {
            let slices: Vec<SdmConfig> = (0..shards)
                .map(|i| c.divide_among_indexed(shards, i))
                .collect();
            let fm: u64 = slices.iter().map(|s| s.fm_budget.as_u64()).sum();
            let row: u64 = slices
                .iter()
                .map(|s| s.cache.row_cache_budget.as_u64())
                .sum();
            let pooled: u64 = slices
                .iter()
                .map(|s| s.cache.pooled_cache_budget.as_u64())
                .sum();
            let dev: usize = slices.iter().map(|s| s.io.max_outstanding_per_device).sum();
            let tables: usize = slices.iter().map(|s| s.io.max_tables_in_flight).sum();
            assert_eq!(fm, c.fm_budget.as_u64(), "{shards} shards: fm");
            assert_eq!(
                row,
                c.cache.row_cache_budget.as_u64(),
                "{shards} shards: row"
            );
            assert_eq!(
                pooled,
                c.cache.pooled_cache_budget.as_u64(),
                "{shards} shards: pooled"
            );
            assert_eq!(dev, c.io.max_outstanding_per_device, "{shards} shards: io");
            assert_eq!(tables, c.io.max_tables_in_flight, "{shards} shards: tables");
            for (i, s) in slices.iter().enumerate() {
                assert!(s.validate().is_ok(), "{shards} shards: slice {i} invalid");
                // The shared tier is host-level and never divided.
                assert_eq!(s.cache.shared_tier_budget, c.cache.shared_tier_budget);
            }
        }
        // divide_among_indexed(1, 0) remains the bit-identical identity.
        let identity = c.divide_among_indexed(1, 0);
        assert_eq!(identity.fm_budget, c.fm_budget);
        assert_eq!(identity.cache, c.cache);
        assert_eq!(
            identity.io.max_outstanding_per_device,
            c.io.max_outstanding_per_device
        );
    }

    #[test]
    fn shared_tier_builder_round_trips() {
        let c = SdmConfig::for_tests().with_shared_tier(Bytes::from_mib(2));
        assert_eq!(c.cache.shared_tier_budget, Bytes::from_mib(2));
        assert!(c.validate().is_ok());
        assert!(SdmConfig::for_tests().cache.shared_tier_budget.is_zero());
        // Stripe misconfiguration is caught through the cache validation.
        let mut bad = c;
        bad.cache.shared_tier_stripes = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builder_helpers_apply() {
        let c = SdmConfig::for_tests().with_nand_flash();
        assert_eq!(c.technology.kind, scm_device::TechnologyKind::NandFlash);
    }
}
