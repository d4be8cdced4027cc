//! Cache configuration (the paper's cache-side "Tuning API").

use crate::error::CacheError;
use sdm_metrics::units::Bytes;

/// Configuration for the fast-memory caches.
///
/// Mirrors the tuning options the paper exposes at model-deployment time:
/// cache sizes, the row-size routing threshold of the dual cache and the
/// pooled-embedding-cache length threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total fast-memory budget for the unified row cache.
    pub row_cache_budget: Bytes,
    /// Fraction of the budget given to the memory-optimized engine
    /// (the rest goes to the CPU-optimized engine).
    pub memory_optimized_fraction: f64,
    /// Rows of at most this many bytes are routed to the memory-optimized
    /// engine (paper: embedding dim ≤ 255 B).
    pub small_row_threshold: usize,
    /// Budget of the pooled-embedding cache (0 disables it).
    pub pooled_cache_budget: Bytes,
    /// Minimum index-sequence length admitted to the pooled-embedding cache
    /// (`LenThreshold` in paper Table 4).
    pub pooled_len_threshold: usize,
    /// Budget of the host-shared second cache tier
    /// ([`crate::SharedRowTier`]) sitting behind the per-shard private
    /// caches (0 disables it, the default). This is a *host-level* budget:
    /// [`CacheConfig::divide_among_indexed`] does not divide it — the
    /// serving host carves the tier out once and hands every shard a
    /// handle to the same instance.
    pub shared_tier_budget: Bytes,
    /// Number of lock stripes in the shared tier.
    pub shared_tier_stripes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            row_cache_budget: Bytes::from_mib(64),
            memory_optimized_fraction: 0.8,
            small_row_threshold: 255,
            pooled_cache_budget: Bytes::from_mib(4),
            pooled_len_threshold: 4,
            shared_tier_budget: Bytes::ZERO,
            shared_tier_stripes: 8,
        }
    }
}

impl CacheConfig {
    /// Convenience constructor: default knobs with the given total row-cache
    /// budget.
    pub fn with_total_budget(budget: Bytes) -> Self {
        CacheConfig {
            row_cache_budget: budget,
            ..CacheConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroBudget`] when the row-cache budget is zero
    /// and [`CacheError::InvalidConfig`] for an out-of-range fraction or a
    /// zero stripe count on an enabled shared tier.
    pub fn validate(&self) -> Result<(), CacheError> {
        if self.row_cache_budget.is_zero() {
            return Err(CacheError::ZeroBudget);
        }
        if !(0.0..=1.0).contains(&self.memory_optimized_fraction) {
            return Err(CacheError::InvalidConfig {
                reason: format!(
                    "memory_optimized_fraction {} outside [0, 1]",
                    self.memory_optimized_fraction
                ),
            });
        }
        if !self.shared_tier_budget.is_zero() && self.shared_tier_stripes == 0 {
            return Err(CacheError::InvalidConfig {
                reason: "shared_tier_stripes must be at least 1 when the shared tier is enabled"
                    .into(),
            });
        }
        Ok(())
    }

    /// The per-shard slice (`index` of `shards`) of the fast-memory cache
    /// budgets.
    ///
    /// The row-cache and pooled-cache budgets are host-shared fast memory,
    /// split **losslessly**: every shard receives `budget / shards`, and
    /// the remainder bytes go one each to the first shards, so the slices
    /// always sum exactly to the host budget (a plain truncating division
    /// silently dropped up to `shards - 1` bytes per resource). The
    /// structural knobs (thresholds, stripe count, engine split)
    /// describe *how* a cache behaves, not how much memory it owns, and
    /// carry over unchanged — as does the shared-tier budget, which is a
    /// host-level resource the serving host carves out exactly once. A
    /// disabled pooled cache (zero budget) stays disabled at any shard
    /// count.
    pub fn divide_among_indexed(&self, shards: usize, index: usize) -> CacheConfig {
        let n = shards.max(1) as u64;
        CacheConfig {
            row_cache_budget: self.row_cache_budget.split_among(n, index as u64),
            pooled_cache_budget: self.pooled_cache_budget.split_among(n, index as u64),
            ..self.clone()
        }
    }

    /// Budget for the memory-optimized engine.
    pub(crate) fn memory_optimized_budget(&self) -> Bytes {
        Bytes((self.row_cache_budget.as_u64() as f64 * self.memory_optimized_fraction) as u64)
    }

    /// Budget for the CPU-optimized engine.
    pub(crate) fn cpu_optimized_budget(&self) -> Bytes {
        self.row_cache_budget
            .saturating_sub(self.memory_optimized_budget())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_splits_budget() {
        let c = CacheConfig::default();
        assert!(c.validate().is_ok());
        let total = c.memory_optimized_budget() + c.cpu_optimized_budget();
        assert_eq!(total, c.row_cache_budget);
        assert!(c.memory_optimized_budget() > c.cpu_optimized_budget());
    }

    #[test]
    fn invalid_configs_are_detected() {
        let c = CacheConfig {
            row_cache_budget: Bytes::ZERO,
            ..Default::default()
        };
        assert!(matches!(c.validate(), Err(CacheError::ZeroBudget)));

        let c = CacheConfig {
            memory_optimized_fraction: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            c.validate(),
            Err(CacheError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn divide_among_splits_budgets_and_keeps_knobs() {
        let c = CacheConfig::with_total_budget(Bytes::from_mib(16));
        let per_shard = c.divide_among_indexed(4, 0);
        assert_eq!(per_shard.row_cache_budget, Bytes::from_mib(4));
        assert_eq!(
            per_shard.pooled_cache_budget,
            Bytes(c.pooled_cache_budget.as_u64() / 4)
        );
        assert_eq!(per_shard.small_row_threshold, c.small_row_threshold);
        assert!(per_shard.validate().is_ok());
        // Degenerate inputs: zero shards clamp to one, disabled stays
        // disabled.
        assert_eq!(c.divide_among_indexed(0, 0), c.divide_among_indexed(1, 0));
        let disabled = CacheConfig {
            pooled_cache_budget: Bytes::ZERO,
            ..c
        };
        assert!(disabled
            .divide_among_indexed(8, 0)
            .pooled_cache_budget
            .is_zero());
    }

    #[test]
    fn with_total_budget_sets_budget_only() {
        let c = CacheConfig::with_total_budget(Bytes::from_gib(1));
        assert_eq!(c.row_cache_budget, Bytes::from_gib(1));
        assert_eq!(c.small_row_threshold, 255);
    }

    #[test]
    fn indexed_slices_sum_exactly_at_awkward_shard_counts() {
        // Budgets chosen so nothing divides evenly: the old truncating
        // division lost the remainder bytes from the host aggregate.
        let c = CacheConfig {
            row_cache_budget: Bytes(10_000_019), // prime
            pooled_cache_budget: Bytes(65_537),  // prime
            shared_tier_budget: Bytes::from_mib(3),
            ..CacheConfig::default()
        };
        for shards in [1usize, 2, 3, 5, 7] {
            let row: u64 = (0..shards)
                .map(|i| c.divide_among_indexed(shards, i).row_cache_budget.as_u64())
                .sum();
            let pooled: u64 = (0..shards)
                .map(|i| {
                    c.divide_among_indexed(shards, i)
                        .pooled_cache_budget
                        .as_u64()
                })
                .sum();
            assert_eq!(row, c.row_cache_budget.as_u64(), "{shards} shards: row");
            assert_eq!(
                pooled,
                c.pooled_cache_budget.as_u64(),
                "{shards} shards: pooled"
            );
            // The shared-tier budget is host-level: never divided.
            for i in 0..shards {
                assert_eq!(
                    c.divide_among_indexed(shards, i).shared_tier_budget,
                    c.shared_tier_budget
                );
            }
        }
        // divide_among_indexed(1, 0) stays the bit-identical identity.
        assert_eq!(c.divide_among_indexed(1, 0), c);
    }

    #[test]
    fn shared_tier_knobs_validate() {
        let mut c = CacheConfig::default();
        assert!(c.shared_tier_budget.is_zero(), "disabled by default");
        c.shared_tier_budget = Bytes::from_mib(1);
        assert!(c.validate().is_ok());
        c.shared_tier_stripes = 0;
        assert!(matches!(
            c.validate(),
            Err(CacheError::InvalidConfig { .. })
        ));
        // A zero budget ignores the stripe count (the tier is off).
        c.shared_tier_budget = Bytes::ZERO;
        assert!(c.validate().is_ok());
    }
}
