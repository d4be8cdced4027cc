//! Table placement policies (paper §4.6, Table 5).

use dlrm::ModelConfig;
use embedding::{TableDescriptor, TableId, TableKind};
use sdm_metrics::units::Bytes;
use sdm_metrics::IntMap;

/// Where a table's rows live at serving time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableLocation {
    /// Directly in fast memory (DRAM / accelerator memory); lookups never
    /// touch the cache or SM.
    FastMemory,
    /// On slow memory, with the FM row cache in front of it.
    SlowMemoryCached,
    /// On slow memory with the row cache disabled for this table (used for
    /// tables with no temporal locality, Table 5 row 3).
    SlowMemoryUncached,
}

/// The paper's placement policy families (Table 5).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum PlacementPolicy {
    /// Map every SM-candidate (user) table to SM and rely on the cache.
    #[default]
    SmOnlyWithCache,
    /// Place tables directly on fast memory, hottest-per-byte first, until
    /// the DRAM budget is spent; the rest goes to SM behind the cache.
    FixedFmThenSm {
        /// Fast-memory bytes reserved for direct table placement.
        dram_budget: Bytes,
    },
    /// Like [`PlacementPolicy::SmOnlyWithCache`], but tables whose Zipf
    /// exponent is below the threshold (no temporal locality) bypass the
    /// cache entirely.
    PerTableCacheEnablement {
        /// Minimum popularity skew for a table to use the cache.
        min_zipf_exponent: f64,
    },
    /// Explicit list of tables that must stay in fast memory (for offline
    /// placement tools); everything else goes to SM behind the cache.
    PinnedTables {
        /// Tables to keep in fast memory.
        pinned: Vec<TableId>,
        /// Fast-memory budget the pinned tables must fit into.
        dram_budget: Bytes,
    },
}

/// The resolved placement of every table of a model.
#[derive(Debug, Clone, Default)]
pub struct PlacementPlan {
    /// Keyed by the model's own table ids.
    locations: IntMap<TableId, TableLocation>,
}

impl PlacementPlan {
    /// Computes the placement for a model under a policy.
    ///
    /// Item tables always stay in fast memory (the paper places item
    /// embeddings in DRAM or accelerator memory; only user tables are SM
    /// candidates — §2.2 footnote 1). User tables are distributed according
    /// to the policy.
    pub fn compute(model: &ModelConfig, policy: &PlacementPolicy) -> Self {
        let mut plan = PlacementPlan::default();
        for t in &model.tables {
            if t.kind == TableKind::Item {
                plan.set(t, TableLocation::FastMemory);
            }
        }
        let user_tables: Vec<&TableDescriptor> = model.user_tables();
        match policy {
            PlacementPolicy::SmOnlyWithCache => {
                for t in user_tables {
                    plan.set(t, TableLocation::SlowMemoryCached);
                }
            }
            PlacementPolicy::FixedFmThenSm { dram_budget } => {
                // Hottest bytes-per-query-per-capacity first: tables that are
                // small but heavily read benefit most from direct placement.
                let mut ranked = user_tables;
                ranked.sort_by(|a, b| {
                    let score = |t: &TableDescriptor| {
                        t.bytes_per_query(model.item_batch).as_u64() as f64
                            / t.capacity().as_u64().max(1) as f64
                    };
                    score(b)
                        .partial_cmp(&score(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut spent = Bytes::ZERO;
                for t in ranked {
                    if spent + t.capacity() <= *dram_budget {
                        spent += t.capacity();
                        plan.set(t, TableLocation::FastMemory);
                    } else {
                        plan.set(t, TableLocation::SlowMemoryCached);
                    }
                }
            }
            PlacementPolicy::PerTableCacheEnablement { min_zipf_exponent } => {
                for t in user_tables {
                    if t.zipf_exponent >= *min_zipf_exponent {
                        plan.set(t, TableLocation::SlowMemoryCached);
                    } else {
                        plan.set(t, TableLocation::SlowMemoryUncached);
                    }
                }
            }
            PlacementPolicy::PinnedTables {
                pinned,
                dram_budget,
            } => {
                let mut spent = Bytes::ZERO;
                for t in user_tables {
                    if pinned.contains(&t.id) && spent + t.capacity() <= *dram_budget {
                        spent += t.capacity();
                        plan.set(t, TableLocation::FastMemory);
                    } else {
                        plan.set(t, TableLocation::SlowMemoryCached);
                    }
                }
            }
        }
        plan
    }

    fn set(&mut self, table: &TableDescriptor, location: TableLocation) {
        self.locations.insert(table.id, location);
    }

    /// Location of a table (fast memory for unknown tables, the safe
    /// default).
    pub fn location(&self, table: TableId) -> TableLocation {
        self.locations
            .get(&table)
            .copied()
            .unwrap_or(TableLocation::FastMemory)
    }

    /// Tables that live on slow memory (cached or not).
    pub fn sm_tables(&self) -> Vec<TableId> {
        let mut v: Vec<TableId> = self
            .locations
            .iter()
            .filter(|(_, l)| {
                matches!(
                    l,
                    TableLocation::SlowMemoryCached | TableLocation::SlowMemoryUncached
                )
            })
            .map(|(t, _)| *t)
            .collect();
        v.sort_unstable();
        v
    }

    /// Tables that bypass the row cache.
    pub fn uncached_tables(&self) -> Vec<TableId> {
        let mut v: Vec<TableId> = self
            .locations
            .iter()
            .filter(|(_, l)| **l == TableLocation::SlowMemoryUncached)
            .map(|(t, _)| *t)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of tables covered by the plan.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when the plan covers no tables.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::model_zoo;

    #[test]
    fn sm_only_policy_sends_all_user_tables_to_sm() {
        let model = model_zoo::tiny(4, 2, 100);
        let plan = PlacementPlan::compute(&model, &PlacementPolicy::SmOnlyWithCache);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.sm_tables().len(), 4);
        for t in model.item_tables() {
            assert_eq!(plan.location(t.id), TableLocation::FastMemory);
        }
        for t in model.user_tables() {
            assert_eq!(plan.location(t.id), TableLocation::SlowMemoryCached);
        }
    }

    #[test]
    fn fixed_fm_policy_respects_the_dram_budget() {
        let model = model_zoo::tiny(6, 1, 200);
        let table_capacity = model.tables[0].capacity();
        let budget = table_capacity * 2;
        let plan = PlacementPlan::compute(
            &model,
            &PlacementPolicy::FixedFmThenSm {
                dram_budget: budget,
            },
        );
        // Exactly two user tables fit in the budget.
        let fm_users = model
            .user_tables()
            .iter()
            .filter(|t| plan.location(t.id) == TableLocation::FastMemory)
            .count();
        assert_eq!(fm_users, 2);
        assert_eq!(plan.sm_tables().len(), 4);
    }

    #[test]
    fn fixed_fm_prefers_hot_per_byte_tables() {
        let mut model = model_zoo::tiny(2, 0, 1000);
        // Table 0: large but cold (PF 1); table 1: small and hot (PF 30).
        model.tables[0].pooling_factor = 1;
        model.tables[1].pooling_factor = 30;
        model.tables[1].num_rows = 100;
        let budget = model.tables[1].capacity();
        let plan = PlacementPlan::compute(
            &model,
            &PlacementPolicy::FixedFmThenSm {
                dram_budget: budget,
            },
        );
        assert_eq!(plan.location(1), TableLocation::FastMemory);
        assert_eq!(plan.location(0), TableLocation::SlowMemoryCached);
    }

    #[test]
    fn per_table_cache_enablement_disables_cold_tables() {
        let mut model = model_zoo::tiny(3, 0, 100);
        model.tables[0].zipf_exponent = 0.1; // effectively uniform
        model.tables[1].zipf_exponent = 0.9;
        model.tables[2].zipf_exponent = 1.1;
        let plan = PlacementPlan::compute(
            &model,
            &PlacementPolicy::PerTableCacheEnablement {
                min_zipf_exponent: 0.5,
            },
        );
        assert_eq!(plan.location(0), TableLocation::SlowMemoryUncached);
        assert_eq!(plan.location(1), TableLocation::SlowMemoryCached);
        assert_eq!(plan.uncached_tables(), vec![0]);
    }

    #[test]
    fn pinned_tables_stay_in_fm_within_budget() {
        let model = model_zoo::tiny(3, 1, 100);
        let budget = model.tables[0].capacity();
        let plan = PlacementPlan::compute(
            &model,
            &PlacementPolicy::PinnedTables {
                pinned: vec![0, 1],
                dram_budget: budget,
            },
        );
        // Only table 0 fits the pin budget; table 1 spills to SM.
        assert_eq!(plan.location(0), TableLocation::FastMemory);
        assert_eq!(plan.location(1), TableLocation::SlowMemoryCached);
        assert_eq!(plan.location(2), TableLocation::SlowMemoryCached);
    }

    #[test]
    fn unknown_table_defaults_to_fast_memory() {
        let plan = PlacementPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.location(42), TableLocation::FastMemory);
    }
}
