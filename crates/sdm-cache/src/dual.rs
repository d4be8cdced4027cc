//! The production cache organisation: a unified row cache built from two
//! internally-specialised engines (paper §4.3, Figure 6).
//!
//! Rows of at most `small_row_threshold` bytes (255 B in the paper) are
//! routed to the memory-optimized engine; larger rows go to the
//! CPU-optimized engine. Per-table enablement lets placement policies turn
//! caching off for tables with no temporal locality (Table 5, "per table
//! cache enablement").

use crate::config::CacheConfig;
use crate::cpu_optimized::CpuOptimizedCache;
use crate::memory_optimized::MemoryOptimizedCache;
use crate::row_cache::{RowCache, RowKey};
use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;

/// The dual-engine unified row cache.
#[derive(Debug)]
pub struct DualRowCache {
    small: MemoryOptimizedCache,
    large: CpuOptimizedCache,
    small_row_threshold: usize,
    /// `disabled_tables[t]` is set for tables whose caching is turned off;
    /// tables past the end are enabled. Sized by the largest table ever
    /// *disabled* (a model's own table ids), never by the keys looked up.
    disabled_tables: Vec<bool>,
    merged_stats: CacheStats,
}

impl DualRowCache {
    /// Builds the dual cache from a [`CacheConfig`].
    pub fn new(config: CacheConfig) -> Self {
        let small = MemoryOptimizedCache::with_expected_row_size(
            config.memory_optimized_budget().max(Bytes(1)),
            config.small_row_threshold.clamp(32, 255),
        );
        let large = CpuOptimizedCache::new(config.cpu_optimized_budget().max(Bytes(1)));
        DualRowCache {
            small,
            large,
            small_row_threshold: config.small_row_threshold,
            disabled_tables: Vec::new(),
            merged_stats: CacheStats::new(),
        }
    }

    /// Disables caching for a table (its lookups always miss and its rows
    /// are never admitted).
    pub fn disable_table(&mut self, table: u32) {
        let index = table as usize;
        if self.disabled_tables.len() <= index {
            self.disabled_tables.resize(index + 1, false);
        }
        self.disabled_tables[index] = true;
    }

    /// Returns true if the table participates in caching.
    #[inline]
    pub fn table_enabled(&self, table: u32) -> bool {
        self.disabled_tables.get(table as usize) != Some(&true)
    }

    /// The row-size threshold routing to the memory-optimized engine.
    pub fn small_row_threshold(&self) -> usize {
        self.small_row_threshold
    }

    /// Statistics of the memory-optimized engine.
    pub fn small_engine_stats(&self) -> &CacheStats {
        self.small.stats()
    }

    /// Statistics of the CPU-optimized engine.
    pub fn large_engine_stats(&self) -> &CacheStats {
        self.large.stats()
    }

    /// Payload bytes currently backing both engines' arenas (live plus
    /// retained free-list ranges). Compare against [`RowCache::memory_used`]
    /// to observe the arenas' fragmentation slack (bounded by the coalescing
    /// free lists — see [`crate::SlabArena`]).
    pub fn resident_bytes(&self) -> Bytes {
        Bytes(self.small.stats().resident_bytes + self.large.stats().resident_bytes)
    }

    /// Appends `(stamp, key)` of every resident row to `out`: the
    /// memory-optimized engine's rows, then the CPU-optimized engine's, each
    /// engine's least recently used first (the two stamp counters are
    /// separate recency domains, so rows are not ordered across engines).
    /// Read-only — recency and statistics are untouched. This is the hot-set
    /// snapshot a model update re-reads from the new image before `clear`
    /// would have thrown it away.
    pub fn append_resident_lru_first(&self, out: &mut Vec<(u64, RowKey)>) {
        let small_from = out.len();
        self.small.append_resident(out);
        out[small_from..].sort_unstable();
        let large_from = out.len();
        self.large.append_resident(out);
        out[large_from..].sort_unstable();
    }

    /// Makes `key` the most recently used row of its engine without
    /// counting a lookup: no hit, miss or eviction statistic moves, and a
    /// key that is not resident is ignored. Re-stamping rows in the order
    /// [`Self::append_resident_lru_first`] listed them restores that order
    /// exactly, whatever order they were inserted in — which is how a
    /// model update's refill, reading rows in device-address order, puts
    /// recency back.
    pub fn restamp(&mut self, key: &RowKey) {
        if !self.small.restamp(key) {
            self.large.restamp(key);
        }
    }

    /// Payload bytes of live entries across both engines.
    pub fn live_bytes(&self) -> Bytes {
        Bytes(self.small.stats().live_bytes + self.large.stats().live_bytes)
    }
}

impl RowCache for DualRowCache {
    #[inline]
    fn get(&mut self, key: &RowKey) -> Option<&[u8]> {
        if !self.table_enabled(key.table) {
            self.merged_stats.record_miss();
            return None;
        }
        // The row size is not known at lookup time; probe the small engine
        // first (the overwhelmingly common case), then the large engine.
        // Each engine is probed once and records its own hit or miss.
        if let Some(bytes) = self.small.get(key) {
            self.merged_stats.record_hit();
            return Some(bytes);
        }
        let found = self.large.get(key);
        if found.is_some() {
            self.merged_stats.record_hit();
        } else {
            self.merged_stats.record_miss();
        }
        found
    }

    fn insert(&mut self, key: RowKey, value: &[u8]) {
        if !self.table_enabled(key.table) {
            return;
        }
        if value.len() <= self.small_row_threshold {
            self.small.insert(key, value);
        } else {
            self.large.insert(key, value);
        }
    }

    fn contains(&self, key: &RowKey) -> bool {
        self.table_enabled(key.table) && (self.small.contains(key) || self.large.contains(key))
    }

    fn len(&self) -> usize {
        self.small.len() + self.large.len()
    }

    fn memory_used(&self) -> Bytes {
        self.small.memory_used() + self.large.memory_used()
    }

    fn budget(&self) -> Bytes {
        self.small.budget() + self.large.budget()
    }

    #[inline]
    fn lookup_cost(&self) -> SimDuration {
        // Dominated by the memory-optimized probe.
        self.small.lookup_cost()
    }

    fn stats(&self) -> &CacheStats {
        &self.merged_stats
    }

    fn clear(&mut self) {
        self.small.clear();
        self.large.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> DualRowCache {
        DualRowCache::new(CacheConfig::with_total_budget(Bytes::from_mib(1)))
    }

    #[test]
    fn routes_by_row_size() {
        let mut c = cache();
        let small_key = RowKey::new(1, 1);
        let large_key = RowKey::new(1, 2);
        c.insert(small_key, &[0u8; 128]);
        c.insert(large_key, &[0u8; 400]);
        assert_eq!(c.small.len(), 1);
        assert_eq!(c.large.len(), 1);
        assert!(c.get(&small_key).is_some());
        assert!(c.get(&large_key).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn threshold_boundary_row_goes_to_small_engine() {
        let mut c = cache();
        c.insert(RowKey::new(0, 0), &[0u8; 255]);
        c.insert(RowKey::new(0, 1), &[0u8; 256]);
        assert_eq!(c.small.len(), 1);
        assert_eq!(c.large.len(), 1);
        assert_eq!(c.small_row_threshold(), 255);
    }

    #[test]
    fn disabled_tables_bypass_the_cache() {
        let mut c = cache();
        c.disable_table(7);
        assert!(!c.table_enabled(7));
        c.insert(RowKey::new(7, 1), &[1u8; 64]);
        assert!(c.get(&RowKey::new(7, 1)).is_none());
        assert_eq!(c.len(), 0);
        // Other tables unaffected.
        c.insert(RowKey::new(8, 1), &[1u8; 64]);
        assert!(c.get(&RowKey::new(8, 1)).is_some());
    }

    #[test]
    fn merged_stats_cover_both_engines() {
        let mut c = cache();
        c.insert(RowKey::new(0, 1), &[0u8; 64]);
        c.insert(RowKey::new(0, 2), &[0u8; 400]);
        c.get(&RowKey::new(0, 1));
        c.get(&RowKey::new(0, 2));
        c.get(&RowKey::new(0, 3));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn each_engine_is_probed_once_and_counts_its_own_outcome() {
        let mut c = cache();
        c.insert(RowKey::new(0, 1), &[0u8; 64]); // small engine
        c.insert(RowKey::new(0, 2), &[0u8; 400]); // large engine
        c.get(&RowKey::new(0, 1));
        assert_eq!((c.small.stats().hits, c.small.stats().misses), (1, 0));
        assert_eq!((c.large.stats().hits, c.large.stats().misses), (0, 0));
        c.get(&RowKey::new(0, 2));
        assert_eq!((c.small.stats().hits, c.small.stats().misses), (1, 1));
        assert_eq!((c.large.stats().hits, c.large.stats().misses), (1, 0));
        c.get(&RowKey::new(0, 3));
        assert_eq!((c.small.stats().hits, c.small.stats().misses), (1, 2));
        assert_eq!((c.large.stats().hits, c.large.stats().misses), (1, 1));
    }

    #[test]
    fn table_flags_are_sized_by_disabled_tables_not_by_lookups() {
        let mut c = cache();
        c.disable_table(5);
        // Far-away table ids are enabled and cost nothing to ask about.
        assert!(c.table_enabled(u32::MAX));
        c.insert(RowKey::new(u32::MAX, 1), &[3u8; 32]);
        assert!(c.contains(&RowKey::new(u32::MAX, 1)));
        assert_eq!(c.disabled_tables.len(), 6);
        assert!(!c.table_enabled(5));
        assert!(c.table_enabled(4));
    }

    #[test]
    fn budget_is_split_between_engines() {
        let c = cache();
        assert!(c.small.budget() > c.large.budget());
        assert_eq!(c.budget(), c.small.budget() + c.large.budget());
        assert_eq!(c.memory_used(), Bytes::ZERO);
    }

    #[test]
    fn resident_snapshot_is_lru_first_per_engine_and_read_only() {
        let mut c = cache();
        for row in 0..4 {
            c.insert(RowKey::new(0, row), &[0u8; 64]); // small engine
        }
        for row in 10..13 {
            c.insert(RowKey::new(0, row), &[0u8; 400]); // large engine
        }
        // A hit makes a row the most recent of its own engine only.
        c.get(&RowKey::new(0, 0));
        c.get(&RowKey::new(0, 10));
        let stats = c.stats().clone();
        let mut out = vec![(7, RowKey::new(9, 9))]; // appended to, not replaced
        c.append_resident_lru_first(&mut out);
        assert_eq!(out[0], (7, RowKey::new(9, 9)));
        let rows: Vec<u64> = out[1..].iter().map(|(_, key)| key.row).collect();
        assert_eq!(rows, [1, 2, 3, 0, 11, 12, 10]);
        // Read-only: a second walk sees the same order and no counter moved.
        let mut again = Vec::new();
        c.append_resident_lru_first(&mut again);
        assert_eq!(again, out[1..]);
        assert_eq!(c.stats(), &stats);
        c.clear();
        again.clear();
        c.append_resident_lru_first(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn restamp_reorders_recency_without_counting_lookups() {
        let mut c = cache();
        for row in 0..4 {
            c.insert(RowKey::new(0, row), &[0u8; 64]); // small engine
            c.insert(RowKey::new(0, 10 + row), &[0u8; 400]); // large engine
        }
        let stats = (
            c.stats().clone(),
            c.small_engine_stats().clone(),
            c.large_engine_stats().clone(),
        );
        for row in [2, 12, 0, 10, 3, 13, 1, 11, 99] {
            c.restamp(&RowKey::new(0, row)); // row 99 is not resident
        }
        let mut out = Vec::new();
        c.append_resident_lru_first(&mut out);
        let rows: Vec<u64> = out.iter().map(|(_, key)| key.row).collect();
        assert_eq!(rows, [2, 0, 3, 1, 12, 10, 13, 11]);
        let after = (
            c.stats().clone(),
            c.small_engine_stats().clone(),
            c.large_engine_stats().clone(),
        );
        assert_eq!(after, stats);
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn clear_empties_both_engines() {
        let mut c = cache();
        c.insert(RowKey::new(0, 1), &[0u8; 64]);
        c.insert(RowKey::new(0, 2), &[0u8; 400]);
        c.clear();
        assert!(c.is_empty());
    }
}
