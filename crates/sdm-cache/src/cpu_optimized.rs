//! The CPU-optimized row-cache engine.
//!
//! This engine keeps a full hash index plus an exact LRU ordering, so every
//! lookup is a single hash probe — cheaper in CPU than scanning a bucket —
//! at the price of noticeably more metadata per entry. The paper routes the
//! small-but-growing set of tables with rows larger than 255 B here, where
//! the relative metadata overhead is small and the CPU saving matters
//! (Figure 6).
//!
//! The cache is a thin [`RowKey`]-typed wrapper over the shared
//! [`ArenaLru`] engine core: one hash index, a recency stamp per slot and
//! a [`crate::SlabArena`] payload slab, so a hit touches two flat vectors
//! and returns a borrowed slice, performing no heap allocation.

use crate::engine::ArenaLru;
use crate::row_cache::{RowCache, RowKey};
use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;

/// Per-entry metadata overhead of the indexed engine (hash node, recency
/// stamp, slot record).
pub(crate) const ENTRY_OVERHEAD: usize = 64;

/// Hash-indexed, exact-LRU row cache.
#[derive(Debug)]
pub struct CpuOptimizedCache {
    engine: ArenaLru<RowKey, (), u8>,
}

impl CpuOptimizedCache {
    /// Creates a cache with the given byte budget.
    pub fn new(budget: Bytes) -> Self {
        CpuOptimizedCache {
            engine: ArenaLru::new(budget, ENTRY_OVERHEAD),
        }
    }

    /// Appends `(stamp, key)` of every resident row to `out`; see
    /// [`ArenaLru::append_resident`].
    pub(crate) fn append_resident(&self, out: &mut Vec<(u64, RowKey)>) {
        self.engine.append_resident(out);
    }

    /// Makes `key` the most recently used row without counting a hit;
    /// returns whether it is resident.
    pub(crate) fn restamp(&mut self, key: &RowKey) -> bool {
        self.engine.restamp(key)
    }
}

impl RowCache for CpuOptimizedCache {
    fn get(&mut self, key: &RowKey) -> Option<&[u8]> {
        self.engine.get(key).map(|(bytes, _)| bytes)
    }

    fn insert(&mut self, key: RowKey, value: &[u8]) {
        self.engine.insert(key, value, ());
    }

    fn contains(&self, key: &RowKey) -> bool {
        self.engine.contains(key)
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn memory_used(&self) -> Bytes {
        self.engine.memory_used()
    }

    fn budget(&self) -> Bytes {
        self.engine.budget()
    }

    fn lookup_cost(&self) -> SimDuration {
        SimDuration::from_nanos(120)
    }

    fn stats(&self) -> &CacheStats {
        self.engine.stats()
    }

    fn clear(&mut self) {
        self.engine.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = CpuOptimizedCache::new(Bytes::from_kib(64));
        let k = RowKey::new(9, 3);
        assert!(c.get(&k).is_none());
        c.insert(k, &[4u8; 300]);
        assert_eq!(c.get(&k).unwrap(), &[4u8; 300]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order_is_exact() {
        // Budget fits exactly two 100-byte entries (2 * 164 = 328).
        let mut c = CpuOptimizedCache::new(Bytes(330));
        c.insert(RowKey::new(0, 1), &[0u8; 100]);
        c.insert(RowKey::new(0, 2), &[0u8; 100]);
        // Touch 1 so 2 becomes LRU.
        c.get(&RowKey::new(0, 1));
        c.insert(RowKey::new(0, 3), &[0u8; 100]);
        assert!(c.contains(&RowKey::new(0, 1)));
        assert!(!c.contains(&RowKey::new(0, 2)));
        assert!(c.contains(&RowKey::new(0, 3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn usage_never_exceeds_budget_under_churn() {
        let mut c = CpuOptimizedCache::new(Bytes::from_kib(8));
        for i in 0..1000u64 {
            c.insert(
                RowKey::new((i % 7) as u32, i),
                &vec![0u8; (i % 256) as usize + 1],
            );
            assert!(c.memory_used() <= c.budget(), "over budget at i={i}");
        }
    }

    #[test]
    fn fixed_size_churn_reuses_slots_and_arena() {
        let mut c = CpuOptimizedCache::new(Bytes(1000));
        for i in 0..500u64 {
            c.insert(RowKey::new(0, i), &[0u8; 100]);
        }
        // ~6 entries fit; churn must recycle slots/ranges, not grow them.
        assert!(
            c.engine.slot_count() <= 8,
            "{} slots",
            c.engine.slot_count()
        );
        assert!(
            c.engine.arena_len() <= 8 * 100,
            "{} arena bytes",
            c.engine.arena_len()
        );
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = CpuOptimizedCache::new(Bytes(100));
        c.insert(RowKey::new(0, 0), &[0u8; 200]);
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn replacement_keeps_single_entry() {
        let mut c = CpuOptimizedCache::new(Bytes::from_kib(4));
        let k = RowKey::new(1, 1);
        c.insert(k, &[1u8; 64]);
        c.insert(k, &[2u8; 128]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k).unwrap(), &[2u8; 128]);
    }

    #[test]
    fn same_size_replacement_overwrites_in_place() {
        let mut c = CpuOptimizedCache::new(Bytes::from_kib(4));
        let k = RowKey::new(2, 2);
        c.insert(k, &[1u8; 64]);
        let (arena_before, used_before) = (c.engine.arena_len(), c.memory_used());
        c.insert(k, &[9u8; 64]);
        assert_eq!(
            c.engine.arena_len(),
            arena_before,
            "in-place overwrite must not grow the arena"
        );
        assert_eq!(c.memory_used(), used_before);
        assert_eq!(c.get(&k).unwrap(), &[9u8; 64]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cpu_cost_is_lower_than_memory_optimized() {
        let cpu = CpuOptimizedCache::new(Bytes::from_kib(1));
        let mem = crate::MemoryOptimizedCache::new(Bytes::from_kib(1), 4);
        assert!(cpu.lookup_cost() < mem.lookup_cost());
        const { assert!(ENTRY_OVERHEAD > crate::memory_optimized::ENTRY_OVERHEAD) }
    }

    #[test]
    fn clear_drops_entries() {
        let mut c = CpuOptimizedCache::new(Bytes::from_kib(4));
        c.insert(RowKey::new(0, 0), &[1u8; 10]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.memory_used(), Bytes::ZERO);
    }
}
