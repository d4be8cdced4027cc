//! The memory-optimized row-cache engine.
//!
//! CacheLib gave the paper a choice between paying memory overhead per
//! key-value pair for a CPU-cheap index, or keeping per-entry overhead low
//! and searching within a hash bucket on every lookup. For the small rows
//! that dominate DLRM models the memory-optimized variant wins: more rows
//! fit in the same fast-memory budget, which raises the hit rate enough to
//! pay for the extra nanoseconds per lookup (paper Figure 6).
//!
//! The engine here is a bucketed cache: keys hash to one of a fixed number
//! of buckets, each bucket holds a small vector of entries searched
//! linearly, and eviction is LRU *within the bucket* (like a set-associative
//! cache), which is what keeps per-entry metadata tiny. Row payloads live in
//! a shared [`SlabArena`], so hits hand out borrowed slices without cloning
//! and evicted ranges are recycled by later inserts.
//!
//! When the target bucket has nothing left to evict the engine falls back to
//! the least recently used entry of the whole cache. `bucket_min[b]` caches
//! the oldest stamp in bucket `b` (`u64::MAX` when empty) and is kept exact
//! by every mutation, so that fallback reads one word per bucket and scans a
//! single bucket instead of every entry; stamps are unique, so the victim is
//! the one a full scan would pick.

use crate::arena::SlabArena;
use crate::row_cache::{RowCache, RowKey};
use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;

/// Per-entry metadata overhead of the bucketed engine (key + stamp + range,
/// no separate index node).
pub const ENTRY_OVERHEAD: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: RowKey,
    start: usize,
    len: usize,
    stamp: u64,
}

/// Bucketed, memory-optimized row cache.
#[derive(Debug)]
pub struct MemoryOptimizedCache {
    buckets: Vec<Vec<Entry>>,
    /// Oldest stamp per bucket, `u64::MAX` for an empty bucket.
    bucket_min: Vec<u64>,
    arena: SlabArena<u8>,
    budget: Bytes,
    used: u64,
    clock: u64,
    stats: CacheStats,
}

impl MemoryOptimizedCache {
    /// Creates a cache with the given byte budget and bucket count.
    ///
    /// A zero bucket count is clamped to 1.
    pub fn new(budget: Bytes, buckets: usize) -> Self {
        let buckets = buckets.max(1);
        MemoryOptimizedCache {
            buckets: vec![Vec::new(); buckets],
            bucket_min: vec![u64::MAX; buckets],
            arena: SlabArena::new(),
            budget,
            used: 0,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    /// Creates a cache sized for entries of roughly `expected_row_bytes`,
    /// choosing a bucket count that keeps buckets short (≈8 entries).
    pub fn with_expected_row_size(budget: Bytes, expected_row_bytes: usize) -> Self {
        let per_entry = (expected_row_bytes + ENTRY_OVERHEAD).max(1) as u64;
        let expected_entries = (budget.as_u64() / per_entry).max(1);
        let buckets = (expected_entries / 8).max(1) as usize;
        Self::new(budget, buckets)
    }

    #[inline]
    fn bucket_of(&self, key: &RowKey) -> usize {
        (key.mix() % self.buckets.len() as u64) as usize
    }

    fn entry_cost(value_len: usize) -> u64 {
        (value_len + ENTRY_OVERHEAD) as u64
    }

    /// Refreshes the residency gauges from the arena after any mutation
    /// that allocates or frees payload ranges.
    fn note_residency(&mut self) {
        self.stats.resident_bytes = self.arena.len() as u64;
        self.stats.live_bytes = self.arena.live_len() as u64;
    }

    /// Recomputes `bucket_min[bucket]` after a mutation that may have moved
    /// it (the oldest entry was touched or removed).
    fn refresh_bucket_min(&mut self, bucket: usize) {
        self.bucket_min[bucket] = self.buckets[bucket]
            .iter()
            .map(|e| e.stamp)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Appends `(stamp, key)` of every resident row to `out`, in bucket
    /// order. Stamps are unique and grow with every touch, so sorting what
    /// was appended orders the rows least recently used first.
    pub(crate) fn append_resident(&self, out: &mut Vec<(u64, RowKey)>) {
        out.extend(self.buckets.iter().flatten().map(|e| (e.stamp, e.key)));
    }

    /// Makes `key` the most recently used row without counting a hit;
    /// returns whether it is resident.
    pub(crate) fn restamp(&mut self, key: &RowKey) -> bool {
        let bucket = self.bucket_of(key);
        let Some(entry) = self.buckets[bucket].iter_mut().find(|e| e.key == *key) else {
            return false;
        };
        self.clock += 1;
        let previous = std::mem::replace(&mut entry.stamp, self.clock);
        if previous == self.bucket_min[bucket] {
            self.refresh_bucket_min(bucket);
        }
        true
    }

    /// Evicts the oldest entry of `bucket`, leaving the runner-up's stamp as
    /// the bucket's new minimum — one scan for both. Returns false for an
    /// empty bucket.
    fn evict_lru_in_bucket(&mut self, bucket: usize) -> bool {
        let b = &mut self.buckets[bucket];
        let mut oldest: Option<(usize, u64)> = None;
        let mut runner_up = u64::MAX;
        for (idx, e) in b.iter().enumerate() {
            match oldest {
                Some((_, stamp)) if e.stamp > stamp => runner_up = runner_up.min(e.stamp),
                _ => {
                    runner_up = oldest.map_or(u64::MAX, |(_, stamp)| stamp);
                    oldest = Some((idx, e.stamp));
                }
            }
        }
        let Some((idx, _)) = oldest else {
            return false;
        };
        let removed = b.swap_remove(idx);
        self.bucket_min[bucket] = runner_up;
        self.arena.free(removed.start, removed.len);
        self.used -= Self::entry_cost(removed.len);
        self.stats.evictions += 1;
        true
    }

    /// Evicts the least recently used entry across *all* buckets; used when
    /// the target bucket alone cannot free enough space.
    fn evict_global_lru(&mut self) -> bool {
        let oldest = self
            .bucket_min
            .iter()
            .enumerate()
            .min_by_key(|(_, stamp)| **stamp);
        match oldest {
            Some((bucket, _)) => self.evict_lru_in_bucket(bucket),
            None => false,
        }
    }
}

impl RowCache for MemoryOptimizedCache {
    #[inline]
    fn get(&mut self, key: &RowKey) -> Option<&[u8]> {
        let bucket = self.bucket_of(key);
        let Some(entry) = self.buckets[bucket].iter_mut().find(|e| e.key == *key) else {
            self.stats.record_miss();
            return None;
        };
        self.clock += 1;
        let previous = std::mem::replace(&mut entry.stamp, self.clock);
        let (start, len) = (entry.start, entry.len);
        self.stats.record_hit();
        if previous == self.bucket_min[bucket] {
            self.refresh_bucket_min(bucket);
        }
        Some(self.arena.slice(start, len))
    }

    fn insert(&mut self, key: RowKey, value: &[u8]) {
        let cost = Self::entry_cost(value.len());
        if cost > self.budget.as_u64() {
            self.stats.rejected += 1;
            return;
        }
        self.clock += 1;
        let bucket = self.bucket_of(&key);

        // Replace in place if present (reusing the arena range when the new
        // payload has the same length, the overwhelmingly common case —
        // rows of one table never change size).
        if let Some(i) = self.buckets[bucket].iter().position(|e| e.key == key) {
            let (old_start, old_len) = {
                let e = &self.buckets[bucket][i];
                (e.start, e.len)
            };
            let start = if old_len == value.len() {
                self.arena.write(old_start, value);
                old_start
            } else {
                self.arena.free(old_start, old_len);
                self.arena.alloc(value)
            };
            let e = &mut self.buckets[bucket][i];
            self.used -= Self::entry_cost(old_len);
            self.used += cost;
            e.start = start;
            e.len = value.len();
            e.stamp = self.clock;
            self.refresh_bucket_min(bucket);
            // A replacement may push us over budget if the new value is
            // larger; shed entries until we fit again.
            while self.used > self.budget.as_u64() {
                if !self.evict_lru_in_bucket(bucket) && !self.evict_global_lru() {
                    break;
                }
            }
            self.note_residency();
            return;
        }

        // Make room: first within the bucket, then globally.
        while self.used + cost > self.budget.as_u64() {
            if !self.evict_lru_in_bucket(bucket) && !self.evict_global_lru() {
                break;
            }
        }
        if self.used + cost > self.budget.as_u64() {
            self.stats.rejected += 1;
            self.note_residency();
            return;
        }
        self.used += cost;
        self.stats.insertions += 1;
        let stamp = self.clock;
        let start = self.arena.alloc(value);
        self.buckets[bucket].push(Entry {
            key,
            start,
            len: value.len(),
            stamp,
        });
        // The newest stamp only becomes the oldest in an empty bucket.
        self.bucket_min[bucket] = self.bucket_min[bucket].min(stamp);
        self.note_residency();
    }

    fn contains(&self, key: &RowKey) -> bool {
        self.buckets[self.bucket_of(key)]
            .iter()
            .any(|e| e.key == *key)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    fn memory_used(&self) -> Bytes {
        Bytes(self.used)
    }

    fn budget(&self) -> Bytes {
        self.budget
    }

    #[inline]
    fn lookup_cost(&self) -> SimDuration {
        // Bucket scan: a couple of cache lines more than a direct index.
        SimDuration::from_nanos(250)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.bucket_min.fill(u64::MAX);
        self.arena.clear();
        self.used = 0;
        self.note_residency();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = MemoryOptimizedCache::new(Bytes::from_kib(64), 8);
        let k = RowKey::new(1, 2);
        assert!(c.get(&k).is_none());
        c.insert(k, &[5u8; 100]);
        assert_eq!(c.get(&k).unwrap(), &[5u8; 100]);
        assert!(c.contains(&k));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn stays_within_budget_and_evicts_lru() {
        // Budget for ~8 entries of 112+16 bytes.
        let mut c = MemoryOptimizedCache::new(Bytes(1024), 2);
        for i in 0..32u64 {
            c.insert(RowKey::new(0, i), &[0u8; 112]);
        }
        assert!(c.memory_used() <= c.budget());
        assert!(c.len() <= 8);
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn eviction_churn_reuses_arena_ranges() {
        let mut c = MemoryOptimizedCache::new(Bytes(1024), 2);
        for i in 0..1024u64 {
            c.insert(RowKey::new(0, i), &[i as u8; 112]);
        }
        // Every insert past the first ~8 evicts one 112-byte range and
        // allocates another; the arena must recycle rather than grow.
        assert!(
            c.arena.len() <= 16 * 112,
            "arena grew to {} bytes under churn",
            c.arena.len()
        );
    }

    #[test]
    fn recently_used_entries_survive() {
        let mut c = MemoryOptimizedCache::new(Bytes(2000), 1);
        let hot = RowKey::new(0, 0);
        c.insert(hot, &[1u8; 100]);
        for i in 1..50u64 {
            // Keep touching the hot key while streaming cold keys through.
            let _ = c.get(&hot);
            c.insert(RowKey::new(0, i), &[0u8; 100]);
        }
        assert!(c.contains(&hot), "hot key was evicted");
    }

    #[test]
    fn mixed_size_churn_residency_stays_bounded() {
        // Alternating size classes under eviction churn used to retain up to
        // `distinct sizes × budget` bytes of freed ranges, because the
        // arena's exact-size free lists could never serve one size class
        // from another. The coalescing free list merges adjacent freed
        // ranges, so resident bytes must now stay within a small
        // fragmentation factor of the budget rather than a multiple of it.
        let budget = Bytes(2048);
        let mut c = MemoryOptimizedCache::new(budget, 2);
        for round in 0..64u64 {
            // Phase flips between 96-byte and 160-byte rows each round.
            let size = if round % 2 == 0 { 96 } else { 160 };
            for i in 0..16u64 {
                c.insert(RowKey::new((round % 2) as u32, i), &vec![1u8; size]);
            }
        }
        let s = c.stats();
        assert!(
            c.memory_used() <= c.budget(),
            "modelled usage must stay within budget"
        );
        assert_eq!(s.live_bytes, c.arena.live_len() as u64);
        assert!(
            s.resident_bytes <= budget.as_u64() * 3 / 2,
            "mixed-size churn retained {} resident bytes — more than 1.5x \
             the {} budget; free ranges are not being coalesced",
            s.resident_bytes,
            budget.as_u64()
        );
        // Clearing releases the arena and the gauges follow.
        c.clear();
        assert_eq!(c.stats().resident_bytes, 0);
        assert_eq!(c.stats().live_bytes, 0);
    }

    #[test]
    fn cached_bucket_minimum_picks_the_victim_a_full_scan_would() {
        // Few rows per bucket and a budget most inserts overflow: empty
        // target buckets force the cache-wide fallback again and again.
        let mut c = MemoryOptimizedCache::new(Bytes(40 * (64 + ENTRY_OVERHEAD as u64)), 97);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n
        };
        let mut global_evictions = 0;
        for step in 0..6000u64 {
            let key = RowKey::new((next(3)) as u32, next(400));
            if next(3) == 0 {
                let _ = c.get(&key);
            } else {
                // What a scan over every entry says must go next, should
                // the target bucket turn out to be empty.
                let oldest = c.buckets.iter().flatten().map(|e| (e.stamp, e.key)).min();
                let bucket_empty = c.buckets[c.bucket_of(&key)].is_empty();
                let full = c.used + MemoryOptimizedCache::entry_cost(64) > c.budget.as_u64();
                c.insert(key, &[step as u8; 64]);
                if bucket_empty && full {
                    let (_, victim) = oldest.unwrap();
                    assert!(!c.contains(&victim), "step {step}: {victim} survived");
                    global_evictions += 1;
                }
            }
            for (bucket, entries) in c.buckets.iter().enumerate() {
                let oldest = entries.iter().map(|e| e.stamp).min().unwrap_or(u64::MAX);
                assert_eq!(c.bucket_min[bucket], oldest, "step {step} bucket {bucket}");
            }
        }
        assert!(global_evictions > 50, "only {global_evictions} fallbacks");
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut c = MemoryOptimizedCache::new(Bytes(128), 4);
        c.insert(RowKey::new(0, 0), &[0u8; 1024]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn replacement_updates_value_and_usage() {
        let mut c = MemoryOptimizedCache::new(Bytes::from_kib(4), 4);
        let k = RowKey::new(7, 7);
        c.insert(k, &[1u8; 100]);
        let used_before = c.memory_used();
        c.insert(k, &[2u8; 200]);
        assert_eq!(c.get(&k).unwrap(), &[2u8; 200]);
        assert_eq!(c.len(), 1);
        assert!(c.memory_used() > used_before);
    }

    #[test]
    fn same_size_replacement_overwrites_in_place() {
        let mut c = MemoryOptimizedCache::new(Bytes::from_kib(4), 4);
        let k = RowKey::new(3, 3);
        c.insert(k, &[1u8; 64]);
        let arena_before = c.arena.len();
        c.insert(k, &[2u8; 64]);
        assert_eq!(
            c.arena.len(),
            arena_before,
            "in-place overwrite must not grow the arena"
        );
        assert_eq!(c.get(&k).unwrap(), &[2u8; 64]);
    }

    #[test]
    fn clear_keeps_stats_but_drops_entries() {
        let mut c = MemoryOptimizedCache::new(Bytes::from_kib(4), 4);
        c.insert(RowKey::new(0, 1), &[0u8; 10]);
        c.get(&RowKey::new(0, 1));
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.memory_used(), Bytes::ZERO);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn with_expected_row_size_picks_reasonable_buckets() {
        let c = MemoryOptimizedCache::with_expected_row_size(Bytes::from_mib(1), 128);
        // ~7281 entries / 8 ≈ 910 buckets
        assert!(c.buckets.len() > 500 && c.buckets.len() < 2000);
    }

    #[test]
    fn per_entry_overhead_is_small() {
        const { assert!(ENTRY_OVERHEAD < 32) }
    }
}
