//! The pooled-embedding cache (paper §4.4, Algorithm 1).
//!
//! For every embedding operator the engine reads `pooling_factor` rows and
//! dequantises + pools them. If the *same full sequence of indices* shows up
//! again for the same table — which the paper measures at around 5 % of
//! requests (Table 3, the `c = P` scheme) — the pooled output vector can be
//! served directly, skipping the row lookups, possible SM IO, dequantisation
//! and pooling.
//!
//! Keys are an order-invariant hash of the index sequence so `[3, 1, 2]` and
//! `[1, 2, 3]` hit the same entry (pooling is a sum, so order does not
//! matter). Only sequences of at least `LenThreshold` indices are admitted —
//! short sequences are cheap to recompute and would pollute the cache
//! (Table 4).
//!
//! The cache is a thin wrapper over the shared [`ArenaLru`] engine core with
//! `f32` payload elements and the sequence length as per-entry tag, so a hit
//! returns a borrowed `&[f32]` and touches no allocator; inserts only copy
//! when the entry is actually admitted.

use crate::engine::ArenaLru;
use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;

/// Order-invariant key of one pooled-embedding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PooledKey {
    table: u32,
    /// Commutative sum of mixed per-index hashes.
    sum: u64,
    /// Commutative XOR of mixed per-index hashes.
    xor: u64,
    /// Sequence length (guards against sum/xor collisions between sequences
    /// of different lengths).
    len: u32,
}

impl PooledKey {
    /// Builds the key for a table and index sequence.
    pub fn new(table: u32, indices: &[u64]) -> Self {
        let mut sum = 0u64;
        let mut xor = 0u64;
        for &idx in indices {
            let h = Self::mix(idx);
            sum = sum.wrapping_add(h);
            xor ^= h.rotate_left((idx % 63) as u32);
        }
        PooledKey {
            table,
            sum,
            xor,
            len: indices.len() as u32,
        }
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The owning table.
    pub fn table(&self) -> u32 {
        self.table
    }
}

/// Metadata overhead per pooled entry (key, recency stamp, allocation
/// headers).
const ENTRY_OVERHEAD: usize = 64;

/// LRU cache of pooled embedding outputs, bounded by a byte budget.
#[derive(Debug)]
pub struct PooledEmbeddingCache {
    /// Tag: the admitted sequence length, read back on hits to maintain the
    /// "Hit Avg Len" statistic.
    engine: ArenaLru<PooledKey, u32, f32>,
    len_threshold: usize,
    hit_len_total: u64,
    skipped_short: u64,
}

impl PooledEmbeddingCache {
    /// Creates a pooled-embedding cache with a byte budget and the minimum
    /// admissible sequence length (`LenThreshold`).
    pub fn new(budget: Bytes, len_threshold: usize) -> Self {
        PooledEmbeddingCache {
            engine: ArenaLru::new(budget, ENTRY_OVERHEAD),
            len_threshold: len_threshold.max(1),
            hit_len_total: 0,
            skipped_short: 0,
        }
    }

    /// Whether a sequence of `len` indices is even eligible for this cache.
    pub fn eligible(&self, len: usize) -> bool {
        len >= self.len_threshold
    }

    /// Looks up the pooled output for a table + index sequence, returning a
    /// slice borrowed from the cache's arena. See
    /// [`PooledEmbeddingCache::lookup_key`].
    pub fn lookup(&mut self, table: u32, indices: &[u64]) -> Option<&[f32]> {
        self.lookup_key(&PooledKey::new(table, indices))
    }

    /// [`PooledEmbeddingCache::lookup`] for a caller that already built the
    /// op's key (the serving path hashes each index sequence once and
    /// reuses the key for the insert that follows a miss).
    ///
    /// Ineligible (short) sequences return `None` and are counted in
    /// [`PooledEmbeddingCache::skipped_short`], not as misses — the paper's
    /// Algorithm 1 only consults the cache above the threshold. This is the
    /// one place that count is kept.
    pub fn lookup_key(&mut self, key: &PooledKey) -> Option<&[f32]> {
        if !self.eligible(key.len as usize) {
            self.skipped_short += 1;
            return None;
        }
        let (vector, &sequence_len) = self.engine.get(key)?;
        self.hit_len_total += u64::from(sequence_len);
        Some(vector)
    }

    /// Side-effect-free probe: returns the pooled output without touching
    /// the LRU order or any statistic (including `skipped_short`).
    pub fn peek(&self, table: u32, indices: &[u64]) -> Option<&[f32]> {
        self.engine.peek(&PooledKey::new(table, indices))
    }

    /// Inserts the pooled output for a table + index sequence. See
    /// [`PooledEmbeddingCache::insert_key`].
    pub fn insert(&mut self, table: u32, indices: &[u64], vector: &[f32]) {
        self.insert_key(PooledKey::new(table, indices), vector);
    }

    /// Inserts the pooled output under an already-built key. Ineligible
    /// sequences are ignored; the vector is only copied (into the cache's
    /// arena) when the entry is actually admitted.
    pub fn insert_key(&mut self, key: PooledKey, vector: &[f32]) {
        if self.eligible(key.len as usize) {
            self.engine.insert(key, vector, key.len);
        }
    }

    /// Number of cached pooled vectors.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Bytes consumed.
    pub fn memory_used(&self) -> Bytes {
        self.engine.memory_used()
    }

    /// Configured budget.
    pub fn budget(&self) -> Bytes {
        self.engine.budget()
    }

    /// Cache statistics (hits/misses count only eligible sequences).
    pub fn stats(&self) -> &CacheStats {
        self.engine.stats()
    }

    /// Number of lookups skipped because the sequence was below the
    /// threshold.
    pub fn skipped_short(&self) -> u64 {
        self.skipped_short
    }

    /// Average index-sequence length of hits ("Hit Avg Len" in paper
    /// Table 4); zero before the first hit.
    pub fn average_hit_length(&self) -> f64 {
        if self.engine.stats().hits == 0 {
            0.0
        } else {
            self.hit_len_total as f64 / self.engine.stats().hits as f64
        }
    }

    /// Drops all cached vectors (statistics are kept).
    pub fn clear(&mut self) {
        self.engine.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_invariant_key() {
        let a = PooledKey::new(1, &[5, 9, 2, 7]);
        let b = PooledKey::new(1, &[7, 2, 9, 5]);
        let c = PooledKey::new(1, &[5, 9, 2, 8]);
        let d = PooledKey::new(2, &[5, 9, 2, 7]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len, 4);
        assert_eq!(d.table(), 2);
    }

    #[test]
    fn repeated_indices_produce_distinct_keys() {
        // Multisets must be distinguished from sets: [1, 1, 2] != [1, 2].
        let a = PooledKey::new(0, &[1, 1, 2]);
        let b = PooledKey::new(0, &[1, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_hit_after_insert_in_any_order() {
        let mut c = PooledEmbeddingCache::new(Bytes::from_kib(64), 2);
        let pooled = vec![1.0f32, 2.0, 3.0];
        assert!(c.lookup(3, &[10, 20, 30]).is_none());
        c.insert(3, &[10, 20, 30], &pooled);
        assert_eq!(c.lookup(3, &[30, 10, 20]).unwrap(), pooled.as_slice());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.average_hit_length() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn short_sequences_are_not_admitted_or_counted() {
        let mut c = PooledEmbeddingCache::new(Bytes::from_kib(64), 8);
        assert!(!c.eligible(4));
        assert!(c.lookup(0, &[1, 2, 3]).is_none());
        c.insert(0, &[1, 2, 3], &[1.0]);
        assert!(c.is_empty());
        assert_eq!(c.stats().lookups(), 0);
        assert_eq!(c.skipped_short(), 1);
        assert_eq!(c.len_threshold, 8);
    }

    #[test]
    fn budget_is_respected_with_lru_eviction() {
        // Each entry: 16 floats * 4 + 64 = 128 bytes; budget of 512 → 4 entries.
        let mut c = PooledEmbeddingCache::new(Bytes(512), 1);
        for t in 0..10u32 {
            let indices: Vec<u64> = (0..5).map(|i| (t as u64) * 100 + i).collect();
            c.insert(t, &indices, &[0.5f32; 16]);
        }
        assert!(c.len() <= 4);
        assert!(c.memory_used() <= c.budget());
        assert!(c.stats().evictions >= 6);
        // Churn at one vector size must recycle arena ranges, not grow them.
        assert!(
            c.engine.arena_len() <= 5 * 16,
            "{} arena floats",
            c.engine.arena_len()
        );
    }

    #[test]
    fn oversized_vector_rejected() {
        let mut c = PooledEmbeddingCache::new(Bytes(100), 1);
        c.insert(0, &[1, 2], &[0.0f32; 1000]);
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c = PooledEmbeddingCache::new(Bytes::from_kib(4), 2);
        assert!(c.peek(0, &[1]).is_none(), "ineligible peek must be None");
        assert_eq!(c.skipped_short(), 0, "peek must not count skips");
        c.insert(0, &[4, 5, 6], &[1.0; 4]);
        assert_eq!(c.peek(0, &[6, 5, 4]).unwrap(), &[1.0f32; 4]);
        assert_eq!(c.stats().lookups(), 0, "peek must not count hits/misses");
        assert!((c.average_hit_length() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = PooledEmbeddingCache::new(Bytes::from_kib(4), 1);
        c.insert(0, &[1, 2, 3], &[1.0; 4]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.memory_used(), Bytes::ZERO);
    }

    #[test]
    fn replacement_of_same_sequence_updates_value() {
        let mut c = PooledEmbeddingCache::new(Bytes::from_kib(4), 1);
        c.insert(0, &[4, 5, 6], &[1.0; 4]);
        c.insert(0, &[6, 5, 4], &[2.0; 4]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(0, &[4, 5, 6]).unwrap(), &[2.0f32; 4]);
    }
}
