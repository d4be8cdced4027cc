//! The row-cache abstraction shared by both engines.

use crate::stats::CacheStats;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use std::fmt;

/// Key of one cached embedding row: `(table, row index)` in the *unpruned*
/// index space the queries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowKey {
    /// Owning table.
    pub table: u32,
    /// Row index within the table.
    pub row: u64,
}

impl RowKey {
    /// Creates a key.
    #[inline]
    pub fn new(table: u32, row: u64) -> Self {
        RowKey { table, row }
    }

    /// A well-mixed 64-bit hash of the key (splitmix64 over both fields),
    /// used by the bucketed engine.
    #[inline]
    pub(crate) fn mix(&self) -> u64 {
        let mut x = (self.table as u64) << 48 ^ self.row ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}r{}", self.table, self.row)
    }
}

/// Common interface of the fast-memory row caches.
///
/// Both engines are bounded by a byte budget that accounts for the stored
/// row bytes *plus* a per-entry metadata overhead — the overhead difference
/// is exactly the memory-vs-CPU trade-off the paper tunes (Figure 6).
///
/// Hits return a *borrowed* slice into the cache's internal arena rather
/// than a cloned `Vec`: the serving loop dequantises straight out of the
/// cache, so a warm lookup performs no heap allocation and no copy.
pub trait RowCache {
    /// Looks a row up, refreshing its recency on a hit. The returned slice
    /// borrows from the cache's payload arena.
    fn get(&mut self, key: &RowKey) -> Option<&[u8]>;

    /// Inserts (or replaces) a row (copied into the cache's arena),
    /// evicting older entries if needed to stay within the byte budget.
    /// Rows larger than the whole budget are silently not admitted.
    fn insert(&mut self, key: RowKey, value: &[u8]);

    /// Returns true when the key is resident (without touching recency).
    fn contains(&self, key: &RowKey) -> bool;

    /// Number of resident rows.
    fn len(&self) -> usize;

    /// True when no rows are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently consumed (payload + per-entry overhead).
    fn memory_used(&self) -> Bytes;

    /// Configured byte budget.
    fn budget(&self) -> Bytes;

    /// Host CPU time of one lookup against this engine.
    fn lookup_cost(&self) -> SimDuration;

    /// Cache statistics.
    fn stats(&self) -> &CacheStats;

    /// Drops every resident row and resets usage (statistics are kept).
    fn clear(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_spreads_keys() {
        let a = RowKey::new(1, 1).mix();
        let b = RowKey::new(1, 2).mix();
        let c = RowKey::new(2, 1).mix();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn display_reads_naturally() {
        assert_eq!(RowKey::new(3, 99).to_string(), "t3r99");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(RowKey::new(1, 100) < RowKey::new(2, 0));
        assert!(RowKey::new(1, 1) < RowKey::new(1, 2));
    }
}
