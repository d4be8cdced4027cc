//! Cache statistics.

use std::fmt;

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions performed.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions rejected because a single entry exceeded the budget.
    pub rejected: u64,
    /// Payload bytes currently backing the cache's arena (live entries plus
    /// freed ranges retained on the exact-size free lists). This is the
    /// cache's actual resident footprint, which can exceed the modelled
    /// `memory_used()` under mixed-size churn — the `SlabArena`
    /// over-retention the ROADMAP's compaction item describes, made
    /// measurable here instead of staying silent.
    pub resident_bytes: u64,
    /// Payload bytes of entries currently live in the cache.
    pub live_bytes: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub(crate) fn new() -> Self {
        CacheStats::default()
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Records a hit.
    #[inline]
    pub(crate) fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    #[inline]
    pub(crate) fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Merges another stats block into this one. Counters add; the
    /// residency gauges add too, so a merged block reports the aggregate
    /// footprint of the merged caches.
    pub(crate) fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.rejected += other.rejected;
        self.resident_bytes += other.resident_bytes;
        self.live_bytes += other.live_bytes;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} hit_rate={:.2}% insertions={} evictions={}",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.insertions,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = CacheStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.lookups(), 3);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            rejected: 5,
            resident_bytes: 100,
            live_bytes: 60,
        };
        a.merge(&a.clone());
        assert_eq!(a.hits, 2);
        assert_eq!(a.rejected, 10);
        assert_eq!(a.resident_bytes, 200);
        assert_eq!(a.live_bytes, 120);
    }

    #[test]
    fn display_contains_percentage() {
        let s = CacheStats {
            hits: 1,
            misses: 1,
            ..Default::default()
        };
        assert!(s.to_string().contains("50.00%"));
    }
}
