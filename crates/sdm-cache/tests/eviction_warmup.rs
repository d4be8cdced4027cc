//! Eviction-under-load behaviour across the cache engines — the hot paths
//! the serving loop exercises on every query (paper §4.3) that the
//! per-module unit tests only cover in isolation. Warm-up across the
//! engines is tested next to `WarmupTracker`, whose getters are
//! crate-internal.

use sdm_cache::{
    CacheConfig, DualRowCache, MemoryOptimizedCache, PooledEmbeddingCache, RowCache, RowKey,
};
use sdm_metrics::units::Bytes;

#[test]
fn eviction_keeps_hot_rows_under_skewed_access() {
    // Skewed access: 8 hot rows are re-touched between every cold access, a
    // long tail of 1024 cold rows streams through. The ~8 KiB budget holds
    // roughly 100 rows, so the tail constantly evicts — but LRU must keep
    // the hot set resident throughout.
    let mut cache = MemoryOptimizedCache::with_expected_row_size(Bytes::from_kib(8), 64);
    let touch = |cache: &mut MemoryOptimizedCache, row: u64| {
        let key = RowKey::new(0, row);
        if cache.get(&key).is_none() {
            cache.insert(key, &[row as u8; 64]);
        }
    };
    for tick in 0..8192u64 {
        touch(&mut cache, tick % 8); // hot set: rows 0..8
        touch(&mut cache, 8 + tick % 1024); // cold tail: rows 8..1032
    }
    assert!(cache.stats().evictions > 1000, "eviction pressure expected");
    assert!(cache.memory_used() <= cache.budget());
    for row in 0..8u64 {
        assert!(
            cache.contains(&RowKey::new(0, row)),
            "hot row {row} evicted"
        );
    }
    // Only the most recently streamed slice of the cold tail can be
    // resident (capacity ≈ 100 rows for 1024 cold rows).
    let cold_resident = (8..1032u64)
        .filter(|&r| cache.contains(&RowKey::new(0, r)))
        .count();
    assert!(cold_resident < 256, "{cold_resident} cold rows resident");
}

#[test]
fn dual_cache_routes_by_row_size_and_stays_within_budgets() {
    let mut dual = DualRowCache::new(CacheConfig::with_total_budget(Bytes::from_kib(64)));
    let threshold = dual.small_row_threshold();
    assert!(threshold > 0);

    for row in 0..64u64 {
        dual.insert(RowKey::new(0, row), &vec![1u8; threshold / 2]);
        dual.insert(RowKey::new(1, row), &vec![2u8; threshold * 4]);
    }
    // Both engines saw their share of the inserts.
    assert_eq!(dual.small_engine_stats().insertions, 64);
    assert_eq!(dual.large_engine_stats().insertions, 64);
    assert!(dual.memory_used() <= dual.budget());

    // Lookups hit the right engine.
    assert!(dual.get(&RowKey::new(0, 0)).is_some() || dual.small_engine_stats().evictions > 0);
    assert!(dual.get(&RowKey::new(1, 63)).is_some() || dual.large_engine_stats().evictions > 0);
}

#[test]
fn pooled_cache_eviction_respects_budget_under_churn() {
    let mut cache = PooledEmbeddingCache::new(Bytes::from_kib(4), 2);
    for i in 0..512u64 {
        let indices: Vec<u64> = (i..i + 8).collect();
        cache.insert(0, &indices, &[i as f32; 16]);
        assert!(
            cache.memory_used() <= cache.budget(),
            "pooled cache over budget at insert {i}"
        );
    }
    assert!(!cache.is_empty());
    // The most recent entry is still resident.
    let last: Vec<u64> = (511..519).collect();
    assert!(cache.lookup(0, &last).is_some());
}
