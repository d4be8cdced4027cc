//! Criterion bench backing Figure 6: lookup cost and hit behaviour of the
//! cache engines.

use criterion::{criterion_group, criterion_main, Criterion};
use sdm_cache::{
    ArenaLru, CacheConfig, CpuOptimizedCache, DualRowCache, MemoryOptimizedCache, RowCache, RowKey,
};
use sdm_metrics::units::Bytes;

fn warm_cache<C: RowCache>(cache: &mut C, rows: u64, row_bytes: usize) {
    for i in 0..rows {
        cache.insert(RowKey::new(0, i), &vec![(i % 251) as u8; row_bytes]);
    }
}

fn cache_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_cache_get");
    group.sample_size(30);
    let rows = 10_000u64;

    let mut memory_opt = MemoryOptimizedCache::with_expected_row_size(Bytes::from_mib(8), 128);
    warm_cache(&mut memory_opt, rows, 128);
    let mut i = 0u64;
    group.bench_function("memory_optimized_hit", |b| {
        b.iter(|| {
            i = (i + 7) % rows;
            memory_opt.get(&RowKey::new(0, i)).map(<[u8]>::len)
        })
    });

    let mut cpu_opt = CpuOptimizedCache::new(Bytes::from_mib(8));
    warm_cache(&mut cpu_opt, rows, 128);
    group.bench_function("cpu_optimized_hit", |b| {
        b.iter(|| {
            i = (i + 7) % rows;
            cpu_opt.get(&RowKey::new(0, i)).map(<[u8]>::len)
        })
    });

    let mut dual = DualRowCache::new(CacheConfig::with_total_budget(Bytes::from_mib(8)));
    warm_cache(&mut dual, rows, 128);
    group.bench_function("dual_hit", |b| {
        b.iter(|| {
            i = (i + 7) % rows;
            dual.get(&RowKey::new(0, i)).map(<[u8]>::len)
        })
    });
    group.finish();
}

fn pooled_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled_cache");
    group.sample_size(30);
    let mut cache = sdm_cache::PooledEmbeddingCache::new(Bytes::from_mib(4), 4);
    let indices: Vec<u64> = (0..40).collect();
    cache.insert(3, &indices, &[0.5f32; 64]);
    group.bench_function("hit_40_indices", |b| {
        b.iter(|| cache.lookup(3, &indices).map(<[f32]>::len))
    });
    group.finish();
}

/// The generic engine's two costs: a random hit (hash probe + recency
/// update + payload borrow) and an insert that evicts (victim search + slot
/// and arena recycling), at three cache sizes. Recency stamps trade a
/// cheaper hit for a dearer eviction; both sides are on the record here.
fn arena_lru(c: &mut Criterion) {
    const OVERHEAD: usize = 64;
    let mut group = c.benchmark_group("arena_lru");
    group.sample_size(30);
    let payload = [0.5f32; 64];
    for entries in [2_000u64, 20_000, 100_000] {
        let budget = Bytes(entries * (std::mem::size_of_val(&payload) + OVERHEAD) as u64);
        let mut engine: ArenaLru<u64, u32, f32> = ArenaLru::new(budget, OVERHEAD);
        for key in 0..entries {
            engine.insert(key, &payload, 0);
        }
        let mut rng = 0x5d_2022u64;
        group.bench_function(format!("random_hit_{entries}"), |b| {
            b.iter(|| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                engine.get(&(rng % entries)).map(|(row, _)| row.len())
            })
        });
        // The cache is exactly full: every insert of a fresh key evicts one.
        let mut fresh = entries;
        group.bench_function(format!("insert_evict_{entries}"), |b| {
            b.iter(|| {
                fresh += 1;
                engine.insert(fresh, &payload, 0)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, cache_engines, pooled_cache, arena_lru);
criterion_main!(benches);
