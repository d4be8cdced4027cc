//! Experiment E14 — paper §4.1: mmap through the page cache vs DIRECT-IO with
//! an application-level row cache, for random small embedding reads.

use io_engine::{EngineConfig, IoEngine, IoRequest, MmapIo};
use scm_device::{DeviceArray, DeviceId, ReadCommand, TechnologyProfile};
use sdm_bench::header;
use sdm_cache::RowCache;
use sdm_metrics::units::Bytes;
use sdm_metrics::{LatencyHistogram, SimInstant};
use workload::ZipfSampler;

fn main() {
    header("mmap vs DIRECT-IO for random 128B embedding reads");
    let rows: u64 = 500_000;
    let row_bytes = 128u32;
    let capacity = Bytes::from_mib(128);
    // Strong temporal locality (item-table-like) so the fast-memory budget
    // matters: the row cache can hold ~4x more hot rows than the page cache
    // can hold hot pages.
    let sampler = ZipfSampler::new(rows, 1.05, 3).expect("sampler");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let accesses: Vec<u64> = (0..30_000).map(|_| sampler.sample(&mut rng)).collect();
    let fm_budget = Bytes::from_mib(2);

    // mmap path: page-granularity faults through a page cache.
    let mut array = DeviceArray::homogeneous(TechnologyProfile::nand_flash(), capacity, 1).unwrap();
    let mut mmap = MmapIo::new(DeviceId(0), fm_budget);
    let mut mmap_hist = LatencyHistogram::new();
    for &row in &accesses {
        let (_, latency) = mmap
            .read(
                &mut array,
                row * row_bytes as u64,
                row_bytes,
                SimInstant::EPOCH,
            )
            .unwrap();
        mmap_hist.record(latency);
    }

    // DIRECT-IO path: SGL row reads plus an application row cache with the
    // same fast-memory budget, issued closed-loop (one IO outstanding).
    let array = DeviceArray::homogeneous(TechnologyProfile::nand_flash(), capacity, 1).unwrap();
    let mut engine = IoEngine::new(array, EngineConfig::default());
    let mut cache = sdm_cache::CpuOptimizedCache::new(fm_budget);
    let mut direct_hist = LatencyHistogram::new();
    let mut now = SimInstant::EPOCH;
    for &row in &accesses {
        let key = sdm_cache::RowKey::new(0, row);
        if cache.get(&key).is_some() {
            direct_hist.record(cache.lookup_cost());
            now += cache.lookup_cost();
            continue;
        }
        engine
            .submit(
                IoRequest::new(
                    DeviceId(0),
                    ReadCommand::sgl(row * row_bytes as u64, row_bytes),
                ),
                now,
            )
            .unwrap();
        let finished = engine
            .drain_each(now, |c| cache.insert(key, &c.data))
            .unwrap();
        direct_hist.record(finished.duration_since(now) + cache.lookup_cost());
        now = finished;
    }

    println!("\n  path                      mean latency   p99 latency   FM resident      hit rate   read amplification");
    println!(
        "  mmap (page cache)         {:>12}   {:>11}   {:>10}   {:>8.1}%   {:>6.1}x",
        mmap_hist.mean().to_string(),
        mmap_hist.p99().to_string(),
        mmap.stats().resident_bytes.to_string(),
        mmap.stats().hit_rate() * 100.0,
        mmap.stats().read_amplification()
    );
    println!(
        "  DIRECT-IO + row cache     {:>12}   {:>11}   {:>10}   {:>8.1}%   {:>6.1}x",
        direct_hist.mean().to_string(),
        direct_hist.p99().to_string(),
        cache.memory_used().to_string(),
        cache.stats().hit_rate() * 100.0,
        engine.stats().read_amplification()
    );
    let ratio = mmap_hist.mean().as_micros_f64() / direct_hist.mean().as_micros_f64().max(1e-9);
    println!("\n  mmap mean latency / DIRECT-IO mean latency = {ratio:.1}x (paper: ~3x)");
}
