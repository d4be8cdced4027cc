//! What the benchmark measures: the four workloads, the common driving
//! constants and the metric tables. `BENCHMARK.json` at the repo root lists
//! the same names; `tests::benchmark_json_matches_the_tables` keeps the two
//! from drifting.
//!
//! The constants are copied from `crates/bench` on purpose (the harness does
//! not depend on `sdm-bench`, so later refactors of that crate cannot move
//! these numbers).

use sdm_core::BatchMode;

/// Seed of table and MLP weights. Fixed: `--seed` only derives inputs
/// (query stream, arrivals, faults), never the model.
pub const MODEL_SEED: u64 = 0x5d_2022;
/// MLP width divisor of the materialised replicas.
pub const MLP_DIVISOR: f64 = 40.0;
/// Items ranked per query.
pub const ITEM_BATCH: u32 = 16;
/// Dynamic batcher: close at this many queries ...
pub const MAX_BATCH: usize = 16;
/// ... or when the oldest query has waited this long.
pub const MAX_BATCH_DELAY_US: u64 = 5_000;
/// Setups per run (`setup_s` is their median; the last host is kept).
pub const SETUPS: usize = 3;
/// Fewest r3 passes behind a wall-clock median in a full run.
pub const MIN_WALL_PASSES: usize = 3;
/// Queries whose scores are compared against the DRAM reference.
pub const SAMPLED_QUERIES: usize = 64;
/// A rate meets the SLO when this share of *offered* queries is good ...
pub const GOOD_SHARE: f64 = 0.99;
/// ... and the backlog does not grow: served rate ≥ this share of offered.
pub const KEEP_UP_SHARE: f64 = 0.97;
/// Index of r3, the loaded rate every repeated pass runs at.
pub const R3: usize = 2;
/// Index of r5, the overload rate.
pub const R5: usize = 4;

/// One workload: a model, a cache/device configuration and a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// `scaled_model(m1(), capacity_divisor, 40.0)`.
    pub capacity_divisor: u64,
    pub nand: bool,
    pub row_cache_kib: u64,
    /// `false` switches the pooled-embedding cache off.
    pub pooled_cache: bool,
    /// The caches hold every row the stream touches, so after the warm pass
    /// a measured pass must not read SM at all (checked).
    pub cache_holds_model: bool,
    pub shared_tier_mib: u64,
    pub mode: BatchMode,
    pub shards: usize,
    /// `WorkloadConfig::skewed(64, 1.1)` users instead of 5 000 / Zipf 0.8.
    pub skewed_users: bool,
    /// `Bursty { 0.5r, 3r, 2 s, 0.2 }` arrivals instead of Poisson.
    pub bursty: bool,
    /// Queries per pass.
    pub queries: usize,
    /// Full model update before every segment of this many queries.
    pub update_every: Option<usize>,
    /// Transient 2 % + corruption 0.5 % on every device, 6 attempts per read.
    pub faults: bool,
    /// Offered rates r1..r5 in q/s, frozen at calibration.
    pub rates: [f64; 5],
    /// A query is good when served within this; also the front end's shed
    /// threshold (`max_queue_wait`).
    pub slo_us: u64,
}

const RELAXED_8: BatchMode = BatchMode::Relaxed {
    max_inflight_queries: 8,
};

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "hot_exact",
        why: "Whole model cache-resident, Exact mode: kernels, cache hit probes, pooled cache and MLP do all the work; io and device do none.",
        capacity_divisor: 200_000,
        nand: false,
        row_cache_kib: 16 * 1024,
        pooled_cache: true,
        cache_holds_model: true,
        shared_tier_mib: 0,
        mode: BatchMode::Exact,
        shards: 1,
        skewed_users: false,
        bursty: false,
        queries: 1024,
        update_every: None,
        faults: false,
        rates: [100.0, 200.0, 300.0, 720.0, 1600.0],
        slo_us: 50_000,
    },
    WorkloadSpec {
        name: "sm_bound",
        why: "Working set 4x the row cache, pooled cache off: io, device, the manager's miss/split-phase path and cache insert+evict dominate both clocks.",
        capacity_divisor: 20_000,
        nand: false,
        row_cache_kib: 2 * 1024,
        pooled_cache: false,
        cache_holds_model: false,
        shared_tier_mib: 0,
        mode: RELAXED_8,
        shards: 1,
        skewed_users: false,
        bursty: false,
        queries: 512,
        update_every: None,
        faults: false,
        rates: [20.0, 50.0, 80.0, 240.0, 400.0],
        slo_us: 50_000,
    },
    WorkloadSpec {
        name: "sharded_tier",
        why: "Two shards behind a shared row tier on a skewed stream: host partition, per-batch thread spawn/join, merge and the lock-striped tier do the work; SM idle after warm-up.",
        capacity_divisor: 20_000,
        nand: false,
        row_cache_kib: 512,
        pooled_cache: false,
        cache_holds_model: false,
        shared_tier_mib: 8,
        mode: RELAXED_8,
        shards: 2,
        skewed_users: true,
        bursty: false,
        queries: 1024,
        update_every: None,
        faults: false,
        rates: [800.0, 1600.0, 2400.0, 6000.0, 12800.0],
        slo_us: 50_000,
    },
    WorkloadSpec {
        name: "refresh_nand",
        why: "Nand devices, full model update before every 512 queries, injected read faults, bursty arrivals: device writes, cache invalidation and refill, retry/checksum path.",
        capacity_divisor: 20_000,
        nand: true,
        row_cache_kib: 16 * 1024,
        pooled_cache: true,
        cache_holds_model: false,
        shared_tier_mib: 0,
        mode: RELAXED_8,
        shards: 1,
        skewed_users: false,
        bursty: true,
        queries: 1024,
        update_every: Some(512),
        faults: true,
        rates: [0.625, 1.25, 2.5, 40.0, 80.0],
        slo_us: 500_000,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read on. `Virtual` numbers are modelled hardware
/// time and repeat exactly for a seed on one shard; `Host` numbers are how
/// fast this Rust code ran on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Virtual,
    Host,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

/// The end-to-end metrics, the same set for every workload. The bounds
/// cover the spread the driver sees *across seeds* (it varies `--seed`
/// between runs), not only the run-to-run noise of one seed.
pub const END_TO_END: [EndToEndSpec; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Clock::Host),
    e2e("wall_qps", "q/s", Better::Higher, 0.25, Clock::Host),
    e2e("cpu_us_per_query", "us", Better::Lower, 0.25, Clock::Host),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05, Clock::Host),
    e2e("virt_mean_us_r1", "us", Better::Lower, 0.15, Clock::Virtual),
    e2e(
        "virt_slow10_us_r1",
        "us",
        Better::Lower,
        0.15,
        Clock::Virtual,
    ),
    e2e("virt_p90_us_r3", "us", Better::Lower, 0.25, Clock::Virtual),
    e2e(
        "virt_served_qps_r5",
        "q/s",
        Better::Higher,
        0.25,
        Clock::Virtual,
    ),
    e2e(
        "virt_slo_rate_qps",
        "q/s",
        Better::Higher,
        0.10,
        Clock::Virtual,
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics (layer = module). Counts and virtual times are
/// deltas over the first r3 pass; `*_ns` numbers are host time from the
/// traced replay or from direct calls on the workload's own operands.
pub const PER_LAYER: [LayerSpec; 55] = [
    lower("workload.gen_us_per_query", "us"),
    lower("workload.partition_ns_per_query", "ns"),
    lower("frontend.batches_r3", "count"),
    higher("frontend.mean_batch_r3", "count"),
    lower("frontend.queue_wait_us_p50_r3", "us"),
    lower("frontend.shed_share_r5", "ratio"),
    lower("host.floor_ns_per_query", "ns"),
    higher("host.seam_ratio", "ratio"),
    lower("host.shard_imbalance_r3", "ratio"),
    lower("host.failovers", "count"),
    lower("shard.exec_overhead_ns_per_query", "ns"),
    lower("engine.self_ns_per_query", "ns"),
    lower("engine.dram_floor_ns_per_query", "ns"),
    lower("engine.mlp_bottom_ns", "ns"),
    lower("engine.mlp_top_ns", "ns"),
    lower("engine.virt_compute_us_per_query", "us"),
    lower("manager.lookup_ns_per_query", "ns"),
    lower("manager.lookup_ns_per_row", "ns"),
    lower("manager.ops_per_query", "count"),
    lower("manager.rows_per_query", "count"),
    higher("manager.pooled_hit_rate", "ratio"),
    higher("manager.row_hit_rate", "ratio"),
    higher("manager.shared_hit_rate", "ratio"),
    lower("manager.sm_reads_per_query", "count"),
    lower("manager.virt_io_wait_us_per_query", "us"),
    lower("manager.virt_pooling_us_per_query", "us"),
    lower("manager.degraded_rows", "count"),
    lower("cache.row_hit_ns", "ns"),
    lower("cache.row_fill_ns", "ns"),
    lower("cache.pooled_lookup_ns", "ns"),
    lower("cache.shared_hit_ns", "ns"),
    lower("cache.shared_insert_ns", "ns"),
    lower("cache.evictions_per_query", "count"),
    lower("cache.resident_mib", "MiB"),
    lower("cache.retained_share", "ratio"),
    lower("io.submit_drain_ns_per_io", "ns"),
    higher("io.mean_queue_depth", "count"),
    higher("io.max_queue_depth", "count"),
    lower("io.virt_latency_us_p50", "us"),
    lower("io.virt_latency_us_p99", "us"),
    lower("io.virt_queue_delay_share", "ratio"),
    lower("io.retries_per_kio", "count"),
    lower("io.checksum_failures", "count"),
    lower("io.read_amplification", "ratio"),
    lower("io.bus_bytes_per_query", "B"),
    lower("device.read_ns", "ns"),
    lower("device.reads_per_query", "count"),
    lower("device.write_ns_per_mib", "ns"),
    lower("device.bytes_written_mib", "MiB"),
    lower("embedding.pool_ns_per_row", "ns"),
    lower("update.apply_ms", "ms"),
    lower("update.warmup_queries", "count"),
    lower("alloc.per_query_r3", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(matches!(
            setup,
            Some(m) if m.unit == "s" && m.better == Better::Lower
        ));
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            field(&doc, "paths").items(),
            [Json::Str("benchmark".into())]
        );
        let seconds = field(&doc, "run_seconds").as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

        let workloads = field(&doc, "workloads").items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(w, "name").as_str(), Some(spec.name));
            assert_eq!(field(w, "why").as_str(), Some(spec.why));
            assert_eq!(w.entries().len(), 2);
        }
        let e2e = field(&doc, "end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name").as_str(), Some(spec.name));
            assert_eq!(field(m, "unit").as_str(), Some(spec.unit));
            assert_eq!(field(m, "better").as_str(), Some(spec.better.as_str()));
            assert_eq!(field(m, "bound").as_f64(), Some(spec.bound));
            assert_eq!(m.entries().len(), 4);
        }
        let layers = field(&doc, "per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name").as_str(), Some(spec.name));
            assert_eq!(field(m, "unit").as_str(), Some(spec.unit));
            assert_eq!(field(m, "better").as_str(), Some(spec.better.as_str()));
            assert_eq!(m.entries().len(), 3);
        }
    }
}
