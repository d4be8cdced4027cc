//! The paper scoreboard, pinned in `BENCH_paper.json` and gated by exact
//! equality.
//!
//! Every experiment keyed to a paper table, figure or section runs once,
//! from fixed seeds, on the virtual clock (or, for a closed form, on the
//! paper's own inputs). Each claim it checks becomes one row: the cite, the
//! paper's value or shape, the measured value, the tolerance, the basis
//! (`run` or `arithmetic`) and the verdict. The tolerance follows from the
//! paper value by one rule ([`sdm_bench::paper`]); a row that misses it is
//! committed as `fail`.
//!
//! Usage: `exp_paper [--check] [--out PATH]` (default PATH
//! `BENCH_paper.json`). The run prints the scoreboard as a markdown table.
//! Without `--check` the document is written to PATH. With `--check`
//! nothing is written: every field of the fresh document must equal the
//! one in PATH, and no field may be missing or extra.

#![expect(
    clippy::disallowed_types,
    reason = "Table 3's offline profile of a query log, not the serving path"
)]

use cluster::multi_tenancy::{
    fleet_power_ratio, tenants_by_memory, utilisation, TenancyHost, TenantModel,
};
use cluster::sizing::{size_ssds, SizingInputs};
use cluster::{HostConfig, PowerModel, ScenarioComparison, ServingScenario};
use dlrm::{analysis, model_zoo, ComputeModel, ExecutionMode, ModelConfig};
use embedding::TableKind;
use io_engine::{CompletionMode, CpuCostModel, EngineConfig, IoEngine, IoRequest, MmapIo};
use scm_device::{
    AccessMode, DeviceArray, DeviceId, ReadCommand, ScmDevice, SglRange, TechnologyProfile,
};
use sdm_bench::gate::GateArgs;
use sdm_bench::paper::{self, Basis, Measured, Row};
use sdm_bench::{
    bench_sdm_config, build_system, identity_picks, queries_for, scaled, EXPERIMENT_SEED,
};
use sdm_cache::{CacheConfig, CpuOptimizedCache, PooledEmbeddingCache, RowCache, RowKey};
use sdm_core::{AccessGranularity, HostReport, LoadTransform, ModelUpdater, PlacementPolicy};
use sdm_core::{SdmConfig, ServingHost, UpdateKind};
use sdm_metrics::units::{Bytes, Watts};
use sdm_metrics::{LatencyHistogram, SimDuration, SimInstant};
use std::collections::{HashMap, HashSet};
use workload::{
    spatial_locality, temporal_locality_cdf, AccessTrace, Query, QueryGenerator, RoutingPolicy,
    Scheduler, WorkloadConfig, ZipfSampler,
};

/// The rows of one experiment, which share a key prefix and a cite.
struct Claims {
    experiment: &'static str,
    cite: &'static str,
    rows: Vec<Row>,
}

impl Claims {
    fn new(experiment: &'static str, cite: &'static str) -> Claims {
        let rows = Vec::new();
        Claims {
            experiment,
            cite,
            rows,
        }
    }

    fn row(mut self, basis: Basis, claim: &str, paper: &'static str, measured: Measured) -> Self {
        self.rows.push(Row {
            key: format!("{}.{claim}", self.experiment),
            cite: self.cite,
            paper,
            basis,
            measured,
        });
        self
    }

    /// A claim measured by running the modelled stack.
    fn run(self, claim: &str, paper: &'static str, measured: impl Into<Measured>) -> Self {
        self.row(Basis::Run, claim, paper, measured.into())
    }

    /// A claim that is a closed form on the paper's inputs or the model's
    /// constants.
    fn arithmetic(self, claim: &str, paper: &'static str, measured: impl Into<Measured>) -> Self {
        self.row(Basis::Arithmetic, claim, paper, measured.into())
    }
}

/// Queries per second of one stream at a batch's mean latency.
fn stream_qps(report: &HostReport) -> f64 {
    1.0 / report.mean_latency.as_secs_f64()
}

/// Serves `queries[..warm]` as a warm-up batch, then the rest as the
/// measured batch, whose report it returns.
fn warm_then_measure(host: &mut ServingHost, queries: &[Query], warm: usize) -> HostReport {
    let all = identity_picks(queries);
    host.run_selected_batch(queries, &all[..warm])
        .expect("warm-up batch");
    host.run_selected_batch(queries, &all[warm..])
        .expect("measured batch")
}

/// Figure 1: most of the 140 GB / 734-table model's capacity needs little
/// bandwidth — here, at most a tenth of the worst table's bytes per query.
fn fig1() -> Claims {
    let model = model_zoo::figure1_model();
    let demands = analysis::table_demands(&model);
    let worst = demands.iter().map(|d| d.bytes_per_query.as_u64()).max();
    let low = Bytes(worst.expect("tables") / 10);
    let share = 100.0 * analysis::capacity_fraction_below_demand(&model, low);
    Claims::new("fig1", "Figure 1").arithmetic(
        "low_bandwidth_capacity",
        "share > 50%",
        [("share", share)],
    )
}

/// Figure 3: IOPS and loaded latency of Nand Flash vs Optane SSD, 20
/// embedding lookups per IO.
fn fig3() -> Claims {
    const DEPTHS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
    // 20 lookups of 128 B scattered across the device, one NVMe command.
    let command = |base: u64| {
        let ranges: Vec<SglRange> = (0..20)
            .map(|i| SglRange::new((base + i * 131) % (200 * 1024 * 1024 - 256), 128))
            .collect();
        ReadCommand::with_ranges(ranges, AccessMode::Sgl).expect("non-empty command")
    };
    // (thousand IOPS by Little's law, mean latency in µs) per queue depth.
    let sweep = |profile: TechnologyProfile| -> Vec<(f64, f64)> {
        DEPTHS
            .iter()
            .map(|&depth| {
                let mut device =
                    ScmDevice::new("sweep", profile.clone(), Bytes::from_mib(256)).expect("device");
                let mut hist = LatencyHistogram::new();
                for i in 0..400 {
                    let outcome = device.read(&command(i * 4096), depth).expect("read");
                    hist.record(outcome.device_latency);
                }
                let mean = hist.mean();
                let kiops = depth as f64 / mean.as_secs_f64().max(1e-9) / 1e3;
                (kiops, mean.as_micros_f64())
            })
            .collect()
    };
    let nand = sweep(TechnologyProfile::nand_flash());
    let optane = sweep(TechnologyProfile::optane_ssd());
    let peak = |points: &[(f64, f64)]| points.iter().map(|p| p.0).fold(0.0, f64::max);
    let by_depth = DEPTHS.iter().zip(&nand);
    let nand_latency = by_depth.map(|(d, p)| (format!("qd{d}"), p.1)).collect();
    Claims::new("fig3", "Figure 3")
        .run(
            "peak_kiops",
            "nand < optane",
            [("nand", peak(&nand)), ("optane", peak(&optane))],
        )
        .run("qd1_latency_ratio", "~10x", nand[0].1 / optane[0].1)
        .run(
            "nand_latency_us",
            "qd1 <= qd2 <= qd4 <= qd8 <= qd16 <= qd32 <= qd64 <= qd128 <= qd256",
            Measured::Named(nand_latency),
        )
}

/// Paper-scale M2 descriptors: the query generator only samples indices,
/// so no table bytes are materialised.
fn m2_trace_queries(seed: u64) -> (ModelConfig, Vec<Query>) {
    let model = model_zoo::m2();
    let workload = WorkloadConfig {
        item_batch: 2,
        user_population: 200_000,
        user_zipf_exponent: 0.7,
        inference_eval: false,
    };
    let mut generator = QueryGenerator::new(&model.tables, workload, seed).expect("workload");
    let queries = generator.generate(800);
    (model, queries)
}

/// Figure 4: temporal locality of user and item tables, globally and as one
/// host sees it under user-sticky routing.
fn fig4() -> Claims {
    let (model, queries) = m2_trace_queries(4);
    let global = AccessTrace::from_queries(&queries);
    let per_host = Scheduler::new(16, RoutingPolicy::UserSticky).per_host_traces(&queries);
    let busiest = per_host.iter().max_by_key(|t| t.len()).expect("hosts");
    // Mean share of accesses that go to the hottest 10 % of rows, in
    // percent, over the first 8 tables of `kind`.
    let top10 = |trace: &AccessTrace, kind: TableKind| {
        let tables = model.tables.iter().filter(|t| t.kind == kind).take(8);
        let shares: Vec<f64> = tables
            .map(|t| temporal_locality_cdf(trace.table_accesses(t.id), 10)[0].1)
            .collect();
        100.0 * shares.iter().sum::<f64>() / shares.len() as f64
    };
    let user = top10(&global, TableKind::User);
    let item = top10(&global, TableKind::Item);
    let host = top10(busiest, TableKind::User);
    Claims::new("fig4", "Figure 4")
        .run(
            "top10_share_user_vs_item",
            "user < item",
            [("user", user), ("item", item)],
        )
        .run(
            "top10_share_global_vs_host",
            "global <= host",
            [("global", user), ("host", host)],
        )
}

/// Figure 5: spatial locality of embedding accesses within 4 KiB blocks
/// (1 = perfect).
fn fig5() -> Claims {
    let (model, queries) = m2_trace_queries(5);
    let trace = AccessTrace::from_queries(&queries);
    let max = model
        .tables
        .iter()
        .map(|t| (t, trace.table_accesses(t.id)))
        .filter(|(_, accesses)| accesses.len() >= 500)
        .map(|(t, accesses)| spatial_locality(accesses, t.row_bytes(), 4096, 25_000))
        .fold(0.0, f64::max);
    Claims::new("fig5", "Figure 5").run("max_spatial_locality", "max < 1", [("max", max)])
}

/// §4.1: mmap through the page cache vs DIRECT-IO with an application row
/// cache of the same fast-memory budget, for random 128 B reads.
fn mmap() -> Claims {
    let row_bytes = 128u32;
    let fm_budget = Bytes::from_mib(2);
    // Item-table-like locality, so the fast-memory budget matters.
    let sampler = ZipfSampler::new(500_000, 1.05, 3).expect("sampler");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let accesses: Vec<u64> = (0..30_000).map(|_| sampler.sample(&mut rng)).collect();
    let nand = || {
        DeviceArray::homogeneous(TechnologyProfile::nand_flash(), Bytes::from_mib(128), 1)
            .expect("array")
    };

    let mut array = nand();
    let mut mmap = MmapIo::new(DeviceId(0), fm_budget);
    let mut mmap_hist = LatencyHistogram::new();
    for &r in &accesses {
        let offset = r * u64::from(row_bytes);
        let read = mmap.read(&mut array, offset, row_bytes, SimInstant::EPOCH);
        mmap_hist.record(read.expect("mmap read").1);
    }

    // SGL row reads behind the row cache, issued closed-loop.
    let mut engine = IoEngine::new(nand(), EngineConfig::default());
    let mut cache = CpuOptimizedCache::new(fm_budget);
    let mut direct_hist = LatencyHistogram::new();
    let mut now = SimInstant::EPOCH;
    for &r in &accesses {
        let key = RowKey::new(0, r);
        if cache.get(&key).is_some() {
            direct_hist.record(cache.lookup_cost());
            now += cache.lookup_cost();
            continue;
        }
        let read = ReadCommand::sgl(r * u64::from(row_bytes), row_bytes);
        engine
            .submit(IoRequest::new(DeviceId(0), read), now)
            .expect("submit");
        let finished = engine.drain_each(now, |c| cache.insert(key, &c.data));
        let finished = finished.expect("drain");
        direct_hist.record(finished.duration_since(now) + cache.lookup_cost());
        now = finished;
    }
    let ratio = mmap_hist.mean().as_micros_f64() / direct_hist.mean().as_micros_f64();
    Claims::new("mmap", "§4.1").run("mean_latency_ratio", "~3x", ratio)
}

/// §4.1.1: SGL bit-bucket sub-block reads vs 4 KiB block reads.
fn granularity() -> Claims {
    let device_latency = |read: ReadCommand| {
        let profile = TechnologyProfile::nand_flash();
        let mut device = ScmDevice::new("nand", profile, Bytes::from_mib(16)).expect("device");
        device
            .read(&read, 4)
            .expect("read")
            .device_latency
            .as_micros_f64()
    };
    let block = device_latency(ReadCommand::block(8192, 128));
    let sgl = device_latency(ReadCommand::sgl(8192, 128));

    let model = scaled(&model_zoo::m1());
    let queries = queries_for(&model, 60, 13);
    let bus_bytes = |granularity| {
        let mut config = bench_sdm_config().with_nand_flash();
        config.granularity = granularity;
        let mut host = build_system(&model, config);
        host.run_selected_batch(&queries, &identity_picks(&queries))
            .expect("run");
        host.shard(0).manager().stats().sm_bus_bytes.as_u64() as f64
    };
    let bus_saving = 1.0 - bus_bytes(AccessGranularity::Sgl) / bus_bytes(AccessGranularity::Block);
    Claims::new("granularity", "§4.1.1")
        .run("bus_saving", "~75%", 100.0 * bus_saving)
        .run("read_latency_saving", "3–5%", 100.0 * (1.0 - sgl / block))
}

/// Paper-scale M1 descriptors and a realistic user population, so full
/// index sequences repeat only when the same user reappears.
fn m1_profile_queries(seed: u64) -> Vec<Query> {
    let workload = WorkloadConfig {
        item_batch: 4,
        user_population: 500_000,
        user_zipf_exponent: 0.52,
        inference_eval: false,
    };
    let tables = model_zoo::m1().tables;
    let mut generator = QueryGenerator::new(&tables, workload, seed).expect("workload");
    generator.generate(6_000)
}

/// A 128-bit fingerprint of a (table, index window) key: two splitmix64
/// chains from different seeds. Table 3's window set holds ~12 M keys, so
/// a collision has odds near 1e-25, and a key takes 16 B instead of 88.
fn fingerprint(table: u32, indices: &[u64]) -> u128 {
    let mix = |z: u64| {
        let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let chain = |seed: u64| {
        let start = mix(seed ^ u64::from(table));
        indices.iter().fold(start, |h, &i| mix(h ^ i))
    };
    (u128::from(chain(1)) << 64) | u128::from(chain(2))
}

/// Table 3: how often repeated index (sub)sequences would hit, per caching
/// scheme — the profile behind caching only the full sequence (c = P).
fn table3() -> Claims {
    const C: usize = 10;
    let queries = m1_profile_queries(7);
    // c = P: a hit when the full (table, sorted index multiset) was seen.
    let mut seen_full: HashSet<(u32, Vec<u64>)> = HashSet::new();
    // c = 10: a hit when any sorted 10-index window repeats.
    let mut seen_sub: HashSet<u128> = HashSet::new();
    let mut popularity: HashMap<(u32, u64), u64> = HashMap::new();
    let (mut full_hits, mut sub_hits, mut top_hits) = (0u32, 0u32, 0u32);
    for q in &queries {
        let (mut full, mut sub, mut top) = (false, false, false);
        for req in &q.user_requests {
            let mut sorted = req.indices.clone();
            sorted.sort_unstable();
            for w in sorted.windows(C) {
                sub |= !seen_sub.insert(fingerprint(req.table, w));
            }
            // Top indices: only indices already seen at least 8 times
            // qualify, and the first 10 of them form the window.
            let seen = |i: &u64| popularity.get(&(req.table, *i)).copied().unwrap_or(0);
            let hot: Vec<u64> = sorted.iter().copied().filter(|i| seen(i) >= 8).collect();
            if hot.len() >= C {
                top |= !seen_sub.insert(fingerprint(req.table, &hot[..C]));
            }
            for &i in &req.indices {
                *popularity.entry((req.table, i)).or_default() += 1;
            }
            full |= !seen_full.insert((req.table, sorted));
        }
        full_hits += u32::from(full);
        sub_hits += u32::from(sub);
        top_hits += u32::from(top);
    }
    let rate = |hits: u32| 100.0 * f64::from(hits) / queries.len() as f64;
    Claims::new("table3", "Table 3")
        .run("hit_rate_c10", "26%", rate(sub_hits))
        .run("hit_rate_c10_top", "19%", rate(top_hits))
        .run("hit_rate_full", "5%", rate(full_hits))
}

/// Table 4: pooled-embedding cache hit rate and average hit length at the
/// admission length thresholds the paper quotes.
fn table4() -> Claims {
    let queries = m1_profile_queries(8);
    let run = |threshold: usize| {
        let mut cache = PooledEmbeddingCache::new(Bytes::from_mib(64), threshold);
        for req in queries.iter().flat_map(|q| &q.user_requests) {
            if cache.lookup(req.table, &req.indices).is_none() {
                cache.insert(req.table, &req.indices, &[0.0f32; 16]);
            }
        }
        (100.0 * cache.stats().hit_rate(), cache.average_hit_length())
    };
    let (len1, len32) = (run(1), run(32));
    Claims::new("table4", "Table 4")
        .run("hit_rate_len1", "4–4.6%", len1.0)
        .run("hit_rate_len32", "4–4.6%", len32.0)
        .run("hit_length_len1", "11", len1.1)
        .run("hit_length_len32", "76", len32.1)
}

/// Figure 6: cache organisation and direct-DRAM placement on an
/// InferenceEval-style workload on Nand Flash.
fn fig6() -> Claims {
    let model = scaled(&model_zoo::m2());
    let workload = WorkloadConfig {
        item_batch: 4,
        user_population: 20_000,
        user_zipf_exponent: 0.7,
        inference_eval: true,
    };
    let mut generator =
        QueryGenerator::new(&model.tables, workload, EXPERIMENT_SEED).expect("workload");
    let queries = generator.generate(90);
    // [QPS per stream, row-cache hit rate in percent, SM reads] after a
    // 30-query warm-up.
    let run = |config: SdmConfig| {
        let mut host = build_system(&model, config);
        let report = warm_then_measure(&mut host, &queries, 30);
        let stats = host.shard(0).manager().stats();
        let hits = 100.0 * stats.row_cache_hit_rate();
        [stream_qps(&report), hits, stats.sm_reads as f64]
    };
    let base = || {
        let mut c = bench_sdm_config().with_nand_flash();
        c.cache = CacheConfig::with_total_budget(Bytes::from_mib(1));
        c
    };
    let engine = |fraction: f64, small_row_threshold: usize| {
        let mut c = base();
        c.cache.memory_optimized_fraction = fraction;
        c.cache.small_row_threshold = small_row_threshold;
        run(c)
    };
    let memory_only = engine(1.0, 100_000);
    let cpu_only = engine(0.0, 0);
    // The default split with every user table on SM: also the 0 % point of
    // the DRAM-budget sweep.
    let dual = run(base());
    let dram = |share: f64| {
        let mut c = base();
        let budget = model.user_capacity().as_u64() as f64 * share;
        c.placement = PlacementPolicy::FixedFmThenSm {
            dram_budget: Bytes(budget as u64),
        };
        run(c)
    };
    let (dram25, dram50) = (dram(0.25), dram(0.5));
    let engines = |i: usize| {
        let named = [
            ("memory_only", memory_only),
            ("cpu_only", cpu_only),
            ("dual", dual),
        ];
        named.map(|(name, r)| (name, r[i]))
    };
    let budgets = |i: usize| {
        [
            ("dram0", dual[i]),
            ("dram25", dram25[i]),
            ("dram50", dram50[i]),
        ]
    };
    Claims::new("fig6", "Figure 6")
        .run("engine_qps", "cpu_only < dual", engines(0))
        .run("engine_hit_rate", "cpu_only < dual", engines(1))
        .run("dram_budget_qps", "dram0 < dram25 < dram50", budgets(0))
        .run(
            "dram_budget_sm_reads",
            "dram0 > dram25 > dram50",
            budgets(2),
        )
}

/// §4.5: de-pruning at load time gives the mapping tensors' fast memory to
/// the cache, at the cost of more SM-side requests.
fn depruning() -> Claims {
    let mut model = scaled(&model_zoo::m2());
    for t in &mut model.tables {
        if t.kind == TableKind::User {
            t.pruned_fraction = 0.05;
        }
    }
    let queries = queries_for(&model, 120, 15);
    // (SM-side requests, QPS per stream) after a 40-query warm-up.
    let run = |deprune: bool, cache_budget: Bytes| {
        let mut config = bench_sdm_config().with_nand_flash();
        config.transform = LoadTransform {
            deprune,
            dequantize: false,
        };
        config.cache = CacheConfig::with_total_budget(cache_budget);
        let mut host = build_system(&model, config);
        let report = warm_then_measure(&mut host, &queries, 40);
        let stats = host.shard(0).manager().stats();
        let requests = (stats.sm_reads + stats.row_cache_hits) as f64;
        (requests, stream_qps(&report))
    };
    // Without de-pruning the mapping tensors take FM from the cache.
    let budget = Bytes::from_mib(2);
    let (base_requests, base_qps) = run(false, budget.saturating_sub(Bytes::from_kib(256)));
    let (requests, qps) = run(true, budget);
    let extra = (requests / base_requests - 1.0).max(0.0);
    Claims::new("depruning", "§4.5")
        .run("extra_sm_requests", "~2.5%", 100.0 * extra)
        .run("qps_gain", "up to 48%", 100.0 * (qps / base_qps - 1.0))
}

/// Table 8: M1 on HW-L (DRAM only) vs HW-SS with SDM on Nand Flash.
fn table8() -> Claims {
    let model = scaled(&model_zoo::m1());
    let queries = queries_for(&model, 160, 81);
    let p95 = |config: SdmConfig| {
        let mut host = build_system(&model, config);
        let report = warm_then_measure(&mut host, &queries, 60);
        report.p95_latency.as_micros_f64()
    };
    let mut dram_only = bench_sdm_config();
    dram_only.placement = PlacementPolicy::FixedFmThenSm {
        dram_budget: model.user_capacity(),
    };
    let p95_ratio = p95(bench_sdm_config().with_nand_flash()) / p95(dram_only);
    // Fleet arithmetic on the paper's per-host QPS and normalised power.
    let comparison = ScenarioComparison {
        total_qps: 240.0 * 1200.0,
        scenarios: vec![
            ServingScenario::new("HW-L", 240.0, Watts(1.0)),
            ServingScenario::new("HW-SS + SDM", 120.0, Watts(0.4)),
        ],
    };
    let saving = comparison.power_saving(1).expect("fleet arithmetic");
    Claims::new("table8", "Table 8")
        .arithmetic("power_saving", "20%", 100.0 * saving)
        .run("sdm_over_dram_p95", "1", p95_ratio)
}

/// Table 9: M2 on an accelerator platform — scale-out vs SDM on Nand vs SDM
/// on Optane.
fn table9() -> Claims {
    let paper_model = model_zoo::m2();
    let model = scaled(&paper_model);
    let queries = queries_for(&model, 40, 92);
    let all = identity_picks(&queries);
    let mut host = build_system(&model, bench_sdm_config());
    let shard = host.shard_mut(0);
    let compute = shard.set_compute(ComputeModel::accelerator(), EXPERIMENT_SEED);
    compute.expect("compute model");
    host.run_selected_batch(&queries, &all[..20])
        .expect("warm-up batch");
    host.shard_mut(0).manager_mut().invalidate_caches();
    host.run_selected_batch(&queries, &all[20..])
        .expect("measured batch");
    let hit_rate = host.shard(0).manager().stats().row_cache_hit_rate();

    // Lookups that reach SM per query at paper scale must be served while
    // the devices stay near their unloaded latency (Equation 3).
    let user_tables = paper_model.user_tables();
    let pooling: f64 = user_tables.iter().map(|t| t.pooling_factor as f64).sum();
    let sm_lookups_per_query = pooling * (1.0 - hit_rate);
    let accelerator_qps = 450.0;
    let served = |profile: TechnologyProfile| {
        let device = ScmDevice::new("sm", profile, Bytes::from_gib(1)).expect("device");
        let usable = 2.0 * device.iops_at_latency_target(SimDuration::from_micros(110));
        (usable / sm_lookups_per_query.max(1.0)).min(accelerator_qps)
    };
    let nand = served(TechnologyProfile::nand_flash());
    let optane = served(TechnologyProfile::optane_ssd());
    let nand_ratio = (nand / accelerator_qps).clamp(0.05, 1.0);

    let comparison = ScenarioComparison {
        total_qps: accelerator_qps * 1500.0,
        scenarios: vec![
            ServingScenario::new("HW-AN + ScaleOut", accelerator_qps, Watts(1.05))
                .with_auxiliary_hosts(0.2),
            ServingScenario::new(
                "HW-AN + SDM",
                accelerator_qps * nand_ratio,
                Watts(1.4 * nand_ratio / (230.0 / 450.0)),
            ),
            ServingScenario::new("HW-AO + SDM", accelerator_qps, Watts(1.0)),
        ],
    };
    let nand_hosts = comparison.evaluate().expect("fleet arithmetic")[1].total_hosts;
    let saving = comparison.power_saving(2).expect("fleet arithmetic");
    Claims::new("table9", "Table 9")
        .arithmetic("power_saving", "5%", 100.0 * saving)
        .run("nand_over_optane_qps", "0.51", nand / optane)
        .run("nand_sdm_hosts", "2978", nand_hosts as f64)
}

/// Table 10: Optane SSDs the future M3 host needs for its user-embedding
/// IOPS after the cache.
fn table10() -> Claims {
    let sizing = size_ssds(SizingInputs {
        qps: 3150.0,
        user_tables: 2000,
        avg_pooling_factor: 30.0,
        cache_hit_rate: 0.80,
        iops_per_ssd: 4_000_000.0,
    })
    .expect("sizing");
    Claims::new("table10", "Table 10")
        .arithmetic("sm_miops", "36", sizing.sm_iops / 1e6)
        .arithmetic("optane_ssds", "9", sizing.ssds_needed as f64)
}

/// Table 11: multi-tenancy — SDM turns memory-bound hosts of experimental
/// models into compute-bound ones.
fn table11() -> Claims {
    let (hw_fa, hw_fao) = (HostConfig::hw_fa(), HostConfig::hw_fao());
    let power_ratio = PowerModel::default().normalized_host_power(&hw_fao, &hw_fa);
    // Experimental models take up to a quarter of a production model's
    // resources (§5.3); their embeddings must fit in host memory.
    let tenant = TenantModel {
        memory: Bytes::from_gib(250),
        compute_share: 0.225,
    };
    let compute_cap = (1.0 / tenant.compute_share).floor() as u64;
    let used = |memory: Bytes, power: f64| {
        let tenants = tenants_by_memory(&TenancyHost { memory, power }, &tenant);
        utilisation(tenants.min(compute_cap), &tenant).max(0.01)
    };
    let baseline = used(hw_fa.dram + hw_fa.ssd_capacity(), 1.0);
    let sdm = used(hw_fao.dram + hw_fao.ssd_capacity(), power_ratio);
    let at_paper_utilisations = fleet_power_ratio(0.63, 1.0, 0.90, 1.01).expect("fleet");
    let modelled = fleet_power_ratio(baseline, 1.0, sdm, power_ratio).expect("fleet");
    Claims::new("table11", "Table 11")
        .arithmetic("power_saving", "29%", 100.0 * (1.0 - at_paper_utilisations))
        .arithmetic("modelled_power_saving", "29%", 100.0 * (1.0 - modelled))
}

/// §A.1: polled completions vs interrupts, in IOPS per core.
fn polling() -> Claims {
    let per_core = |mode| CpuCostModel::default().iops_per_core(mode);
    let gain = per_core(CompletionMode::Polling) / per_core(CompletionMode::Interrupt) - 1.0;
    Claims::new("polling", "§A.1").arithmetic("iops_per_core_gain", "~50%", 100.0 * gain)
}

/// §A.2: inter-op parallelism overlaps user-side SM reads with item-side
/// work on M1.
fn interop() -> Claims {
    let model = scaled(&model_zoo::m1());
    let queries = queries_for(&model, 120, 17);
    let run = |mode| {
        let mut host = build_system(&model, bench_sdm_config().with_nand_flash());
        host.shard_mut(0).engine_mut().set_mode(mode);
        warm_then_measure(&mut host, &queries, 40)
    };
    let sequential = run(ExecutionMode::Sequential);
    let parallel = run(ExecutionMode::InterOpParallel);
    let latency = |r: &HostReport| r.mean_latency.as_micros_f64();
    let saving = 1.0 - latency(&parallel) / latency(&sequential);
    let gain = stream_qps(&parallel) / stream_qps(&sequential) - 1.0;
    Claims::new("interop", "§A.2")
        .run("latency_reduction", "~20%", 100.0 * saving)
        .run("qps_gain", "~20%", 100.0 * gain)
}

/// §A.4: extra capacity to ride out rolling model updates, `(r·w)/(p·t)`,
/// at the paper's example and at the update window measured here.
fn warmup() -> Claims {
    let minutes = |m: u64| SimDuration::from_secs(m * 60);
    let extra =
        |w: SimDuration| 100.0 * sdm_cache::warmup_capacity_overhead(0.10, w, 0.5, minutes(30));
    let model = scaled(&model_zoo::m1());
    let queries = queries_for(&model, 240, 18);
    let mut host = build_system(&model, bench_sdm_config().with_nand_flash());
    host.run_selected_batch(&queries, &identity_picks(&queries)[..80])
        .expect("warm-up batch");
    let manager = host.shard_mut(0).manager_mut();
    let report = ModelUpdater::apply(manager, UpdateKind::Full, 77).expect("update");
    // The window is the writes plus the re-read of the resident rows: the
    // first batch after it already hits at the steady-state rate.
    let window = report.write_time + report.rewarm_time;
    Claims::new("warmup", "§A.4")
        .arithmetic("formula_extra_capacity", "1.2%", extra(minutes(5)))
        .run("measured_extra_capacity", "1.2%", extra(window))
}

/// §A.5: de-quantising tables at load time grows rows, so the same cache
/// budget holds fewer of them.
fn dequant() -> Claims {
    // Enough rows per table that the cache budget binds.
    let mut model = model_zoo::tiny(16, 2, 30_000);
    for t in &mut model.tables {
        t.zipf_exponent = 0.9;
    }
    let workload = WorkloadConfig {
        item_batch: 8,
        user_population: 20_000,
        user_zipf_exponent: 0.6,
        inference_eval: false,
    };
    let mut generator = QueryGenerator::new(&model.tables, workload, 19).expect("workload");
    let queries = generator.generate(300);
    // (row-cache hit rate in percent, QPS per stream) after a 100-query
    // warm-up.
    let run = |dequantize: bool| {
        let mut config = SdmConfig::default().with_nand_flash();
        config.transform = LoadTransform {
            deprune: false,
            dequantize,
        };
        config.device_capacity = Bytes::from_mib(256);
        config.fm_budget = Bytes::from_mib(8);
        config.cache = CacheConfig::with_total_budget(Bytes::from_mib(1));
        config.seed = EXPERIMENT_SEED;
        let mut host = build_system(&model, config);
        let report = warm_then_measure(&mut host, &queries, 100);
        let hits = host.shard(0).manager().stats().row_cache_hit_rate();
        (100.0 * hits, stream_qps(&report))
    };
    let (int8, f32_rows) = (run(false), run(true));
    Claims::new("dequant", "§A.5")
        .run(
            "hit_rate",
            "f32 < int8",
            [("int8", int8.0), ("f32", f32_rows.0)],
        )
        .run("qps", "f32 < int8", [("int8", int8.1), ("f32", f32_rows.1)])
}

fn main() {
    let args = GateArgs::from_env("exp_paper", "BENCH_paper.json");
    let experiments: [fn() -> Claims; 18] = [
        fig1,
        fig3,
        fig4,
        fig5,
        mmap,
        granularity,
        table3,
        table4,
        fig6,
        depruning,
        table8,
        table9,
        table10,
        table11,
        polling,
        interop,
        warmup,
        dequant,
    ];
    let rows: Vec<Row> = experiments.iter().flat_map(|run| run().rows).collect();
    let doc = paper::render(&rows);
    print!("{}", paper::markdown_table(&doc));
    args.finish(&args.apply(&doc, |_| false));
}
