//! Experiment E6 — paper Figure 6: cache organisation and DRAM-budget
//! placement choices, evaluated on an InferenceEval-style workload on Nand
//! Flash (the configuration most sensitive to these choices).

use sdm_bench::{bench_sdm_config, build_system, header, identity_picks, scaled, EXPERIMENT_SEED};
use sdm_core::PlacementPolicy;
use sdm_metrics::units::Bytes;
use workload::{Query, QueryGenerator, WorkloadConfig};

fn eval_queries(model: &dlrm::ModelConfig, count: usize) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: 4,
        user_population: 20_000,
        user_zipf_exponent: 0.7,
        inference_eval: true,
    };
    QueryGenerator::new(&model.tables, cfg, EXPERIMENT_SEED)
        .expect("workload")
        .generate(count)
}

fn run(label: &str, model: &dlrm::ModelConfig, config: sdm_core::SdmConfig, queries: &[Query]) {
    let mut host = build_system(model, config);
    let all = identity_picks(queries);
    let _ = host
        .run_selected_batch(queries, &all[..30])
        .expect("warmup failed");
    let report = host
        .run_selected_batch(queries, &all[30..])
        .expect("run failed");
    let stats = host.shard(0).manager().stats();
    println!(
        "  {label:<38} qps={:>8.1}  p95={:>10}  row-cache hit={:>6.1}%  SM reads={}",
        1.0 / report.mean_latency.as_secs_f64(),
        report.p95_latency.to_string(),
        stats.row_cache_hit_rate() * 100.0,
        stats.sm_reads,
    );
}

fn main() {
    header("Figure 6: cache organisation and direct-DRAM placement (InferenceEval)");
    let model = scaled(&dlrm::model_zoo::m2());
    let queries = eval_queries(&model, 90);

    println!("\ncache engine choice (same total FM budget, Nand Flash SM):");
    let base = || {
        let mut c = bench_sdm_config().with_nand_flash();
        c.cache = sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(1));
        c
    };
    let mut memory_only = base();
    memory_only.cache.memory_optimized_fraction = 1.0;
    memory_only.cache.small_row_threshold = 100_000;
    run(
        "memory-optimized engine only",
        &model,
        memory_only,
        &queries,
    );

    let mut cpu_only = base();
    cpu_only.cache.memory_optimized_fraction = 0.0;
    cpu_only.cache.small_row_threshold = 0;
    run("CPU-optimized engine only", &model, cpu_only, &queries);

    let mut dual = base();
    dual.cache.memory_optimized_fraction = 0.8;
    run("dual cache (paper choice)", &model, dual, &queries);

    println!("\ndirect DRAM placement budget (rest of user tables on SM + cache):");
    let user_capacity = model.user_capacity();
    for share in [0.0f64, 0.25, 0.5] {
        let budget = Bytes((user_capacity.as_u64() as f64 * share) as u64);
        let config = base().with_placement(if share == 0.0 {
            PlacementPolicy::SmOnlyWithCache
        } else {
            PlacementPolicy::FixedFmThenSm {
                dram_budget: budget,
            }
        });
        run(
            &format!("DRAM budget = {:>4.0}% of user capacity", share * 100.0),
            &model,
            config,
            &queries,
        );
    }
    println!("\nExpected shape: the dual cache tracks the better engine; more direct DRAM");
    println!("placement removes SM reads and raises QPS for the InferenceEval use case.");
}
