//! Experiment E19 — paper §A.5: de-quantising tables at load time trades
//! cheap SM capacity for dequantisation CPU, but shrinks the effective FM
//! cache (fewer, larger rows), which usually loses.

use sdm_bench::{build_system, header, identity_picks, pct, EXPERIMENT_SEED};
use sdm_core::{LoadTransform, SdmConfig};
use sdm_metrics::units::Bytes;
use workload::{QueryGenerator, WorkloadConfig};

fn main() {
    header("De-quantisation at load time: int8 rows vs f32 rows on SM");
    // A model with enough rows per table that the cache budget is the
    // binding constraint (the regime the paper discusses).
    let mut model = dlrm::model_zoo::tiny(16, 2, 30_000);
    for t in &mut model.tables {
        t.zipf_exponent = 0.9;
    }
    let workload = WorkloadConfig {
        item_batch: 8,
        user_population: 20_000,
        user_zipf_exponent: 0.6,
        inference_eval: false,
    };
    let queries = QueryGenerator::new(&model.tables, workload, 19)
        .unwrap()
        .generate(300);
    let all = identity_picks(&queries);

    let mut results = Vec::new();
    for (label, dequantize) in [
        ("int8 rows on SM (baseline)", false),
        ("f32 rows on SM (de-quantised)", true),
    ] {
        let mut config = SdmConfig::default()
            .with_nand_flash()
            .with_transform(LoadTransform {
                deprune: false,
                dequantize,
            });
        config.device_capacity = Bytes::from_mib(256);
        config.fm_budget = Bytes::from_mib(8);
        config.cache = sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(1));
        config.seed = EXPERIMENT_SEED;
        let mut host = build_system(&model, config);
        let _ = host.run_selected_batch(&queries, &all[..100]).unwrap();
        let report = host.run_selected_batch(&queries, &all[100..]).unwrap();
        let qps = 1.0 / report.mean_latency.as_secs_f64();
        let manager = host.shard(0).manager();
        let stats = manager.stats();
        println!(
            "  {label:<32} SM image={:>10}  cache hit rate={:>6}  pooling time={:>10}  qps={:>8.1}",
            manager.loaded().sm_written_bytes,
            pct(stats.row_cache_hit_rate()),
            stats.pooling_time.to_string(),
            qps
        );
        results.push((stats.row_cache_hit_rate(), qps));
    }
    println!(
        "\n  cache hit rate change from de-quantising: {:+.1} points",
        (results[1].0 - results[0].0) * 100.0
    );
    println!("  QPS change: {}", pct(results[1].1 / results[0].1 - 1.0));
    println!("\nPaper: de-quantisation only helps very CPU-bound cases; the cache-efficiency");
    println!("loss dominates for most models, which is why the pooled-embedding cache is the");
    println!("preferred way to skip dequantisation work.");
}
