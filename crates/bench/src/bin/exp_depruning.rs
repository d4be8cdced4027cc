//! Experiment E15 — paper §4.5: de-pruning at load time frees the mapping
//! tensors' fast memory for the cache at the cost of a few percent more SM
//! requests; the paper measures ~2.5% extra requests and up to 48% higher
//! performance when the workload is bounded by SM-resident user embeddings.

use sdm_bench::{bench_sdm_config, build_system, header, identity_picks, pct, queries_for, scaled};
use sdm_core::LoadTransform;
use sdm_metrics::units::Bytes;

fn main() {
    header("De-pruning at load time: mapping tensors in FM vs full tables on SM");
    let mut model = scaled(&dlrm::model_zoo::m2());
    for t in &mut model.tables {
        if t.kind == embedding::TableKind::User {
            t.pruned_fraction = 0.05;
        }
    }
    let queries = queries_for(&model, 120, 15);
    let all = identity_picks(&queries);

    let run = |label: &str, deprune: bool, cache_budget: Bytes| {
        let mut config = bench_sdm_config()
            .with_nand_flash()
            .with_transform(LoadTransform {
                deprune,
                dequantize: false,
            });
        config.cache = sdm_cache::CacheConfig::with_total_budget(cache_budget);
        let mut host = build_system(&model, config);
        let _ = host.run_selected_batch(&queries, &all[..40]).unwrap();
        let report = host.run_selected_batch(&queries, &all[40..]).unwrap();
        let qps = 1.0 / report.mean_latency.as_secs_f64();
        let manager = host.shard(0).manager();
        let stats = manager.stats();
        println!(
            "  {label:<44} SM reads={:>7}  total SM requests={:>7}  hit rate={:>6}  qps={:>8.1}  mapping FM={}",
            stats.sm_reads,
            stats.sm_reads + stats.row_cache_hits,
            pct(stats.row_cache_hit_rate()),
            qps,
            manager.loaded().fm_mapping_bytes
        );
        (stats.sm_reads + stats.row_cache_hits, qps)
    };

    // Without de-pruning the mapping tensors live in FM; give the cache the
    // FM that remains. With de-pruning the whole budget goes to the cache.
    let full_budget = Bytes::from_mib(2);
    let mapping_overhead = Bytes::from_kib(256);
    let (base_requests, base_qps) = run(
        "pruned on SM, mapping tensors in FM (small cache)",
        false,
        full_budget.saturating_sub(mapping_overhead),
    );
    let (depruned_requests, depruned_qps) =
        run("de-pruned on SM, full cache budget", true, full_budget);

    let extra_requests = depruned_requests as f64 / base_requests.max(1) as f64 - 1.0;
    let speedup = depruned_qps / base_qps - 1.0;
    println!(
        "\n  extra SM-side requests from de-pruning: {}",
        pct(extra_requests.max(0.0))
    );
    println!(
        "  performance gain from the recovered cache space: {}",
        pct(speedup)
    );
    println!("\nPaper: ~2.5% extra requests, up to 48% gain when bounded by SM user embeddings.");
}
