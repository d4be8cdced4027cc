//! Experiment E17 — paper §A.2: inter-op parallelism overlaps user-side SM
//! reads with item-side work and cuts M1's latency (and raises QPS) by ~20%.

use dlrm::ExecutionMode;
use sdm_bench::{bench_sdm_config, build_system, header, identity_picks, pct, queries_for, scaled};

fn main() {
    header("Inter-op parallelism: sequential vs overlapped embedding operators");
    let model = scaled(&dlrm::model_zoo::m1());
    let queries = queries_for(&model, 120, 17);
    let all = identity_picks(&queries);

    let mut results = Vec::new();
    for (label, mode) in [
        ("sequential operators", ExecutionMode::Sequential),
        ("inter-op parallel", ExecutionMode::InterOpParallel),
    ] {
        let mut host = build_system(&model, bench_sdm_config().with_nand_flash());
        host.shard_mut(0).engine_mut().set_mode(mode);
        let _ = host.run_selected_batch(&queries, &all[..40]).unwrap();
        let report = host.run_selected_batch(&queries, &all[40..]).unwrap();
        println!(
            "  {label:<22} mean latency = {:>10}   qps/stream = {:>8.1}",
            report.mean_latency.to_string(),
            1.0 / report.mean_latency.as_secs_f64()
        );
        results.push(report);
    }
    let latency_saving =
        1.0 - results[1].mean_latency.as_micros_f64() / results[0].mean_latency.as_micros_f64();
    let qps = |i: usize| 1.0 / results[i].mean_latency.as_secs_f64();
    let qps_gain = qps(1) / qps(0) - 1.0;
    println!(
        "\n  latency reduction from inter-op parallelism: {}",
        pct(latency_saving)
    );
    println!(
        "  QPS gain at the same latency target:          {}",
        pct(qps_gain)
    );
    println!("\nPaper §A.2: ~20% latency reduction, ~20% more QPS per host for M1.");
}
