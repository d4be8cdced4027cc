//! The paper's §5.1 scenario in miniature: serve model M1 from Nand Flash
//! on a small host, watch the cache reach its steady-state hit rate, apply a
//! model update and watch serving resume on a re-read cache.
//!
//! Run with: `cargo run --release --example serve_m1_on_nand`

use dlrm::model_zoo;
use sdm_core::{ModelUpdater, SdmConfig, Shard, UpdateKind};
use sdm_metrics::units::Bytes;
use workload::{QueryGenerator, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // M1 scaled down so it materialises in milliseconds; the table mix,
    // pooling factors and skew are preserved.
    let model = model_zoo::scaled_model(&model_zoo::m1(), 200_000, 40.0);
    let mut config = SdmConfig::default().with_nand_flash();
    config.device_capacity = Bytes::from_mib(256);
    config.cache = sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(16));
    config.fm_budget = Bytes::from_mib(32);
    let mut system = Shard::build(&model, config, 7)?;

    let workload = WorkloadConfig {
        item_batch: 16,
        user_population: 3_000,
        user_zipf_exponent: 0.9,
        inference_eval: false,
    };
    let mut generator = QueryGenerator::new(&model.tables, workload, 7)?;

    println!("serving M1 (scaled) from Nand Flash; watching the cache warm up:");
    for round in 0..6 {
        let queries = generator.generate(50);
        let report = system.run_queries(&queries)?;
        println!(
            "  round {round}: p95 = {:>10}, row-cache hit rate so far = {:.1}%",
            report.p95_latency,
            system.manager().stats().row_cache_hit_rate() * 100.0
        );
    }

    println!("\napplying a full model update (new embedding snapshot)...");
    let update = ModelUpdater::apply(system.manager_mut(), UpdateKind::Full, 99)?;
    println!(
        "  wrote {} to SM in {}, min update interval at rated endurance: {:.4} days",
        update.bytes_written, update.write_time, update.min_update_interval_days
    );
    println!(
        "  re-read the {} rows the cache held from the new image in {}",
        update.rows_rewarmed, update.rewarm_time
    );

    println!("\npost-update rounds (the first carries the update window):");
    for round in 0..4 {
        let queries = generator.generate(50);
        let report = system.run_queries(&queries)?;
        println!(
            "  round {round}: p95 = {:>10}, makespan = {:>10}",
            report.p95_latency, report.makespan
        );
    }
    println!(
        "\nfinal stats: {:?}",
        system.manager().stats().sm_op_latency
    );
    Ok(())
}
