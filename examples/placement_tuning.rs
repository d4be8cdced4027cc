//! Deployment-time auto-tuning in the spirit of the paper's "Tuning API":
//! sweep placement policies and cache splits for a model and report which
//! configuration serves it best.
//!
//! Run with: `cargo run --release --example placement_tuning`

use dlrm::model_zoo;
use sdm_core::{PlacementPolicy, SdmConfig, Shard};
use sdm_metrics::units::Bytes;
use workload::{QueryGenerator, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = model_zoo::scaled_model(&model_zoo::m2(), 200_000, 40.0);
    let workload = WorkloadConfig {
        item_batch: 8,
        user_population: 3_000,
        ..WorkloadConfig::default()
    };
    let mut generator = QueryGenerator::new(&model.tables, workload, 21)?;
    let queries = generator.generate(120);

    let budgets = [
        Bytes::ZERO,
        model.user_capacity() / 4,
        model.user_capacity() / 2,
    ];
    let mut best: Option<(String, f64)> = None;
    println!(
        "candidate configurations for {} ({} tables):",
        model.name,
        model.tables.len()
    );
    for (policy_name, policy) in [
        ("SM only + cache", PlacementPolicy::SmOnlyWithCache),
        (
            "fixed FM (25%) + SM",
            PlacementPolicy::FixedFmThenSm {
                dram_budget: budgets[1],
            },
        ),
        (
            "fixed FM (50%) + SM",
            PlacementPolicy::FixedFmThenSm {
                dram_budget: budgets[2],
            },
        ),
        (
            "per-table cache enablement",
            PlacementPolicy::PerTableCacheEnablement {
                min_zipf_exponent: 0.8,
            },
        ),
    ] {
        for cache_mib in [4u64, 16] {
            let mut config = SdmConfig::default().with_placement(policy.clone());
            config.device_capacity = Bytes::from_mib(256);
            config.fm_budget = Bytes::from_mib(64);
            config.cache = sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(cache_mib));
            let mut system = Shard::build(&model, config, 21)?;
            let _ = system.run_queries(&queries[..40])?;
            let report = system.run_queries(&queries[40..])?;
            let label = format!("{policy_name}, {cache_mib} MiB cache");
            println!(
                "  {label:<42} qps={:>8.1}  p95={:>10}  hit rate={:>5.1}%",
                report.qps_single_stream,
                report.p95_latency,
                system.manager().stats().row_cache_hit_rate() * 100.0
            );
            if best
                .as_ref()
                .map(|(_, q)| report.qps_single_stream > *q)
                .unwrap_or(true)
            {
                best = Some((label, report.qps_single_stream));
            }
        }
    }
    let (label, qps) = best.expect("at least one configuration evaluated");
    println!("\nbest configuration: {label} at {qps:.1} QPS/stream");
    Ok(())
}
