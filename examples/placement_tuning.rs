//! Deployment-time auto-tuning in the spirit of the paper's "Tuning API":
//! sweep placement policies and cache splits for a model and report which
//! configuration serves it best.
//!
//! Run with: `cargo run --release --example placement_tuning`

use dlrm::model_zoo;
use sdm_core::{PlacementPolicy, SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use workload::{QueryGenerator, RoutingPolicy, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = model_zoo::scaled_model(&model_zoo::m2(), 200_000, 40.0);
    let workload = WorkloadConfig {
        item_batch: 8,
        user_population: 3_000,
        ..WorkloadConfig::default()
    };
    let mut generator = QueryGenerator::new(&model.tables, workload, 21)?;
    let queries = generator.generate(120);
    let all: Vec<usize> = (0..queries.len()).collect();

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
            let mut config = SdmConfig {
                placement: policy.clone(),
                ..SdmConfig::default()
            };
            config.device_capacity = Bytes::from_mib(256);
            config.fm_budget = Bytes::from_mib(64);
            config.cache = sdm_cache::CacheConfig::with_total_budget(Bytes::from_mib(cache_mib));
            let mut host = ServingHost::build(&model, &config, 21, 1, RoutingPolicy::UserSticky)?;
            let _ = host.run_selected_batch(&queries, &all[..40])?;
            let report = host.run_selected_batch(&queries, &all[40..])?;
            let qps = 1.0 / report.mean_latency.as_secs_f64();
            let label = format!("{policy_name}, {cache_mib} MiB cache");
            println!(
                "  {label:<42} qps={:>8.1}  p95={:>10}  hit rate={:>5.1}%",
                qps,
                report.p95_latency,
                host.shard(0).manager().stats().row_cache_hit_rate() * 100.0
            );
            if best.as_ref().map(|(_, q)| qps > *q).unwrap_or(true) {
                best = Some((label, qps));
            }
        }
    }
    let (label, qps) = best.expect("at least one configuration evaluated");
    println!("\nbest configuration: {label} at {qps:.1} QPS/stream");
    Ok(())
}
