//! Quickstart: build a small DLRM model, put its user embeddings on
//! simulated slow memory behind the SDM stack, and serve a few queries.
//!
//! Run with: `cargo run --example quickstart`

use dlrm::model_zoo;
use sdm_core::{SdmConfig, Shard};
use workload::{QueryGenerator, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small model: 4 user tables + 2 item tables, 2000 rows each.
    let model = model_zoo::tiny(4, 2, 2_000);
    println!(
        "model `{}`: {} tables, {} of embeddings",
        model.name,
        model.tables.len(),
        model.embedding_capacity()
    );

    // Default SDM deployment: user tables on 2 simulated Optane SSDs, item
    // tables in fast memory, dual row cache + pooled-embedding cache in
    // front.
    let mut system = Shard::build(&model, SdmConfig::default(), 42)?;

    // Generate a query stream and serve it.
    let workload = WorkloadConfig {
        item_batch: model.item_batch,
        user_population: 1_000,
        ..WorkloadConfig::default()
    };
    let mut generator = QueryGenerator::new(&model.tables, workload, 42)?;
    let queries = generator.generate(200);
    let report = system.run_queries(&queries)?;

    println!("\nserved {} queries", report.queries);
    println!("  mean latency  : {}", report.mean_latency);
    println!("  p95 latency   : {}", report.p95_latency);
    println!("  p99 latency   : {}", report.p99_latency);
    println!("  single-stream QPS: {:.1}", report.qps_single_stream);

    let stats = system.manager().stats();
    println!("\nSDM memory manager:");
    println!(
        "  row-cache hit rate    : {:.1}%",
        stats.row_cache_hit_rate() * 100.0
    );
    println!(
        "  pooled-cache hit rate : {:.1}%",
        stats.pooled_cache_hit_rate() * 100.0
    );
    println!("  reads that went to SM : {}", stats.sm_reads);
    println!(
        "  SM read amplification : {:.2}x",
        stats.read_amplification()
    );
    println!(
        "  device IOs issued     : {}",
        system.manager().io_engine().stats().submitted
    );
    Ok(())
}
