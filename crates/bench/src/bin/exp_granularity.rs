//! Experiment E13 — paper §4.1.1: SGL bit-bucket sub-block reads save ~75% of
//! the bus bandwidth and a few percent of device latency versus 4 KiB block
//! reads.

use scm_device::{ReadCommand, ScmDevice, TechnologyProfile};
use sdm_bench::{bench_sdm_config, build_system, header, identity_picks, pct, queries_for, scaled};
use sdm_core::AccessGranularity;
use sdm_metrics::units::Bytes;

fn main() {
    header("Small-granularity (SGL bit-bucket) reads vs block reads");

    // 1. Device level: one 128 B row read, block vs SGL.
    println!("\nper-read device view (Nand Flash, 128B row):");
    let mut dev_block =
        ScmDevice::new("nand", TechnologyProfile::nand_flash(), Bytes::from_mib(16)).unwrap();
    let mut dev_sgl =
        ScmDevice::new("nand", TechnologyProfile::nand_flash(), Bytes::from_mib(16)).unwrap();
    let block = dev_block.read(&ReadCommand::block(8192, 128), 4).unwrap();
    let sgl = dev_sgl.read(&ReadCommand::sgl(8192, 128), 4).unwrap();
    println!(
        "  block read: {} over the bus, device latency {}",
        block.bus_bytes, block.device_latency
    );
    println!(
        "  SGL read:   {} over the bus, device latency {}",
        sgl.bus_bytes, sgl.device_latency
    );
    println!(
        "  bus saving {}  device-latency saving {}",
        pct(1.0 - sgl.bus_bytes.as_u64() as f64 / block.bus_bytes.as_u64() as f64),
        pct(1.0 - sgl.device_latency.as_micros_f64() / block.device_latency.as_micros_f64())
    );

    // 2. Stack level: the same M1 workload served with each granularity.
    println!("\nfull-stack view (M1 scaled, Nand Flash):");
    let model = scaled(&dlrm::model_zoo::m1());
    let queries = queries_for(&model, 60, 13);
    let mut rows = Vec::new();
    for (label, granularity) in [
        ("block (4KiB) reads", AccessGranularity::Block),
        ("SGL bit-bucket reads", AccessGranularity::Sgl),
    ] {
        let config = bench_sdm_config()
            .with_nand_flash()
            .with_granularity(granularity);
        let mut host = build_system(&model, config);
        let _ = host
            .run_selected_batch(&queries, &identity_picks(&queries))
            .expect("run failed");
        let stats = host.shard(0).manager().stats();
        let io_per_read = stats.io_time / stats.sm_reads.max(1);
        println!(
            "  {label:<22} bus bytes/row = {:>6.1}  read amplification = {:>6.2}  SM IO time/row = {}",
            stats.sm_bus_bytes.as_u64() as f64 / stats.sm_reads.max(1) as f64,
            stats.read_amplification(),
            io_per_read
        );
        rows.push((stats.sm_bus_bytes, io_per_read));
    }
    let bus_saving = 1.0 - rows[1].0.as_u64() as f64 / rows[0].0.as_u64().max(1) as f64;
    let io_saving = 1.0 - rows[1].1.as_micros_f64() / rows[0].1.as_micros_f64().max(1e-9);
    println!("\n  bus bandwidth saved by SGL: {}", pct(bus_saving));
    println!("  SM IO time per row saved:   {}", pct(io_saving));
    println!("\nPaper: ~75% bus saving, 3-5% latency saving per read (more at the application");
    println!("level because the extra block-to-row memcpy disappears).");
}
