//! Experiment E10 — paper Table 9: M2 on an accelerator platform — SDM with
//! Optane avoids scale-out and saves ~5% power; Nand Flash cannot sustain
//! the accelerated QPS because its loaded latency forces heavy
//! under-utilisation.

use cluster::{ScenarioComparison, ServingScenario};
use dlrm::ComputeModel;
use scm_device::TechnologyProfile;
use sdm_bench::{bench_sdm_config, header, pct, queries_for, scaled, EXPERIMENT_SEED};
use sdm_core::Shard;
use sdm_metrics::units::Watts;
use sdm_metrics::SimDuration;

fn main() {
    header("Table 9: M2 — scale-out vs SDM on Nand vs SDM on Optane");
    let paper_model = dlrm::model_zoo::m2();
    let model = scaled(&paper_model);
    let queries = queries_for(&model, 40, 92);

    // 1. Measure the steady-state cache hit rate on the simulated stack.
    let mut system =
        Shard::build(&model, bench_sdm_config(), EXPERIMENT_SEED).expect("system build failed");
    system
        .set_compute(ComputeModel::accelerator(), EXPERIMENT_SEED)
        .expect("compute model rejected");
    let _ = system.run_queries(&queries[..20]).unwrap();
    system.manager_mut().invalidate_caches();
    let _ = system.run_queries(&queries[20..]).unwrap();
    let hit_rate = system.manager().stats().row_cache_hit_rate();
    println!(
        "\nmeasured steady-state SM cache hit rate: {}",
        pct(hit_rate)
    );

    // 2. Roofline the sustainable QPS per technology at paper scale:
    //    lookups that reach SM per query = user tables × avg PF × miss rate;
    //    the devices must serve them while staying near their unloaded
    //    latency, otherwise the user-embedding phase leaks into the critical
    //    path (Equation 3).
    let user_tables = paper_model.user_tables();
    let avg_pf = user_tables
        .iter()
        .map(|t| t.pooling_factor as f64)
        .sum::<f64>()
        / user_tables.len() as f64;
    let sm_lookups_per_query = user_tables.len() as f64 * avg_pf * (1.0 - hit_rate);
    let accelerator_qps = 450.0;
    let latency_budget = SimDuration::from_micros(110);
    println!(
        "SM lookups per query at paper scale: {:.0} ({} tables x PF {:.0} x miss {:.0}%)",
        sm_lookups_per_query,
        user_tables.len(),
        avg_pf,
        (1.0 - hit_rate) * 100.0
    );
    println!("per-IO latency budget to keep the user phase hidden: {latency_budget}");

    let mut measured_nand_ratio = 1.0;
    println!("\n  technology      usable IOPS (2 SSDs)   QPS bound by SM   QPS served (cap {accelerator_qps})");
    for (name, profile) in [
        ("Nand Flash", TechnologyProfile::nand_flash()),
        ("Optane SSD", TechnologyProfile::optane_ssd()),
    ] {
        let device =
            scm_device::ScmDevice::new(name, profile, sdm_metrics::units::Bytes::from_gib(1))
                .expect("device");
        let usable = 2.0 * device.iops_at_latency_target(latency_budget);
        let qps_bound = usable / sm_lookups_per_query.max(1.0);
        let served = qps_bound.min(accelerator_qps);
        println!(
            "  {name:<14} {:>18.2}M   {:>15.0}   {:>12.0}",
            usable / 1e6,
            qps_bound,
            served
        );
        if name == "Nand Flash" {
            measured_nand_ratio = (served / accelerator_qps).clamp(0.05, 1.0);
        }
    }
    println!(
        "  Nand/Optane served-QPS ratio = {:.2} (paper: 230/450 = 0.51)",
        measured_nand_ratio
    );

    // 3. Fleet arithmetic (Table 9).
    let total_qps = accelerator_qps * 1500.0;
    let comparison = ScenarioComparison {
        total_qps,
        scenarios: vec![
            ServingScenario::new("HW-AN + ScaleOut", accelerator_qps, Watts(1.05))
                .with_auxiliary_hosts(0.2),
            ServingScenario::new(
                "HW-AN + SDM",
                accelerator_qps * measured_nand_ratio,
                Watts(1.4 * measured_nand_ratio / (230.0 / 450.0)),
            ),
            ServingScenario::new("HW-AO + SDM", accelerator_qps, Watts(1.0)),
        ],
    };
    println!("\nfleet arithmetic:");
    println!("  scenario             QPS/host  power/host  total hosts  total power (norm)");
    for row in comparison.evaluate().unwrap() {
        println!(
            "  {:<19} {:>9.0}  {:>10.2}  {:>11}  {:>14.2}",
            row.name,
            row.qps_per_host,
            row.normalized_host_power,
            row.total_hosts,
            row.normalized_total_power
        );
    }
    println!(
        "  power saving of HW-AO + SDM over scale-out: {} (paper: 5%)",
        pct(comparison.power_saving(2).unwrap())
    );
    println!(
        "  HW-AN + SDM needs considerably more power than either (paper: 2978 vs 1575 hosts)."
    );
}
