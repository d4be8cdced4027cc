//! Integration tests: workload statistics feed the cache correctly, and the
//! cluster arithmetic matches the paper's headline numbers.

use cluster::multi_tenancy::fleet_power_ratio;
use cluster::sizing::{size_ssds, SizingInputs};
use cluster::{ScenarioComparison, ServingScenario};
use dlrm::{analysis, model_zoo};
use sdm_core::{SdmConfig, Shard};
use sdm_metrics::units::Watts;
use workload::{AccessTrace, QueryGenerator, RoutingPolicy, Scheduler, WorkloadConfig};

#[test]
fn skewed_tables_get_higher_cache_hit_rates() {
    let mut model = model_zoo::tiny(2, 0, 3_000);
    model.tables[0].zipf_exponent = 0.05;
    model.tables[1].zipf_exponent = 1.1;
    let cfg = WorkloadConfig {
        item_batch: 1,
        user_population: 5_000,
        user_zipf_exponent: 0.3,
        inference_eval: false,
    };
    let queries = QueryGenerator::new(&model.tables, cfg, 5)
        .unwrap()
        .generate(400);
    let mut system = Shard::build(&model, SdmConfig::for_tests(), 5).unwrap();
    system.run_queries(&queries).unwrap();

    // Reconstruct per-table hit behaviour from the trace: the skewed table
    // re-references rows far more often, so the overall hit rate must be
    // dominated by it.
    let trace = AccessTrace::from_queries(&queries);
    let unique = |t: u32| {
        let a = trace.table_accesses(t);
        let u: std::collections::HashSet<u64> = a.iter().copied().collect();
        u.len() as f64 / a.len() as f64
    };
    assert!(
        unique(1) < unique(0),
        "skewed table should re-reference more"
    );
    assert!(system.manager().stats().row_cache_hit_rate() > 0.1);
}

#[test]
fn sticky_routing_gives_each_host_a_repeating_user_population() {
    let model = model_zoo::tiny(2, 1, 2_000);
    let cfg = WorkloadConfig {
        item_batch: 4,
        user_population: 400,
        user_zipf_exponent: 0.9,
        inference_eval: false,
    };
    let queries = QueryGenerator::new(&model.tables, cfg, 6)
        .unwrap()
        .generate(600);
    let mut sticky = Scheduler::new(8, RoutingPolicy::UserSticky);
    let parts = sticky.partition(&queries);
    // Every user's queries land on exactly one host.
    let mut seen: std::collections::HashMap<u64, usize> = Default::default();
    for (host, part) in parts.iter().enumerate() {
        for q in part {
            if let Some(&h) = seen.get(&q.user_id) {
                assert_eq!(h, host);
            }
            seen.insert(q.user_id, host);
        }
    }
    // And the per-host traces cover all lookups.
    let total: u64 = queries.iter().map(|q| q.total_lookups() as u64).sum();
    let mut sched = Scheduler::new(8, RoutingPolicy::UserSticky);
    let sum: u64 = sched
        .per_host_traces(&queries)
        .iter()
        .map(|t| t.len())
        .sum();
    assert_eq!(total, sum);
}

#[test]
fn paper_headline_numbers_from_cluster_arithmetic() {
    // Table 8: 20% saving.
    let t8 = ScenarioComparison {
        total_qps: 240.0 * 1200.0,
        scenarios: vec![
            ServingScenario::new("HW-L", 240.0, Watts(1.0)),
            ServingScenario::new("HW-SS + SDM", 120.0, Watts(0.4)),
        ],
    };
    assert!((t8.power_saving(1).unwrap() - 0.20).abs() < 1e-9);

    // Table 9: ~5% saving for Optane SDM over scale-out.
    let t9 = ScenarioComparison {
        total_qps: 450.0 * 1500.0,
        scenarios: vec![
            ServingScenario::new("HW-AN + ScaleOut", 450.0, Watts(1.05)).with_auxiliary_hosts(0.2),
            ServingScenario::new("HW-AO + SDM", 450.0, Watts(1.0)),
        ],
    };
    let saving = t9.power_saving(1).unwrap();
    assert!((0.03..0.08).contains(&saving));

    // Table 10: 9-10 Optane SSDs for M3.
    let sizing = size_ssds(SizingInputs {
        qps: 3150.0,
        user_tables: 2000,
        avg_pooling_factor: 30.0,
        cache_hit_rate: 0.8,
        iops_per_ssd: 4.0e6,
    })
    .unwrap();
    assert!(sizing.ssds_needed >= 9 && sizing.ssds_needed <= 10);

    // Table 11: ~29% fleet power saving from multi-tenancy.
    let ratio = fleet_power_ratio(0.63, 1.0, 0.90, 1.01).unwrap();
    assert!((1.0 - ratio - 0.29).abs() < 0.02);
}

#[test]
fn equation_8_iops_matches_direct_counting() {
    let model = model_zoo::tiny(3, 1, 1_000);
    let cfg = WorkloadConfig {
        item_batch: model.item_batch,
        user_population: 100,
        ..WorkloadConfig::default()
    };
    let queries = QueryGenerator::new(&model.tables, cfg, 8)
        .unwrap()
        .generate(50);
    let user_ids: std::collections::HashSet<u32> =
        model.user_tables().iter().map(|t| t.id).collect();
    let counted: u64 = queries
        .iter()
        .flat_map(|q| q.user_requests.iter())
        .filter(|r| user_ids.contains(&r.table))
        .map(|r| r.indices.len() as u64)
        .sum();
    let predicted =
        analysis::iops_requirement(model.user_tables().iter().copied(), 50.0, model.item_batch);
    // The workload uses per-table pooling factors exactly, so counting over
    // 50 queries equals the Equation-8 prediction for 50 QPS over 1 second.
    assert_eq!(counted as f64, predicted);
}
