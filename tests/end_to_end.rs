//! Integration tests: the full SDM stack against the DRAM baseline.

use dlrm::{model_zoo, ComputeModel, DramBackend, InferenceEngine};
use sdm_core::{ModelUpdater, SdmConfig, Shard, UpdateKind};
use sdm_metrics::SimInstant;
use workload::{Query, QueryGenerator, WorkloadConfig};

fn queries(model: &dlrm::ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch,
        user_population: 500,
        ..WorkloadConfig::default()
    };
    QueryGenerator::new(&model.tables, cfg, seed)
        .unwrap()
        .generate(count)
}

#[test]
fn sdm_and_dram_backends_rank_items_identically() {
    let model = model_zoo::tiny(3, 2, 600);
    let config = SdmConfig::for_tests();
    let seed = config.seed;
    let mut sdm = Shard::build(&model, config, 11).unwrap();
    let engine = InferenceEngine::new(model.clone(), ComputeModel::default(), 11).unwrap();
    let mut dram = DramBackend::from_tables(
        model
            .tables
            .iter()
            .map(|d| embedding::EmbeddingTable::generate(d, seed))
            .collect(),
    );

    for q in queries(&model, 10, 3) {
        let sdm_result = sdm.run_query(&q).unwrap();
        let dram_result = engine.execute(&q, &mut dram, SimInstant::EPOCH).unwrap();
        assert_eq!(sdm_result.scores.len(), dram_result.scores.len());
        for (a, b) in sdm_result.scores.iter().zip(&dram_result.scores) {
            assert!((a - b).abs() < 1e-3, "scores diverge: {a} vs {b}");
        }
    }
}

#[test]
fn cache_warms_up_and_serving_gets_faster() {
    let model = model_zoo::tiny(4, 1, 800);
    let mut system = Shard::build(&model, SdmConfig::for_tests(), 5).unwrap();
    let stream = queries(&model, 120, 5);
    let cold = system.run_queries(&stream[..40]).unwrap();
    let warm = system.run_queries(&stream[80..]).unwrap();
    assert!(warm.mean_latency <= cold.mean_latency);
    let stats = system.manager().stats();
    assert!(
        stats.row_cache_hit_rate() > 0.2,
        "hit rate {}",
        stats.row_cache_hit_rate()
    );
    assert!(stats.sm_reads > 0);
    assert!(stats.pooled_ops > 0);
}

#[test]
fn full_update_serves_new_weights_and_survives_warmup() {
    let model = model_zoo::tiny(2, 1, 400);
    let mut system = Shard::build(&model, SdmConfig::for_tests(), 9).unwrap();
    let stream = queries(&model, 30, 9);
    let before = system.run_query(&stream[0]).unwrap();

    let report = ModelUpdater::apply(system.manager_mut(), UpdateKind::Full, 12345).unwrap();
    assert!(report.caches_invalidated);

    // Same query now produces different scores (new embedding snapshot) but
    // the system keeps serving correctly.
    let after = system.run_query(&stream[0]).unwrap();
    assert_eq!(before.scores.len(), after.scores.len());
    assert!(
        before
            .scores
            .iter()
            .zip(&after.scores)
            .any(|(a, b)| (a - b).abs() > 1e-6),
        "scores unchanged after a full model update"
    );
    let rest = system.run_queries(&stream[1..]).unwrap();
    assert_eq!(rest.queries, 29);
}

#[test]
fn nand_and_optane_both_serve_but_optane_is_faster_under_load() {
    let model = model_zoo::tiny(4, 1, 600);
    let stream = queries(&model, 60, 7);
    let mut optane = Shard::build(&model, SdmConfig::for_tests(), 7).unwrap();
    let mut nand = Shard::build(&model, SdmConfig::for_tests().with_nand_flash(), 7).unwrap();
    let optane_report = optane.run_queries(&stream).unwrap();
    let nand_report = nand.run_queries(&stream).unwrap();
    assert!(optane_report.mean_latency < nand_report.mean_latency);
    assert!(optane_report.qps_single_stream > nand_report.qps_single_stream);
}

#[test]
fn interop_parallelism_improves_latency_on_the_sdm_backend() {
    let model = model_zoo::tiny(4, 2, 500);
    let stream = queries(&model, 40, 13);
    let mut seq = Shard::build(&model, SdmConfig::for_tests().with_nand_flash(), 13).unwrap();
    seq.engine_mut().set_mode(dlrm::ExecutionMode::Sequential);
    let mut par = Shard::build(&model, SdmConfig::for_tests().with_nand_flash(), 13).unwrap();
    par.engine_mut()
        .set_mode(dlrm::ExecutionMode::InterOpParallel);
    let seq_report = seq.run_queries(&stream).unwrap();
    let par_report = par.run_queries(&stream).unwrap();
    assert!(par_report.mean_latency < seq_report.mean_latency);
}
