//! Integration tests: the full SDM stack against the DRAM baseline.

pub mod common;

use common::{identity_picks, single_stream, Stream};
use dlrm::{model_zoo, ComputeModel, DramBackend, InferenceEngine, PoolingBuffers, QueryResult};
use sdm_core::{ModelUpdater, SdmConfig, UpdateKind};
use sdm_metrics::SimInstant;
use workload::Query;

fn queries(model: &dlrm::ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let shape = Stream {
        users: 500,
        item_cap: u32::MAX,
        skew: None,
    };
    common::stream(model, shape, count, seed)
}

#[test]
fn sdm_and_dram_backends_rank_items_identically() {
    let model = model_zoo::tiny(3, 2, 600);
    let config = SdmConfig::for_tests();
    let seed = config.seed;
    let mut sdm = single_stream(&model, &config, 11);
    let engine = InferenceEngine::new(model.clone(), ComputeModel::default(), 11).unwrap();
    let mut dram = DramBackend::from_tables(
        model
            .tables
            .iter()
            .map(|d| embedding::EmbeddingTable::generate(d, seed))
            .collect(),
    );

    let stream = queries(&model, 10, 3);
    sdm.run_selected_batch(&stream, &identity_picks(&stream))
        .unwrap();
    let (mut buffers, mut dram_result) = (PoolingBuffers::new(), QueryResult::default());
    for (i, q) in stream.iter().enumerate() {
        engine
            .execute_into(
                q,
                &mut dram,
                SimInstant::EPOCH,
                &mut buffers,
                &mut dram_result,
            )
            .unwrap();
        assert_eq!(sdm.scores(i).len(), dram_result.scores.len());
        for (a, b) in sdm.scores(i).iter().zip(&dram_result.scores) {
            assert!((a - b).abs() < 1e-3, "scores diverge: {a} vs {b}");
        }
    }
}

#[test]
fn cache_warms_up_and_serving_gets_faster() {
    let model = model_zoo::tiny(4, 1, 800);
    let mut system = single_stream(&model, &SdmConfig::for_tests(), 5);
    let stream = queries(&model, 120, 5);
    let all = identity_picks(&stream);
    let cold = system.run_selected_batch(&stream, &all[..40]).unwrap();
    let warm = system.run_selected_batch(&stream, &all[80..]).unwrap();
    assert!(warm.mean_latency <= cold.mean_latency);
    let stats = system.shard(0).manager().stats();
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
    let mut system = single_stream(&model, &SdmConfig::for_tests(), 9);
    let stream = queries(&model, 30, 9);
    let all = identity_picks(&stream);
    system.run_selected_batch(&stream, &all[..1]).unwrap();
    let before = system.scores(0).to_vec();

    let manager = system.shard_mut(0).manager_mut();
    let report = ModelUpdater::apply(manager, UpdateKind::Full, 12345).unwrap();
    assert!(report.caches_invalidated);

    // Same query now produces different scores (new embedding snapshot) but
    // the system keeps serving correctly.
    system.run_selected_batch(&stream, &all[..1]).unwrap();
    let after = system.scores(0);
    assert_eq!(before.len(), after.len());
    assert!(
        before.iter().zip(after).any(|(a, b)| (a - b).abs() > 1e-6),
        "scores unchanged after a full model update"
    );
    let rest = system.run_selected_batch(&stream, &all[1..]).unwrap();
    assert_eq!(rest.queries, 29);
}

#[test]
fn nand_and_optane_both_serve_but_optane_is_faster_under_load() {
    let model = model_zoo::tiny(4, 1, 600);
    let stream = queries(&model, 60, 7);
    let all = identity_picks(&stream);
    let mut optane = single_stream(&model, &SdmConfig::for_tests(), 7);
    let mut nand = single_stream(&model, &SdmConfig::for_tests().with_nand_flash(), 7);
    let optane_report = optane.run_selected_batch(&stream, &all).unwrap();
    let nand_report = nand.run_selected_batch(&stream, &all).unwrap();
    assert!(optane_report.mean_latency < nand_report.mean_latency);
    let qps = |mean: sdm_metrics::SimDuration| 1.0 / mean.as_secs_f64();
    assert!(qps(optane_report.mean_latency) > qps(nand_report.mean_latency));
}

#[test]
fn interop_parallelism_improves_latency_on_the_sdm_backend() {
    let model = model_zoo::tiny(4, 2, 500);
    let stream = queries(&model, 40, 13);
    let all = identity_picks(&stream);
    let config = SdmConfig::for_tests().with_nand_flash();
    let mut seq = single_stream(&model, &config, 13);
    seq.shard_mut(0)
        .engine_mut()
        .set_mode(dlrm::ExecutionMode::Sequential);
    let mut par = single_stream(&model, &config, 13);
    par.shard_mut(0)
        .engine_mut()
        .set_mode(dlrm::ExecutionMode::InterOpParallel);
    let seq_report = seq.run_selected_batch(&stream, &all).unwrap();
    let par_report = par.run_selected_batch(&stream, &all).unwrap();
    assert!(par_report.mean_latency < seq_report.mean_latency);
}
