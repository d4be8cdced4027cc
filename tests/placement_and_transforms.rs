//! Integration tests: placement policies and load-time transformations
//! interact correctly across the embedding, cache, IO and core crates.

use dlrm::model_zoo;
use sdm_core::{LoadTransform, PlacementPolicy, SdmConfig, Shard};
use sdm_metrics::units::Bytes;
use workload::{Query, QueryGenerator, WorkloadConfig};

fn queries(model: &dlrm::ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch,
        user_population: 300,
        ..WorkloadConfig::default()
    };
    QueryGenerator::new(&model.tables, cfg, seed)
        .unwrap()
        .generate(count)
}

#[test]
fn direct_dram_placement_reduces_sm_traffic() {
    let model = model_zoo::tiny(4, 1, 500);
    let stream = queries(&model, 40, 2);

    let mut sm_only = Shard::build(&model, SdmConfig::for_tests(), 2).unwrap();
    let mut half_dram = Shard::build(
        &model,
        SdmConfig::for_tests().with_placement(PlacementPolicy::FixedFmThenSm {
            dram_budget: model.user_capacity() / 2,
        }),
        2,
    )
    .unwrap();
    sm_only.run_queries(&stream).unwrap();
    half_dram.run_queries(&stream).unwrap();
    assert!(
        half_dram.manager().stats().sm_reads < sm_only.manager().stats().sm_reads,
        "direct placement did not reduce SM reads"
    );
    assert!(half_dram.manager().stats().fm_direct_lookups > 0);
}

#[test]
fn per_table_cache_enablement_disables_caching_for_cold_tables() {
    let mut model = model_zoo::tiny(2, 0, 500);
    model.tables[0].zipf_exponent = 0.05; // effectively uniform
    model.tables[1].zipf_exponent = 1.1;
    let stream = queries(&model, 60, 3);
    let mut system = Shard::build(
        &model,
        SdmConfig::for_tests().with_placement(PlacementPolicy::PerTableCacheEnablement {
            min_zipf_exponent: 0.5,
        }),
        3,
    )
    .unwrap();
    system.run_queries(&stream).unwrap();
    // The cold table never populates the cache, so every one of its lookups
    // is an SM read; the hot table still caches.
    assert!(!system.manager().row_cache().table_enabled(0));
    assert!(system.manager().row_cache().table_enabled(1));
    assert!(system.manager().stats().row_cache_hits > 0);
}

#[test]
fn depruning_trades_fm_mapping_space_for_sm_capacity() {
    let mut model = model_zoo::tiny(2, 1, 600);
    for t in &mut model.tables {
        if t.kind == embedding::TableKind::User {
            t.pruned_fraction = 0.3;
        }
    }
    let stream = queries(&model, 30, 4);

    let mut mapped = Shard::build(&model, SdmConfig::for_tests(), 4).unwrap();
    let mut depruned = Shard::build(
        &model,
        SdmConfig::for_tests().with_transform(LoadTransform {
            deprune: true,
            dequantize: false,
        }),
        4,
    )
    .unwrap();

    assert!(mapped.manager().loaded().fm_mapping_bytes > Bytes::ZERO);
    assert_eq!(depruned.manager().loaded().fm_mapping_bytes, Bytes::ZERO);
    assert!(
        depruned.manager().loaded().sm_written_bytes > mapped.manager().loaded().sm_written_bytes
    );

    // Both serve the same queries; the de-pruned variant issues at least as
    // many SM-side requests (pruned rows now exist on SM), the mapped
    // variant resolves them as zero rows in fast memory.
    let mapped_scores = mapped.run_queries(&stream).unwrap();
    let depruned_scores = depruned.run_queries(&stream).unwrap();
    assert_eq!(mapped_scores.queries, depruned_scores.queries);
    assert!(mapped.manager().stats().pruned_zero_rows > 0);
    assert_eq!(depruned.manager().stats().pruned_zero_rows, 0);
    let mapped_requests =
        mapped.manager().stats().sm_reads + mapped.manager().stats().row_cache_hits;
    let depruned_requests =
        depruned.manager().stats().sm_reads + depruned.manager().stats().row_cache_hits;
    assert!(depruned_requests >= mapped_requests);
}

#[test]
fn dequantization_at_load_grows_the_sm_image_and_preserves_results() {
    let model = model_zoo::tiny(2, 1, 300);
    let stream = queries(&model, 10, 6);
    let mut int8 = Shard::build(&model, SdmConfig::for_tests(), 6).unwrap();
    let mut fp32 = Shard::build(
        &model,
        SdmConfig::for_tests().with_transform(LoadTransform {
            deprune: false,
            dequantize: true,
        }),
        6,
    )
    .unwrap();
    assert!(
        fp32.manager().loaded().sm_written_bytes > int8.manager().loaded().sm_written_bytes * 2
    );
    for q in &stream {
        let a = int8.run_query(q).unwrap();
        let b = fp32.run_query(q).unwrap();
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }
}

#[test]
fn pinned_tables_stay_in_fast_memory() {
    let model = model_zoo::tiny(3, 0, 400);
    let system = Shard::build(
        &model,
        SdmConfig::for_tests().with_placement(PlacementPolicy::PinnedTables {
            pinned: vec![1],
            dram_budget: model.tables[1].capacity(),
        }),
        8,
    )
    .unwrap();
    use sdm_core::TableLocation;
    assert_eq!(
        system.manager().loaded().placement.location(1),
        TableLocation::FastMemory
    );
    assert_eq!(
        system.manager().loaded().placement.location(0),
        TableLocation::SlowMemoryCached
    );
}
