//! Integration tests: placement policies and load-time transformations
//! interact correctly across the embedding, cache, IO and core crates.

pub mod common;

use common::{identity_picks, single_stream, Stream};
use dlrm::model_zoo;
use sdm_core::{LoadTransform, PlacementPolicy, SdmConfig};
use sdm_metrics::units::Bytes;
use workload::Query;

fn queries(model: &dlrm::ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let shape = Stream {
        users: 300,
        item_cap: u32::MAX,
        skew: None,
    };
    common::stream(model, shape, count, seed)
}

#[test]
fn direct_dram_placement_reduces_sm_traffic() {
    let model = model_zoo::tiny(4, 1, 500);
    let stream = queries(&model, 40, 2);
    let all = identity_picks(&stream);

    let mut sm_only = single_stream(&model, &SdmConfig::for_tests(), 2);
    let mut half_dram = single_stream(
        &model,
        &SdmConfig::for_tests().with_placement(PlacementPolicy::FixedFmThenSm {
            dram_budget: model.user_capacity() / 2,
        }),
        2,
    );
    sm_only.run_selected_batch(&stream, &all).unwrap();
    half_dram.run_selected_batch(&stream, &all).unwrap();
    assert!(
        half_dram.shard(0).manager().stats().sm_reads < sm_only.shard(0).manager().stats().sm_reads,
        "direct placement did not reduce SM reads"
    );
    assert!(half_dram.shard(0).manager().stats().fm_direct_lookups > 0);
}

#[test]
fn per_table_cache_enablement_disables_caching_for_cold_tables() {
    let mut model = model_zoo::tiny(2, 0, 500);
    model.tables[0].zipf_exponent = 0.05; // effectively uniform
    model.tables[1].zipf_exponent = 1.1;
    let stream = queries(&model, 60, 3);
    let all = identity_picks(&stream);
    let mut system = single_stream(
        &model,
        &SdmConfig::for_tests().with_placement(PlacementPolicy::PerTableCacheEnablement {
            min_zipf_exponent: 0.5,
        }),
        3,
    );
    system.run_selected_batch(&stream, &all).unwrap();
    // The cold table never populates the cache, so every one of its lookups
    // is an SM read; the hot table still caches.
    assert!(!system.shard(0).manager().row_cache().table_enabled(0));
    assert!(system.shard(0).manager().row_cache().table_enabled(1));
    assert!(system.shard(0).manager().stats().row_cache_hits > 0);
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
    let all = identity_picks(&stream);

    let mut mapped = single_stream(&model, &SdmConfig::for_tests(), 4);
    let mut depruned = single_stream(
        &model,
        &SdmConfig::for_tests().with_transform(LoadTransform {
            deprune: true,
            dequantize: false,
        }),
        4,
    );

    assert!(mapped.shard(0).manager().loaded().fm_mapping_bytes > Bytes::ZERO);
    assert_eq!(
        depruned.shard(0).manager().loaded().fm_mapping_bytes,
        Bytes::ZERO
    );
    assert!(
        depruned.shard(0).manager().loaded().sm_written_bytes
            > mapped.shard(0).manager().loaded().sm_written_bytes
    );

    // Both serve the same queries; the de-pruned variant issues at least as
    // many SM-side requests (pruned rows now exist on SM), the mapped
    // variant resolves them as zero rows in fast memory.
    let mapped_report = mapped.run_selected_batch(&stream, &all).unwrap();
    let depruned_report = depruned.run_selected_batch(&stream, &all).unwrap();
    assert_eq!(mapped_report.queries, depruned_report.queries);
    assert!(mapped.shard(0).manager().stats().pruned_zero_rows > 0);
    assert_eq!(depruned.shard(0).manager().stats().pruned_zero_rows, 0);
    let mapped_requests = mapped.shard(0).manager().stats().sm_reads
        + mapped.shard(0).manager().stats().row_cache_hits;
    let depruned_requests = depruned.shard(0).manager().stats().sm_reads
        + depruned.shard(0).manager().stats().row_cache_hits;
    assert!(depruned_requests >= mapped_requests);
}

#[test]
fn dequantization_at_load_grows_the_sm_image_and_preserves_results() {
    let model = model_zoo::tiny(2, 1, 300);
    let stream = queries(&model, 10, 6);
    let mut int8 = single_stream(&model, &SdmConfig::for_tests(), 6);
    let mut fp32 = single_stream(
        &model,
        &SdmConfig::for_tests().with_transform(LoadTransform {
            deprune: false,
            dequantize: true,
        }),
        6,
    );
    assert!(
        fp32.shard(0).manager().loaded().sm_written_bytes
            > int8.shard(0).manager().loaded().sm_written_bytes * 2
    );
    let all = identity_picks(&stream);
    int8.run_selected_batch(&stream, &all).unwrap();
    fp32.run_selected_batch(&stream, &all).unwrap();
    for i in 0..stream.len() {
        for (x, y) in int8.scores(i).iter().zip(fp32.scores(i)) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }
}

#[test]
fn pinned_tables_stay_in_fast_memory() {
    let model = model_zoo::tiny(3, 0, 400);
    let system = single_stream(
        &model,
        &SdmConfig::for_tests().with_placement(PlacementPolicy::PinnedTables {
            pinned: vec![1],
            dram_budget: model.tables[1].capacity(),
        }),
        8,
    );
    use sdm_core::TableLocation;
    assert_eq!(
        system.shard(0).manager().loaded().placement.location(1),
        TableLocation::FastMemory
    );
    assert_eq!(
        system.shard(0).manager().loaded().placement.location(0),
        TableLocation::SlowMemoryCached
    );
}
