//! Criterion bench backing Tables 8/9: end-to-end query execution on the
//! DRAM baseline vs the SDM stack (Nand and Optane) — plus the batched
//! serving-loop comparison (one 64-query batch vs 64 one-query batches).

use criterion::{criterion_group, criterion_main, Criterion};
use sdm_bench::{bench_sdm_config, build_system, identity_picks, queries_for, scaled};
use sdm_core::{PlacementPolicy, SdmConfig};

fn end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_e2e_m1");
    group.sample_size(10);
    let model = scaled(&dlrm::model_zoo::m1());
    let queries = queries_for(&model, 64, 99);
    let all = identity_picks(&queries);

    let configs = [
        (
            "dram_only",
            SdmConfig {
                placement: PlacementPolicy::FixedFmThenSm {
                    dram_budget: model.user_capacity(),
                },
                ..bench_sdm_config()
            },
        ),
        ("sdm_optane", bench_sdm_config()),
        ("sdm_nand", bench_sdm_config().with_nand_flash()),
    ];
    for (name, config) in configs {
        let mut host = build_system(&model, config);
        // Warm the caches outside the measured region.
        let _ = host.run_selected_batch(&queries, &all[..32]).unwrap();
        let mut i = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % queries.len();
                host.run_selected_batch(&queries, &all[i..=i]).unwrap()
            })
        });
    }
    group.finish();
}

/// 64 one-query batches vs one 64-query batch over the same warmed stream:
/// virtual time is identical by construction (see the `batch_equivalence`
/// suite), so the delta is pure host-side per-batch overhead.
fn batch_vs_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_loop_m1");
    group.sample_size(10);
    let model = scaled(&dlrm::model_zoo::m1());
    let queries = queries_for(&model, 64, 99);
    let all = identity_picks(&queries);

    // One host serves both benchmarks so the comparison is not polluted
    // by instance-to-instance heap-layout differences.
    let mut host = build_system(&model, bench_sdm_config());
    let _ = host.run_selected_batch(&queries, &all).unwrap();
    group.bench_function("one_query_batches_64", |b| {
        b.iter(|| {
            for i in 0..all.len() {
                host.run_selected_batch(&queries, &all[i..=i]).unwrap();
            }
        })
    });
    group.bench_function("one_batch_64", |b| {
        b.iter(|| host.run_selected_batch(&queries, &all).unwrap())
    });
    group.finish();
}

criterion_group!(benches, end_to_end, batch_vs_loop);
criterion_main!(benches);
