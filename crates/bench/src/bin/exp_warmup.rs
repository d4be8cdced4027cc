//! Experiment E18 — paper §A.4: cache warmup after a model update and the
//! extra capacity needed to ride out rolling updates.

use sdm_bench::{bench_sdm_config, build_system, header, identity_picks, pct, queries_for, scaled};
use sdm_cache::warmup_capacity_overhead;
use sdm_core::{ModelUpdater, UpdateKind};
use sdm_metrics::SimDuration;

fn main() {
    header("Cache warmup after a full model update");
    let model = scaled(&dlrm::model_zoo::m1());
    let queries = queries_for(&model, 240, 18);
    let all = identity_picks(&queries);
    let mut host = build_system(&model, bench_sdm_config().with_nand_flash());

    // Warm up, then apply a full update — which invalidates the caches and
    // re-reads the rows they held from the new image — and watch the hit
    // rate afterwards.
    let _ = host.run_selected_batch(&queries, &all[..80]).unwrap();
    let warm_hit = host.shard(0).manager().stats().row_cache_hit_rate();
    let report =
        ModelUpdater::apply(host.shard_mut(0).manager_mut(), UpdateKind::Full, 77).unwrap();
    let window = report.write_time + report.rewarm_time;
    println!(
        "\nfull update: wrote {} in {}, caches invalidated = {}",
        report.bytes_written, report.write_time, report.caches_invalidated
    );
    println!(
        "re-read {} resident rows from the new image in {}; \
         update window {window}, charged to the next batch",
        report.rows_rewarmed, report.rewarm_time,
    );

    let mut batches = Vec::new();
    // (row reads, row-cache hits) so far.
    let counts = |host: &sdm_core::ServingHost| {
        let s = host.shard(0).manager().stats();
        (s.sm_reads + s.row_cache_hits, s.row_cache_hits)
    };
    for chunk in all[80..].chunks(20) {
        let (reads_before, hits_before) = counts(&host);
        let _ = host.run_selected_batch(&queries, chunk).unwrap();
        let (reads_after, hits_after) = counts(&host);
        let reads = reads_after - reads_before;
        let hits = hits_after - hits_before;
        batches.push(hits as f64 / reads.max(1) as f64);
    }
    println!("steady-state hit rate before update: {}", pct(warm_hit));
    println!("hit rate per 20-query window after the update:");
    for (i, rate) in batches.iter().enumerate() {
        println!("  window {:>2}: {}", i, pct(*rate));
    }

    println!("\ncapacity over-provisioning for rolling updates ((r*w)/(p*t)):");
    for (r, w_min, p, t_min) in [
        (0.10f64, 5u64, 0.5f64, 30u64),
        (0.10, 5, 0.5, 60),
        (0.05, 5, 0.5, 30),
    ] {
        let overhead = warmup_capacity_overhead(
            r,
            SimDuration::from_secs(w_min * 60),
            p,
            SimDuration::from_secs(t_min * 60),
        );
        println!(
            "  r={:>3}% w={}min p={:>3}% t={}min -> extra capacity {}",
            r * 100.0,
            w_min,
            p * 100.0,
            t_min,
            pct(overhead)
        );
    }
    println!("\nPaper example reports 1.2% (with w and t swapped in its arithmetic; the formula gives 3.3%).");
    // The measured warm-up: the first window after the update already hits
    // at the steady-state rate, so `w` is the update window itself.
    let measured = warmup_capacity_overhead(0.10, window, 0.5, SimDuration::from_secs(30 * 60));
    println!(
        "Measured here: w = {window} (writes + re-read; window 0 hits {}) at r=10% p=50% t=30min \
         -> extra capacity {:.5}%",
        pct(batches[0]),
        measured * 100.0
    );
}
