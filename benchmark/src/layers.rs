//! The traced run: the per-layer metrics (layer = module).
//!
//! Counts and virtual times are deltas over one r3 pass, read from the
//! public stats accessors. Host-time numbers come from two places: the
//! engine and manager seams are wrapped and replayed (`trace`), and the
//! layers below the manager — which cannot be wrapped from outside — are
//! timed by direct calls on the workload's own operand stream and attributed
//! as unit cost × counted operations per query.

use crate::check::{self, Gate, Reference};
use crate::drive::{self, latency_ns, percentile, sdm_config, Ctx, Pass, Timed};
use crate::json::Json;
use crate::run::{describe_pass, Metric, Outcome};
use crate::spec::{WorkloadSpec, MODEL_SEED, PER_LAYER, R3, R5, SAMPLED_QUERIES};
use crate::trace::{self, Lane, Recorder};
use dlrm::{model_zoo, Mlp};
use embedding::pooling::pool_quantized_into;
use io_engine::{IoEngine, IoRequest};
use scm_device::{DeviceArray, DeviceId, ReadCommand, ScmDevice};
use sdm_cache::{DualRowCache, PooledEmbeddingCache, RowCache, RowKey, SharedRowTier};
use sdm_core::{ModelLoader, ServingHost};
use sdm_metrics::units::Bytes;
use sdm_metrics::{LatencyHistogram, SimInstant};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use workload::{RoutingPolicy, Scheduler};

/// Share of `--seconds` each direct timing may use.
const SLICE_SHARE: f64 = 1.0 / 24.0;
/// Row operands taken from the head of the stream for the direct timings.
const MAX_ROW_OPERANDS: usize = 200_000;
/// Threads on the shared tier in its direct timing (the workload's shards).
const TIER_THREADS: usize = 2;

/// Every counter the per-layer deltas need, summed over shards.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    pooled_ops: u64,
    pooled_hits: u64,
    fm_rows: u64,
    row_hits: u64,
    shared_hits: u64,
    shared_misses: u64,
    sm_reads: u64,
    zero_rows: u64,
    degraded_rows: u64,
    virt_pooling_ns: u64,
    virt_io_wait_ns: u64,
    depth_samples: u64,
    depth_sum: u64,
    io_submitted: u64,
    io_bus_bytes: u64,
    io_requested_bytes: u64,
    io_queue_delay_ns: u64,
    io_device_ns: u64,
    io_retries: u64,
    device_reads: u64,
    device_bytes_written: u64,
    cache_evictions: u64,
}

impl Counters {
    fn read(host: &ServingHost) -> Counters {
        let stats = host.stats();
        let depth = host.queue_depth();
        let mut c = Counters {
            pooled_ops: stats.pooled_ops,
            pooled_hits: stats.pooled_cache_hits,
            fm_rows: stats.fm_direct_lookups,
            row_hits: stats.row_cache_hits,
            shared_hits: stats.shared_tier_hits,
            shared_misses: stats.shared_tier_misses,
            sm_reads: stats.sm_reads,
            zero_rows: stats.pruned_zero_rows,
            degraded_rows: stats.degraded_rows,
            virt_pooling_ns: stats.pooling_time.as_nanos(),
            virt_io_wait_ns: stats.io_time.as_nanos(),
            depth_samples: depth.depth_samples,
            depth_sum: depth.depth_sum,
            io_retries: stats.io_retries,
            ..Counters::default()
        };
        for s in 0..host.shards() {
            let manager = host.shard(s).manager();
            let io = manager.io_engine().stats();
            c.io_submitted += io.submitted;
            c.io_bus_bytes += io.bus_bytes.as_u64();
            c.io_requested_bytes += io.requested_bytes.as_u64();
            c.io_queue_delay_ns += io.queue_delay.as_nanos();
            c.io_device_ns += io.device_time.as_nanos();
            for (_, device) in manager.io_engine().array().iter() {
                c.device_reads += device.stats().reads;
                c.device_bytes_written += device.stats().bytes_written.as_u64();
            }
            let rows = manager.row_cache();
            c.cache_evictions +=
                rows.small_engine_stats().evictions + rows.large_engine_stats().evictions;
            c.cache_evictions += manager.pooled_cache().stats().evictions;
        }
        if let Some(tier) = host.shared_tier() {
            c.cache_evictions += tier.stats().evictions;
        }
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            pooled_ops: self.pooled_ops - before.pooled_ops,
            pooled_hits: self.pooled_hits - before.pooled_hits,
            fm_rows: self.fm_rows - before.fm_rows,
            row_hits: self.row_hits - before.row_hits,
            shared_hits: self.shared_hits - before.shared_hits,
            shared_misses: self.shared_misses - before.shared_misses,
            sm_reads: self.sm_reads - before.sm_reads,
            zero_rows: self.zero_rows - before.zero_rows,
            degraded_rows: self.degraded_rows - before.degraded_rows,
            virt_pooling_ns: self.virt_pooling_ns - before.virt_pooling_ns,
            virt_io_wait_ns: self.virt_io_wait_ns - before.virt_io_wait_ns,
            depth_samples: self.depth_samples - before.depth_samples,
            depth_sum: self.depth_sum - before.depth_sum,
            io_submitted: self.io_submitted - before.io_submitted,
            io_bus_bytes: self.io_bus_bytes - before.io_bus_bytes,
            io_requested_bytes: self.io_requested_bytes - before.io_requested_bytes,
            io_queue_delay_ns: self.io_queue_delay_ns - before.io_queue_delay_ns,
            io_device_ns: self.io_device_ns - before.io_device_ns,
            io_retries: self.io_retries - before.io_retries,
            device_reads: self.device_reads - before.device_reads,
            device_bytes_written: self.device_bytes_written - before.device_bytes_written,
            cache_evictions: self.cache_evictions - before.cache_evictions,
        }
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Runs `round` until `budget` has passed (at least once).
fn repeat_for(
    budget: Duration,
    mut round: impl FnMut(&mut Timed) -> Result<(), String>,
) -> Result<Timed, String> {
    let started = Instant::now();
    let mut timed = Timed::default();
    loop {
        round(&mut timed)?;
        if started.elapsed() >= budget {
            return Ok(timed);
        }
    }
}

/// One row lookup of the stream: its cache key, its size on SM and where it
/// lives on the devices.
#[derive(Debug, Clone, Copy)]
struct RowOperand {
    key: RowKey,
    bytes: usize,
    device: DeviceId,
    offset: u64,
}

/// One pooled operator of the stream on an SM-resident table.
struct OpOperand<'a> {
    table: u32,
    indices: &'a [u64],
    /// Range of this operator's rows in the row-operand list.
    rows: std::ops::Range<usize>,
}

/// The stream's own SM-side operands, from the head of the query stream.
fn operands<'a>(
    ctx: &'a Ctx,
    host: &ServingHost,
) -> Result<(Vec<RowOperand>, Vec<OpOperand<'a>>), String> {
    let loaded = host.shard(0).manager().loaded();
    let mut rows = Vec::new();
    let mut ops = Vec::new();
    'stream: for query in &ctx.queries {
        for request in &query.user_requests {
            if !loaded.on_sm(request.table) {
                continue;
            }
            let placement = loaded
                .layout
                .placement(request.table)
                .map_err(|e| format!("layout: {e}"))?;
            let first = rows.len();
            for &index in &request.indices {
                let offset = placement
                    .row_offset(index % placement.num_rows)
                    .map_err(|e| format!("layout: {e}"))?;
                rows.push(RowOperand {
                    key: RowKey::new(request.table, index),
                    bytes: placement.row_bytes as usize,
                    device: DeviceId(placement.device_index),
                    offset,
                });
            }
            ops.push(OpOperand {
                table: request.table,
                indices: &request.indices,
                rows: first..rows.len(),
            });
            if rows.len() >= MAX_ROW_OPERANDS {
                break 'stream;
            }
        }
    }
    if rows.is_empty() {
        return Err("the stream has no SM-side row lookups".to_string());
    }
    Ok((rows, ops))
}

/// `cache.row_fill_ns` and `cache.row_hit_ns`: a row cache sized like one
/// shard's, filled with the stream's rows under fresh keys each round
/// (insert, and evict once the budget is reached), then probed for the rows
/// that stayed resident.
fn time_row_cache(
    spec: &WorkloadSpec,
    rows: &[RowOperand],
    budget: Duration,
) -> Result<(f64, f64), String> {
    let config = sdm_config(spec).cache.divide_among_indexed(spec.shards, 0);
    let payload = vec![0x5au8; rows.iter().map(|r| r.bytes).max().unwrap_or(0)];
    let mut cache = DualRowCache::new(config);
    let mut round = 0u32;
    let keyed =
        |round: u32, row: &RowOperand| RowKey::new(row.key.table + round * 4096, row.key.row);
    let fill = repeat_for(budget, |timed| {
        round += 1;
        let started = Instant::now();
        for row in rows {
            cache.insert(keyed(round, row), &payload[..row.bytes]);
        }
        timed.add(rows.len() as u64, started);
        Ok(())
    })?;
    let resident: Vec<RowKey> = rows
        .iter()
        .map(|row| keyed(round, row))
        .filter(|key| cache.contains(key))
        .collect();
    let hit = repeat_for(budget, |timed| {
        let started = Instant::now();
        for key in &resident {
            black_box(cache.get(key).map(<[u8]>::len));
        }
        timed.add(resident.len() as u64, started);
        Ok(())
    })?;
    Ok((fill.per_op(), hit.per_op()))
}

/// `cache.pooled_lookup_ns`: hits on a pooled-embedding cache sized like one
/// shard's, keyed by the stream's own index sequences. Zero when the
/// workload runs with the pooled cache off.
fn time_pooled_cache(ctx: &Ctx, ops: &[OpOperand<'_>], budget: Duration) -> Result<f64, String> {
    let spec = &ctx.spec;
    let config = sdm_config(spec).cache.divide_among_indexed(spec.shards, 0);
    if config.pooled_cache_budget.is_zero() {
        return Ok(0.0);
    }
    let dims: BTreeMap<u32, usize> = ctx.model.tables.iter().map(|t| (t.id, t.dim)).collect();
    let mut cache =
        PooledEmbeddingCache::new(config.pooled_cache_budget, config.pooled_len_threshold);
    let vector = vec![0.25f32; dims.values().copied().max().unwrap_or(0)];
    for op in ops {
        cache.insert(op.table, op.indices, &vector[..dims[&op.table]]);
    }
    let resident: Vec<&OpOperand<'_>> = ops
        .iter()
        .filter(|op| cache.peek(op.table, op.indices).is_some())
        .collect();
    let timed = repeat_for(budget, |timed| {
        let started = Instant::now();
        for op in &resident {
            black_box(cache.lookup(op.table, op.indices).map(<[f32]>::len));
        }
        timed.add(resident.len() as u64, started);
        Ok(())
    })?;
    Ok(timed.per_op())
}

/// `cache.shared_insert_ns` and `cache.shared_hit_ns`: a shared tier sized
/// like the workload's, two threads at once on interleaved halves of the
/// stream's rows. Per-operation time as one thread sees it. Zeros when the
/// workload has no shared tier.
fn time_shared_tier(spec: &WorkloadSpec, rows: &[RowOperand], budget: Duration) -> (f64, f64) {
    let config = sdm_config(spec).cache;
    if config.shared_tier_budget.is_zero() {
        return (0.0, 0.0);
    }
    let payload = vec![0x5au8; rows.iter().map(|r| r.bytes).max().unwrap_or(0)];
    let (mut insert, mut hit) = (Timed::default(), Timed::default());
    let started = Instant::now();
    loop {
        let tier = SharedRowTier::new(config.shared_tier_budget, config.shared_tier_stripes);
        // Both threads start each phase together, so the stripe locks are
        // contended the way two shards contend for them.
        let barrier = Barrier::new(TIER_THREADS);
        let per_thread: Vec<(Timed, Timed)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..TIER_THREADS)
                .map(|t| {
                    let (tier, barrier, payload) = (&tier, &barrier, &payload);
                    scope.spawn(move || {
                        let mine = || rows.iter().skip(t).step_by(TIER_THREADS);
                        let (mut insert, mut hit) = (Timed::default(), Timed::default());
                        barrier.wait();
                        let started = Instant::now();
                        for row in mine() {
                            tier.insert(row.key, &payload[..row.bytes], t as u32);
                        }
                        insert.add(mine().count() as u64, started);
                        barrier.wait();
                        let started = Instant::now();
                        let mut hits = 0u64;
                        for row in mine() {
                            let found = tier.lookup_with(&row.key, t as u32, |bytes| {
                                black_box(bytes.len());
                            });
                            hits += u64::from(found.is_some());
                        }
                        hit.add(hits, started);
                        (insert, hit)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_default())
                .collect()
        });
        for (i, h) in per_thread {
            insert.ops += i.ops;
            insert.ns += i.ns;
            hit.ops += h.ops;
            hit.ns += h.ns;
        }
        if started.elapsed() >= budget * 2 {
            return (insert.per_op(), hit.per_op());
        }
    }
}

/// `io.submit_drain_ns_per_io`, `device.read_ns`: an IO engine of the
/// workload's configuration over freshly loaded devices, driven with one
/// submission group per pooled operator (as the manager does) and drained
/// with `drain_each`; then the same reads issued straight at the devices.
fn time_io_and_device(
    ctx: &Ctx,
    rows: &[RowOperand],
    ops: &[OpOperand<'_>],
    budget: Duration,
) -> Result<(f64, f64), String> {
    let config = sdm_config(&ctx.spec);
    let array = DeviceArray::homogeneous(
        config.technology.clone(),
        config.device_capacity,
        config.device_count,
    )
    .map_err(|e| format!("device array: {e}"))?;
    let mut engine = IoEngine::new(array, config.io.clone());
    ModelLoader::load(&ctx.model, &config, &mut engine).map_err(|e| format!("model load: {e}"))?;

    let mut now = SimInstant::EPOCH;
    let io = repeat_for(budget, |timed| {
        let started = Instant::now();
        for op in ops {
            for (i, row) in rows[op.rows.clone()].iter().enumerate() {
                let command = ReadCommand::sgl(row.offset, row.bytes as u32);
                engine
                    .submit(
                        IoRequest::new(row.device, command)
                            .with_table(op.table)
                            .with_user_data(i as u64),
                        now,
                    )
                    .map_err(|e| format!("io submit: {e}"))?;
            }
            now = engine
                .drain_each(now, |completion| {
                    black_box(completion.data.len());
                })
                .map_err(|e| format!("io drain: {e}"))?;
        }
        timed.add(rows.len() as u64, started);
        Ok(())
    })?;

    let commands: Vec<(DeviceId, ReadCommand)> = rows
        .iter()
        .map(|row| (row.device, ReadCommand::sgl(row.offset, row.bytes as u32)))
        .collect();
    let device = repeat_for(budget, |timed| {
        let started = Instant::now();
        for (id, command) in &commands {
            let outcome = engine
                .array_mut()
                .read(*id, command, 1)
                .map_err(|e| format!("device read: {e}"))?;
            black_box(outcome.data.len());
        }
        timed.add(commands.len() as u64, started);
        Ok(())
    })?;
    Ok((io.per_op(), device.per_op()))
}

/// `device.write_ns_per_mib`: MiB-sized writes to a device of the
/// workload's technology.
fn time_device_write(spec: &WorkloadSpec, budget: Duration) -> Result<f64, String> {
    const MIB: usize = 1 << 20;
    const SPAN_MIB: u64 = 32;
    let config = sdm_config(spec);
    let mut device = ScmDevice::new(
        "write-probe",
        config.technology,
        Bytes::from_mib(2 * SPAN_MIB),
    )
    .map_err(|e| format!("device: {e}"))?;
    let image = vec![0xa5u8; MIB];
    let mut next = 0u64;
    let timed = repeat_for(budget, |timed| {
        let started = Instant::now();
        device
            .write_at((next % SPAN_MIB) * MIB as u64, &image)
            .map_err(|e| format!("device write: {e}"))?;
        next += 1;
        timed.add(1, started);
        Ok(())
    })?;
    Ok(timed.per_op())
}

/// `embedding.pool_ns_per_row`: `pool_quantized_into` (auto kernel) over the
/// stream's own pooled operators, so the model's real dimension and
/// pooling-factor mix.
fn time_pooling(
    reference: &Reference,
    ops: &[OpOperand<'_>],
    budget: Duration,
) -> Result<f64, String> {
    let mut groups = Vec::with_capacity(ops.len());
    let mut widest = 0;
    for op in ops {
        let table = reference
            .table(op.table)
            .ok_or_else(|| format!("table {} missing from the reference", op.table))?;
        let desc = table.descriptor();
        let rows = op
            .indices
            .iter()
            .map(|&index| table.row(index % table.num_rows()))
            .collect::<Result<Vec<&[u8]>, _>>()
            .map_err(|e| format!("table {}: {e}", op.table))?;
        widest = widest.max(desc.dim);
        groups.push((rows, desc.quant, desc.dim));
    }
    let mut out = vec![0.0f32; widest];
    let timed = repeat_for(budget, |timed| {
        let started = Instant::now();
        let mut pooled = 0u64;
        for (rows, quant, dim) in &groups {
            out[..*dim].fill(0.0);
            pool_quantized_into(rows.iter().copied(), *quant, &mut out[..*dim])
                .map_err(|e| format!("pooling: {e}"))?;
            pooled += rows.len() as u64;
        }
        black_box(&out);
        timed.add(pooled, started);
        Ok(())
    })?;
    Ok(timed.per_op())
}

/// `engine.mlp_bottom_ns` and `engine.mlp_top_ns`: one `Mlp::forward_into`
/// over MLPs generated as the engine generates them.
fn time_mlps(ctx: &Ctx, budget: Duration) -> Result<(f64, f64), String> {
    let one = |config: &dlrm::MlpConfig, seed: u64| -> Result<f64, String> {
        let mlp = Mlp::generate(config, seed);
        let input = vec![0.5f32; mlp.input_dim().max(1)];
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let timed = repeat_for(budget, |timed| {
            let started = Instant::now();
            for _ in 0..64 {
                mlp.forward_into(black_box(&input), &mut out, &mut scratch)
                    .map_err(|e| format!("mlp: {e}"))?;
                black_box(out.first());
            }
            timed.add(64, started);
            Ok(())
        })?;
        Ok(timed.per_op())
    };
    Ok((
        one(&ctx.model.bottom_mlp, MODEL_SEED ^ 0xb077)?,
        one(&ctx.model.top_mlp, MODEL_SEED ^ 0x70b0)?,
    ))
}

/// `host.floor_ns_per_query`: the same front end, host, shards, mode and
/// arrivals over `model_zoo::tiny(1, 1, 16)`, whose queries cost almost
/// nothing — what remains is the fixed per-query and per-batch cost of
/// batcher, partition, spawn/join and merge.
fn time_host_floor(ctx: &Ctx, budget: Duration) -> Result<f64, String> {
    let model = model_zoo::tiny(1, 1, 16);
    let spec = WorkloadSpec {
        update_every: None,
        faults: false,
        ..ctx.spec
    };
    let queries = drive::generate_queries(&spec, &model, ctx.seed, ctx.queries.len())?;
    let floor = Ctx {
        spec,
        seed: ctx.seed,
        smoke: ctx.smoke,
        model,
        queries,
        gen_seconds: 0.0,
    };
    let (mut host, _) = drive::setup_once(&floor)?;
    let timed = repeat_for(budget, |timed| {
        let pass = drive::run_pass(&floor, &mut host, floor.spec.rates[R3], false)?;
        timed.ops += pass.served();
        timed.ns += (pass.wall_s * 1e9) as u64;
        Ok(())
    })?;
    Ok(timed.per_op())
}

/// `workload.partition_ns_per_query`: `Scheduler::partition_picks_into`
/// over the r3 pass's batches.
fn time_partition(ctx: &Ctx, batches: &[Vec<usize>], budget: Duration) -> Result<f64, String> {
    let mut scheduler = Scheduler::new(ctx.spec.shards, RoutingPolicy::UserSticky);
    let (mut exec, mut merge) = (Vec::new(), Vec::new());
    let queries: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let timed = repeat_for(budget, |timed| {
        let started = Instant::now();
        for picks in batches {
            scheduler.partition_picks_into(&ctx.queries, picks, &mut exec, &mut merge);
            black_box(&exec);
        }
        timed.add(queries, started);
        Ok(())
    })?;
    Ok(timed.per_op())
}

/// `update.warmup_queries`: served queries after a model update until one
/// is served within twice the steady-state median (taken from the last
/// quarter of every segment). Median over the pass's updates.
fn warmup_queries(pass: &Pass) -> f64 {
    let mut bounds: Vec<usize> = pass.segment_starts().collect();
    bounds.push(pass.query_log.len());
    let latency = |i: usize| latency_ns(&pass.query_log[i]);
    let mut steady: Vec<u64> = bounds
        .windows(2)
        .flat_map(|w| (w[1] - (w[1] - w[0]) / 4..w[1]).filter_map(latency))
        .collect();
    steady.sort_unstable();
    let limit = 2 * percentile(&steady, 0.5);
    let mut counts: Vec<u64> = bounds
        .windows(2)
        .map(|w| {
            (w[0]..w[1])
                .filter_map(latency)
                .take_while(|&ns| ns > limit)
                .count() as u64
        })
        .collect();
    counts.sort_unstable();
    percentile(&counts, 0.5) as f64
}

fn shard_imbalance(ctx: &Ctx, batches: &[Vec<usize>]) -> f64 {
    let mut scheduler = Scheduler::new(ctx.spec.shards, RoutingPolicy::UserSticky);
    let mut per_shard = vec![0u64; ctx.spec.shards];
    for &pos in batches.iter().flatten() {
        per_shard[scheduler.route(&ctx.queries[pos])] += 1;
    }
    let total: u64 = per_shard.iter().sum();
    let busiest = per_shard.iter().copied().max().unwrap_or(0);
    ratio(busiest * per_shard.len() as u64, total)
}

/// Values by metric name, with a note on where each came from.
type Values = BTreeMap<&'static str, (f64, String)>;

fn put(values: &mut Values, name: &'static str, value: f64, note: &str) {
    values.insert(name, (value, note.to_string()));
}

/// Metrics that are counts, ratios of counts or virtual times: deltas over
/// the r3 pass, the passes' own logs, and gauges read after it.
fn counted_metrics(
    v: &mut Values,
    ctx: &Ctx,
    host: &ServingHost,
    (r3, r5): (&Pass, &Pass),
    delta: &Counters,
    batches: &[Vec<usize>],
) {
    let per_query = |count: u64| ratio(count, r3.served());

    put(v, "frontend.batches_r3", batches.len() as f64, "");
    put(
        v,
        "frontend.mean_batch_r3",
        ratio(r3.served(), batches.len() as u64),
        "",
    );
    let mut waits: Vec<u64> = batches
        .iter()
        .zip(&r3.batch_log)
        .flat_map(|(picks, batch)| {
            picks.iter().map(|&pos| {
                batch
                    .started_at
                    .duration_since(r3.query_log[pos].arrival)
                    .as_nanos()
            })
        })
        .collect();
    waits.sort_unstable();
    put(
        v,
        "frontend.queue_wait_us_p50_r3",
        percentile(&waits, 0.5) as f64 / 1e3,
        "started_at - arrival, virtual clock",
    );
    put(
        v,
        "frontend.shed_share_r5",
        ratio(r5.shed(), r5.offered()),
        "",
    );
    put(
        v,
        "host.shard_imbalance_r3",
        shard_imbalance(ctx, batches),
        "max / mean queries per shard",
    );
    put(v, "host.failovers", host.failovers() as f64, "");

    let rows_resolved = delta.fm_rows
        + delta.row_hits
        + delta.shared_hits
        + delta.sm_reads
        + delta.zero_rows
        + delta.degraded_rows;
    put(v, "manager.ops_per_query", per_query(delta.pooled_ops), "");
    put(
        v,
        "manager.rows_per_query",
        per_query(rows_resolved),
        "FM-direct + cache hits + SM reads + pruned + degraded",
    );
    put(
        v,
        "manager.pooled_hit_rate",
        ratio(delta.pooled_hits, delta.pooled_ops),
        "",
    );
    put(
        v,
        "manager.row_hit_rate",
        ratio(
            delta.row_hits,
            delta.row_hits + delta.shared_hits + delta.sm_reads,
        ),
        "private row-cache hits over SM-side lookups",
    );
    put(
        v,
        "manager.shared_hit_rate",
        ratio(delta.shared_hits, delta.shared_hits + delta.shared_misses),
        "shared-tier hits over shared-tier probes",
    );
    put(
        v,
        "manager.sm_reads_per_query",
        per_query(delta.sm_reads),
        "",
    );
    put(
        v,
        "manager.virt_io_wait_us_per_query",
        per_query(delta.virt_io_wait_ns) / 1e3,
        "",
    );
    put(
        v,
        "manager.virt_pooling_us_per_query",
        per_query(delta.virt_pooling_ns) / 1e3,
        "",
    );
    put(
        v,
        "manager.degraded_rows",
        host.stats().degraded_rows as f64,
        "whole run",
    );

    put(
        v,
        "cache.evictions_per_query",
        per_query(delta.cache_evictions),
        "",
    );
    let (mut resident, mut live) = (0u64, 0u64);
    for s in 0..host.shards() {
        let manager = host.shard(s).manager();
        let pooled = manager.pooled_cache().stats();
        resident += manager.row_cache().resident_bytes().as_u64() + pooled.resident_bytes;
        live += manager.row_cache().live_bytes().as_u64() + pooled.live_bytes;
    }
    if let Some(tier) = host.shared_tier() {
        let stats = tier.stats();
        resident += stats.resident_bytes;
        live += stats.live_bytes;
    }
    put(
        v,
        "cache.resident_mib",
        resident as f64 / (1 << 20) as f64,
        "arena bytes behind every cache",
    );
    put(
        v,
        "cache.retained_share",
        ratio(resident.saturating_sub(live), resident),
        "arena bytes not backing a live entry",
    );

    put(
        v,
        "io.mean_queue_depth",
        ratio(delta.depth_sum, delta.depth_samples),
        "",
    );
    put(
        v,
        "io.max_queue_depth",
        host.queue_depth().max_depth as f64,
        "since build",
    );
    let mut io_latency = LatencyHistogram::new();
    for s in 0..host.shards() {
        io_latency.merge(&host.shard(s).manager().io_engine().stats().latency);
    }
    put(
        v,
        "io.virt_latency_us_p50",
        io_latency.percentile(0.5).as_micros_f64(),
        "engine histogram, since build",
    );
    put(
        v,
        "io.virt_latency_us_p99",
        io_latency.percentile(0.99).as_micros_f64(),
        "engine histogram, since build",
    );
    put(
        v,
        "io.virt_queue_delay_share",
        ratio(
            delta.io_queue_delay_ns,
            delta.io_queue_delay_ns + delta.io_device_ns,
        ),
        "",
    );
    put(
        v,
        "io.retries_per_kio",
        1e3 * ratio(delta.io_retries, delta.io_submitted),
        "",
    );
    put(
        v,
        "io.checksum_failures",
        host.stats().io_checksum_failures as f64,
        "whole run; equals the corruptions injected (checked)",
    );
    put(
        v,
        "io.read_amplification",
        if delta.io_requested_bytes == 0 {
            1.0
        } else {
            ratio(delta.io_bus_bytes, delta.io_requested_bytes)
        },
        "",
    );
    put(
        v,
        "io.bus_bytes_per_query",
        per_query(delta.io_bus_bytes),
        "",
    );
    put(
        v,
        "device.reads_per_query",
        per_query(delta.device_reads),
        "retried attempts included",
    );
    put(
        v,
        "device.bytes_written_mib",
        delta.device_bytes_written as f64 / (1 << 20) as f64,
        "model updates inside the r3 pass",
    );

    let mut update_ns: Vec<u64> = r3.update_ms.iter().map(|ms| (ms * 1e6) as u64).collect();
    update_ns.sort_unstable();
    put(
        v,
        "update.apply_ms",
        percentile(&update_ns, 0.5) as f64 / 1e6,
        "ModelUpdater::apply(Full), median; 0 = no updates in this workload",
    );
    put(
        v,
        "update.warmup_queries",
        if ctx.segment().is_some() {
            warmup_queries(r3)
        } else {
            0.0
        },
        "served queries after an update until one is within 2x the steady median",
    );
    put(
        v,
        "alloc.per_query_r3",
        ratio(r3.allocations.unwrap_or(0), r3.served()),
        "heap allocations inside Frontend::run",
    );
}

/// Metrics from replaying the r3 batches at the two seams that can be
/// wrapped from outside. Two replays on the live host, both on this thread.
/// The first is not timed: it brings the caches back to a steady state
/// after the overload pass (and, on update workloads, the last
/// invalidation) and yields the sampled scores for the correctness gate.
/// The second is timed, its batches taking the three lanes in turn.
fn seam_metrics(
    v: &mut Values,
    ctx: &Ctx,
    host: &mut ServingHost,
    reference: &mut Reference,
    r3: &Pass,
    batches: &[Vec<usize>],
    gate: &mut Gate,
) -> Result<Recorder, String> {
    let served: Vec<usize> = batches.iter().flatten().copied().collect();
    let sampled = check::sample_positions(&served, ctx.seed, SAMPLED_QUERIES);
    let expected_spans: usize = batches.len()
        + served
            .iter()
            .map(|&pos| {
                let query = &ctx.queries[pos];
                2 + query.user_requests.len() + query.item_requests.len()
            })
            .sum::<usize>();
    // A third of the batches are traced; batch sizes vary, hence the slack.
    let mut recorder = Recorder::new(expected_spans / 3 + expected_spans / 8);
    let settle = trace::replay(
        ctx,
        host,
        batches,
        &mut recorder,
        |_| Lane::Untraced,
        |pos| sampled.contains(&pos),
    )?;
    for (pos, scores) in &settle.kept_scores {
        let query = &ctx.queries[*pos];
        check::check_scores(gate, query.id, reference.scores(query)?, scores);
    }
    let timed = trace::replay(ctx, host, batches, &mut recorder, Lane::interleaved, |_| {
        false
    })?;

    let totals = trace::totals_by_name(&recorder.spans);
    let engine = totals.get(trace::ENGINE).copied().unwrap_or_default();
    let lookup = totals.get(trace::LOOKUP).copied().unwrap_or_default();
    let seam = timed.untraced.per_op();
    let end_to_end = r3.wall_s * 1e9 / r3.served().max(1) as f64;
    let seam_ratio = seam / end_to_end;

    put(
        v,
        "host.seam_ratio",
        seam_ratio,
        &format!("engine seam {seam:.0} ns/query over end to end {end_to_end:.0} ns/query"),
    );
    put(
        v,
        "shard.exec_overhead_ns_per_query",
        timed.shard_seam.per_op() - seam,
        &format!(
            "run_indexed_batch {:.0} ns/query minus engine seam, interleaved batches; a difference, resolution about {:.0} ns",
            timed.shard_seam.per_op(),
            0.03 * seam
        ),
    );
    put(
        v,
        "engine.self_ns_per_query",
        ratio(engine.self_ns, timed.traced.ops),
        "execute_into span minus its lookup spans; includes the recorder's own cost",
    );
    put(
        v,
        "engine.virt_compute_us_per_query",
        timed.virt_compute.as_nanos() as f64
            / 1e3
            / (timed.traced.ops + timed.untraced.ops).max(1) as f64,
        "virtual bottom + top MLP time",
    );
    put(
        v,
        "manager.lookup_ns_per_query",
        ratio(lookup.total_ns, timed.traced.ops),
        "pooled_lookup_into spans",
    );
    put(
        v,
        "manager.lookup_ns_per_row",
        ratio(lookup.total_ns, lookup.rows),
        "",
    );
    put(
        v,
        "trace.overhead_share",
        if seam > 0.0 {
            timed.traced.per_op() / seam - 1.0
        } else {
            0.0
        },
        "traced over untraced engine-seam batches (interleaved), minus one",
    );
    put(v, "trace.spans", recorder.spans.len() as f64, "");

    println!(
        "attribution: engine.self + manager.lookup = {:.0} ns/query; 1e9 / wall_qps = {end_to_end:.0} ns/query; host.seam_ratio = {seam_ratio:.3}",
        ratio(engine.self_ns + lookup.total_ns, timed.traced.ops),
    );
    let limit = 1.1 * ctx.spec.shards as f64;
    if !ctx.smoke && !(0.7..=limit).contains(&seam_ratio) {
        println!(
            "attribution: UNRELIABLE — host.seam_ratio {seam_ratio:.3} is outside [0.7, {limit:.1}]; the layer numbers do not add up to the end-to-end time"
        );
    }
    Ok(recorder)
}

/// Metrics timed by direct calls on the workload's own operands, each for
/// `slice` of host time.
fn direct_metrics(
    v: &mut Values,
    ctx: &Ctx,
    host: &ServingHost,
    reference: &mut Reference,
    batches: &[Vec<usize>],
    slice: Duration,
) -> Result<(), String> {
    let spec = &ctx.spec;
    put(
        v,
        "workload.gen_us_per_query",
        ctx.gen_seconds * 1e6 / ctx.queries.len().max(1) as f64,
        "QueryGenerator::generate",
    );
    put(
        v,
        "workload.partition_ns_per_query",
        time_partition(ctx, batches, slice)?,
        "Scheduler::partition_picks_into over the r3 batches",
    );
    put(
        v,
        "host.floor_ns_per_query",
        time_host_floor(ctx, slice)?,
        "same pipeline over model_zoo::tiny(1, 1, 16)",
    );

    let floor_queries = &ctx.queries[..ctx.queries.len().min(256)];
    let dram_floor = repeat_for(slice, |timed| {
        let started = Instant::now();
        for query in floor_queries {
            black_box(reference.scores(query)?.len());
        }
        timed.add(floor_queries.len() as u64, started);
        Ok(())
    })?;
    put(
        v,
        "engine.dram_floor_ns_per_query",
        dram_floor.per_op(),
        "execute_into over DramBackend",
    );
    let (mlp_bottom, mlp_top) = time_mlps(ctx, slice)?;
    put(
        v,
        "engine.mlp_bottom_ns",
        mlp_bottom,
        "one Mlp::forward_into",
    );
    put(
        v,
        "engine.mlp_top_ns",
        mlp_top,
        "one Mlp::forward_into (runs once per ranked item)",
    );

    let (rows, ops) = operands(ctx, host)?;
    let (row_fill, row_hit) = time_row_cache(spec, &rows, slice)?;
    put(
        v,
        "cache.row_hit_ns",
        row_hit,
        "DualRowCache::get on resident rows",
    );
    put(
        v,
        "cache.row_fill_ns",
        row_fill,
        "DualRowCache::insert, evicting once at budget",
    );
    put(
        v,
        "cache.pooled_lookup_ns",
        time_pooled_cache(ctx, &ops, slice)?,
        "PooledEmbeddingCache::lookup hits; 0 = cache off in this workload",
    );
    let (shared_insert, shared_hit) = time_shared_tier(spec, &rows, slice);
    put(
        v,
        "cache.shared_hit_ns",
        shared_hit,
        "SharedRowTier::lookup_with, two threads; 0 = no tier in this workload",
    );
    put(
        v,
        "cache.shared_insert_ns",
        shared_insert,
        "SharedRowTier::insert, two threads; 0 = no tier in this workload",
    );

    let (io_ns, device_read_ns) = time_io_and_device(ctx, &rows, &ops, slice)?;
    put(
        v,
        "io.submit_drain_ns_per_io",
        io_ns,
        "IoEngine::submit + drain_each, one group per pooled operator",
    );
    put(
        v,
        "device.read_ns",
        device_read_ns,
        "DeviceArray::read of one row",
    );
    put(
        v,
        "device.write_ns_per_mib",
        time_device_write(spec, slice)?,
        "ScmDevice::write_at of 1 MiB",
    );
    put(
        v,
        "embedding.pool_ns_per_row",
        time_pooling(reference, &ops, slice)?,
        &format!(
            "pool_quantized_into, {} kernel",
            embedding::kernels::auto_kernel().name()
        ),
    );
    Ok(())
}

/// The traced run of one workload: every per-layer metric, and the spans.
pub fn traced_run(ctx: &Ctx, seconds: f64) -> Result<(Outcome, Json), String> {
    let spec = &ctx.spec;
    let slice = if ctx.smoke {
        Duration::from_millis(10)
    } else {
        Duration::from_secs_f64(seconds * SLICE_SHARE)
    };
    let mut values = Values::new();
    let mut gate = Gate::default();

    // One set-up, then the two passes the counts come from.
    let (mut host, _) = drive::setup_once(ctx)?;
    let before = Counters::read(&host);
    let r3 = drive::run_pass(ctx, &mut host, spec.rates[R3], true)?;
    let delta = Counters::read(&host).since(&before);
    check::check_pass(&mut gate, ctx, "r3", &r3);
    let r5 = drive::run_pass(ctx, &mut host, spec.rates[R5], false)?;
    check::check_pass(&mut gate, ctx, "r5", &r5);
    let records = vec![describe_pass(ctx, "r3", &r3), describe_pass(ctx, "r5", &r5)];
    let sm_reads_measured = Counters::read(&host).sm_reads - before.sm_reads;
    let batches = r3
        .batches()
        .ok_or("the r3 pass cannot be replayed: its logs disagree")?;

    counted_metrics(&mut values, ctx, &host, (&r3, &r5), &delta, &batches);
    let mut reference = Reference::new(ctx, &host)?;
    let recorder = seam_metrics(
        &mut values,
        ctx,
        &mut host,
        &mut reference,
        &r3,
        &batches,
        &mut gate,
    )?;
    check::check_host(&mut gate, ctx, &host, sm_reads_measured);
    direct_metrics(&mut values, ctx, &host, &mut reference, &batches, slice)?;

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for layer in &PER_LAYER {
        let (value, note) = values
            .remove(layer.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", layer.name))?;
        metrics.push(Metric::new(layer.name, value, note));
    }
    let outcome = Outcome {
        workload: spec.name,
        traced: true,
        correct: gate.passed(),
        attempted: r3.offered(),
        failed: r3.shed(),
        metrics,
        score_digest: None,
        failures: gate.failures,
        passes: records,
    };
    Ok((outcome, trace::spans_to_json(spec.name, &recorder.spans)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_per_layer_metric_is_reported_once_in_table_order() {
        let ctx = Ctx::new(&WORKLOADS[2], 4, true).expect("context");
        let (outcome, spans) = traced_run(&ctx, 1.0).expect("traced smoke run");
        assert!(outcome.correct, "{:?}", outcome.failures);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        let recorded = spans.get("recorded").and_then(Json::as_f64).unwrap_or(0.0);
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert_eq!(value("trace.spans"), Some(recorded));
        assert!(recorded > 0.0);
        // The shared tier is this workload's point.
        assert!(value("cache.shared_hit_ns").is_some_and(|ns| ns > 0.0));
    }

    #[test]
    fn warmup_counts_the_slow_head_of_each_segment() {
        use sdm_core::{QueryOutcome, QueryRecord};
        let at = |us: u64| SimInstant::from_nanos(us * 1_000);
        // Two segments of 8: 3 slow then fast; 1 slow then fast.
        let latencies = [
            900, 800, 500, 10, 10, 10, 10, 10, 700, 10, 10, 10, 10, 10, 10, 10,
        ];
        let query_log: Vec<QueryRecord> = latencies
            .iter()
            .enumerate()
            .map(|(i, &us)| QueryRecord {
                arrival: at(i as u64 * 1_000),
                outcome: QueryOutcome::Served {
                    completed: at(i as u64 * 1_000 + us),
                },
            })
            .collect();
        let pass = Pass::for_tests(query_log, &[0, 8]);
        // Counts 3 and 1; the nearest-rank median of two is the lower.
        assert_eq!(warmup_queries(&pass), 1.0);
    }
}
