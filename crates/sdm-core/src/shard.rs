//! One serving shard: the complete per-stream serving state of a host.
//!
//! A shard owns everything one concurrent serving stream needs — an
//! inference engine, an SDM memory manager (with its own IO engine and
//! caches), a virtual clock and the reusable scratch that makes the hot
//! path allocation-free. Shards share nothing, so they are `Send` by
//! construction (asserted by the `send_assertions` suite) and a
//! [`crate::ServingHost`] can run one per worker thread. A single-shard
//! deployment is exactly the [`crate::SdmSystem`] of previous revisions:
//! `SdmSystem` is now a thin wrapper over one `Shard`.

use crate::config::{BatchMode, SdmConfig};
use crate::error::SdmError;
use crate::loader::ModelLoader;
use crate::manager::SdmMemoryManager;
use crate::system::QpsReport;
use dlrm::{
    ComputeModel, InferenceEngine, LatencyBreakdown, ModelConfig, PendingQuery, PoolingBuffers,
    QueryResult,
};
use io_engine::IoEngine;
use scm_device::DeviceArray;
use sdm_cache::SlotPool;
use sdm_metrics::{LatencyHistogram, SimInstant};
use std::collections::VecDeque;
use workload::Query;

/// Reusable storage for the results of the last batch a shard executed:
/// scores live back to back in one flat arena, so executing a batch
/// allocates nothing once the capacity has warmed up.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Scores of every query in the batch, concatenated.
    pub(crate) scores: Vec<f32>,
    /// `(start, len)` of each query's scores within `scores`.
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Latency breakdown of each query.
    pub(crate) latencies: Vec<LatencyBreakdown>,
    /// Latency histogram, reset per batch (buckets reused).
    pub(crate) hist: LatencyHistogram,
    /// The per-query result the engine writes into, recycled across queries.
    pub(crate) result: QueryResult,
    /// Shard clock when the batch started (for the batch makespan).
    pub(crate) started_at: SimInstant,
}

impl BatchScratch {
    fn reset(&mut self, started_at: SimInstant) {
        self.scores.clear();
        self.ranges.clear();
        self.latencies.clear();
        self.hist.reset();
        self.started_at = started_at;
    }

    /// Appends the recycled per-query result to the batch records.
    fn push_result(&mut self) {
        let start = self.scores.len();
        self.scores.extend_from_slice(&self.result.scores);
        self.ranges.push((start, self.result.scores.len()));
        self.latencies.push(self.result.latency);
        self.hist.record(self.result.latency.total);
    }
}

/// One in-flight slot of the relaxed pipeline: the pooled-vector scratch a
/// query was begun with and its pending tickets.
#[derive(Debug, Default)]
struct RelaxedSlot {
    buffers: PoolingBuffers,
    pending: PendingQuery,
}

/// Reusable state of the relaxed (overlapped) batch executor: a
/// [`SlotPool`] of per-query scratch plus the FIFO of begun queries.
#[derive(Debug, Default)]
struct RelaxedScratch {
    /// Slot pool; grows to the in-flight window and is then recycled.
    slots: SlotPool<RelaxedSlot>,
    /// Begun-but-unfinished queries: `(slot id, batch position)` in begin
    /// order (queries finish strictly FIFO).
    inflight: VecDeque<(usize, usize)>,
}

impl RelaxedScratch {
    fn reset(&mut self) {
        self.inflight.clear();
        self.slots.reset();
    }
}

/// A self-contained serving shard: devices, IO engine, SDM manager and the
/// DLRM inference engine, plus per-stream execution scratch.
#[derive(Debug)]
pub struct Shard {
    engine: InferenceEngine,
    manager: SdmMemoryManager,
    clock: SimInstant,
    /// Persistent execution scratch shared by every query this shard runs.
    buffers: PoolingBuffers,
    pub(crate) batch: BatchScratch,
    /// Per-slot scratch of the relaxed (overlapped) batch executor.
    relaxed: RelaxedScratch,
    /// Test hook: when set, the next batch panics inside the worker. Lets
    /// the failure-handling tests exercise the host's panic-to-error
    /// conversion without a real crash site.
    poisoned: bool,
}

impl Shard {
    /// Builds the full per-stream stack for a (scaled) model.
    ///
    /// # Errors
    ///
    /// Propagates configuration, layout and device errors.
    pub fn build(model: &ModelConfig, config: SdmConfig, seed: u64) -> Result<Self, SdmError> {
        config.validate()?;
        let array = DeviceArray::homogeneous(
            config.technology.clone(),
            config.device_capacity,
            config.device_count,
        )?;
        // Build-time clones (config/model), once per shard — not hot.
        let mut io = IoEngine::new(array, config.io.clone());
        let loaded = ModelLoader::load(model, &config, &mut io)?;
        let manager = SdmMemoryManager::new(config, loaded, io);
        let engine = InferenceEngine::new(model.clone(), ComputeModel::default(), seed)?;
        Ok(Shard {
            engine,
            manager,
            clock: SimInstant::EPOCH,
            buffers: PoolingBuffers::new(),
            batch: BatchScratch::default(),
            relaxed: RelaxedScratch::default(),
            poisoned: false,
        })
    }

    /// Makes the next batch on this shard panic inside its worker thread.
    ///
    /// Failure-handling test hook: the host must convert the panic into
    /// [`SdmError::ShardFailed`] and keep the other shards serving.
    #[doc(hidden)]
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Replaces the inference engine with one using an explicit compute
    /// model (e.g. accelerator hosts).
    ///
    /// # Errors
    ///
    /// Propagates model validation errors.
    pub fn set_compute(&mut self, compute: ComputeModel, seed: u64) -> Result<(), SdmError> {
        self.engine = InferenceEngine::new(self.engine.model().clone(), compute, seed)?;
        Ok(())
    }

    /// The DLRM inference engine.
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// Mutable access to the inference engine (to switch execution mode).
    pub fn engine_mut(&mut self) -> &mut InferenceEngine {
        &mut self.engine
    }

    /// Attaches the host-shared cache tier to this shard's manager,
    /// tagging its promotions with `source` (the shard's index in the
    /// host). See [`crate::SdmMemoryManager::attach_shared_tier`].
    pub fn attach_shared_tier(
        &mut self,
        tier: std::sync::Arc<sdm_cache::SharedRowTier>,
        source: u32,
    ) {
        self.manager.attach_shared_tier(tier, source);
    }

    /// The SDM memory manager.
    pub fn manager(&self) -> &SdmMemoryManager {
        &self.manager
    }

    /// Mutable access to the memory manager (cache invalidation, updates).
    pub fn manager_mut(&mut self) -> &mut SdmMemoryManager {
        &mut self.manager
    }

    /// Current virtual time of this shard's serving loop.
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Brings the shard's clock and its manager's to the later of the two;
    /// called where a stretch of work starts (after the batch's start is
    /// stamped) and where it ends. Serving never puts the manager ahead —
    /// every lookup ends inside its query — so at a start this is the
    /// identity unless a model update ran in between: the update advanced
    /// the manager's clock by its writes and re-read, and raising the shard
    /// to it charges that window to the batch about to run, in its
    /// makespan. At an end it tells the manager the shard's present, which
    /// is when an update applied next begins.
    fn sync_clocks(&mut self) {
        self.clock = self.clock.max(self.manager.now());
        self.manager.advance_clock(self.clock);
    }

    /// Executes one query into a caller-provided (reusable) result,
    /// advancing the shard's virtual clock by its latency.
    ///
    /// This is the steady-state serving path: with warm shard scratch, a
    /// warmed cache and a recycled `result`, it performs **zero heap
    /// allocations per query** (asserted by the `zero_alloc` test suite).
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors.
    pub fn run_query_into(
        &mut self,
        query: &Query,
        result: &mut QueryResult,
    ) -> Result<(), SdmError> {
        self.sync_clocks();
        self.engine.execute_into(
            query,
            &mut self.manager,
            self.clock,
            &mut self.buffers,
            result,
        )?;
        self.clock += result.latency.total;
        self.sync_clocks();
        Ok(())
    }

    /// Executes one query, advancing the virtual clock by its latency.
    ///
    /// Stateless convenience form: scratch is created per call and the
    /// returned `QueryResult` owns its scores, so each call pays the
    /// allocation cost the reusable paths ([`Shard::run_query_into`] and
    /// [`Shard::run_batch`]) amortise away. Results are identical either
    /// way — scratch never affects values.
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors.
    pub fn run_query(&mut self, query: &Query) -> Result<QueryResult, SdmError> {
        self.sync_clocks();
        let result = self.engine.execute(query, &mut self.manager, self.clock)?;
        self.clock += result.latency.total;
        self.sync_clocks();
        Ok(result)
    }

    /// The batch execution mode this shard was configured with.
    pub fn batch_mode(&self) -> BatchMode {
        self.manager.config().batch_mode
    }

    /// The exact batch core: executes every yielded query through the
    /// zero-allocation hot path, recording scores, latencies and the
    /// latency histogram into the batch scratch.
    fn run_batch_iter<'a>(
        &mut self,
        queries: impl Iterator<Item = &'a Query>,
    ) -> Result<(), SdmError> {
        self.batch.reset(self.clock);
        self.sync_clocks();
        for q in queries {
            self.engine.execute_into(
                q,
                &mut self.manager,
                self.clock,
                &mut self.buffers,
                &mut self.batch.result,
            )?;
            self.clock += self.batch.result.latency.total;
            self.batch.push_result();
        }
        self.sync_clocks();
        Ok(())
    }

    /// The relaxed batch core (paper §3.2): pipelines the batch through the
    /// IO engine with up to `window` queries in flight.
    ///
    /// Queries are *begun* in order — bottom MLP, cache probes, and one ring
    /// submission per operator's misses — at a submit clock that advances
    /// only by each query's issue cost, so the misses of up to `window`
    /// queries share the device queues; each query is *finished* (IO wait
    /// resolved, interaction + top MLP) when the window is full or the batch
    /// ends. The shard clock advances to the latest finish instant, so the
    /// batch makespan reflects the overlap instead of a serial sum.
    ///
    /// With `window == 1` every begin instant equals the exact path's query
    /// start, making results, counters and clocks bit-identical to
    /// [`BatchMode::Exact`] (asserted by the `batch_overlap` suite).
    fn run_batch_relaxed(
        &mut self,
        queries: &[Query],
        picks: Option<&[usize]>,
        window: usize,
    ) -> Result<(), SdmError> {
        let window = window.max(1);
        let n = picks.map_or(queries.len(), <[usize]>::len);
        let query_at = |k: usize| picks.map_or(&queries[k], |p| &queries[p[k]]);
        self.batch.reset(self.clock);
        self.sync_clocks();
        self.manager.reset_pending();
        self.relaxed.reset();

        let mut submit = self.clock;
        let mut latest = self.clock;
        for k in 0..n {
            if self.relaxed.inflight.len() == window {
                let finished = self.finish_front(&query_at)?;
                latest = latest.max(finished);
                // The vacated pipeline stage gates the next begin.
                submit = submit.max(finished);
            }
            let slot = self.relaxed.slots.acquire();
            let s = self.relaxed.slots.slot_mut(slot);
            self.engine.begin_query_into(
                query_at(k),
                &mut self.manager,
                submit,
                &mut s.buffers,
                &mut s.pending,
            )?;
            submit += s.pending.issue_cost();
            self.relaxed.inflight.push_back((slot, k));
        }
        while !self.relaxed.inflight.is_empty() {
            let finished = self.finish_front(&query_at)?;
            latest = latest.max(finished);
        }
        self.clock = self.clock.max(latest);
        self.sync_clocks();
        Ok(())
    }

    /// Finishes the oldest in-flight query of the relaxed pipeline and
    /// returns its virtual finish instant.
    fn finish_front<'a>(
        &mut self,
        query_at: &impl Fn(usize) -> &'a Query,
    ) -> Result<SimInstant, SdmError> {
        let Some((slot, k)) = self.relaxed.inflight.pop_front() else {
            // Callers drain the pipeline under `!inflight.is_empty()`
            // guards; finishing an empty pipeline is a scheduling bug.
            return Err(SdmError::Internal {
                invariant: "finish_front called with queries in flight",
            });
        };
        let s = self.relaxed.slots.slot_mut(slot);
        self.engine.finish_query_into(
            query_at(k),
            &mut self.manager,
            &mut s.buffers,
            &mut s.pending,
            &mut self.batch.result,
        )?;
        let finished = s.pending.begun_at() + self.batch.result.latency.total;
        self.relaxed.slots.release(slot);
        self.batch.push_result();
        Ok(finished)
    }

    /// Summarises the last batch from its histogram and makespan.
    pub(crate) fn batch_report(&self) -> QpsReport {
        let mean = self.batch.hist.mean();
        let makespan = self.clock.duration_since(self.batch.started_at);
        QpsReport {
            queries: self.batch.hist.count(),
            mean_latency: mean,
            p95_latency: self.batch.hist.p95(),
            p99_latency: self.batch.hist.p99(),
            qps_single_stream: if mean.is_zero() {
                0.0
            } else {
                1.0 / mean.as_secs_f64()
            },
            makespan,
            batch_qps: if makespan.is_zero() {
                0.0
            } else {
                self.batch.hist.count() as f64 / makespan.as_secs_f64()
            },
        }
    }

    /// Executes a batch of queries through the zero-allocation hot path and
    /// summarises latency and throughput, honouring the configured
    /// [`BatchMode`].
    ///
    /// In [`BatchMode::Exact`] (the default) virtual-time semantics are
    /// identical to looping [`Shard::run_query`] — each query still
    /// observes the clock its predecessors advanced, so results, cache
    /// counters and IO totals are bit-for-bit the same (asserted by the
    /// `batch_equivalence` suite). What batching buys is host-side
    /// efficiency: one set of scratch buffers serves the whole batch,
    /// per-query results land in a flat reused arena (readable via
    /// [`Shard::batch_scores`]) instead of a fresh `QueryResult` per query,
    /// and each operator's SM misses go to the device as one ring
    /// submission whose completions are pooled as they drain.
    ///
    /// In [`BatchMode::Relaxed`] the batch is additionally pipelined
    /// through the IO engine — up to `max_inflight_queries` queries issue
    /// their SM misses before the oldest completes, which deepens the
    /// device queues and shrinks the batch makespan
    /// ([`QpsReport::batch_qps`]) at the cost of per-query tail latency
    /// (the `batch_overlap` suite pins down the equivalence and
    /// conservation contracts).
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors; the batch stops at the first
    /// failing query.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<QpsReport, SdmError> {
        match self.batch_mode() {
            BatchMode::Exact => self.run_batch_iter(queries.iter())?,
            BatchMode::Relaxed {
                max_inflight_queries,
            } => self.run_batch_relaxed(queries, None, max_inflight_queries)?,
        }
        Ok(self.batch_report())
    }

    /// Executes the subset of `queries` selected by `picks` (positions into
    /// `queries`, in stream order) through the batched hot path.
    ///
    /// This is the sharded serving entry point: a
    /// [`workload::Scheduler`] partitions a host batch into per-shard
    /// index lists, each shard runs its picks, and the host merges results
    /// back into query order via the pick positions — query `picks[k]`'s
    /// scores are [`Shard::batch_scores`]`(k)`.
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors.
    ///
    /// # Panics
    ///
    /// Panics when a pick is out of range for `queries`.
    pub fn run_indexed_batch(
        &mut self,
        queries: &[Query],
        picks: &[usize],
    ) -> Result<(), SdmError> {
        if self.poisoned {
            self.poisoned = false;
            panic!("poisoned shard (test hook)");
        }
        match self.batch_mode() {
            BatchMode::Exact => self.run_batch_iter(picks.iter().map(|&i| &queries[i])),
            BatchMode::Relaxed {
                max_inflight_queries,
            } => self.run_batch_relaxed(queries, Some(picks), max_inflight_queries),
        }
    }

    /// Number of queries in the last batch.
    pub fn batch_len(&self) -> usize {
        self.batch.ranges.len()
    }

    /// Scores of query `i` of the last batch.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range for the last batch.
    pub fn batch_scores(&self, i: usize) -> &[f32] {
        let (start, len) = self.batch.ranges[i];
        &self.batch.scores[start..start + len]
    }

    /// Latency breakdown of query `i` of the last batch.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range for the last batch.
    pub fn batch_latency(&self, i: usize) -> LatencyBreakdown {
        self.batch.latencies[i]
    }

    /// Latency histogram of the last batch.
    pub fn batch_hist(&self) -> &LatencyHistogram {
        &self.batch.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::model_zoo;
    use workload::{QueryGenerator, WorkloadConfig};

    fn workload(model: &ModelConfig, count: usize, seed: u64) -> Vec<Query> {
        let cfg = WorkloadConfig {
            item_batch: model.item_batch,
            user_population: 150,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&model.tables, cfg, seed).unwrap();
        gen.generate(count)
    }

    #[test]
    fn indexed_batch_matches_contiguous_batch_on_identity_picks() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = workload(&model, 16, 5);
        let picks: Vec<usize> = (0..queries.len()).collect();
        let mut direct = Shard::build(&model, SdmConfig::for_tests(), 5).unwrap();
        let mut indexed = Shard::build(&model, SdmConfig::for_tests(), 5).unwrap();
        direct.run_batch(&queries).unwrap();
        indexed.run_indexed_batch(&queries, &picks).unwrap();
        assert_eq!(direct.batch_len(), indexed.batch_len());
        for i in 0..direct.batch_len() {
            assert_eq!(direct.batch_scores(i), indexed.batch_scores(i));
            assert_eq!(direct.batch_latency(i), indexed.batch_latency(i));
        }
        assert_eq!(direct.now(), indexed.now());
    }

    #[test]
    fn indexed_batch_executes_picks_in_given_order() {
        let model = model_zoo::tiny(1, 1, 300);
        let queries = workload(&model, 8, 6);
        let picks = [6usize, 2, 4, 2];
        let mut batched = Shard::build(&model, SdmConfig::for_tests(), 6).unwrap();
        batched.run_indexed_batch(&queries, &picks).unwrap();
        assert_eq!(batched.batch_len(), picks.len());
        // Bit-identical to a per-query loop visiting the same picks in the
        // same order (so cache warm-up history matches exactly).
        let mut looped = Shard::build(&model, SdmConfig::for_tests(), 6).unwrap();
        for (k, &qi) in picks.iter().enumerate() {
            let r = looped.run_query(&queries[qi]).unwrap();
            assert_eq!(r.scores.as_slice(), batched.batch_scores(k));
            assert_eq!(r.latency, batched.batch_latency(k));
        }
        assert_eq!(looped.now(), batched.now());
    }

    #[test]
    fn empty_picks_produce_empty_batch() {
        let model = model_zoo::tiny(1, 0, 200);
        let queries = workload(&model, 2, 7);
        let mut shard = Shard::build(&model, SdmConfig::for_tests(), 7).unwrap();
        shard.run_indexed_batch(&queries, &[]).unwrap();
        assert_eq!(shard.batch_len(), 0);
        assert_eq!(shard.batch_report().queries, 0);
        assert_eq!(shard.now(), SimInstant::EPOCH);
    }

    #[test]
    fn set_compute_switches_the_engine() {
        let model = model_zoo::tiny(1, 1, 200);
        let queries = workload(&model, 1, 8);
        let mut cpu = Shard::build(&model, SdmConfig::for_tests(), 8).unwrap();
        let mut accel = Shard::build(&model, SdmConfig::for_tests(), 8).unwrap();
        accel.set_compute(ComputeModel::accelerator(), 8).unwrap();
        let c = cpu.run_query(&queries[0]).unwrap();
        let a = accel.run_query(&queries[0]).unwrap();
        assert!(a.latency.top_mlp < c.latency.top_mlp);
        assert_eq!(a.scores, c.scores);
    }
}
