//! One serving shard: the complete per-stream serving state of a host.
//!
//! A shard owns everything one concurrent serving stream needs — an
//! inference engine, an SDM memory manager (with its own IO engine and
//! caches), a virtual clock and the reusable scratch that makes the hot
//! path allocation-free. Shards share nothing, so they are `Send` by
//! construction (asserted by the `send_assertions` suite) and a
//! [`crate::ServingHost`] can run one per worker thread. A single stream is
//! one bare `Shard`; a host-shared cache tier is attached by the
//! [`crate::ServingHost`] that owns it, never by the shard.
//!
//! There is one query path — [`dlrm::InferenceEngine::execute_into`] over
//! [`crate::SdmMemoryManager`] — and one batch loop over it. Every state
//! change a query makes (row-cache fill, tier promotion, pooled-cache
//! insert) happens in program order; what [`BatchMode`] chooses is only the
//! *instant* each query is handed, which is where overlap lives on a
//! virtual clock: a query's reads queue on the devices behind those of the
//! queries started before it finished.

use crate::config::{BatchMode, SdmConfig};
use crate::error::SdmError;
use crate::loader::ModelLoader;
use crate::manager::SdmMemoryManager;
use dlrm::{
    ComputeModel, InferenceEngine, LatencyBreakdown, ModelConfig, PoolingBuffers, QueryResult,
};
use io_engine::IoEngine;
use scm_device::DeviceArray;
use sdm_metrics::{LatencyHistogram, SimDuration, SimInstant};
use std::collections::VecDeque;
use workload::Query;

/// Throughput/latency summary of a batch of queries executed on one stream.
///
/// Multi-stream throughput is *measured* by [`crate::ServingHost`]
/// ([`crate::HostReport`]), not extrapolated from this.
#[derive(Debug, Clone)]
pub struct QpsReport {
    /// Queries executed.
    pub queries: u64,
    /// Mean end-to-end latency.
    pub mean_latency: SimDuration,
    /// 95th percentile latency.
    pub p95_latency: SimDuration,
    /// 99th percentile latency.
    pub p99_latency: SimDuration,
    /// Queries per second a single serving stream achieves
    /// (`1 / mean latency`).
    pub qps_single_stream: f64,
    /// Virtual time from the batch's first issue to its last completion.
    /// Under [`crate::BatchMode::Exact`] this is the sum of per-query
    /// latencies; under [`crate::BatchMode::Relaxed`] overlapped IO makes
    /// it shorter than the sum.
    pub makespan: SimDuration,
    /// Batch throughput on the virtual clock: `queries / makespan`. This is
    /// the number the exact-vs-relaxed comparison trades against per-query
    /// tail latency.
    pub batch_qps: f64,
}

impl QpsReport {
    fn new(hist: &LatencyHistogram, makespan: SimDuration) -> Self {
        let mean = hist.mean();
        QpsReport {
            queries: hist.count(),
            mean_latency: mean,
            p95_latency: hist.p95(),
            p99_latency: hist.p99(),
            qps_single_stream: if mean.is_zero() {
                0.0
            } else {
                1.0 / mean.as_secs_f64()
            },
            makespan,
            batch_qps: if makespan.is_zero() {
                0.0
            } else {
                hist.count() as f64 / makespan.as_secs_f64()
            },
        }
    }
}

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
    /// Finish instants of the batch's queries still in flight, oldest
    /// first; never longer than the in-flight window, reused across batches.
    inflight: VecDeque<SimInstant>,
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
            inflight: VecDeque::new(),
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
    /// called where a stretch of work — a query or a batch — starts (after
    /// a batch's start is stamped) and where it ends. Serving never puts
    /// the manager ahead — every lookup ends inside its query's embedding
    /// phase (`tests/clock_laws.rs`) — so at a start this is the identity
    /// unless a model update ran in between: the update advanced the
    /// manager's clock by its writes and re-read, and raising the shard to
    /// it charges that window to the batch about to run, in its makespan.
    /// At an end it tells the manager the shard's present, which is when an
    /// update applied next begins.
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
    /// Convenience form of [`Shard::run_query_into`]: the returned
    /// `QueryResult` is fresh and owns its scores, so each call pays the
    /// allocation the reusable paths ([`Shard::run_query_into`] and
    /// [`Shard::run_batch`]) amortise away. Results are identical either
    /// way — scratch never affects values.
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors.
    pub fn run_query(&mut self, query: &Query) -> Result<QueryResult, SdmError> {
        let mut result = QueryResult::default();
        self.run_query_into(query, &mut result)?;
        Ok(result)
    }

    /// The batch execution mode this shard was configured with.
    pub fn batch_mode(&self) -> BatchMode {
        self.manager.config().batch_mode
    }

    /// The in-flight window of the configured [`BatchMode`].
    fn window(&self) -> usize {
        match self.batch_mode() {
            BatchMode::Exact => 1,
            BatchMode::Relaxed {
                max_inflight_queries,
            } => max_inflight_queries.max(1),
        }
    }

    /// The batch core: executes every yielded query through the
    /// zero-allocation hot path, in order, recording scores, latencies and
    /// the latency histogram into the batch scratch. Query `k` starts at
    /// `max(start[k−1] + bottom MLP of k−1, finish[k−W])` — the issuer is
    /// busy for a query's bottom MLP before it can start the next, and a
    /// full window waits for its oldest query — and the shard clock ends at
    /// the latest finish. With `W = 1` the second term always wins, so each
    /// query starts where the previous one finished: the per-query loop.
    ///
    /// A failing query ends the batch; the clock has advanced over the
    /// queries that ran.
    fn run_batch_core<'a>(
        &mut self,
        queries: impl Iterator<Item = &'a Query>,
    ) -> Result<(), SdmError> {
        let window = self.window();
        self.batch.reset(self.clock);
        self.sync_clocks();
        self.inflight.clear();
        let mut submit = self.clock;
        for q in queries {
            if self.inflight.len() == window {
                if let Some(finished) = self.inflight.pop_front() {
                    submit = submit.max(finished);
                }
            }
            self.engine.execute_into(
                q,
                &mut self.manager,
                submit,
                &mut self.buffers,
                &mut self.batch.result,
            )?;
            let latency = self.batch.result.latency;
            let finish = submit + latency.total;
            self.clock = self.clock.max(finish);
            self.inflight.push_back(finish);
            submit += latency.bottom_mlp;
            self.batch.push_result();
        }
        self.sync_clocks();
        Ok(())
    }

    /// Summarises the last batch from its histogram and makespan.
    pub(crate) fn batch_report(&self) -> QpsReport {
        QpsReport::new(
            &self.batch.hist,
            self.clock.duration_since(self.batch.started_at),
        )
    }

    /// Executes a batch of queries through the zero-allocation hot path and
    /// summarises latency and throughput, honouring the configured
    /// [`BatchMode`].
    ///
    /// In [`BatchMode::Exact`] (the default) virtual-time semantics are
    /// identical to looping [`Shard::run_query`] — each query starts where
    /// its predecessor finished, so results, cache counters and IO totals
    /// are bit-for-bit the same (asserted by the `batch_equivalence`
    /// suite). What batching buys is host-side efficiency: one set of
    /// scratch buffers serves the whole batch, per-query results land in a
    /// flat reused arena (readable via [`Shard::batch_scores`]) instead of
    /// a fresh `QueryResult` per query, and each operator's SM misses go to
    /// the device as one ring submission whose completions are pooled as
    /// they drain.
    ///
    /// In [`BatchMode::Relaxed`] up to `max_inflight_queries` queries are
    /// started before the oldest finishes, so their SM misses share the
    /// device queues: deeper queues and a shorter batch makespan
    /// ([`QpsReport::batch_qps`]) at the cost of per-query tail latency
    /// (the `batch_overlap` suite pins down the equivalence and
    /// conservation contracts).
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors; the batch stops at the first
    /// failing query.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<QpsReport, SdmError> {
        self.run_batch_core(queries.iter())?;
        Ok(self.batch_report())
    }

    /// Executes a stream of queries and summarises latency and throughput:
    /// a thin loop over [`Shard::run_batch`] in bounded chunks, so an
    /// arbitrarily long stream never retains more than one chunk's worth of
    /// per-query scores in the batch scratch.
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors.
    pub fn run_queries(&mut self, queries: &[Query]) -> Result<QpsReport, SdmError> {
        /// Caps batch-scratch retention (scores, latencies) for long streams.
        const CHUNK: usize = 1024;
        if queries.len() <= CHUNK {
            return self.run_batch(queries);
        }
        let started = self.now();
        let mut hist = LatencyHistogram::new();
        for chunk in queries.chunks(CHUNK) {
            self.run_batch(chunk)?;
            hist.merge(&self.batch.hist);
        }
        Ok(QpsReport::new(&hist, self.now().duration_since(started)))
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
        self.run_batch_core(picks.iter().map(|&i| &queries[i]))
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
    fn run_queries_executes_a_stream_end_to_end() {
        let model = model_zoo::tiny(2, 1, 400);
        let mut shard = Shard::build(&model, SdmConfig::for_tests(), 3).unwrap();
        let queries = workload(&model, 20, 3);
        let report = shard.run_queries(&queries).unwrap();
        assert_eq!(report.queries, 20);
        assert!(report.mean_latency > SimDuration::ZERO);
        assert!(report.p99_latency >= report.p95_latency);
        assert!(report.qps_single_stream > 0.0);
        assert!(shard.now() > SimInstant::EPOCH);
        // The SM path was actually exercised.
        assert!(shard.manager().stats().sm_reads > 0);
    }

    #[test]
    fn batch_report_carries_virtual_makespan_and_qps() {
        // In exact mode the makespan is the serial sum of per-query
        // latencies, so batch_qps and the 1/mean extrapolation agree.
        let model = model_zoo::tiny(2, 1, 300);
        let mut shard = Shard::build(&model, SdmConfig::for_tests(), 5).unwrap();
        let queries = workload(&model, 12, 5);
        let before = shard.now();
        let report = shard.run_batch(&queries).unwrap();
        assert_eq!(
            report.makespan,
            shard.now().duration_since(before),
            "exact makespan must equal the clock advance"
        );
        assert!(report.batch_qps > 0.0);
        // Mean latency truncates to whole nanoseconds, so the two rates
        // agree only up to that rounding.
        assert!(
            (report.batch_qps - report.qps_single_stream).abs() / report.qps_single_stream < 1e-4,
            "serial batch throughput equals 1/mean-latency (up to ns rounding)"
        );
    }

    #[test]
    fn chunked_run_queries_matches_single_batch_report() {
        let model = model_zoo::tiny(1, 1, 200);
        let queries = workload(&model, 1200, 8); // > CHUNK forces the chunked path
        let mut chunked = Shard::build(&model, SdmConfig::for_tests(), 8).unwrap();
        let mut single = Shard::build(&model, SdmConfig::for_tests(), 8).unwrap();
        let a = chunked.run_queries(&queries).unwrap();
        let b = single.run_batch(&queries).unwrap();
        assert_eq!(a.queries, 1200);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.mean_latency, b.mean_latency);
        assert_eq!(a.p95_latency, b.p95_latency);
        assert_eq!(a.p99_latency, b.p99_latency);
        assert_eq!(chunked.now(), single.now());
        // The chunked path retains at most one chunk of scores.
        assert!(chunked.batch_len() <= 1024);
    }

    #[test]
    fn invalid_config_is_rejected_at_build() {
        let model = model_zoo::tiny(1, 1, 100);
        let mut config = SdmConfig::for_tests();
        config.device_count = 0;
        assert!(Shard::build(&model, config, 0).is_err());
    }

    #[test]
    fn the_clock_follows_the_schedule_law_at_every_window() {
        // No digest: rebuild every start instant from the per-query
        // latencies alone — `start[k] = max(start[k−1] + bottom[k−1],
        // finish[k−W])`, `finish[k] = start[k] + total[k]` — and the shard
        // clock and the reported makespan must come out exactly.
        let model = model_zoo::tiny(2, 1, 400);
        let queries = workload(&model, 30, 9);
        for window in [1usize, 2, 8] {
            let config = SdmConfig::for_tests().with_relaxed_batching(window);
            let mut shard = Shard::build(&model, config, 9).unwrap();
            // Two batches: the second starts from a non-zero clock.
            for batch in queries.chunks(15) {
                let began = shard.now();
                let report = shard.run_batch(batch).unwrap();
                let mut starts: Vec<SimInstant> = Vec::new();
                let mut finishes: Vec<SimInstant> = Vec::new();
                for k in 0..batch.len() {
                    let mut start = match k {
                        0 => began,
                        _ => starts[k - 1] + shard.batch_latency(k - 1).bottom_mlp,
                    };
                    if k >= window {
                        start = start.max(finishes[k - window]);
                    }
                    starts.push(start);
                    finishes.push(start + shard.batch_latency(k).total);
                }
                let end = finishes.iter().copied().max().unwrap();
                assert_eq!(shard.now(), end, "window {window}: clock");
                assert_eq!(
                    report.makespan,
                    end.duration_since(began),
                    "window {window}: makespan"
                );
            }
        }
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
