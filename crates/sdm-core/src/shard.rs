//! One serving shard: the complete per-stream serving state of a host.
//!
//! A shard owns everything one concurrent serving stream needs — an
//! inference engine, an SDM memory manager (with its own IO engine and
//! caches), a virtual clock and the reusable scratch that makes the hot
//! path allocation-free. Shards share nothing, so they are `Send` by
//! construction (asserted by the `send_assertions` suite) and a
//! [`crate::ServingHost`] can run one per worker thread. Only a host builds
//! shards — a single stream is a 1-shard host — and a host-shared cache
//! tier is attached by the host that owns it, never by the shard.
//!
//! There is one query path — [`dlrm::InferenceEngine::execute_into`] over
//! [`crate::SdmMemoryManager`] — and one batch loop over it,
//! [`Shard::run_indexed_batch`]. Every state
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
    #[cfg(test)]
    poisoned: bool,
}

impl Shard {
    /// Builds the full per-stream stack for a (scaled) model.
    ///
    /// # Errors
    ///
    /// Propagates configuration, layout and device errors.
    pub(crate) fn build(
        model: &ModelConfig,
        config: SdmConfig,
        seed: u64,
    ) -> Result<Self, SdmError> {
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
            #[cfg(test)]
            poisoned: false,
        })
    }

    /// Makes the next batch on this shard panic inside its worker thread.
    ///
    /// Failure-handling test hook: the host must convert the panic into
    /// [`SdmError::ShardFailed`] and keep the other shards serving.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
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

    /// Mutable access to the inference engine (to switch execution mode).
    pub fn engine_mut(&mut self) -> &mut InferenceEngine {
        &mut self.engine
    }

    /// Attaches the host-shared cache tier to this shard's manager,
    /// tagging its promotions with `source` (the shard's index in the
    /// host). See [`crate::SdmMemoryManager::attach_shared_tier`].
    pub(crate) fn attach_shared_tier(
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

    /// Executes the subset of `queries` selected by `picks` (positions into
    /// `queries`, in the order given) through the zero-allocation hot path,
    /// honouring the configured [`BatchMode`]; query `picks[k]`'s scores
    /// are [`Shard::batch_scores`]`(k)`. A whole stream is the identity
    /// selection.
    ///
    /// This is the one way a shard serves: a [`workload::Scheduler`]
    /// partitions a host batch into per-shard pick lists, each shard runs
    /// its picks, and the host merges results back into query order via
    /// the pick positions. With warm scratch and warmed caches it performs
    /// **zero heap allocations** (asserted by the `zero_alloc` suite): one
    /// set of scratch buffers serves the whole batch and per-query results
    /// land in a flat reused arena.
    ///
    /// Query `k` starts at `max(start[k−1] + bottom MLP of k−1,
    /// finish[k−W])` — the issuer is busy for a query's bottom MLP before
    /// it can start the next, and a full window of `W` in-flight queries
    /// waits for its oldest — and the shard clock ends at the latest
    /// finish. Under [`BatchMode::Exact`] (`W = 1`) the second term always
    /// wins, so each query starts where the previous one finished and one
    /// N-query batch is bit-identical to N one-query batches (asserted by
    /// the `batch_equivalence` suite). Under [`BatchMode::Relaxed`] the
    /// queries' SM misses share the device queues: deeper queues and a
    /// shorter makespan at the cost of per-query tail latency (the
    /// `batch_overlap` suite pins down the equivalence and conservation
    /// contracts).
    ///
    /// # Errors
    ///
    /// Propagates engine and memory errors; the batch stops at the first
    /// failing query, with the clock advanced over the queries that ran.
    ///
    /// # Panics
    ///
    /// Panics when a pick is out of range for `queries`.
    pub fn run_indexed_batch(
        &mut self,
        queries: &[Query],
        picks: &[usize],
    ) -> Result<(), SdmError> {
        #[cfg(test)]
        if self.poisoned {
            self.poisoned = false;
            panic!("poisoned shard (test hook)");
        }
        let window = self.window();
        self.batch.reset(self.clock);
        self.sync_clocks();
        self.inflight.clear();
        let mut submit = self.clock;
        for &i in picks {
            if self.inflight.len() == window {
                if let Some(finished) = self.inflight.pop_front() {
                    submit = submit.max(finished);
                }
            }
            self.engine.execute_into(
                &queries[i],
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

    /// Virtual time from the last batch's start to its last completion.
    pub(crate) fn batch_makespan(&self) -> SimDuration {
        self.clock.duration_since(self.batch.started_at)
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

    fn identity(queries: &[Query]) -> Vec<usize> {
        (0..queries.len()).collect()
    }

    #[test]
    fn indexed_batch_executes_picks_in_given_order() {
        let model = model_zoo::tiny(1, 1, 300);
        let queries = workload(&model, 8, 6);
        let picks = [6usize, 2, 4, 2];
        let mut batched = Shard::build(&model, SdmConfig::for_tests(), 6).unwrap();
        batched.run_indexed_batch(&queries, &picks).unwrap();
        assert_eq!(batched.batch_len(), picks.len());
        // Bit-identical to one-query batches visiting the same picks in the
        // same order (so cache warm-up history matches exactly).
        let mut looped = Shard::build(&model, SdmConfig::for_tests(), 6).unwrap();
        for (k, &qi) in picks.iter().enumerate() {
            looped.run_indexed_batch(&queries, &[qi]).unwrap();
            assert_eq!(looped.batch_scores(0), batched.batch_scores(k));
            assert_eq!(looped.batch_latency(0), batched.batch_latency(k));
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
        assert_eq!(shard.batch_hist().count(), 0);
        assert_eq!(shard.batch_makespan(), SimDuration::ZERO);
        assert_eq!(shard.now(), SimInstant::EPOCH);
    }

    #[test]
    fn indexed_batch_executes_a_stream_end_to_end() {
        let model = model_zoo::tiny(2, 1, 400);
        let mut shard = Shard::build(&model, SdmConfig::for_tests(), 3).unwrap();
        let queries = workload(&model, 20, 3);
        shard
            .run_indexed_batch(&queries, &identity(&queries))
            .unwrap();
        let hist = shard.batch_hist();
        assert_eq!(hist.count(), 20);
        assert!(hist.mean() > SimDuration::ZERO);
        assert!(hist.p99() >= hist.p95());
        assert!(shard.now() > SimInstant::EPOCH);
        // The SM path was actually exercised.
        assert!(shard.manager().stats().sm_reads > 0);
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
        // clock and the batch makespan must come out exactly.
        let model = model_zoo::tiny(2, 1, 400);
        let queries = workload(&model, 30, 9);
        for window in [1usize, 2, 8] {
            let config = SdmConfig::for_tests().with_relaxed_batching(window);
            let mut shard = Shard::build(&model, config, 9).unwrap();
            // Two batches: the second starts from a non-zero clock.
            for batch in queries.chunks(15) {
                let began = shard.now();
                shard.run_indexed_batch(batch, &identity(batch)).unwrap();
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
                    shard.batch_makespan(),
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
        cpu.run_indexed_batch(&queries, &[0]).unwrap();
        accel.run_indexed_batch(&queries, &[0]).unwrap();
        assert!(accel.batch_latency(0).top_mlp < cpu.batch_latency(0).top_mlp);
        assert_eq!(accel.batch_scores(0), cpu.batch_scores(0));
    }
}
