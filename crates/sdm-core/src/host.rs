//! Shard-partitioned, thread-parallel serving host.
//!
//! The paper reports host-level QPS by extrapolating single-stream latency
//! across concurrent serving streams (§3, Table 4). This module replaces
//! that assumption with a measurement: a [`ServingHost`] owns N
//! [`Shard`]s — each a complete serving replica with its own
//! [`crate::SdmMemoryManager`], IO engine, caches and scratch — routes each
//! incoming batch across them with a [`workload::Scheduler`] policy, runs
//! the first non-empty partition on the calling thread and every other
//! non-empty one on a scoped worker thread, and merges per-shard scores,
//! latencies and cache counters back into query order. The reported
//! [`HostReport::wall_qps`] is real wall-clock throughput, shaped by the
//! machine's core count and by how the routing policy concentrates each
//! shard's working set, not by an idealized linear model.
//!
//! The host also owns end-to-end failure handling: a panic in a shard —
//! on a worker or on the calling thread — is caught around the shard's
//! batch and converted into [`SdmError::ShardFailed`] so a poisoned shard
//! fails its batch cleanly, and per-shard health tracking
//! (consecutive failures plus a makespan EWMA) routes subsequent batches
//! away from failing or straggling shards, with a periodic probe batch
//! that gives them traffic back so they can recover. The aggregate
//! [`ServingHost::health_fraction`] feeds the front end's brownout
//! admission control.

use crate::config::SdmConfig;
use crate::error::SdmError;
use crate::shard::Shard;
use crate::stats::SdmStats;
use crate::update::{self, UpdateKind, UpdateReport};
use dlrm::{LatencyBreakdown, ModelConfig};
use io_engine::IoStats;
use sdm_cache::SharedRowTier;
use sdm_metrics::{LatencyHistogram, SimDuration};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use workload::{Query, RoutingPolicy, Scheduler};

/// Consecutive failed batches after which a shard is routed around.
const FAILURE_THRESHOLD: u32 = 2;
/// Successful batches a shard must have served before its makespan EWMA
/// is trusted for straggler detection.
const WARMUP_BATCHES: u64 = 3;
/// A shard whose makespan EWMA exceeds the fastest warmed healthy
/// shard's by this factor is treated as a straggler.
const STRAGGLER_FACTOR: u64 = 4;
/// Every `PROBE_INTERVAL`-th batch skips failover rerouting so unhealthy
/// shards see traffic again and get a chance to recover.
const PROBE_INTERVAL: u64 = 8;

/// Health of one shard: consecutive batch failures plus an EWMA of its
/// per-batch virtual makespan (α = 1/4, integer nanoseconds so identical
/// runs stay bit-identical).
#[derive(Debug, Clone, Copy, Default)]
struct ShardHealth {
    /// Batches that failed back-to-back; reset by any success.
    consecutive_failures: u32,
    /// EWMA of per-batch virtual makespan, in nanoseconds.
    latency_ewma: u64,
    /// Successful (non-empty) batches folded into the EWMA.
    batches: u64,
}

impl ShardHealth {
    fn record_success(&mut self, makespan: SimDuration) {
        self.consecutive_failures = 0;
        let sample = makespan.as_nanos();
        self.latency_ewma = if self.batches == 0 {
            sample
        } else {
            self.latency_ewma.saturating_mul(3).saturating_add(sample) / 4
        };
        self.batches += 1;
    }

    fn record_failure(&mut self) {
        self.consecutive_failures += 1;
    }
}

/// The straggler reference: the smallest makespan EWMA among warmed,
/// zero-failure shards. `None` until at least one shard qualifies.
fn ewma_reference(health: &[ShardHealth]) -> Option<u64> {
    health
        .iter()
        .filter(|h| h.consecutive_failures == 0 && h.batches >= WARMUP_BATCHES)
        .map(|h| h.latency_ewma)
        .min()
}

/// Whether a shard should be routed around: it keeps failing, or it has
/// warmed up as a straggler relative to the fastest healthy shard. A
/// shard can never be a straggler relative to itself, so a 1-shard host
/// only ever fails over on repeated failures (to nowhere — see
/// [`reroute_unhealthy`]).
fn is_unhealthy(h: &ShardHealth, reference: Option<u64>) -> bool {
    if h.consecutive_failures >= FAILURE_THRESHOLD {
        return true;
    }
    match reference {
        Some(r) => {
            h.batches >= WARMUP_BATCHES && h.latency_ewma > r.saturating_mul(STRAGGLER_FACTOR)
        }
        None => false,
    }
}

/// Moves every unhealthy shard's picks onto healthy shards, round-robin,
/// keeping `pos` (merge positions) in tandem with `exec`. Returns the
/// number of shard-batches
/// rerouted. No-ops — without allocating — when every shard is healthy,
/// so the steady-state hot path stays allocation-free; also no-ops when
/// *no* shard is healthy (there is nowhere to fail over to, so the batch
/// serves in place and surfaces its errors).
fn reroute_unhealthy(
    health: &[ShardHealth],
    exec: &mut [Vec<usize>],
    pos: &mut [Vec<usize>],
) -> u64 {
    let reference = ewma_reference(health);
    if !health.iter().any(|h| is_unhealthy(h, reference)) {
        return 0;
    }
    if !health.iter().any(|h| !is_unhealthy(h, reference)) {
        return 0;
    }
    let mut moved = 0;
    let mut target = 0usize;
    for u in 0..health.len() {
        if !is_unhealthy(&health[u], reference) || exec[u].is_empty() {
            continue;
        }
        moved += 1;
        for k in 0..exec[u].len() {
            while is_unhealthy(&health[target], reference) {
                target = (target + 1) % health.len();
            }
            let (pick, merge_at) = (exec[u][k], pos[u][k]);
            exec[target].push(pick);
            pos[target].push(merge_at);
            target = (target + 1) % health.len();
        }
        exec[u].clear();
        pos[u].clear();
    }
    moved
}

/// Folds each shard's batch outcome into its health record: shards that
/// executed a non-empty partition contribute their makespan to the EWMA
/// (and clear their failure streak).
fn record_batch_health(health: &mut [ShardHealth], shards: &[Shard], exec: &[Vec<usize>]) {
    for ((h, shard), picks) in health.iter_mut().zip(shards.iter()).zip(exec.iter()) {
        if !picks.is_empty() {
            h.record_success(shard.batch_makespan());
        }
    }
}

/// Renders a worker panic payload for [`SdmError::ShardFailed`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Measured outcome of one [`ServingHost::run_selected_batch`]: the merged
/// latency distribution, the virtual makespan and QPS, and the measured
/// wall-clock throughput. A 1-shard host's report is a single stream's:
/// its `virtual_makespan` is the stream's clock advance over the batch.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Queries executed across all shards.
    pub queries: u64,
    /// Shards (concurrent serving streams) that served the batch.
    pub shards: usize,
    /// Mean per-query virtual latency across all shards.
    pub mean_latency: SimDuration,
    /// 95th percentile per-query virtual latency.
    pub p95_latency: SimDuration,
    /// 99th percentile per-query virtual latency.
    pub p99_latency: SimDuration,
    /// Host wall-clock duration of the batch, in seconds.
    pub wall_seconds: f64,
    /// Measured host throughput: queries per wall-clock second.
    pub wall_qps: f64,
    /// Virtual makespan of the batch: the longest per-shard makespan, since
    /// shards execute their partitions in parallel. Deterministic (virtual
    /// clock), unlike the wall-clock fields.
    pub virtual_makespan: SimDuration,
    /// Batch throughput on the virtual clock: `queries / virtual_makespan`.
    /// Deterministic, so CI can gate on it — this is the number that shows
    /// the shared tier's avoided SM reads, independent of host core count.
    pub virtual_qps: f64,
}

/// Reusable merge buffers: per-query score ranges and latencies in original
/// query order, refilled from the shards' batch scratch after each batch.
#[derive(Debug, Default)]
struct MergeScratch {
    /// Scores of every query of the last batch (shard-major order).
    scores: Vec<f32>,
    /// `(start, len)` into `scores` for each query, in query order.
    ranges: Vec<(usize, usize)>,
    /// Latency breakdown per query, in query order.
    latencies: Vec<LatencyBreakdown>,
    /// Merged latency histogram of the last batch.
    hist: LatencyHistogram,
    /// Each shard's failure in the batch being executed (all `None` after a
    /// successful one); the first, in shard order, fails the batch.
    errors: Vec<Option<SdmError>>,
}

/// A multi-stream serving host: N shards behind a routing scheduler.
///
/// Shards are full serving replicas of the same model, built from an evenly
/// divided [`SdmConfig`] (see `SdmConfig::divide_among_indexed`): each owns a
/// slice of the host's fast-memory cache budget and device-queue slots. A
/// batch is partitioned by the configured [`RoutingPolicy`] — user-sticky
/// routing keeps each user's repeating index sequences on one shard, which
/// is what makes per-shard caches effective (paper Figure 4c) — executed
/// with the first non-empty partition on the calling thread and one
/// `std::thread::scope` worker for each other non-empty one, and merged
/// back into query order.
///
/// A 1-shard host divides nothing, spawns nothing and runs its one shard's
/// [`Shard::run_indexed_batch`] on the calling thread, so its results are
/// bit-identical to a bare shard's: it is how a single stream is served.
#[derive(Debug)]
pub struct ServingHost {
    shards: Vec<Shard>,
    scheduler: Scheduler,
    /// The host-shared second cache tier, `None` when disabled. Shards hold
    /// `Arc` clones; this handle serves the host-level accessors.
    shared: Option<Arc<SharedRowTier>>,
    /// Per-shard positions within `queries` each shard executes, reused
    /// across batches so steady-state partitioning allocates nothing.
    exec: Vec<Vec<usize>>,
    /// Per-shard positions within the selection (where each result merges
    /// back), parallel to `exec`.
    pos: Vec<Vec<usize>>,
    merged: MergeScratch,
    /// Per-shard health (failure streaks + makespan EWMA), driving
    /// failover rerouting and the front end's brownout signal.
    health: Vec<ShardHealth>,
    /// Batches attempted (drives the periodic recovery probe).
    batches_run: u64,
    /// Shard-batches rerouted away from unhealthy shards.
    failovers: u64,
}

/// Runs one shard's partition. A panic becomes a typed per-shard error
/// instead of unwinding through the host (or, on a worker, through the
/// thread scope).
fn run_guarded(
    index: usize,
    shard: &mut Shard,
    queries: &[Query],
    picks: &[usize],
) -> Result<(), SdmError> {
    catch_unwind(AssertUnwindSafe(|| shard.run_indexed_batch(queries, picks))).unwrap_or_else(
        |payload| {
            Err(SdmError::ShardFailed {
                shard: index,
                cause: panic_message(payload),
            })
        },
    )
}

/// Runs every shard on its partition and merges scores, latencies and the
/// latency histogram back into selection order; returns the batch's virtual
/// makespan (the slowest shard's).
///
/// `exec_parts[s]` holds the positions within `queries` shard `s` executes;
/// `merge_pos[s]` the parallel positions within the output selection
/// (`0..out_len`) each result lands at — the two-level mapping from
/// [`Scheduler::partition_picks_into`].
fn execute_and_merge(
    shards: &mut [Shard],
    queries: &[Query],
    exec_parts: &[Vec<usize>],
    merge_pos: &[Vec<usize>],
    out_len: usize,
    merged: &mut MergeScratch,
) -> Result<SimDuration, SdmError> {
    merged.scores.clear();
    merged.ranges.clear();
    merged.latencies.clear();
    merged.hist.reset();

    // The first non-empty partition runs on the calling thread and only the
    // other non-empty ones get a scoped worker: a batch that routes to one
    // shard (always, on a 1-shard host) spawns nothing and allocates
    // nothing. Empty partitions still run, inline, so their batch scratch,
    // histogram and makespan are reset rather than left over from an
    // earlier batch.
    let inline = exec_parts.iter().position(|p| !p.is_empty());
    merged.errors.clear();
    merged.errors.resize_with(shards.len(), || None);
    let jobs = shards.iter_mut().zip(exec_parts).zip(&mut merged.errors);
    if exec_parts.iter().filter(|p| !p.is_empty()).count() < 2 {
        for (i, ((shard, picks), error)) in jobs.enumerate() {
            *error = run_guarded(i, shard, queries, picks).err();
        }
    } else {
        std::thread::scope(|scope| {
            // Last shard first: by the time the caller reaches its own
            // partition every worker is under way. The scope joins them;
            // each outcome lands in its shard's error slot, so no handle
            // is kept.
            for (i, ((shard, picks), error)) in jobs.enumerate().rev() {
                if picks.is_empty() || Some(i) == inline {
                    *error = run_guarded(i, shard, queries, picks).err();
                } else {
                    scope.spawn(move || *error = run_guarded(i, shard, queries, picks).err());
                }
            }
        });
    }
    if let Some(e) = merged.errors.iter_mut().find_map(Option::take) {
        return Err(e);
    }

    // Merge per-shard results back into selection order: shard `s` executed
    // its picks in stream order, so its k-th batch entry lands at position
    // `merge_pos[s][k]`.
    merged.ranges.resize(out_len, (0, 0));
    merged
        .latencies
        .resize(out_len, LatencyBreakdown::default());
    for (shard, positions) in shards.iter().zip(merge_pos.iter()) {
        debug_assert_eq!(shard.batch_len(), positions.len());
        for (k, &out) in positions.iter().enumerate() {
            let scores = shard.batch_scores(k);
            let start = merged.scores.len();
            merged.scores.extend_from_slice(scores);
            merged.ranges[out] = (start, scores.len());
            merged.latencies[out] = shard.batch_latency(k);
        }
        merged.hist.merge(shard.batch_hist());
    }
    Ok(shards
        .iter()
        .map(Shard::batch_makespan)
        .max()
        .unwrap_or(SimDuration::ZERO))
}

/// Builds the [`HostReport`] from merged results and the measured windows.
fn finish_report(
    shards: usize,
    merged: &MergeScratch,
    wall_seconds: f64,
    virtual_makespan: SimDuration,
) -> HostReport {
    let executed = merged.hist.count();
    HostReport {
        queries: executed,
        shards,
        mean_latency: merged.hist.mean(),
        p95_latency: merged.hist.p95(),
        p99_latency: merged.hist.p99(),
        wall_seconds,
        wall_qps: if wall_seconds > 0.0 {
            executed as f64 / wall_seconds
        } else {
            0.0
        },
        virtual_makespan,
        virtual_qps: if virtual_makespan.is_zero() {
            0.0
        } else {
            executed as f64 / virtual_makespan.as_secs_f64()
        },
    }
}

impl ServingHost {
    /// Builds a host of `shards` serving replicas of `model`, each from an
    /// equal slice of `config`, routed by `policy`.
    ///
    /// All shards are seeded identically, so they materialise bit-identical
    /// table and MLP weights: which shard serves a query never changes its
    /// scores.
    ///
    /// # Errors
    ///
    /// Returns [`SdmConfig::validate`]'s error for an invalid `config`
    /// before dividing it (a per-shard slice floors a zero engine limit at
    /// one, which would hide it), and propagates layout and device errors,
    /// including a per-shard budget slice that divides down to zero.
    pub fn build(
        model: &ModelConfig,
        config: &SdmConfig,
        seed: u64,
        shards: usize,
        policy: RoutingPolicy,
    ) -> Result<Self, SdmError> {
        config.validate()?;
        let count = shards.max(1);
        let mut built = Vec::with_capacity(count);
        for i in 0..count {
            // Lossless per-shard slices: shard `i` receives share `i` of
            // every divided resource, so the shards' budgets sum exactly to
            // the host configuration (remainders go to the first shards).
            built.push(Shard::build(
                model,
                config.divide_among_indexed(count, i),
                seed,
            )?);
        }
        // The shared tier is carved out once at the host level — its budget
        // is deliberately *not* divided — and every shard gets a handle,
        // tagged with its index so cross-shard hits are distinguishable.
        let shared = if config.cache.shared_tier_budget.is_zero() {
            None
        } else {
            let tier = Arc::new(SharedRowTier::new(
                config.cache.shared_tier_budget,
                config.cache.shared_tier_stripes,
            ));
            for (i, shard) in built.iter_mut().enumerate() {
                shard.attach_shared_tier(Arc::clone(&tier), i as u32);
            }
            Some(tier)
        };
        Ok(ServingHost {
            shards: built,
            scheduler: Scheduler::new(count, policy),
            shared,
            exec: Vec::new(),
            pos: Vec::new(),
            merged: MergeScratch::default(),
            health: vec![ShardHealth::default(); count],
            batches_run: 0,
            failovers: 0,
        })
    }

    /// The host-shared cache tier, `None` when the configuration disables
    /// it (`shared_tier_budget == 0`).
    pub fn shared_tier(&self) -> Option<&SharedRowTier> {
        self.shared.as_deref()
    }

    /// Number of shards (concurrent serving streams).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The scheduler that routes each batch's queries to the shards.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Read access to shard `i` (its manager, caches and statistics).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Mutable access to shard `i` (fault-plan injection on its devices,
    /// compute-mode switches, cache invalidation).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut Shard {
        &mut self.shards[i]
    }

    /// Fraction of shards currently considered healthy (1.0 = all). The
    /// front end scales its admission threshold by this to brown out when
    /// backend capacity degrades.
    pub(crate) fn health_fraction(&self) -> f64 {
        let reference = ewma_reference(&self.health);
        let healthy = self
            .health
            .iter()
            .filter(|h| !is_unhealthy(h, reference))
            .count();
        healthy as f64 / self.health.len().max(1) as f64
    }

    /// Shard-batches rerouted away from unhealthy shards so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Aggregated serving statistics across all shards (counters add,
    /// histograms merge), including every shard engine's resilience
    /// counters and the host's failover count.
    pub fn stats(&self) -> SdmStats {
        let mut total = SdmStats::new();
        for shard in &self.shards {
            total.merge(shard.manager().stats());
            let r = shard.manager().io_engine().stats().resilience;
            total.io_retries += r.retries;
            total.io_transient_errors += r.transient_errors;
            total.io_checksum_failures += r.checksum_failures;
            total.io_deadline_timeouts += r.deadline_timeouts;
            total.io_hedges += r.hedges;
            total.io_hedge_wins += r.hedge_wins;
        }
        total.shard_failovers += self.failovers;
        total
    }

    /// Host-level queue-occupancy accounting: every shard engine's
    /// per-submission depth samples folded into one [`IoStats`]. Relaxed
    /// batch mode exists to push this distribution deeper (paper §3.2).
    pub fn queue_depth(&self) -> IoStats {
        let mut total = IoStats::default();
        for shard in &self.shards {
            total.merge(&shard.manager().io_engine().stats().queue_depth);
        }
        total
    }

    /// Applies a model update to the whole host: every shard's SM image is
    /// rewritten from tables generated once, every shard's caches and the
    /// shared tier are invalidated, and then each shard re-reads the rows
    /// its private cache held — promoting them into the tier as any fill
    /// does — so serving resumes warm (see [`crate::ModelUpdater`]'s module
    /// docs for the steps). The tier is emptied before the first re-read
    /// and never after, which per-shard [`crate::ModelUpdater::apply`]
    /// calls cannot offer. Rows resident *only* in the tier are not re-read.
    ///
    /// Each shard's first batch afterwards carries that shard's update
    /// window in its makespan. The merged report sums bytes and rows and
    /// takes the slowest shard's `write_time` and `rewarm_time`.
    ///
    /// # Errors
    ///
    /// Returns [`SdmError`] for device write failures and hard IO errors of
    /// the re-read.
    pub fn apply_update(
        &mut self,
        kind: UpdateKind,
        new_version: u64,
    ) -> Result<UpdateReport, SdmError> {
        let mut managers: Vec<_> = self.shards.iter_mut().map(Shard::manager_mut).collect();
        update::apply_to_all(&mut managers, kind, new_version)
    }

    /// Executes a *selection* of a query stream — `picks` holds positions
    /// within `queries`, and a whole stream is the identity selection:
    /// partitions it across the shards, runs the partitions concurrently
    /// (the first on the calling thread), merges the results back into
    /// selection order (result `i` belongs to query `queries[picks[i]]`)
    /// and reports **measured** wall-clock throughput.
    ///
    /// Scores are readable per query via [`ServingHost::scores`] — a query
    /// produces the same scores no matter how many shards the host has or
    /// which policy routed it (asserted by the `sharded_equivalence`
    /// suite). A batch that routes to a single shard — every batch of a
    /// 1-shard host — runs entirely on the calling thread, bit-identical to
    /// that shard's [`Shard::run_indexed_batch`]. Queries are served in
    /// place, never copied, so the open-loop front end's warmed
    /// admission→batch→serve loop performs no per-query allocation.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error; shard threads always join before
    /// this returns. After an error the result accessors
    /// ([`ServingHost::len`], [`ServingHost::scores`], …) report an empty
    /// batch — never a previous batch's stale results.
    pub fn run_selected_batch(
        &mut self,
        queries: &[Query],
        picks: &[usize],
    ) -> Result<HostReport, SdmError> {
        let Self {
            shards,
            scheduler,
            exec,
            pos,
            merged,
            health,
            batches_run,
            failovers,
            ..
        } = self;
        // The measured window covers the whole host-side batch — the
        // serial partition, the parallel shard execution and the serial
        // merge — so `wall_qps` is delivered throughput, not just the
        // threaded middle. This is the host's *measurement* of real thread
        // scaling — the only legitimate wall-clock read in the
        // virtual-clock stack; serving decisions never see it.
        // sdm-analyze: allow(no-wall-clock)
        let wall = Instant::now();
        scheduler.partition_picks_into(queries, picks, exec, pos);
        *batches_run += 1;
        // Failover: move picks off unhealthy shards — merge positions in
        // tandem — except on the periodic probe batch that lets them
        // demonstrate recovery.
        if *batches_run % PROBE_INTERVAL != 0 {
            *failovers += reroute_unhealthy(health, exec, pos);
        }
        let virtual_makespan =
            match execute_and_merge(shards, queries, exec, pos, picks.len(), merged) {
                Ok(m) => m,
                Err(e) => {
                    if let SdmError::ShardFailed { shard, .. } = &e {
                        if let Some(h) = health.get_mut(*shard) {
                            h.record_failure();
                        }
                    }
                    return Err(e);
                }
            };
        record_batch_health(health, shards, exec);
        let wall_seconds = wall.elapsed().as_secs_f64();
        Ok(finish_report(
            shards.len(),
            merged,
            wall_seconds,
            virtual_makespan,
        ))
    }

    /// Number of queries in the last batch.
    pub fn len(&self) -> usize {
        self.merged.ranges.len()
    }

    /// Whether the host has executed no batch (or an empty one).
    pub fn is_empty(&self) -> bool {
        self.merged.ranges.is_empty()
    }

    /// Scores of query `i` of the last batch, in original query order.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range for the last batch.
    pub fn scores(&self, i: usize) -> &[f32] {
        let (start, len) = self.merged.ranges[i];
        &self.merged.scores[start..start + len]
    }

    /// Latency breakdown of query `i` of the last batch, in original query
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range for the last batch.
    pub fn latency(&self, i: usize) -> LatencyBreakdown {
        self.merged.latencies[i]
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
            user_population: 64,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&model.tables, cfg, seed).unwrap();
        gen.generate(count)
    }

    fn identity(queries: &[Query]) -> Vec<usize> {
        (0..queries.len()).collect()
    }

    #[test]
    fn host_serves_batches_across_shards() {
        let model = model_zoo::tiny(2, 1, 400);
        let queries = workload(&model, 24, 9);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            9,
            4,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        assert_eq!(host.shards(), 4);
        assert_eq!(host.scheduler.policy(), RoutingPolicy::UserSticky);
        assert!(host.is_empty());
        let report = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        assert_eq!(report.queries, 24);
        assert_eq!(report.shards, 4);
        assert_eq!(host.len(), 24);
        assert!(report.mean_latency > SimDuration::ZERO);
        assert!(report.wall_seconds > 0.0);
        assert!(report.wall_qps > 0.0);
        // Every query produced scores of the item-batch width.
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(host.scores(i).len(), q.item_batch as usize);
            assert!(host.latency(i).total > SimDuration::ZERO);
        }
        // All shards saw work under sticky routing with many users.
        let stats = host.stats();
        assert!(stats.pooled_ops > 0);
    }

    #[test]
    fn single_shard_host_matches_a_bare_shard_bit_for_bit() {
        let model = model_zoo::tiny(2, 1, 300);
        let queries = workload(&model, 16, 10);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            10,
            1,
            RoutingPolicy::RoundRobin,
        )
        .unwrap();
        let mut shard = Shard::build(&model, SdmConfig::for_tests(), 10).unwrap();
        let report = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        shard
            .run_indexed_batch(&queries, &identity(&queries))
            .unwrap();
        assert_eq!(host.len(), shard.batch_len());
        for i in 0..host.len() {
            assert_eq!(host.scores(i), shard.batch_scores(i));
            assert_eq!(host.latency(i), shard.batch_latency(i));
        }
        let a = host.stats();
        let b = shard.manager().stats();
        assert_eq!(a.row_cache_hits, b.row_cache_hits);
        assert_eq!(a.sm_reads, b.sm_reads);
        assert_eq!(report.queries, queries.len() as u64);
        assert_eq!(report.virtual_makespan, shard.batch_makespan());
    }

    #[test]
    fn host_report_carries_virtual_makespan_and_qps() {
        // In exact mode a 1-shard host's makespan is the serial sum of
        // per-query latencies, so virtual_qps and the 1/mean extrapolation
        // agree.
        let model = model_zoo::tiny(2, 1, 300);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            5,
            1,
            RoutingPolicy::RoundRobin,
        )
        .unwrap();
        let queries = workload(&model, 12, 5);
        let before = host.shard(0).now();
        let report = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        assert_eq!(
            report.virtual_makespan,
            host.shard(0).now().duration_since(before),
            "exact makespan must equal the clock advance"
        );
        assert!(report.virtual_qps > 0.0);
        // Mean latency truncates to whole nanoseconds, so the two rates
        // agree only up to that rounding.
        let per_stream = 1.0 / report.mean_latency.as_secs_f64();
        assert!(
            (report.virtual_qps - per_stream).abs() / per_stream < 1e-4,
            "serial batch throughput equals 1/mean-latency (up to ns rounding)"
        );
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let model = model_zoo::tiny(1, 0, 200);
        let host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            11,
            0,
            RoutingPolicy::RoundRobin,
        )
        .unwrap();
        assert_eq!(host.shards(), 1);
    }

    #[test]
    fn selected_batch_serves_subsets_in_selection_order() {
        let model = model_zoo::tiny(2, 1, 300);
        let queries = workload(&model, 30, 15);
        let picks: Vec<usize> = (0..queries.len()).step_by(3).collect();
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            15,
            2,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        // Reference: a fresh host serving only the picked queries as a
        // contiguous batch produces the same scores (same seed, cold start).
        let subset: Vec<Query> = picks.iter().map(|&i| queries[i].clone()).collect();
        let mut reference = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            15,
            2,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        let a = host.run_selected_batch(&queries, &picks).unwrap();
        let b = reference
            .run_selected_batch(&subset, &identity(&subset))
            .unwrap();
        assert_eq!(a.queries, picks.len() as u64);
        assert_eq!(host.len(), picks.len());
        assert_eq!(a.virtual_makespan, b.virtual_makespan);
        for i in 0..picks.len() {
            assert_eq!(host.scores(i), reference.scores(i));
        }
    }

    #[test]
    fn poisoned_shard_fails_the_batch_cleanly() {
        let model = model_zoo::tiny(2, 1, 300);
        let queries = workload(&model, 12, 21);
        // Round-robin gives every shard work: shard 0, the first non-empty
        // partition, runs on the calling thread, shard 1 on a worker. Either
        // way the panic surfaces as the same typed error.
        for poisoned in [0, 1] {
            let mut host = ServingHost::build(
                &model,
                &SdmConfig::for_tests(),
                21,
                3,
                RoutingPolicy::RoundRobin,
            )
            .unwrap();
            host.shard_mut(poisoned).poison();
            let err = host
                .run_selected_batch(&queries, &identity(&queries))
                .unwrap_err();
            match err {
                SdmError::ShardFailed { shard, cause } => {
                    assert_eq!(shard, poisoned);
                    assert!(cause.contains("poisoned"), "cause: {cause}");
                }
                other => panic!("expected ShardFailed, got {other}"),
            }
            // The failed batch reports empty results, never stale ones.
            assert!(host.is_empty());
            // The host survives: the next batch (poison cleared) serves fine.
            let report = host
                .run_selected_batch(&queries, &identity(&queries))
                .unwrap();
            assert_eq!(report.queries, queries.len() as u64);
        }
    }

    #[test]
    fn batch_routed_to_one_shard_leaves_the_other_empty() {
        let model = model_zoo::tiny(2, 1, 300);
        let queries = workload(&model, 24, 24);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            24,
            2,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        // A full batch first, so shard 0 has results that could go stale.
        host.run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        assert!(host.shard(0).batch_len() > 0);
        let (mut parts, mut pos) = (Vec::new(), Vec::new());
        Scheduler::new(2, RoutingPolicy::UserSticky).partition_picks_into(
            &queries,
            &identity(&queries),
            &mut parts,
            &mut pos,
        );
        let for_shard_1 = parts[1].clone();
        assert!(!for_shard_1.is_empty());
        // Shard 1's partition runs on the calling thread; shard 0 runs an
        // empty batch that resets its scratch and adds nothing to the merge.
        let report = host.run_selected_batch(&queries, &for_shard_1).unwrap();
        assert_eq!(host.shard(0).batch_len(), 0);
        assert_eq!(host.shard(0).batch_hist().count(), 0);
        assert_eq!(host.shard(1).batch_len(), for_shard_1.len());
        assert_eq!(report.queries, for_shard_1.len() as u64);
        assert_eq!(report.virtual_makespan, host.shard(1).batch_makespan());
        assert_eq!(report.mean_latency, host.shard(1).batch_hist().mean());
    }

    #[test]
    fn single_shard_panic_is_caught_inline() {
        let model = model_zoo::tiny(1, 1, 200);
        let queries = workload(&model, 6, 22);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            22,
            1,
            RoutingPolicy::RoundRobin,
        )
        .unwrap();
        host.shard_mut(0).poison();
        let err = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap_err();
        assert!(matches!(err, SdmError::ShardFailed { shard: 0, .. }));
        assert!(host
            .run_selected_batch(&queries, &identity(&queries))
            .is_ok());
    }

    #[test]
    fn repeated_failures_reroute_batches_to_healthy_shards() {
        let model = model_zoo::tiny(2, 1, 300);
        let queries = workload(&model, 18, 23);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            23,
            3,
            RoutingPolicy::RoundRobin,
        )
        .unwrap();
        assert_eq!(host.health_fraction(), 1.0);
        // Two consecutive worker panics mark shard 2 unhealthy.
        for _ in 0..2 {
            host.shard_mut(2).poison();
            assert!(host
                .run_selected_batch(&queries, &identity(&queries))
                .is_err());
        }
        assert!(host.health_fraction() < 1.0);
        // The next batch routes around shard 2: the batch succeeds in
        // full, shard 2 executes nothing, and the reroute is counted.
        let report = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        assert_eq!(report.queries, queries.len() as u64);
        assert_eq!(host.shard(2).batch_len(), 0);
        assert!(host.failovers() >= 1);
        assert_eq!(host.stats().shard_failovers, host.failovers());
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(host.scores(i).len(), q.item_batch as usize);
        }
        // Keep serving until the periodic probe batch gives shard 2
        // traffic again; it succeeds, so the shard recovers and
        // subsequent batches stop rerouting.
        for _ in 0..(PROBE_INTERVAL as usize) {
            host.run_selected_batch(&queries, &identity(&queries))
                .unwrap();
        }
        assert_eq!(host.health_fraction(), 1.0);
        let settled = host.failovers();
        host.run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        assert_eq!(host.failovers(), settled);
        assert!(host.shard(2).batch_len() > 0);
    }

    #[test]
    fn straggler_detection_uses_relative_ewma() {
        let mut health = vec![ShardHealth::default(); 3];
        // Not enough history: nothing is unhealthy however slow.
        health[2].record_success(SimDuration::from_millis(500));
        assert!(!is_unhealthy(&health[2], ewma_reference(&health)));
        // Warm all shards: two fast, one 500x slower.
        for _ in 0..4 {
            health[0].record_success(SimDuration::from_micros(1000));
            health[1].record_success(SimDuration::from_micros(1100));
            health[2].record_success(SimDuration::from_millis(500));
        }
        let reference = ewma_reference(&health);
        assert!(!is_unhealthy(&health[0], reference));
        assert!(!is_unhealthy(&health[1], reference));
        assert!(is_unhealthy(&health[2], reference));
        // Failure streaks trip the other arm of the check.
        let mut failing = ShardHealth::default();
        failing.record_failure();
        assert!(!is_unhealthy(&failing, reference));
        failing.record_failure();
        assert!(is_unhealthy(&failing, reference));
        // One success clears the streak.
        failing.record_success(SimDuration::from_micros(1000));
        assert!(!is_unhealthy(&failing, reference));
    }

    #[test]
    fn reroute_moves_exec_and_merge_positions_in_tandem() {
        let mut health = vec![ShardHealth::default(); 3];
        health[1].record_failure();
        health[1].record_failure();
        let mut exec = vec![vec![0, 3], vec![1, 4], vec![2, 5]];
        let mut pos = vec![vec![10, 13], vec![11, 14], vec![12, 15]];
        let moved = reroute_unhealthy(&health, &mut exec, &mut pos);
        assert_eq!(moved, 1);
        assert!(exec[1].is_empty());
        assert!(pos[1].is_empty());
        // Every (pick, merge) pair survives, still paired at the same
        // index of whichever shard received it.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for s in 0..3 {
            assert_eq!(exec[s].len(), pos[s].len());
            pairs.extend(exec[s].iter().copied().zip(pos[s].iter().copied()));
        }
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![(0, 10), (1, 11), (2, 12), (3, 13), (4, 14), (5, 15)]
        );
        // All shards unhealthy: nowhere to go, nothing moves.
        health[0] = health[1];
        health[2] = health[1];
        let before = exec.clone();
        assert_eq!(reroute_unhealthy(&health, &mut exec, &mut pos), 0);
        assert_eq!(exec, before);
    }

    #[test]
    fn repeated_batches_reuse_merge_buffers() {
        let model = model_zoo::tiny(1, 1, 200);
        let queries = workload(&model, 12, 12);
        let mut host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            12,
            2,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        let first = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        let mut reference: Vec<Vec<f32>> = Vec::new();
        for i in 0..host.len() {
            reference.push(host.scores(i).to_vec());
        }
        let second = host
            .run_selected_batch(&queries, &identity(&queries))
            .unwrap();
        assert_eq!(first.queries, second.queries);
        // Warm caches mean the second pass is not slower in virtual time.
        assert!(second.mean_latency <= first.mean_latency);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(host.scores(i), want.as_slice());
        }
    }
}
