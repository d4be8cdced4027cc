//! The asynchronous IO engine: request routing, throttling and accounting.
//!
//! # Host cost per IO
//!
//! Everything here is bookkeeping around a modelled device, so its own cost
//! is pure overhead on the miss path. `submit` + `drain_each` are O(1) in
//! the number of tables and allocation-free once warmed:
//!
//! * **Scheduling state** is one [`DeviceSched`] (a sorted list of in-flight
//!   completion instants) per device and per table. Table schedules live in
//!   a dense `Vec`; `table_slots` maps the opaque [`TableTag`] to its slot
//!   on the integer hasher, so nothing is sized by the largest tag value.
//! * **Tables in flight.** `tables_tracked` counts the table schedules whose
//!   list is non-empty. Lists are pruned only when their own table submits,
//!   so this is a *superset* of the tables with a completion still ahead of
//!   the admission instant; the exact scan (one `last()` per table) runs
//!   only when that superset can reach `max_tables_in_flight`. Invariant:
//!   `tables_tracked == table_sched.iter().filter(|s| !s.is_empty()).count()`.
//! * **Payload buffers** are recycled: `submit` pops one from `buffers`, the
//!   device fills it in place, and `drain_each` returns it after the
//!   caller's closure has looked at the completion.
//! * **Reaping order** is `(completed_at, submission sequence)`: a total
//!   order, so the in-place unstable sort reaps equal instants in
//!   submission order exactly as a stable sort by `completed_at` would.

use crate::error::{FailureKind, IoError};
use crate::retry::{ResilienceStats, RetryConfig};
use scm_device::{checksum64, DeviceArray, DeviceId, ReadCommand, ReadInfo};
use sdm_metrics::units::{split_share, Bytes};
use sdm_metrics::{IntMap, LatencyHistogram, SimDuration, SimInstant};

/// Identifier for the embedding table an IO belongs to, used by the
/// per-table throttling knobs. The engine treats it as an opaque tag.
pub(crate) type TableTag = u32;

/// One read request handed to the engine.
#[derive(Debug, Clone)]
pub struct IoRequest {
    /// Target device.
    pub device: DeviceId,
    /// The NVMe read command.
    pub command: ReadCommand,
    /// Optional owning table, for per-table throttling and accounting.
    pub table: Option<TableTag>,
    /// Caller correlation token, echoed in the completion.
    pub user_data: u64,
}

impl IoRequest {
    /// Creates a request with no table tag and `user_data = 0`.
    pub fn new(device: DeviceId, command: ReadCommand) -> Self {
        IoRequest {
            device,
            command,
            table: None,
            user_data: 0,
        }
    }

    /// Sets the correlation token.
    pub fn with_user_data(mut self, user_data: u64) -> Self {
        self.user_data = user_data;
        self
    }

    /// Tags the request with its owning table.
    pub fn with_table(mut self, table: TableTag) -> Self {
        self.table = Some(table);
        self
    }
}

/// A finished IO, including its full latency breakdown.
#[derive(Debug, Clone)]
pub struct IoCompletion {
    /// Caller correlation token.
    pub user_data: u64,
    /// Owning table, if tagged.
    pub table: Option<TableTag>,
    /// The payload bytes read.
    pub data: Vec<u8>,
    /// When the request was handed to the engine.
    pub submitted_at: SimInstant,
    /// When the request was issued to the device (after throttling).
    pub issued_at: SimInstant,
    /// When the device finished serving it.
    pub completed_at: SimInstant,
    /// Time spent waiting behind the throttling knobs.
    pub queue_delay: SimDuration,
    /// Device + link time.
    pub device_latency: SimDuration,
    /// Bytes that crossed the host link.
    pub bus_bytes: Bytes,
}

impl IoCompletion {
    /// Total latency seen by the caller (queueing + device).
    fn total_latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.submitted_at)
    }
}

/// Tuning knobs for the engine (paper §4.1 "Tuning API").
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum IOs outstanding against a single device. The paper limits
    /// this for Nand Flash to smooth out bursts, because SSD controllers try
    /// to serve everything at once and latency explodes.
    pub max_outstanding_per_device: usize,
    /// Maximum IOs outstanding for a single table.
    pub max_outstanding_per_table: usize,
    /// Maximum number of distinct tables that may have IOs in flight at the
    /// same time.
    pub max_tables_in_flight: usize,
    /// Retry, per-IO deadline and hedged-read policy. The default policy
    /// never changes the behaviour of a fault-free device.
    pub retry: RetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_outstanding_per_device: 64,
            max_outstanding_per_table: 32,
            max_tables_in_flight: 64,
            retry: RetryConfig::default(),
        }
    }
}

impl EngineConfig {
    /// The per-shard slice (`index` of `shards`) of the host-shared IO
    /// limits.
    ///
    /// Each shard runs its own engine instance, but the device queue slots
    /// they model are one physical resource: the per-device outstanding
    /// limit and the tables-in-flight limit are split **losslessly** —
    /// every shard gets `limit / shards` slots and the remainder goes one
    /// each to the first shards, so the slices sum exactly to the host
    /// limit whenever `shards <= limit` (a truncating division lost up to
    /// `shards - 1` slots: 7 slots over 4 shards kept only 4 of 7). Slices
    /// still floor at one slot so every shard's engine stays valid, which
    /// is the only case where the sum can exceed the host limit. The
    /// per-table limit bounds a single operator's burst and is a
    /// per-stream property, so it carries over unchanged, as does the
    /// retry policy.
    pub fn divide_among_indexed(&self, shards: usize, index: usize) -> EngineConfig {
        let n = shards.max(1) as u64;
        let i = index as u64;
        EngineConfig {
            max_outstanding_per_device: (split_share(self.max_outstanding_per_device as u64, n, i)
                as usize)
                .max(1),
            max_tables_in_flight: (split_share(self.max_tables_in_flight as u64, n, i) as usize)
                .max(1),
            ..self.clone()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::InvalidConfig`] when any limit is zero.
    pub fn validate(&self) -> Result<(), IoError> {
        if self.max_outstanding_per_device == 0 {
            return Err(IoError::InvalidConfig {
                reason: "max_outstanding_per_device must be at least 1".into(),
            });
        }
        if self.max_outstanding_per_table == 0 {
            return Err(IoError::InvalidConfig {
                reason: "max_outstanding_per_table must be at least 1".into(),
            });
        }
        if self.max_tables_in_flight == 0 {
            return Err(IoError::InvalidConfig {
                reason: "max_tables_in_flight must be at least 1".into(),
            });
        }
        self.retry.validate()
    }

    /// The configuration with every limit raised to its minimum legal
    /// value (one slot, one table, one attempt) — what the engine runs on
    /// when handed a configuration [`EngineConfig::validate`] rejects.
    fn clamped(mut self) -> EngineConfig {
        self.max_outstanding_per_device = self.max_outstanding_per_device.max(1);
        self.max_outstanding_per_table = self.max_outstanding_per_table.max(1);
        self.max_tables_in_flight = self.max_tables_in_flight.max(1);
        self.retry.max_attempts = self.retry.max_attempts.max(1);
        self
    }
}

/// Per-submission queue-occupancy accounting.
///
/// Every submitted IO observes the device queue depth it was issued at
/// (its own slot included); this records the distribution so serving modes
/// that overlap IO across queries can *prove* they drive the device queues
/// deeper (paper §3.2) instead of asserting it.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    /// Submissions observed (one depth sample each).
    pub depth_samples: u64,
    /// Sum of observed queue depths across all submissions.
    pub depth_sum: u64,
    /// Deepest queue any submission was issued at.
    pub max_depth: usize,
}

impl IoStats {
    /// Records the queue depth one submission was issued at.
    pub fn record(&mut self, depth: usize) {
        self.depth_samples += 1;
        self.depth_sum += depth as u64;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Mean observed queue depth, or zero before any submission.
    pub fn mean_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Folds another accounting block into this one (multi-shard hosts
    /// aggregate per-engine depth statistics after the workers join).
    pub fn merge(&mut self, other: &IoStats) {
        self.depth_samples += other.depth_samples;
        self.depth_sum += other.depth_sum;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Cumulative engine statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed (scheduled; they become visible via
    /// `drain_each`).
    pub completed: u64,
    /// Total bytes shipped over device links.
    pub bus_bytes: Bytes,
    /// Total payload bytes requested.
    pub requested_bytes: Bytes,
    /// Aggregate queueing delay.
    pub queue_delay: SimDuration,
    /// Aggregate device latency.
    pub device_time: SimDuration,
    /// Distribution of caller-visible total latencies.
    pub latency: LatencyHistogram,
    /// Per-submission queue-occupancy accounting (observed mean/max depth).
    pub queue_depth: IoStats,
    /// Retry / checksum / deadline / hedging counters.
    pub resilience: ResilienceStats,
}

/// Scheduling state of one queue (a device's, or a table's): the completion
/// instants of the IOs still in flight against it.
///
/// The list is kept **sorted**, so pruning drains a prefix, admission reads
/// one element, the insertion point comes from a binary search and "is
/// anything still ahead of `t`" is a look at the last element. Nothing on
/// the submission path allocates once the list has reached its working
/// capacity.
#[derive(Debug, Default)]
struct DeviceSched {
    /// In-flight completion instants, ascending.
    completions: Vec<SimInstant>,
}

impl DeviceSched {
    fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    fn prune(&mut self, now: SimInstant) {
        let done = self.completions.partition_point(|t| *t <= now);
        if done > 0 {
            self.completions.drain(..done);
        }
    }

    /// Earliest instant (≥ `now`) at which fewer than `cap` IOs are active.
    /// Assumes `prune(now)` ran, so every tracked completion is `> now`, and
    /// `cap >= 1` (the engine clamps its limits).
    fn admission_time(&self, now: SimInstant, cap: usize) -> SimInstant {
        if self.completions.len() < cap {
            return now;
        }
        // We must wait until active drops to cap-1, i.e. until the
        // (len - cap + 1)-th completion.
        self.completions[self.completions.len() - cap]
    }

    fn active_at(&self, t: SimInstant) -> usize {
        self.completions.len() - self.completions.partition_point(|c| *c <= t)
    }

    /// Records a new in-flight completion, keeping the list sorted.
    fn push(&mut self, completed_at: SimInstant) {
        let at = self.completions.partition_point(|t| *t <= completed_at);
        self.completions.insert(at, completed_at);
    }

    /// Latest in-flight completion strictly after `now`, if any — `Some`
    /// exactly when the queue still has an IO active at `now`.
    fn last_after(&self, now: SimInstant) -> Option<SimInstant> {
        self.completions.last().copied().filter(|t| *t > now)
    }
}

/// One device command's fate inside the retry loop.
#[derive(Debug)]
enum Attempt {
    /// Clean completion: correct payload (left in the attempt's buffer),
    /// within deadline.
    Completed {
        issued_at: SimInstant,
        completed_at: SimInstant,
        info: ReadInfo,
    },
    /// Failed attempt; `retry_at` is the instant the failure became known
    /// to the host (backoff starts there).
    Failed {
        kind: FailureKind,
        retry_at: SimInstant,
    },
}

/// The asynchronous IO engine.
///
/// The engine owns the host's [`DeviceArray`] and schedules every read on
/// the virtual clock: requests are admitted as soon as the configured
/// outstanding-IO limits allow, the device model provides the service time
/// at the observed queue depth, and completions are reaped by
/// [`IoEngine::drain_each`] in completion-instant order.
#[derive(Debug)]
pub struct IoEngine {
    array: DeviceArray,
    config: EngineConfig,
    device_sched: Vec<DeviceSched>,
    /// Per-table schedules, densely packed in first-submission order.
    table_sched: Vec<DeviceSched>,
    /// Table tag → index into `table_sched`.
    table_slots: IntMap<TableTag, usize>,
    /// Entries of `table_sched` with a non-empty completion list.
    tables_tracked: usize,
    ready: Vec<Scheduled>,
    /// Submissions so far; stamps [`Scheduled::seq`].
    submissions: u64,
    /// Recycled completion payload buffers.
    buffers: Vec<Vec<u8>>,
    stats: EngineStats,
}

/// A scheduled completion waiting to be reaped, with the submission sequence
/// number that orders completions landing on the same instant.
#[derive(Debug)]
struct Scheduled {
    seq: u64,
    completion: IoCompletion,
}

impl IoEngine {
    /// Creates an engine over a device array with the given configuration.
    ///
    /// Invalid configurations are clamped to their minimum legal values; use
    /// [`EngineConfig::validate`] beforehand to detect them instead.
    pub fn new(array: DeviceArray, config: EngineConfig) -> Self {
        let device_sched = (0..array.len()).map(|_| DeviceSched::default()).collect();
        IoEngine {
            array,
            config: config.clamped(),
            device_sched,
            table_sched: Vec::new(),
            table_slots: IntMap::default(),
            tables_tracked: 0,
            ready: Vec::new(),
            submissions: 0,
            buffers: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// The engine's tuning configuration (after clamping).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replaces the tuning configuration (applies to subsequent requests).
    /// Invalid configurations are clamped exactly as in [`IoEngine::new`].
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config.clamped();
    }

    /// Shared view of the device array.
    pub fn array(&self) -> &DeviceArray {
        &self.array
    }

    /// Mutable access to the device array (used by the model loader to write
    /// embedding images).
    pub fn array_mut(&mut self) -> &mut DeviceArray {
        &mut self.array
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of scheduled-but-not-yet-reaped completions.
    pub fn outstanding(&self) -> usize {
        self.ready.len()
    }

    /// Submits one read request at virtual time `now`.
    ///
    /// The request is scheduled immediately: its issue time honours the
    /// outstanding-IO limits and its completion time comes from the device
    /// model. Failed attempts — transient device errors, payloads that
    /// flunk end-to-end checksum verification, IOs past the per-IO
    /// deadline — are retried with exponential backoff per the configured
    /// [`RetryConfig`]; slow clean completions may additionally be hedged
    /// with a duplicate read. The winning completion becomes visible
    /// through [`IoEngine::drain_each`].
    ///
    /// # Errors
    ///
    /// Propagates hard device errors (out-of-bounds ranges, unsupported
    /// SGL) immediately; returns [`IoError::RetriesExhausted`] when every
    /// attempt failed.
    pub fn submit(&mut self, request: IoRequest, now: SimInstant) -> Result<(), IoError> {
        let dev_index = request.device.0;
        if dev_index >= self.array.len() {
            return Err(IoError::Device(scm_device::DeviceError::UnknownDevice {
                index: dev_index,
                len: self.array.len(),
            }));
        }

        let mut data = self.buffers.pop().unwrap_or_default();
        let (issued_at, completed_at, info) = match self.read_with_retries(&request, now, &mut data)
        {
            Ok(done) => done,
            Err(e) => {
                self.buffers.push(data);
                return Err(e);
            }
        };

        let completion = IoCompletion {
            user_data: request.user_data,
            table: request.table,
            data,
            submitted_at: now,
            issued_at,
            completed_at,
            queue_delay: issued_at.duration_since(now),
            device_latency: info.device_latency,
            bus_bytes: info.bus_bytes,
        };

        self.stats.submitted += 1;
        self.stats.completed += 1;
        self.stats.bus_bytes += info.bus_bytes;
        self.stats.requested_bytes += info.requested_bytes;
        self.stats.queue_delay += completion.queue_delay;
        self.stats.device_time += completion.device_latency;
        self.stats.latency.record(completion.total_latency());

        self.ready.push(Scheduled {
            seq: self.submissions,
            completion,
        });
        self.submissions += 1;
        Ok(())
    }

    /// The retry/hedge loop of one logical read: returns the winning
    /// attempt's issue instant, completion instant and device report, with
    /// its payload in `data`.
    fn read_with_retries(
        &mut self,
        request: &IoRequest,
        now: SimInstant,
        data: &mut Vec<u8>,
    ) -> Result<(SimInstant, SimInstant, ReadInfo), IoError> {
        let retry = self.config.retry;
        let mut attempt: u32 = 0;
        let mut earliest = now;
        loop {
            attempt += 1;
            match self.issue_attempt(request, earliest, data)? {
                Attempt::Failed { kind, retry_at } => {
                    self.note_failure(kind);
                    if attempt >= retry.max_attempts {
                        self.stats.resilience.exhausted += 1;
                        return Err(IoError::RetriesExhausted {
                            attempts: attempt,
                            last: kind,
                        });
                    }
                    self.stats.resilience.retries += 1;
                    earliest = retry_at + retry.backoff(attempt);
                }
                Attempt::Completed {
                    issued_at,
                    completed_at,
                    info,
                } => {
                    let mut best = (issued_at, completed_at, info);
                    // Hedge: the primary is clean but slow — issue a
                    // duplicate at the hedge mark and let the first clean
                    // completion win. A failed hedge is simply discarded;
                    // the primary result is already in hand.
                    if let Some(delay) = retry.hedge_after {
                        if best.1.duration_since(earliest) > delay {
                            self.stats.resilience.hedges += 1;
                            let mut hedge_data = self.buffers.pop().unwrap_or_default();
                            match self.issue_attempt(request, earliest + delay, &mut hedge_data) {
                                Ok(Attempt::Completed {
                                    issued_at: h_issued,
                                    completed_at: h_done,
                                    info: h_info,
                                }) => {
                                    if h_done < best.1 {
                                        self.stats.resilience.hedge_wins += 1;
                                        best = (h_issued, h_done, h_info);
                                        std::mem::swap(data, &mut hedge_data);
                                    }
                                }
                                Ok(Attempt::Failed { kind, .. }) => self.note_failure(kind),
                                Err(e) => {
                                    self.buffers.push(hedge_data);
                                    return Err(e);
                                }
                            }
                            self.buffers.push(hedge_data);
                        }
                    }
                    return Ok(best);
                }
            }
        }
    }

    /// Index of `tag`'s schedule in `table_sched`, created on first sight.
    fn table_slot(&mut self, tag: TableTag) -> usize {
        let next = self.table_sched.len();
        let slot = *self.table_slots.entry(tag).or_insert(next);
        if slot == next {
            self.table_sched.push(DeviceSched::default());
        }
        slot
    }

    /// Issues one device command for the request, no earlier than
    /// `earliest`, reading its payload into `data`. Successful and abandoned
    /// commands are recorded in the scheduling state (they occupy their
    /// device queue slot either way); transient failures occupy nothing —
    /// the device rejected the command at issue.
    fn issue_attempt(
        &mut self,
        request: &IoRequest,
        earliest: SimInstant,
        data: &mut Vec<u8>,
    ) -> Result<Attempt, IoError> {
        let dev_index = request.device.0;

        // 1. Work out the earliest admission time allowed by the knobs.
        self.device_sched[dev_index].prune(earliest);
        let mut issue_at = self.device_sched[dev_index]
            .admission_time(earliest, self.config.max_outstanding_per_device);

        let table_slot = request.table.map(|tag| self.table_slot(tag));
        if let Some(slot) = table_slot {
            let sched = &mut self.table_sched[slot];
            let was_tracked = !sched.is_empty();
            sched.prune(earliest);
            let tracked = !sched.is_empty();
            issue_at =
                issue_at.max(sched.admission_time(earliest, self.config.max_outstanding_per_table));
            self.tables_tracked -= usize::from(was_tracked && !tracked);

            // Max-tables-in-flight: if this table is not already active and
            // the limit is reached, wait until the busiest constraint
            // relaxes (the earliest instant at which some active table fully
            // drains). Only tables with tracked completions can be active,
            // so the per-table look is skipped while even all of them
            // together stay under the limit.
            let others_tracked = self.tables_tracked - usize::from(tracked);
            if others_tracked >= self.config.max_tables_in_flight {
                let mut active_tables = 0usize;
                let mut earliest_drain: Option<SimInstant> = None;
                for (other, sched) in self.table_sched.iter().enumerate() {
                    if other == slot {
                        continue;
                    }
                    if let Some(last) = sched.last_after(earliest) {
                        active_tables += 1;
                        earliest_drain = Some(earliest_drain.map_or(last, |d| d.min(last)));
                    }
                }
                if active_tables >= self.config.max_tables_in_flight {
                    issue_at = issue_at.max(earliest_drain.unwrap_or(earliest));
                }
            }
        }

        // 2. Ask the device for the service time at the observed depth.
        let queue_depth = self.device_sched[dev_index].active_at(issue_at) + 1;
        self.stats.queue_depth.record(queue_depth);
        let info = match self.array.read_into(
            request.device,
            &request.command,
            queue_depth,
            issue_at,
            data,
        ) {
            Ok(info) => info,
            Err(e) if e.is_transient() => {
                return Ok(Attempt::Failed {
                    kind: FailureKind::Transient,
                    retry_at: issue_at,
                })
            }
            Err(e) => return Err(IoError::Device(e)),
        };
        let completed_at = issue_at + info.device_latency;

        // 3. Record scheduling state; even attempts the host abandons keep
        // their queue slot until the device would have finished.
        self.device_sched[dev_index].push(completed_at);
        if let Some(slot) = table_slot {
            let sched = &mut self.table_sched[slot];
            self.tables_tracked += usize::from(sched.is_empty());
            sched.push(completed_at);
        }

        let deadline = self.config.retry.io_deadline;
        if !deadline.is_zero() && info.device_latency > deadline {
            return Ok(Attempt::Failed {
                kind: FailureKind::DeadlineExceeded,
                retry_at: issue_at + deadline,
            });
        }
        // End-to-end protection: verify the guard tag the device stamped
        // before any injected corruption. A mismatch is known only once the
        // data is back, so the retry clock starts at completion.
        if checksum64(data) != info.checksum {
            return Ok(Attempt::Failed {
                kind: FailureKind::ChecksumMismatch,
                retry_at: completed_at,
            });
        }

        Ok(Attempt::Completed {
            issued_at: issue_at,
            completed_at,
            info,
        })
    }

    fn note_failure(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::Transient => self.stats.resilience.transient_errors += 1,
            FailureKind::ChecksumMismatch => self.stats.resilience.checksum_failures += 1,
            FailureKind::DeadlineExceeded => self.stats.resilience.deadline_timeouts += 1,
        }
    }

    /// Puts the ready queue into reaping order — completion instant, then
    /// submission order — in its own storage, and returns the instant the
    /// last scheduled completion finishes (`now` when nothing is in flight).
    fn sort_ready(&mut self, now: SimInstant) -> SimInstant {
        self.ready
            .sort_unstable_by_key(|s| (s.completion.completed_at, s.seq));
        self.ready
            .last()
            .map_or(now, |s| s.completion.completed_at.max(now))
    }

    /// Waits for everything in flight: lends each completion to `f` in
    /// completion order (equal-time completions in submission order) and
    /// returns the instant the last one finished (`now` when nothing was in
    /// flight).
    ///
    /// This lets the caller overlap completion reaping with downstream work
    /// (the serving loop dequantises and pools each row as it is reaped)
    /// without an intermediate completion vector, and lets the engine take
    /// each payload buffer back for the next submission.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` keeps room for cancellation.
    pub fn drain_each(
        &mut self,
        now: SimInstant,
        mut f: impl FnMut(&IoCompletion),
    ) -> Result<SimInstant, IoError> {
        let finished_at = self.sort_ready(now);
        for scheduled in self.ready.drain(..) {
            f(&scheduled.completion);
            self.buffers.push(scheduled.completion.data);
        }
        Ok(finished_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scm_device::TechnologyProfile;

    fn engine_with(profile: TechnologyProfile, devices: usize, cfg: EngineConfig) -> IoEngine {
        let array = DeviceArray::homogeneous(profile, Bytes::from_mib(4), devices).unwrap();
        IoEngine::new(array, cfg)
    }

    /// Reaps everything in flight, keeping a copy of each completion.
    fn drain_all(engine: &mut IoEngine, now: SimInstant) -> (Vec<IoCompletion>, SimInstant) {
        let mut reaped = Vec::new();
        let finished = engine.drain_each(now, |c| reaped.push(c.clone())).unwrap();
        (reaped, finished)
    }

    #[test]
    fn divide_among_splits_shared_limits_with_floor() {
        let cfg = EngineConfig::default();
        let quarter = cfg.divide_among_indexed(4, 0);
        assert_eq!(
            quarter.max_outstanding_per_device,
            cfg.max_outstanding_per_device / 4
        );
        assert_eq!(quarter.max_tables_in_flight, cfg.max_tables_in_flight / 4);
        assert_eq!(
            quarter.max_outstanding_per_table,
            cfg.max_outstanding_per_table
        );
        assert!(quarter.validate().is_ok());
        // More shards than queue slots still yields a valid config.
        let tiny = cfg.divide_among_indexed(10_000, 0);
        assert_eq!(tiny.max_outstanding_per_device, 1);
        assert_eq!(tiny.max_tables_in_flight, 1);
        assert!(tiny.validate().is_ok());
        // Zero clamps to one (identity).
        assert_eq!(
            cfg.divide_among_indexed(0, 0).max_outstanding_per_device,
            cfg.max_outstanding_per_device
        );
    }

    #[test]
    fn indexed_slices_conserve_queue_slots_at_awkward_counts() {
        // The motivating bug: a 7-slot queue limit over 4 shards used to
        // keep only floor(7/4) = 1 slot per shard — 3 of 7 submission slots
        // (43 % of capacity) silently vanished from the host budget.
        let cfg = EngineConfig {
            max_outstanding_per_device: 7,
            max_tables_in_flight: 13,
            ..EngineConfig::default()
        };
        for shards in [1usize, 2, 3, 4, 5, 7] {
            let device: usize = (0..shards)
                .map(|i| {
                    cfg.divide_among_indexed(shards, i)
                        .max_outstanding_per_device
                })
                .sum();
            let tables: usize = (0..shards)
                .map(|i| cfg.divide_among_indexed(shards, i).max_tables_in_flight)
                .sum();
            assert_eq!(
                device, cfg.max_outstanding_per_device,
                "{shards} shards: device slots"
            );
            assert_eq!(
                tables, cfg.max_tables_in_flight,
                "{shards} shards: tables in flight"
            );
            for i in 0..shards {
                assert!(cfg.divide_among_indexed(shards, i).validate().is_ok());
            }
        }
    }

    #[test]
    fn single_request_roundtrip() {
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, EngineConfig::default());
        engine
            .array_mut()
            .write(DeviceId(0), 0, &[5u8; 128])
            .unwrap();
        let now = SimInstant::EPOCH;
        engine
            .submit(
                IoRequest::new(DeviceId(0), ReadCommand::sgl(0, 128)).with_user_data(42),
                now,
            )
            .unwrap();
        let (completions, at) = drain_all(&mut engine, now);
        assert_eq!(completions.len(), 1);
        let c = &completions[0];
        assert_eq!(c.user_data, 42);
        assert_eq!(c.data, vec![5u8; 128]);
        assert_eq!(c.queue_delay, SimDuration::ZERO);
        assert!(at > now);
        assert_eq!(engine.stats().submitted, 1);
    }

    #[test]
    fn unknown_device_rejected() {
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, EngineConfig::default());
        let err = engine
            .submit(
                IoRequest::new(DeviceId(3), ReadCommand::sgl(0, 8)),
                SimInstant::EPOCH,
            )
            .unwrap_err();
        assert!(matches!(err, IoError::Device(_)));
    }

    #[test]
    fn outstanding_cap_delays_excess_requests() {
        let cfg = EngineConfig {
            max_outstanding_per_device: 2,
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::nand_flash(), 1, cfg);
        let now = SimInstant::EPOCH;
        for i in 0..4 {
            engine
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 4096, 128)).with_user_data(i),
                    now,
                )
                .unwrap();
        }
        let (completions, _) = drain_all(&mut engine, now);
        assert_eq!(completions.len(), 4);
        // The first two go straight to the device; the last two wait.
        let delayed = completions
            .iter()
            .filter(|c| c.queue_delay > SimDuration::ZERO)
            .count();
        assert_eq!(delayed, 2);
    }

    #[test]
    fn per_table_cap_throttles_only_that_table() {
        let cfg = EngineConfig {
            max_outstanding_per_device: 1024,
            max_outstanding_per_table: 1,
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
        let now = SimInstant::EPOCH;
        for i in 0..3 {
            engine
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 512, 64))
                        .with_table(7)
                        .with_user_data(i),
                    now,
                )
                .unwrap();
        }
        // A different table is not throttled by table 7's queue.
        engine
            .submit(
                IoRequest::new(DeviceId(0), ReadCommand::sgl(4096, 64))
                    .with_table(9)
                    .with_user_data(99),
                now,
            )
            .unwrap();
        let (completions, _) = drain_all(&mut engine, now);
        let other = completions.iter().find(|c| c.user_data == 99).unwrap();
        assert_eq!(other.queue_delay, SimDuration::ZERO);
        let table7_delayed = completions
            .iter()
            .filter(|c| c.table == Some(7) && c.queue_delay > SimDuration::ZERO)
            .count();
        assert_eq!(table7_delayed, 2);
    }

    #[test]
    fn higher_concurrency_raises_latency() {
        // Reproduces the Figure 3 trend: driving the device towards its IOPS
        // ceiling inflates the observed latency.
        let make = || {
            engine_with(
                TechnologyProfile::nand_flash(),
                1,
                EngineConfig {
                    max_outstanding_per_device: 4096,
                    ..EngineConfig::default()
                },
            )
        };
        let mut light = make();
        let mut heavy = make();
        let now = SimInstant::EPOCH;
        for i in 0..4u64 {
            light
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 4096, 128)),
                    now,
                )
                .unwrap();
        }
        for i in 0..512u64 {
            heavy
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl((i % 900) * 4096, 128)),
                    now,
                )
                .unwrap();
        }
        let light_p95 = light.stats().latency.p95();
        let heavy_p95 = heavy.stats().latency.p95();
        assert!(heavy_p95 > light_p95, "{heavy_p95} <= {light_p95}");
    }

    #[test]
    fn stats_track_amplification() {
        let mut engine = engine_with(TechnologyProfile::nand_flash(), 1, EngineConfig::default());
        let now = SimInstant::EPOCH;
        engine
            .submit(IoRequest::new(DeviceId(0), ReadCommand::block(0, 128)), now)
            .unwrap();
        let amplification =
            |s: &EngineStats| s.bus_bytes.as_u64() as f64 / s.requested_bytes.as_u64() as f64;
        assert!(amplification(engine.stats()) > 30.0);
        let mut engine2 = engine_with(TechnologyProfile::nand_flash(), 1, EngineConfig::default());
        engine2
            .submit(IoRequest::new(DeviceId(0), ReadCommand::sgl(0, 128)), now)
            .unwrap();
        assert!((amplification(engine2.stats()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn config_validation() {
        let mut cfg = EngineConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.max_outstanding_per_device = 0;
        assert!(matches!(cfg.validate(), Err(IoError::InvalidConfig { .. })));
    }

    #[test]
    fn invalid_limits_are_clamped_instead_of_panicking() {
        // Regression: `new`/`set_config` documented clamping but stored the
        // configuration verbatim, and a zero device or table limit indexed
        // an empty completion list on the first submit.
        let zeroed = || EngineConfig {
            max_outstanding_per_device: 0,
            max_outstanding_per_table: 0,
            max_tables_in_flight: 0,
            retry: RetryConfig {
                max_attempts: 0,
                ..RetryConfig::default()
            },
        };
        assert!(zeroed().validate().is_err());
        let mut built = engine_with(TechnologyProfile::optane_ssd(), 1, zeroed());
        let mut reconfigured =
            engine_with(TechnologyProfile::optane_ssd(), 1, EngineConfig::default());
        reconfigured.set_config(zeroed());
        for engine in [&mut built, &mut reconfigured] {
            let cfg = engine.config();
            assert_eq!(
                (
                    cfg.max_outstanding_per_device,
                    cfg.max_outstanding_per_table,
                    cfg.max_tables_in_flight,
                    cfg.retry.max_attempts
                ),
                (1, 1, 1, 1)
            );
            assert!(cfg.validate().is_ok());
            let now = SimInstant::EPOCH;
            for i in 0..4u64 {
                engine
                    .submit(
                        IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 512, 64))
                            .with_table(i as TableTag % 2)
                            .with_user_data(i),
                        now,
                    )
                    .unwrap();
            }
            // One slot: the four reads issue strictly one after another.
            let (completions, _) = drain_all(engine, now);
            assert_eq!(completions.len(), 4);
            for pair in completions.windows(2) {
                assert!(pair[1].issued_at >= pair[0].completed_at);
            }
        }
    }

    #[test]
    fn tracked_table_count_matches_the_schedules() {
        // `tables_tracked` is maintained incrementally on prune and push;
        // it must always equal a recount, across retries and time jumps.
        let cfg = EngineConfig {
            max_outstanding_per_table: 2,
            max_tables_in_flight: 2,
            retry: RetryConfig {
                max_attempts: 4,
                ..RetryConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::nand_flash(), 1, cfg);
        engine
            .array_mut()
            .device_mut(DeviceId(0))
            .unwrap()
            .set_fault_plan(Some(
                scm_device::FaultPlan::new(3).with_transient_errors(0.2),
            ));
        let mut now = SimInstant::EPOCH;
        for i in 0..300u64 {
            if i % 7 == 0 {
                now += SimDuration::from_micros(i % 400);
            }
            let _ = engine.submit(
                IoRequest::new(DeviceId(0), ReadCommand::sgl((i % 900) * 4096, 64))
                    .with_table((i * i % 11) as TableTag * 1_000_003),
                now,
            );
            let recount = engine.table_sched.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(engine.tables_tracked, recount, "after submit {i}");
            assert_eq!(engine.table_sched.len(), engine.table_slots.len());
        }
        assert!(engine.table_sched.len() <= 11);
    }

    #[test]
    fn equal_instants_reap_in_submission_order_and_buffers_are_recycled() {
        // Optane at queue depth 1 per device: reads on different devices at
        // one instant complete at the same instant, so only the submission
        // sequence orders them.
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 8, EngineConfig::default());
        let now = SimInstant::EPOCH;
        let submit_round = |engine: &mut IoEngine| {
            for d in (0..8usize).rev() {
                engine
                    .submit(
                        IoRequest::new(DeviceId(d), ReadCommand::sgl(0, 96))
                            .with_user_data(7 - d as u64),
                        now,
                    )
                    .unwrap();
            }
        };
        submit_round(&mut engine);
        let mut order = Vec::new();
        let mut instants = Vec::new();
        engine
            .drain_each(now, |c| {
                order.push(c.user_data);
                instants.push(c.completed_at);
            })
            .unwrap();
        assert!(instants.windows(2).all(|w| w[0] == w[1]), "{instants:?}");
        assert_eq!(order, (0..8).collect::<Vec<u64>>());
        // The eight payload buffers came back; a second round reuses them.
        assert_eq!(engine.buffers.len(), 8);
        submit_round(&mut engine);
        assert!(engine.buffers.is_empty());
        let (polled, _) = drain_all(&mut engine, now);
        assert_eq!(
            polled.iter().map(|c| c.user_data).collect::<Vec<_>>(),
            (0..8).collect::<Vec<u64>>()
        );
        assert!(polled.iter().all(|c| c.data.len() == 96));
    }

    #[test]
    fn drain_each_reaps_everything_in_flight() {
        let mut e = engine_with(TechnologyProfile::nand_flash(), 1, EngineConfig::default());
        for i in 0..8u64 {
            e.submit(
                IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 4096, 128)).with_user_data(i),
                SimInstant::EPOCH,
            )
            .unwrap();
        }
        let (reaped, finished) = drain_all(&mut e, SimInstant::EPOCH);
        assert_eq!(reaped.len(), 8);
        assert_eq!(finished, reaped.last().unwrap().completed_at);
        // Nothing left behind.
        assert_eq!(e.outstanding(), 0);
        let empty_at = e
            .drain_each(SimInstant::EPOCH, |_| panic!("no IOs"))
            .unwrap();
        assert_eq!(empty_at, SimInstant::EPOCH);
    }

    #[test]
    fn queue_depth_accounting_tracks_mean_and_max() {
        let mut stats = IoStats::default();
        assert_eq!(stats.mean_depth(), 0.0);
        stats.record(1);
        stats.record(3);
        assert_eq!(stats.depth_samples, 2);
        assert!((stats.mean_depth() - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_depth, 3);
        let mut other = IoStats::default();
        other.record(7);
        stats.merge(&other);
        assert_eq!(stats.depth_samples, 3);
        assert_eq!(stats.max_depth, 7);

        // A burst submitted at one instant is observed at increasing depths:
        // the engine's per-submission samples reflect real queue occupancy.
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, EngineConfig::default());
        let now = SimInstant::EPOCH;
        for i in 0..8u64 {
            engine
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 4096, 128)),
                    now,
                )
                .unwrap();
        }
        let depth = &engine.stats().queue_depth;
        assert_eq!(depth.depth_samples, 8);
        assert_eq!(depth.max_depth, 8);
        assert!(depth.mean_depth() > 1.0);
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        // 50% transient error rate, 4 attempts: reads succeed eventually
        // and the retry counters reflect the recovered failures.
        let cfg = EngineConfig {
            retry: RetryConfig {
                max_attempts: 4,
                ..RetryConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
        engine
            .array_mut()
            .device_mut(DeviceId(0))
            .unwrap()
            .set_fault_plan(Some(
                scm_device::FaultPlan::new(5).with_transient_errors(0.5),
            ));
        let now = SimInstant::EPOCH;
        let mut served = 0u64;
        for i in 0..64u64 {
            match engine.submit(
                IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 512, 64)).with_user_data(i),
                now,
            ) {
                Ok(()) => served += 1,
                Err(IoError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 4),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let res = &engine.stats().resilience;
        assert!(served > 0, "half-rate faults cannot kill every read");
        assert!(res.transient_errors > 0);
        assert!(res.retries > 0);
        assert_eq!(engine.stats().completed, served);
        // Retried completions pay the backoff in caller-visible latency.
        let (completions, _) = drain_all(&mut engine, now);
        assert!(completions
            .iter()
            .any(|c| c.queue_delay >= SimDuration::from_micros(10)));
    }

    #[test]
    fn exhausted_retries_surface_a_typed_error() {
        let cfg = EngineConfig {
            retry: RetryConfig {
                max_attempts: 3,
                ..RetryConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
        engine
            .array_mut()
            .device_mut(DeviceId(0))
            .unwrap()
            .set_fault_plan(Some(
                scm_device::FaultPlan::new(1).with_transient_errors(1.0),
            ));
        let err = engine
            .submit(
                IoRequest::new(DeviceId(0), ReadCommand::sgl(0, 64)),
                SimInstant::EPOCH,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            IoError::RetriesExhausted {
                attempts: 3,
                last: FailureKind::Transient
            }
        ));
        assert_eq!(engine.stats().resilience.exhausted, 1);
        assert_eq!(engine.stats().resilience.transient_errors, 3);
        assert_eq!(engine.stats().completed, 0);
    }

    #[test]
    fn checksum_verification_catches_every_injected_corruption() {
        let cfg = EngineConfig {
            retry: RetryConfig {
                max_attempts: 6,
                ..RetryConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
        engine
            .array_mut()
            .write(DeviceId(0), 0, &[0xA5u8; 4096])
            .unwrap();
        engine
            .array_mut()
            .device_mut(DeviceId(0))
            .unwrap()
            .set_fault_plan(Some(scm_device::FaultPlan::new(8).with_corruption(0.3)));
        let now = SimInstant::EPOCH;
        for i in 0..32u64 {
            engine
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 128, 64)).with_user_data(i),
                    now,
                )
                .unwrap();
        }
        let injected = engine
            .array()
            .device(DeviceId(0))
            .unwrap()
            .fault_plan()
            .unwrap()
            .stats()
            .corruptions;
        assert!(injected > 0, "30% corruption over 32 reads must fire");
        assert_eq!(
            engine.stats().resilience.checksum_failures,
            injected,
            "every injected corruption must be detected"
        );
        // And no delivered payload is corrupt.
        let (completions, _) = drain_all(&mut engine, now);
        assert_eq!(completions.len(), 32);
        for c in &completions {
            assert_eq!(c.data, vec![0xA5u8; 64], "corrupt payload served");
        }
    }

    #[test]
    fn corruption_in_the_tail_bytes_of_odd_length_rows_is_always_detected() {
        // The guard checksum folds eight bytes per step and a zero-padded
        // tail word; rows whose length is not a multiple of 8 (or shorter
        // than 8 altogether) must be protected just the same.
        for len in [1u32, 3, 5, 7, 9, 12, 61, 100, 131] {
            let cfg = EngineConfig {
                retry: RetryConfig {
                    max_attempts: 16,
                    ..RetryConfig::default()
                },
                ..EngineConfig::default()
            };
            let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
            let image: Vec<u8> = (0..4096u32).map(|i| (i * 31 + len) as u8).collect();
            engine.array_mut().write(DeviceId(0), 0, &image).unwrap();
            engine
                .array_mut()
                .device_mut(DeviceId(0))
                .unwrap()
                .set_fault_plan(Some(
                    scm_device::FaultPlan::new(u64::from(len)).with_corruption(0.4),
                ));
            let now = SimInstant::EPOCH;
            for i in 0..24u64 {
                engine
                    .submit(
                        IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 150, len))
                            .with_user_data(i),
                        now,
                    )
                    .unwrap();
            }
            let injected = engine
                .array()
                .device(DeviceId(0))
                .unwrap()
                .fault_plan()
                .unwrap()
                .stats()
                .corruptions;
            assert!(injected > 0, "len {len}: 40% corruption must fire");
            assert_eq!(
                engine.stats().resilience.checksum_failures,
                injected,
                "len {len}: every injected corruption must be detected"
            );
            engine
                .drain_each(now, |c| {
                    let at = c.user_data as usize * 150;
                    assert_eq!(
                        c.data,
                        image[at..at + len as usize],
                        "len {len}: corrupt payload served"
                    );
                })
                .unwrap();
        }
    }

    #[test]
    fn deadline_abandons_stuck_ios_and_recovers() {
        let hang = SimDuration::from_millis(100);
        let cfg = EngineConfig {
            retry: RetryConfig {
                max_attempts: 8,
                io_deadline: SimDuration::from_millis(1),
                ..RetryConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
        engine
            .array_mut()
            .device_mut(DeviceId(0))
            .unwrap()
            .set_fault_plan(Some(scm_device::FaultPlan::new(3).with_stuck(0.5, hang)));
        let now = SimInstant::EPOCH;
        for i in 0..16u64 {
            engine
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 512, 64)),
                    now,
                )
                .unwrap();
        }
        assert!(engine.stats().resilience.deadline_timeouts > 0);
        // Caller-visible latency is bounded by deadline+backoff retries,
        // far below the 100ms hang.
        let (completions, _) = drain_all(&mut engine, now);
        for c in &completions {
            assert!(
                c.total_latency() < hang,
                "stuck IO leaked into caller latency: {:?}",
                c.total_latency()
            );
        }
    }

    #[test]
    fn hedged_reads_cut_the_tail_of_a_latency_storm() {
        // A plan that makes some reads stuck (slow) without storms;
        // hedging re-issues them at the hedge mark, and the duplicate —
        // which usually is not stuck — wins.
        let hang = SimDuration::from_millis(5);
        let cfg = EngineConfig {
            retry: RetryConfig {
                hedge_after: Some(SimDuration::from_micros(100)),
                ..RetryConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = engine_with(TechnologyProfile::optane_ssd(), 1, cfg);
        engine
            .array_mut()
            .device_mut(DeviceId(0))
            .unwrap()
            .set_fault_plan(Some(scm_device::FaultPlan::new(6).with_stuck(0.3, hang)));
        let now = SimInstant::EPOCH;
        for i in 0..32u64 {
            engine
                .submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 512, 64)),
                    now,
                )
                .unwrap();
        }
        let res = &engine.stats().resilience;
        assert!(res.hedges > 0, "stuck reads must trigger hedges");
        assert!(
            res.hedge_wins > 0,
            "some hedges must beat the stuck primary"
        );
        assert!(res.hedge_wins <= res.hedges);
    }

    #[test]
    fn default_retry_config_is_bit_identical_without_faults() {
        let make = |cfg: EngineConfig| {
            let mut e = engine_with(TechnologyProfile::nand_flash(), 1, cfg);
            for i in 0..32u64 {
                e.submit(
                    IoRequest::new(DeviceId(0), ReadCommand::sgl(i * 4096, 128))
                        .with_table((i % 3) as TableTag)
                        .with_user_data(i),
                    SimInstant::from_nanos(i * 10_000),
                )
                .unwrap();
            }
            e
        };
        // Aggressive retry/deadline/hedge settings on a healthy device
        // change nothing: first attempts are clean and fast.
        let tuned = EngineConfig {
            retry: RetryConfig {
                max_attempts: 7,
                io_deadline: SimDuration::from_millis(50),
                hedge_after: Some(SimDuration::from_millis(40)),
            },
            ..EngineConfig::default()
        };
        let mut a = make(EngineConfig::default());
        let mut b = make(tuned);
        let (ca, fa) = drain_all(&mut a, SimInstant::EPOCH);
        let (cb, fb) = drain_all(&mut b, SimInstant::EPOCH);
        assert_eq!(fa, fb);
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(&cb) {
            assert_eq!(x.user_data, y.user_data);
            assert_eq!(x.completed_at, y.completed_at);
            assert_eq!(x.data, y.data);
        }
        assert_eq!(a.stats().resilience, b.stats().resilience);
        assert_eq!(a.stats().resilience, ResilienceStats::default());
    }
}
