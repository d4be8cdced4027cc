//! The SDM memory manager: the serving-time read path.
//!
//! # The miss path, layer by layer
//!
//! A row-cache miss costs modelled device time on the virtual clock and
//! host time in the four layers below the manager. The host side is O(1)
//! per IO and allocation-free once warmed (`tests/zero_alloc.rs` holds a
//! steady-state miss workload to zero allocations per batch):
//!
//! 1. **Scan** (`ReadPath::sm_lookup_core`): one [`DualRowCache`] probe per
//!    row — a flat per-table enable flag, then one bucket scan in the
//!    memory-optimized engine and, only if that misses, one index probe in
//!    the CPU-optimized engine. Without a shared tier, misses collect in a
//!    reused scratch list, in ascending position order. With one attached
//!    the scan is resolve → tier → pool: private misses collect in a probe
//!    list that goes to [`SharedRowTier::lookup_many`] **once** per operator
//!    (one stripe lock per stripe touched, hit bytes copied into a reused
//!    staging buffer under it and their ranges handed back on the probes,
//!    so no manager code runs under a stripe lock); rows from the first
//!    probe on — later private hits included, staged the same way — pool
//!    in a last pass in index order, and the tier's misses join the miss
//!    list there.
//! 2. **Submit**: one [`IoRequest`] per miss, its single range inline in
//!    the [`ReadCommand`]. The engine admits it from per-device and
//!    per-table sorted completion lists and an incrementally maintained
//!    count of tables in flight, and the device fills a recycled payload
//!    buffer straight from its page store, stamping the guard checksum the
//!    engine verifies (see `io_engine`'s engine module docs).
//! 3. **Drain**: [`IoEngine::drain_each`] sorts the ready queue in place
//!    and lends each completion to the closure below, then takes its
//!    buffer back; the closure finds the miss's stored row by binary
//!    search over the scratch list, accumulates the payload into the
//!    pooled vector and
//! 4. **Fill**: copies it into the row cache — an in-bucket LRU eviction
//!    plus one free and one best-fit allocation in the engine's slab
//!    arena (segregated bins and boundary maps, O(1) each) — and offers
//!    it to the shared tier.
//!
//! Invariants the manager relies on: completions are reaped in
//! `(completed_at, submission order)`, so the pooled sum is
//! order-deterministic; no stripe lock is held across submit or drain (the
//! tier is only ever called, never calls back into the manager); a read
//! that exhausts its retries produces no completion and is counted as a
//! degraded row instead.
//!
//! # One table resolve per lookup
//!
//! The engine issues one table-batched operator per (side, table) per
//! query and hands each of its requests to the manager as one pooled
//! lookup, each at the instant the previous one finished (see
//! [`dlrm::ExecutionMode`]), so the statistics stay per pooled vector. A
//! lookup names its table by id. The
//! entry point ([`SdmMemoryManager::pooled_lookup_into_at`]) resolves that
//! id once — against the fast-memory tables first, where every item table
//! lives, then the SM-side load state — and hands the resolved table down;
//! nothing below it looks the id up again. That is why the state a lookup
//! *mutates* (`ReadPath`) is a separate struct from the [`LoadedModel`] it
//! reads.
//!
//! # One request path
//!
//! A lookup is synchronous: `sm_lookup_core` submits an operator's reads
//! and drains them before it returns, so when a lookup returns no IO is in
//! flight and every state change it made (row-cache fill, tier promotion,
//! pooled-cache insert) is applied. Overlap is a matter of the `now` each
//! lookup is handed: within a query, each operator gets the instant its
//! chain reaches it (see [`dlrm::ExecutionMode`]); across queries, each
//! query gets its start (see [`crate::BatchMode`]). The engine's admission
//! schedules remember what earlier, later-finishing lookups put on the
//! devices. A begin/finish seam belongs here only once a backend can
//! actually leave an operation in flight.
//!
//! Handed instants are therefore not monotone. Under `InterOpParallel` the
//! item chain starts back at the query's start after the user chain ran
//! ahead, and under `Relaxed` query *k + 1*'s first operator is handed an
//! instant earlier than query *k*'s last. The engine prunes its schedules by
//! the instant a read is submitted at, so a later-instant submission drops
//! completions that an earlier-instant one would still have queued behind.
//! On `sm_bound` (Relaxed 8, seed 3) a pruning floor at the current query's
//! start, counting only completions after the submission instant, moves
//! `virt_mean_us_r1` 2 105 → 2 111 µs, `virt_slow10_us_r1` 2 495 → 2 553
//! and `virt_p90_us_r3` 3 119 → 3 324, and leaves served QPS unchanged:
//! the erased queue is a few per cent, not the 2.6× the per-query double
//! count was.
//!
//! # After a model update
//!
//! A full update ([`crate::ModelUpdater`]) makes every cached row stale but
//! not the *choice* of rows: new weights do not change which users and items
//! are popular. So the update snapshots the private row cache's resident
//! keys, invalidates, and [`SdmMemoryManager::reread_rows`] reads them back
//! from the new image as gathered reads. The snapshot is sorted by device
//! and address, and every device block holding a row's first byte becomes
//! one command naming each such row as a range (a row straddling the
//! block's end makes its command touch two blocks), in the access mode of
//! `config.granularity` as a demand miss is: an SGL gather, or whole
//! blocks. The device charges media time per block touched, so the refill
//! pays per block, not per row (paper §4.1.1). Commands go out in address
//! order, in groups bounded by `REFILL_GROUP_BYTES` of payload; a group is
//! submitted at one instant and drained before the next. Everything else is
//! the miss path's steps 2–4: admission limits, retries, back-off, hedging
//! and the checksum guard act per command, a completion's payload is split
//! by range into the ordinary fill (row cache, then shared tier), payload
//! buffers are recycled and no stripe lock is held across submit or drain.
//! Fills land in address order, so afterwards the rows are re-stamped in
//! the snapshot's least-recently-used-first order
//! ([`DualRowCache::restamp`], no statistic moves): each engine's recency
//! is exactly what it was before the update.
//!
//! What differs from a demand miss is the accounting: the reads show in the
//! engine's and the devices' statistics as the IO they are and in **no**
//! demand counter (`sm_reads`, `row_cache_hits`), so row conservation keeps
//! its meaning; and a command that exhausts its retries leaves its rows
//! uncached for later misses instead of counting them as degraded — nobody
//! was waiting for them. The manager's clock advances to the last
//! completion; [`crate::Shard`] raises its own to it, which puts the
//! update's window in the makespan of the first batch afterwards.
//!
//! | workload | winner | factor | reason |
//! |---|---|---|---|
//! | refill after an update, `refresh_nand` (≈ 29 200 resident rows, two Nand devices) | bulk re-read over demand misses | 30 542 → 142 demand reads in the next segment | queue depth: a group fills both devices' queues, eight in-flight queries fill them with whatever they happen to miss on |
//! | the same refill, seed 1, fault-free / under the benchmark's fault plan | one gathered command per block over one command per row | 29 190 → 1 351 commands; 123.9 → 13.8 ms / 61.1 → 9.4 ms; `virt_slow10_us_r1` 3 393 → 2 359 µs | media time is paid per 4 KiB block: 29 190 rows sit in 1 351 blocks, 21.6 per command |
//!
//! The group bound is a constant because only its order of magnitude
//! matters. Under it the refill trades window against memory: one group of
//! payload buffers stays in the engine's pool afterwards. Measured on the
//! snapshot above, seed 1 (refill ms fault-free / under faults; process
//! peak RSS against the per-row refill):
//!
//! | bound | 64 KiB | 256 KiB | 512 KiB | **1 MiB** | 2 MiB | 4 MiB (one group) |
//! |---|---|---|---|---|---|---|
//! | refill (ms) | 34.9 / 36.7 | 25.7 / 26.6 | 17.9 / 16.2 | **13.8 / 9.4** | 11.8 / 6.2 | 6.8 / 3.4 |
//! | peak RSS | +0.7 MB | +1.3 MB | +1.9 MB | **+2.5 MB** | +3.6 MB | +4.2 MB |
//!
//! Small groups pay for the barrier at their end: every hundredth Nand read
//! is a 20× tail, and a group waits for its slowest. At 1 MiB
//! `refresh_nand`'s `peak_rss_mib` reads 107.15 → 108.64 MiB (+1.4 %)
//! against the per-row refill, whose 2 048-row group had cost +0.9 MiB.
//! Not done on purpose: re-creating pooled-cache entries (their keys are
//! hashes of index sequences), and interleaving the re-read with serving
//! under a share of the queue slots (needs an asynchronous serving path).

use crate::config::{AccessGranularity, SdmConfig};
use crate::error::SdmError;
use crate::loader::{LoadedModel, LoadedTable};
use crate::stats::SdmStats;
use dlrm::{DlrmError, EmbeddingBackend};
use embedding::kernels::{self, SelectedKernel};
use embedding::{EmbeddingError, EmbeddingTable, QuantScheme, SmLayout, TableId};
use io_engine::{IoEngine, IoError, IoRequest};
use scm_device::{AccessMode, DeviceId, ReadCommand, SglRange};
use sdm_cache::{
    DualRowCache, PooledEmbeddingCache, PooledKey, RowCache, RowKey, SharedRowTier, TierProbe,
};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use std::sync::Arc;

/// Per-element cost of dequantise + accumulate during pooling.
const DEQUANT_POOL_COST_PER_ELEMENT: SimDuration = SimDuration::from_nanos(1);
/// Per-element cost of pooling already-dequantised (`f32`) rows.
const POOL_ONLY_COST_PER_ELEMENT: SimDuration = SimDuration::from_nanos(0);
/// Cost of probing the pooled-embedding cache (hashing the index sequence).
const POOLED_CACHE_PROBE_COST: SimDuration = SimDuration::from_nanos(400);
/// Cost of one mapping-tensor lookup in fast memory.
const MAPPING_LOOKUP_COST: SimDuration = SimDuration::from_nanos(40);
/// DRAM random access cost for rows of directly-placed tables.
const FM_ROW_COST: SimDuration = SimDuration::from_nanos(150);

/// Payload bytes per group of the post-update refill. A constant, not a
/// knob: see the module docs ("After a model update") for the measured
/// sizes.
const REFILL_GROUP_BYTES: usize = 1024 * 1024;

/// Reusable per-lookup scratch: every list survives across lookups so a
/// steady-state query never allocates for them.
#[derive(Debug, Default)]
struct LookupScratch {
    /// `(position in the index list, stored row)` of each cache miss.
    io_targets: Vec<(usize, u64)>,
    /// Private-cache misses of the operator, probed in the shared tier in
    /// one [`SharedRowTier::lookup_many`] after the index walk.
    probes: Vec<TierProbe>,
    /// The operator's rows from its first tier probe on, in index order:
    /// they pool after the tier has answered, so that summation stays in
    /// index order.
    deferred: Vec<DeferredRow>,
    /// Bytes of the deferred hits (private hits copied during the walk,
    /// tier hits copied under the stripe lock).
    staged: Vec<u8>,
}

/// A snapshot row at its device address, for the post-update refill.
#[derive(Debug, Clone, Copy)]
struct RefillRow {
    device: usize,
    offset: u64,
    len: u32,
    key: RowKey,
}

/// One row whose pooling waits for the operator's tier lookup.
#[derive(Debug, Clone, Copy)]
enum DeferredRow {
    /// Private-cache hit, its bytes at `staged[start..start + len]`.
    PrivateHit { start: usize, len: usize },
    /// Tier hit, staged the same way by the tier lookup.
    TierHit {
        start: usize,
        len: usize,
        cross_shard: bool,
    },
    /// Asked of the tier; what the row stays when the tier misses too.
    TierMiss { pos: usize, stored_row: u64 },
}

/// This shard's handle on the host-shared cache tier: the tier itself
/// (shared via `Arc` across every shard's manager) plus the shard id used
/// to tag promotions, which is what distinguishes cross-shard hits from a
/// shard re-reading its own promotion.
#[derive(Debug, Clone)]
struct SharedTierHandle {
    tier: Arc<SharedRowTier>,
    source: u32,
}

/// Outcome of the SM scan core (`ReadPath::sm_lookup_core`).
struct SmScan {
    /// Mapping + cache-probe + shared-tier latency accrued by the scan.
    latency: SimDuration,
    /// Rows accumulated into the output (hits plus drained completions).
    pooled_rows: usize,
    /// Time the op's SM reads spent in flight (zero without misses).
    io_time: SimDuration,
}

/// The fill every row read from SM gets, on a demand miss or a post-update
/// re-read alike: copied into the private cache's arena and offered to the
/// shared tier, so other shards can serve it without an SM read of their own.
fn fill_caches(
    row_cache: &mut DualRowCache,
    shared: &Option<SharedTierHandle>,
    stats: &mut SdmStats,
    key: RowKey,
    data: &[u8],
) {
    row_cache.insert(key, data);
    if let Some(shared) = shared {
        if shared.tier.insert(key, data, shared.source) {
            stats.shared_tier_promotions += 1;
        }
    }
}

/// Everything a lookup mutates — caches, IO engine, statistics, scratch —
/// kept apart from the [`LoadedModel`] a lookup only reads, so an operator's
/// table can be resolved once and borrowed for the whole lookup.
#[derive(Debug)]
struct ReadPath {
    config: SdmConfig,
    /// Dequant-accumulate kernel resolved once at build time
    /// ([`kernels::auto_kernel`]; every kernel is bit-identical).
    kernel: SelectedKernel,
    engine: IoEngine,
    row_cache: DualRowCache,
    pooled_cache: PooledEmbeddingCache,
    /// Host-shared second tier, consulted between a private-cache miss and
    /// SM-IO submission. `None` (the default) keeps the single-tier serving
    /// path bit-identical to previous revisions.
    shared: Option<SharedTierHandle>,
    stats: SdmStats,
    scratch: LookupScratch,
}

impl ReadPath {
    /// The fast-memory path: accumulates every row into `out` (sized to the
    /// table's dimension), records the fm stats and returns the op latency.
    fn fm_lookup_core(
        &mut self,
        t: &EmbeddingTable,
        indices: &[u64],
        out: &mut [f32],
    ) -> Result<SimDuration, SdmError> {
        // Copy out the two plain fields instead of cloning the descriptor —
        // the descriptor carries a heap-allocated name, and this runs once
        // per operator.
        let (quant, dim) = (t.descriptor().quant, t.descriptor().dim);
        if out.len() != dim {
            return Err(EmbeddingError::MalformedRow {
                expected: dim,
                actual: out.len(),
            }
            .into());
        }
        for (i, &idx) in indices.iter().enumerate() {
            let row = t.row(idx)?;
            // Pull the next row's cache lines in while this one is
            // accumulated (rows sit in one contiguous arena, so the slice
            // math for the lookahead is free; a bad next index surfaces
            // as an error on its own iteration).
            if let Some(&next) = indices.get(i + 1) {
                if let Ok(next_row) = t.row(next) {
                    kernels::prefetch_row(next_row);
                }
            }
            kernels::accumulate_row_with(self.kernel, row, quant, out)?;
        }
        self.stats.fm_direct_lookups += indices.len() as u64;
        let latency = FM_ROW_COST * indices.len() as u64
            + DEQUANT_POOL_COST_PER_ELEMENT * (indices.len() * dim) as u64;
        self.stats.fm_op_latency.record(latency);
        Ok(latency)
    }

    /// Serves a pooled lookup against an SM-resident table — paper
    /// Algorithm 1, top to bottom.
    fn sm_pooled_lookup_into(
        &mut self,
        layout: &SmLayout,
        table: TableId,
        t: &LoadedTable,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, SdmError> {
        if out.len() != t.stored.dim {
            return Err(EmbeddingError::MalformedRow {
                expected: t.stored.dim,
                actual: out.len(),
            }
            .into());
        }
        let mut latency = SimDuration::ZERO;

        // 1. Pooled-embedding cache. The key is built once and serves the
        // probe and the insert that follows a miss; a sequence too short to
        // be probed at all is not charged for a probe (`lookup_key` counts
        // it as skipped).
        let pooled_key = if self.config.cache.pooled_cache_budget.is_zero() {
            None
        } else {
            if self.pooled_cache.eligible(indices.len()) {
                latency += POOLED_CACHE_PROBE_COST;
            }
            Some(PooledKey::new(table, indices))
        };
        if let Some(key) = &pooled_key {
            if let Some(vector) = self.pooled_cache.lookup_key(key) {
                out.copy_from_slice(vector);
                self.stats.pooled_cache_hits += 1;
                self.stats.sm_op_latency.record(latency);
                return Ok(latency);
            }
        }

        // 2–3. Row caches, shared tier and SM IO.
        let scan = self.sm_lookup_core(layout, table, t, indices, now, out)?;
        latency += scan.latency + scan.io_time;

        // 4. Dequantise + pool cost of the rows that were accumulated.
        let per_element = if t.stored.quant == QuantScheme::Fp32 {
            POOL_ONLY_COST_PER_ELEMENT
        } else {
            DEQUANT_POOL_COST_PER_ELEMENT
        };
        let pool_time =
            per_element * (scan.pooled_rows * out.len()) as u64 + SimDuration::from_nanos(100);
        self.stats.pooling_time += pool_time;
        latency += pool_time;

        // 5. Feed the pooled-embedding cache with the final vector.
        if let Some(key) = pooled_key {
            self.pooled_cache.insert_key(key, out);
        }
        self.stats.sm_op_latency.record(latency);
        Ok(latency)
    }

    /// Scan + IO core of the SM path (Algorithm 1 steps 2–3): resolves each
    /// index through the mapping tensor, the private row cache, the shared
    /// tier (paper Algorithm 1 with the host-shared second tier between the
    /// private miss and the device) and finally SM reads, accumulating into
    /// `out` in one canonical order — hits in index order, then misses in
    /// completion order.
    ///
    /// Private-cache hits are dequant-accumulated straight out of the
    /// cache's arena (no copy, no allocation) until the operator's first
    /// private miss on a host with a shared tier. From that row on the walk
    /// only resolves: misses join a probe list, hits are copied into a
    /// staging buffer. The tier then answers the whole list in one
    /// [`SharedRowTier::lookup_many`] — one lock acquisition per stripe, a
    /// hit's bytes copied out under it — and a last pass pools the deferred
    /// rows in index order, counting hits exactly where a row-at-a-time
    /// probe would have. What is still missing is gathered into a reused
    /// scratch list, submitted back to back with no per-IO allocation, and
    /// pooled as the completions drain — overlapping completion reaping
    /// with the dequantise+pool work. Completed reads are promoted into the
    /// shared tier at drain time, so no stripe lock is ever held across IO.
    /// Each row costs one private-cache probe and at most one tier probe.
    fn sm_lookup_core(
        &mut self,
        layout: &SmLayout,
        table: TableId,
        t: &LoadedTable,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SmScan, SdmError> {
        let kernel = self.kernel;
        let quant = t.stored.quant;
        let logical_rows = t.logical.num_rows;
        let mapping = t.mapping.as_ref();
        let mut latency = SimDuration::ZERO;

        // 2. Resolve each index: mapping tensor, row cache, then the
        // shared tier (when attached) or SM IO. Hits accumulate straight
        // into `out` in index order until the first row that has to ask the
        // tier; from there on rows are deferred — hit bytes staged — and
        // pooled, still in index order, once the tier has answered.
        let scratch = &mut self.scratch;
        scratch.io_targets.clear();
        scratch.probes.clear();
        scratch.deferred.clear();
        scratch.staged.clear();
        let mut zero_rows = 0u64;
        let mut pooled_rows = 0usize;
        for (pos, &idx) in indices.iter().enumerate() {
            if idx >= logical_rows {
                return Err(EmbeddingError::RowOutOfRange {
                    row: idx,
                    rows: logical_rows,
                }
                .into());
            }
            // Pruned tables translate through the FM mapping tensor.
            let stored_row = if let Some(mapping) = mapping {
                latency += MAPPING_LOOKUP_COST;
                match mapping.map(idx) {
                    Some(r) => r,
                    None => {
                        zero_rows += 1;
                        continue; // pruned row contributes zeros, no access
                    }
                }
            } else {
                idx
            };

            latency += self.row_cache.lookup_cost();
            let key = RowKey::new(table, stored_row);
            match self.row_cache.get(&key) {
                // Nothing of this operator is waiting on the tier: pool now.
                Some(bytes) if scratch.deferred.is_empty() => {
                    kernels::accumulate_row_with(kernel, bytes, quant, out)?;
                    self.stats.row_cache_hits += 1;
                    pooled_rows += 1;
                }
                Some(bytes) => {
                    let (start, len) = (scratch.staged.len(), bytes.len());
                    scratch
                        .deferred
                        .push(DeferredRow::PrivateHit { start, len });
                    scratch.staged.extend_from_slice(bytes);
                }
                None => match &self.shared {
                    Some(shared) => {
                        latency += shared.tier.lookup_cost();
                        let tag = scratch.deferred.len() as u32;
                        scratch.probes.push(TierProbe::new(key, tag));
                        let miss = DeferredRow::TierMiss { pos, stored_row };
                        scratch.deferred.push(miss);
                    }
                    None => {
                        self.stats.sm_reads += 1;
                        scratch.io_targets.push((pos, stored_row));
                    }
                },
            }
        }
        if let Some(shared) = &self.shared {
            // One stripe lock per stripe the operator touches; a hit's
            // bytes are copied into `staged` under it.
            let probes = &mut scratch.probes;
            shared
                .tier
                .lookup_many(probes, shared.source, &mut scratch.staged);
            for probe in probes.iter() {
                if let Some((bytes, hit)) = probe.hit() {
                    scratch.deferred[probe.tag() as usize] = DeferredRow::TierHit {
                        start: bytes.start,
                        len: bytes.len(),
                        cross_shard: hit.cross_shard,
                    };
                }
            }
        }
        for row in &scratch.deferred {
            let stats = &mut self.stats;
            let (start, len) = match *row {
                DeferredRow::PrivateHit { start, len } => {
                    stats.row_cache_hits += 1;
                    (start, len)
                }
                DeferredRow::TierHit {
                    start,
                    len,
                    cross_shard,
                } => {
                    stats.shared_tier_hits += 1;
                    stats.shared_tier_cross_hits += u64::from(cross_shard);
                    (start, len)
                }
                DeferredRow::TierMiss { pos, stored_row } => {
                    stats.shared_tier_misses += 1;
                    stats.sm_reads += 1;
                    scratch.io_targets.push((pos, stored_row));
                    continue;
                }
            };
            let bytes = &scratch.staged[start..start + len];
            kernels::accumulate_row_with(kernel, bytes, quant, out)?;
            pooled_rows += 1;
        }
        self.stats.pruned_zero_rows += zero_rows;

        // 3. Submit the misses as SGL (or block) reads, back to back, then
        // pool each row as its completion drains.
        let mut io_time = SimDuration::ZERO;
        if !self.scratch.io_targets.is_empty() {
            // Split borrows so the drain closure can fill the caches and
            // count while the engine lends it completions.
            let Self {
                config,
                engine,
                row_cache,
                shared,
                stats,
                scratch,
                ..
            } = self;
            let placement = layout.placement(table)?;
            let device = DeviceId(placement.device_index);
            for (pos, stored_row) in &scratch.io_targets {
                let offset = placement.row_offset(*stored_row)?;
                let command = match config.granularity {
                    AccessGranularity::Sgl => ReadCommand::sgl(offset, placement.row_bytes),
                    AccessGranularity::Block => ReadCommand::block(offset, placement.row_bytes),
                };
                match engine.submit(
                    IoRequest::new(device, command)
                        .with_table(table)
                        .with_user_data(*pos as u64),
                    now,
                ) {
                    Ok(()) => {}
                    Err(IoError::RetriesExhausted { .. }) => {
                        // The row is unrecoverable right now: degrade
                        // gracefully. No completion will arrive for it, so
                        // it contributes zeros to the pooled vector exactly
                        // like a pruned row; it moves from the `sm_reads`
                        // bucket (charged during the scan) to
                        // `degraded_rows`, keeping row conservation intact.
                        stats.sm_reads -= 1;
                        stats.degraded_rows += 1;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            let io_targets = &scratch.io_targets;
            let mut pool_error: Option<SdmError> = None;
            let finished_at = engine.drain_each(now, |completion| {
                // Pull the completed row's lines toward L1 ahead of the
                // position binary search below: the same bytes are then
                // read three times (accumulate, row-cache insert, shared
                // promotion) without re-paying the first-touch latency.
                kernels::prefetch_row(&completion.data);
                stats.sm_bytes_read += Bytes(completion.data.len() as u64);
                stats.sm_bus_bytes += completion.bus_bytes;
                let pos = completion.user_data as usize;
                // io_targets is built in ascending position order, so the
                // reverse lookup is a binary search, not a linear scan. A
                // completion for a position we never submitted is a pipeline
                // bug; record it as a typed error and skip the row rather
                // than tearing the shard down mid-drain.
                let stored_row = match io_targets
                    .binary_search_by_key(&pos, |(p, _)| *p)
                    .map(|i| io_targets[i].1)
                {
                    Ok(row) => row,
                    Err(_) => {
                        if pool_error.is_none() {
                            pool_error = Some(SdmError::Internal {
                                invariant: "IO completion matches a submitted miss position",
                            });
                        }
                        return;
                    }
                };
                if pool_error.is_none() {
                    if let Err(e) =
                        kernels::accumulate_row_with(kernel, &completion.data, quant, out)
                    {
                        pool_error = Some(e.into());
                    } else {
                        pooled_rows += 1;
                    }
                }
                let key = RowKey::new(table, stored_row);
                fill_caches(row_cache, shared, stats, key, &completion.data);
            })?;
            if let Some(e) = pool_error {
                return Err(e);
            }
            io_time = finished_at.duration_since(now);
            stats.io_time += io_time;
        }

        Ok(SmScan {
            latency,
            pooled_rows,
            io_time,
        })
    }
}

/// The serving-path memory manager.
///
/// Implements [`dlrm::EmbeddingBackend`]: the DLRM inference engine asks for
/// pooled embeddings, and the manager resolves each one through (in order)
/// the pooled-embedding cache, the fast-memory row cache, and finally
/// SGL reads from the SCM devices (paper Algorithm 1).
///
/// The hot path is allocation-free on a warmed cache: private-cache hits
/// are dequant-accumulated straight out of the cache's arena into the
/// caller's output range (rows the shared tier serves, and the private hits
/// behind them in the same operator, take one staging copy — see
/// `ReadPath::sm_lookup_core`), and misses are submitted to the IO engine
/// back to back, then pooled one by one as `IoEngine::drain_each` hands
/// their completions over.
#[derive(Debug)]
pub struct SdmMemoryManager {
    loaded: LoadedModel,
    path: ReadPath,
    clock: SimInstant,
}

impl SdmMemoryManager {
    /// Creates the manager from a loaded model and the IO engine that owns
    /// the devices holding its SM image.
    pub(crate) fn new(config: SdmConfig, loaded: LoadedModel, engine: IoEngine) -> Self {
        // Construction-time clone (once per deployment, not per query).
        let mut row_cache = DualRowCache::new(config.cache.clone());
        for table in loaded.placement.uncached_tables() {
            row_cache.disable_table(table);
        }
        let pooled_cache = PooledEmbeddingCache::new(
            config.cache.pooled_cache_budget,
            config.cache.pooled_len_threshold,
        );
        SdmMemoryManager {
            loaded,
            path: ReadPath {
                config,
                kernel: kernels::auto_kernel(),
                engine,
                row_cache,
                pooled_cache,
                shared: None,
                stats: SdmStats::new(),
                scratch: LookupScratch::default(),
            },
            clock: SimInstant::EPOCH,
        }
    }

    /// Attaches the host-shared cache tier, tagging this manager's
    /// promotions with `source` (its shard id). The serving host calls
    /// this once per shard at build time; without an attachment the
    /// manager serves exactly as before (private caches then SM).
    pub(crate) fn attach_shared_tier(&mut self, tier: Arc<SharedRowTier>, source: u32) {
        self.path.shared = Some(SharedTierHandle { tier, source });
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SdmConfig {
        &self.path.config
    }

    /// The loaded model.
    pub fn loaded(&self) -> &LoadedModel {
        &self.loaded
    }

    /// The IO engine (for device statistics).
    pub fn io_engine(&self) -> &IoEngine {
        &self.path.engine
    }

    /// Mutable access to the IO engine (model updater, fault-plan
    /// injection on the underlying devices, retry-policy tuning).
    pub fn io_engine_mut(&mut self) -> &mut IoEngine {
        &mut self.path.engine
    }

    /// Serving statistics.
    pub fn stats(&self) -> &SdmStats {
        &self.path.stats
    }

    /// The fast-memory row cache.
    pub fn row_cache(&self) -> &DualRowCache {
        &self.path.row_cache
    }

    /// Mutable row cache, for tests that read cached bytes back.
    #[cfg(test)]
    pub(crate) fn row_cache_mut(&mut self) -> &mut DualRowCache {
        &mut self.path.row_cache
    }

    /// The pooled-embedding cache.
    pub fn pooled_cache(&self) -> &PooledEmbeddingCache {
        &self.path.pooled_cache
    }

    /// Current position of the manager's virtual clock.
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Drops every cached row and pooled vector (what a full model update
    /// does). With a shared tier attached the tier is cleared too — it
    /// caches rows of the same model image, so a model update invalidates it
    /// host-wide (idempotent when several shards invalidate after the same
    /// update).
    pub fn invalidate_caches(&mut self) {
        self.path.row_cache.clear();
        self.path.pooled_cache.clear();
        if let Some(shared) = &self.path.shared {
            shared.tier.clear();
        }
    }

    /// Re-reads `rows` (a snapshot from
    /// [`DualRowCache::append_resident_lru_first`], taken before the caches
    /// were invalidated) from the SM image, starting at virtual time
    /// `start`, and fills the caches with what comes back. Returns the rows
    /// read back and the instant the last one landed, to which the
    /// manager's clock advances. See the module docs ("After a model
    /// update").
    ///
    /// # Errors
    ///
    /// Propagates hard IO errors. A command that exhausts its retries is
    /// not one: its rows stay uncached.
    pub(crate) fn reread_rows(
        &mut self,
        rows: &[(u64, RowKey)],
        start: SimInstant,
    ) -> Result<(u64, SimInstant), SdmError> {
        let ReadPath {
            config,
            engine,
            row_cache,
            shared,
            stats,
            ..
        } = &mut self.path;
        // Completions are matched to commands by their index, so a stray
        // one from an aborted lookup would fill the wrong keys.
        if engine.outstanding() != 0 {
            return Err(SdmError::Internal {
                invariant: "no IO is in flight when a model update re-reads",
            });
        }
        // Every row at its device address, in address order: the rows of
        // one device block become neighbours.
        let mut targets = Vec::with_capacity(rows.len());
        for &(_, key) in rows {
            let placement = self.loaded.layout.placement(key.table)?;
            targets.push(RefillRow {
                device: placement.device_index,
                offset: placement.row_offset(key.row)?,
                len: placement.row_bytes,
                key,
            });
        }
        targets.sort_unstable_by_key(|t| (t.device, t.offset));
        // One command per block holding a row's first byte, and groups of
        // consecutive commands up to the payload bound (at least one each).
        // Table bases are block-aligned, so a block's rows share the table
        // that tags its command for throttling.
        let mut commands: Vec<std::ops::Range<usize>> = Vec::new();
        let mut group_ends = Vec::new();
        let (mut first, mut payload) = (0, 0);
        while first < targets.len() {
            let head = targets[first];
            let profile = engine.array().device(DeviceId(head.device))?.profile();
            let block_bytes = profile.access_granularity.as_u64().max(1);
            let in_block = targets[first..].iter().take_while(|t| {
                t.device == head.device && t.offset / block_bytes == head.offset / block_bytes
            });
            let end = first + in_block.count();
            let bytes: usize = targets[first..end].iter().map(|t| t.len as usize).sum();
            if payload > 0 && payload + bytes > REFILL_GROUP_BYTES {
                group_ends.push(commands.len());
                payload = 0;
            }
            payload += bytes;
            commands.push(first..end);
            first = end;
        }
        group_ends.push(commands.len());
        let mode = match config.granularity {
            AccessGranularity::Sgl => AccessMode::Sgl,
            AccessGranularity::Block => AccessMode::Block,
        };
        let (mut now, mut reread, mut group_start) = (start, 0u64, 0);
        for group_end in group_ends {
            for c in group_start..group_end {
                let block = &targets[commands[c].clone()];
                let ranges = block.iter().map(|t| SglRange::new(t.offset, t.len));
                let command = ReadCommand::with_ranges(ranges.collect(), mode)?;
                let request = IoRequest::new(DeviceId(block[0].device), command)
                    .with_table(block[0].key.table)
                    .with_user_data(c as u64);
                match engine.submit(request, now) {
                    Ok(()) => {}
                    // Unlike a demand miss, nobody is waiting for these
                    // rows: they stay uncached and later misses read them.
                    Err(IoError::RetriesExhausted { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            // The group's last completion is the next group's submission
            // instant; a completion's payload is its rows back to back.
            now = engine.drain_each(now, |completion| {
                let span = commands[completion.user_data as usize].clone();
                let mut data = &completion.data[..];
                for row in &targets[span] {
                    let (bytes, rest) = data.split_at(row.len as usize);
                    fill_caches(row_cache, shared, stats, row.key, bytes);
                    data = rest;
                    reread += 1;
                }
            })?;
            group_start = group_end;
        }
        // Fills landed in address order; re-stamping in the snapshot's
        // order puts every engine's recency back exactly as it was.
        for (_, key) in rows {
            row_cache.restamp(key);
        }
        self.clock = self.clock.max(now);
        Ok((reread, now))
    }

    /// Raises the manager's clock to `to` (never lowers it). The shard calls
    /// this when a stretch of work ends, so that a model update applied next
    /// starts at the shard's present rather than at its last lookup.
    pub(crate) fn advance_clock(&mut self, to: SimInstant) {
        self.clock = self.clock.max(to);
    }

    /// Serves one pooled embedding operator into `out` (sized to the
    /// table's dimension), advancing the manager's clock. This is the
    /// zero-allocation hot path.
    ///
    /// Unlike the trait's minimum contract (which requires a zero-filled
    /// buffer), this implementation overwrites `out` unconditionally: the
    /// result may be persisted into the shared pooled-embedding cache, so a
    /// stale buffer must never be able to poison later queries.
    ///
    /// # Errors
    ///
    /// Returns [`SdmError`] for unknown tables, out-of-range indices or IO
    /// failures.
    fn pooled_lookup_into_at(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, SdmError> {
        out.fill(0.0);
        let Self { loaded, path, .. } = self;
        path.stats.pooled_ops += 1;
        let took = if let Some(t) = loaded.fm_tables.get(&table) {
            path.fm_lookup_core(t, indices, out)
        } else {
            let t = loaded.table(table)?;
            path.sm_pooled_lookup_into(&loaded.layout, table, t, indices, now, out)
        }?;
        self.clock = self.clock.max(now + took);
        Ok(took)
    }
}

impl EmbeddingBackend for SdmMemoryManager {
    fn pooled_lookup(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<(Vec<f32>, SimDuration), DlrmError> {
        let dim = self
            .loaded
            .table(table)
            .map_err(DlrmError::backend)?
            .stored
            .dim;
        let mut pooled = vec![0.0f32; dim];
        let took = self.pooled_lookup_into(table, indices, now, &mut pooled)?;
        Ok((pooled, took))
    }

    fn pooled_lookup_into(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        self.pooled_lookup_into_at(table, indices, now, out)
            .map_err(DlrmError::backend)
    }

    fn backend_name(&self) -> &str {
        "sdm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::ModelLoader;
    use dlrm::{model_zoo, DramBackend};
    use io_engine::EngineConfig;
    use scm_device::DeviceArray;

    fn build(model: &dlrm::ModelConfig, config: SdmConfig) -> SdmMemoryManager {
        let array = DeviceArray::homogeneous(
            config.technology.clone(),
            config.device_capacity,
            config.device_count,
        )
        .unwrap();
        let mut engine = IoEngine::new(array, EngineConfig::default());
        let loaded = ModelLoader::load(model, &config, &mut engine).unwrap();
        SdmMemoryManager::new(config, loaded, engine)
    }

    #[test]
    fn sdm_results_match_dram_baseline_bit_for_bit() {
        let model = model_zoo::tiny(2, 1, 400);
        let config = SdmConfig::for_tests();
        let mut sdm = build(&model, config.clone());
        let mut dram = DramBackend::from_tables(
            model
                .tables
                .iter()
                .map(|d| embedding::EmbeddingTable::generate(d, config.seed))
                .collect(),
        );
        let indices = vec![3u64, 17, 99, 250, 3];
        for table in [0u32, 1, 2] {
            let (a, _) = sdm
                .pooled_lookup(table, &indices, SimInstant::EPOCH)
                .unwrap();
            let (b, _) = dram
                .pooled_lookup(table, &indices, SimInstant::EPOCH)
                .unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "table {table}: {x} vs {y}");
            }
        }
        assert_eq!(sdm.backend_name(), "sdm");
    }

    #[test]
    fn second_access_hits_the_row_cache_and_is_faster() {
        let model = model_zoo::tiny(1, 0, 500);
        let mut sdm = build(&model, SdmConfig::for_tests());
        let indices = vec![10u64, 20, 30, 40];
        let (_, cold) = sdm.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        let (_, warm) = sdm.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert!(warm < cold / 2, "warm {warm} vs cold {cold}");
        assert!(sdm.stats().row_cache_hits >= 4 || sdm.stats().pooled_cache_hits >= 1);
        assert!(sdm.stats().sm_reads >= 4);
    }

    #[test]
    fn pooled_cache_short_circuits_repeat_sequences() {
        let model = model_zoo::tiny(1, 0, 500);
        let mut config = SdmConfig::for_tests();
        config.cache.pooled_len_threshold = 2;
        let mut sdm = build(&model, config);
        let indices = vec![5u64, 6, 7, 8, 9];
        sdm.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        let before = sdm.stats().pooled_cache_hits;
        // Same multiset in a different order still hits.
        let shuffled = vec![9u64, 8, 7, 6, 5];
        let (_, latency) = sdm.pooled_lookup(0, &shuffled, SimInstant::EPOCH).unwrap();
        assert_eq!(sdm.stats().pooled_cache_hits, before + 1);
        assert!(latency <= SimDuration::from_micros(1));
        assert!(sdm.stats().pooled_cache_hit_rate() > 0.0);
    }

    #[test]
    fn sub_threshold_sequences_are_counted_as_skipped_not_probed() {
        let model = model_zoo::tiny(1, 0, 500);
        let mut config = SdmConfig::for_tests();
        config.cache.pooled_len_threshold = 4;
        let mut sdm = build(&model, config.clone());
        // The same lookups with the pooled cache off: what a short
        // sequence must cost, since it never makes the probe.
        config.cache.pooled_cache_budget = Bytes::ZERO;
        let mut unprobed = build(&model, config);
        let short = vec![5u64, 6, 7];
        let long = vec![5u64, 6, 7, 8];
        for (indices, probe) in [
            (&short, SimDuration::ZERO),
            (&short, SimDuration::ZERO),
            (&long, POOLED_CACHE_PROBE_COST),
        ] {
            let (_, took) = sdm.pooled_lookup(0, indices, SimInstant::EPOCH).unwrap();
            let (_, base) = unprobed
                .pooled_lookup(0, indices, SimInstant::EPOCH)
                .unwrap();
            assert_eq!(took, base + probe);
        }
        let pooled = sdm.pooled_cache();
        assert_eq!(pooled.skipped_short(), 2, "one count per short op");
        assert_eq!(pooled.stats().lookups(), 1, "only the long op probed");
        assert_eq!(pooled.len(), 1, "only the long op was admitted");
        assert_eq!(sdm.stats().pooled_cache_hits, 0);
    }

    #[test]
    fn fm_placed_item_tables_never_touch_sm() {
        let model = model_zoo::tiny(1, 1, 300);
        let mut sdm = build(&model, SdmConfig::for_tests());
        let item_table = model.item_tables()[0].id;
        sdm.pooled_lookup(item_table, &[1, 2, 3], SimInstant::EPOCH)
            .unwrap();
        assert_eq!(sdm.stats().sm_reads, 0);
        assert_eq!(sdm.stats().fm_direct_lookups, 3);
        assert_eq!(sdm.io_engine().stats().submitted, 0);
    }

    #[test]
    fn shared_tier_serves_other_managers_misses() {
        let model = model_zoo::tiny(1, 0, 500);
        let config = SdmConfig::for_tests();
        let tier = Arc::new(SharedRowTier::new(Bytes::from_mib(2), 4));
        let mut a = build(&model, config.clone());
        let mut b = build(&model, config.clone());
        a.attach_shared_tier(Arc::clone(&tier), 0);
        b.attach_shared_tier(Arc::clone(&tier), 1);
        let indices = vec![10u64, 20, 30, 40];
        // Manager A reads cold: SM reads, then promotion into the tier.
        let (want, _) = a.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert_eq!(a.stats().sm_reads, 4);
        assert_eq!(a.stats().shared_tier_promotions, 4);
        assert_eq!(tier.len(), 4);
        // Manager B misses privately but hits the shared tier: no SM IO,
        // every hit is cross-shard, and the pooled values are bit-identical
        // (same rows accumulated in the same index order).
        let (got, _) = b.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert_eq!(got, want);
        assert_eq!(b.stats().sm_reads, 0);
        assert_eq!(b.stats().shared_tier_hits, 4);
        assert_eq!(b.stats().shared_tier_cross_hits, 4);
        assert_eq!(b.io_engine().stats().submitted, 0);
        assert!(b.stats().shared_tier_hit_rate() > 0.99);
        // A re-reading its own promotions hits, but not cross-shard (the
        // private cache serves first, so force a private-cache-miss path by
        // invalidating only the private side via a fresh manager).
        let mut a2 = build(&model, config);
        a2.attach_shared_tier(Arc::clone(&tier), 0);
        a2.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert_eq!(a2.stats().shared_tier_hits, 4);
        assert_eq!(a2.stats().shared_tier_cross_hits, 0);
    }

    #[test]
    fn invalidate_caches_clears_the_shared_tier() {
        let model = model_zoo::tiny(1, 0, 300);
        let tier = Arc::new(SharedRowTier::new(Bytes::from_mib(1), 2));
        let mut sdm = build(&model, SdmConfig::for_tests());
        sdm.attach_shared_tier(Arc::clone(&tier), 0);
        sdm.pooled_lookup(0, &[1, 2, 3], SimInstant::EPOCH).unwrap();
        assert!(!tier.is_empty());
        sdm.invalidate_caches();
        assert!(tier.is_empty());
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let model = model_zoo::tiny(1, 0, 100);
        let mut sdm = build(&model, SdmConfig::for_tests());
        assert!(sdm
            .pooled_lookup(0, &[1_000_000], SimInstant::EPOCH)
            .is_err());
        assert!(sdm.pooled_lookup(77, &[0], SimInstant::EPOCH).is_err());
    }

    #[test]
    fn pruned_rows_pool_to_partial_sums_without_io() {
        let mut model = model_zoo::tiny(1, 0, 200);
        model.tables[0].pruned_fraction = 0.5;
        let mut sdm = build(&model, SdmConfig::for_tests());
        let indices: Vec<u64> = (0..50).collect();
        let (pooled, _) = sdm.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert_eq!(pooled.len(), 32);
        assert!(sdm.stats().pruned_zero_rows > 0);
        // Rows actually read is total minus the pruned ones.
        assert_eq!(sdm.stats().sm_reads + sdm.stats().pruned_zero_rows, 50);
    }

    #[test]
    fn invalidate_caches_forces_cold_reads_again() {
        let model = model_zoo::tiny(1, 0, 300);
        let mut sdm = build(&model, SdmConfig::for_tests());
        let indices = vec![1u64, 2, 3];
        sdm.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        let reads_before = sdm.stats().sm_reads;
        sdm.invalidate_caches();
        sdm.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert_eq!(sdm.stats().sm_reads, reads_before + 3);
    }

    #[test]
    fn block_granularity_amplifies_bus_traffic() {
        let model = model_zoo::tiny(1, 0, 400);
        let mut sgl = build(&model, SdmConfig::for_tests());
        let mut block = build(
            &model,
            SdmConfig {
                granularity: AccessGranularity::Block,
                ..SdmConfig::for_tests().with_nand_flash()
            },
        );
        let indices: Vec<u64> = (0..20).collect();
        sgl.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        block.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        assert!(block.stats().read_amplification() > 5.0 * sgl.stats().read_amplification());
    }
}
