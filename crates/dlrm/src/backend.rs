//! The embedding backend abstraction.
//!
//! The inference engine does not care where embedding rows physically live:
//! fully in DRAM (the baseline deployment), or behind the Software Defined
//! Memory stack (DRAM cache + SCM). Both implement [`EmbeddingBackend`] and
//! report how long each pooled lookup took on the virtual clock, which is
//! how memory placement shows up in end-to-end query latency.

use crate::config::ModelConfig;
use crate::error::DlrmError;
use embedding::kernels::{self, SelectedKernel};
use embedding::{EmbeddingTable, PoolKernel, TableId};
use sdm_cache::SlotPool;
use sdm_metrics::{IntMap, SimDuration, SimInstant};

/// Serves pooled embedding lookups for the inference engine.
pub trait EmbeddingBackend {
    /// Reads and pools `indices` from `table`, returning the pooled vector
    /// and the simulated time the operation took (memory access + dequantise
    /// + pool).
    ///
    /// # Errors
    ///
    /// Implementations return [`DlrmError`] for unknown tables or
    /// out-of-range indices.
    fn pooled_lookup(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<(Vec<f32>, SimDuration), DlrmError>;

    /// Zero-allocation form of [`EmbeddingBackend::pooled_lookup`]: the
    /// pooled rows are *accumulated into* `out`, which the caller provides
    /// zero-filled and sized to the table's embedding dimension. Returns the
    /// simulated time the operation took.
    ///
    /// The default implementation falls back to the allocating form; hot
    /// backends override it to pool straight into the caller's buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError`] for unknown tables, out-of-range indices, or a
    /// buffer whose length disagrees with the table's dimension.
    fn pooled_lookup_into(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        let (pooled, took) = self.pooled_lookup(table, indices, now)?;
        if pooled.len() != out.len() {
            return Err(DlrmError::DimensionMismatch {
                expected: out.len(),
                actual: pooled.len(),
            });
        }
        out.copy_from_slice(&pooled);
        Ok(took)
    }

    /// Short name for reporting.
    fn backend_name(&self) -> &str {
        "backend"
    }
}

/// Handle to a pooled lookup that has been *begun* but not yet folded into
/// the query's pooled-vector arena (see [`OverlappedBackend`]).
///
/// Tickets are only meaningful to the backend that issued them and must be
/// finished exactly once, in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupTicket(pub u64);

/// Split-phase extension of [`EmbeddingBackend`] for overlapped batch
/// execution (paper §3.2: deep device queues across in-flight queries).
///
/// `lookup_begin` resolves everything that is immediately available (cache
/// hits, fast-memory rows) into backend-owned scratch and *issues* the slow
/// reads without waiting for them; `lookup_finish` waits for the op's IO,
/// writes the completed pooled vector into `out` and reports the op's total
/// simulated latency. Between the two calls the backend may begin ops of
/// *other* queries, which is what lets a relaxed batch executor keep many
/// queries' misses in flight at once.
pub trait OverlappedBackend: EmbeddingBackend {
    /// Begins one pooled lookup at virtual time `now`: accumulates hits into
    /// backend scratch and issues IO for the misses.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError`] for unknown tables or out-of-range indices.
    fn lookup_begin(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<LookupTicket, DlrmError>;

    /// Completes a begun lookup: writes the pooled vector into `out` (sized
    /// to the table's dimension) and returns the op's simulated latency,
    /// including any IO wait.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError`] for stale tickets or a mis-sized buffer.
    fn lookup_finish(
        &mut self,
        ticket: LookupTicket,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError>;
}

/// Baseline backend: every table fully resident in DRAM.
///
/// This is the paper's HW-L style deployment (dual socket, 256 GB DRAM) and
/// the reference point the SDM configurations are compared against.
#[derive(Debug)]
pub struct DramBackend {
    /// Keyed by the model's own table ids.
    tables: IntMap<TableId, EmbeddingTable>,
    /// Resolved dequant-accumulate kernel (auto-detected at construction,
    /// overridable via [`DramBackend::with_pool_kernel`]).
    kernel: SelectedKernel,
    /// DRAM random-access latency per row (cache-missing pointer chase).
    per_row_latency: SimDuration,
    /// Per-element dequantise + accumulate cost.
    per_element_cost: SimDuration,
    /// Begun-but-unfinished split-phase lookups (DRAM has no asynchronous
    /// IO, so `lookup_begin` resolves eagerly and parks the result here).
    /// The pool's generation tickets reject retained tickets whose slot was
    /// released or re-acquired — see [`sdm_cache::SlotPool`].
    pending: SlotPool<(Vec<f32>, SimDuration)>,
}

impl DramBackend {
    /// Materialises every table of a (scaled) model in DRAM.
    pub fn new(model: &ModelConfig, seed: u64) -> Self {
        let tables = model
            .tables
            .iter()
            .map(|d| (d.id, EmbeddingTable::generate(d, seed)))
            .collect();
        DramBackend {
            tables,
            kernel: kernels::auto_kernel(),
            per_row_latency: SimDuration::from_nanos(150),
            per_element_cost: SimDuration::from_nanos(1),
            pending: SlotPool::new(),
        }
    }

    /// Builds a backend from pre-materialised tables.
    pub fn from_tables(tables: Vec<EmbeddingTable>) -> Self {
        DramBackend {
            tables: tables.into_iter().map(|t| (t.descriptor().id, t)).collect(),
            kernel: kernels::auto_kernel(),
            per_row_latency: SimDuration::from_nanos(150),
            per_element_cost: SimDuration::from_nanos(1),
            pending: SlotPool::new(),
        }
    }

    /// Selects the pooling kernel explicitly (the constructors default to
    /// runtime auto-detection). Unsupported kernels fall back to scalar.
    #[must_use]
    pub fn with_pool_kernel(mut self, kernel: PoolKernel) -> Self {
        self.kernel = kernel.resolve_default();
        self
    }

    /// The resolved dequant-accumulate kernel this backend pools with.
    pub fn kernel(&self) -> SelectedKernel {
        self.kernel
    }

    /// Number of resident tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Access to a resident table (for tests).
    pub fn table(&self, id: TableId) -> Option<&EmbeddingTable> {
        self.tables.get(&id)
    }

    /// Discards every begun-but-unfinished split-phase lookup. Callers that
    /// abandon a pipeline mid-flight (an error between `lookup_begin` and
    /// `lookup_finish`) use this so orphaned slots cannot accumulate. The
    /// pool bumps the generation of every abandoned slot, so the orphaned
    /// tickets stay stale even after their slot is re-acquired.
    pub fn reset_pending(&mut self) {
        self.pending.reset();
    }
}

impl EmbeddingBackend for DramBackend {
    fn pooled_lookup(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<(Vec<f32>, SimDuration), DlrmError> {
        let dim = self
            .tables
            .get(&table)
            .ok_or(DlrmError::UnknownTable { table })?
            .descriptor()
            .dim;
        let mut pooled = vec![0.0f32; dim];
        let latency = self.pooled_lookup_into(table, indices, now, &mut pooled)?;
        Ok((pooled, latency))
    }

    fn pooled_lookup_into(
        &mut self,
        table: TableId,
        indices: &[u64],
        _now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        let t = self
            .tables
            .get(&table)
            .ok_or(DlrmError::UnknownTable { table })?;
        let desc = t.descriptor();
        if out.len() != desc.dim {
            return Err(DlrmError::DimensionMismatch {
                expected: desc.dim,
                actual: out.len(),
            });
        }
        // Rows are dequant-accumulated straight out of the table's arena —
        // no per-row vector, no pooled-vector allocation. The next row is
        // software-prefetched while the current one pools: pooling-factor
        // index streams are random, so the hardware prefetcher cannot cover
        // the arena strides on its own.
        for (i, &idx) in indices.iter().enumerate() {
            let row = t.row(idx).map_err(DlrmError::backend)?;
            if let Some(&next) = indices.get(i + 1) {
                if let Ok(next_row) = t.row(next) {
                    kernels::prefetch_row(next_row);
                }
            }
            kernels::accumulate_row_with(self.kernel, row, desc.quant, out)
                .map_err(DlrmError::backend)?;
        }
        let latency = self.per_row_latency * indices.len() as u64
            + self.per_element_cost * (indices.len() * desc.dim) as u64;
        Ok(latency)
    }

    fn backend_name(&self) -> &str {
        "dram"
    }
}

impl OverlappedBackend for DramBackend {
    fn lookup_begin(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<LookupTicket, DlrmError> {
        // DRAM resolves synchronously: begin computes the pooled vector
        // eagerly, finish just hands it back. This keeps the baseline
        // backend usable under the overlapped executor for comparisons.
        let (pooled, took) = self.pooled_lookup(table, indices, now)?;
        let slot = self.pending.acquire();
        *self.pending.slot_mut(slot) = (pooled, took);
        Ok(LookupTicket(self.pending.ticket(slot)))
    }

    fn lookup_finish(
        &mut self,
        ticket: LookupTicket,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        let slot = self
            .pending
            .checked_slot(ticket.0)
            .ok_or(DlrmError::StaleTicket { ticket: ticket.0 })?;
        let (pooled, took) = self.pending.slot(slot);
        // Validate before releasing, so a mis-sized buffer is retryable —
        // the same semantics as the SDM manager's finish half.
        if pooled.len() != out.len() {
            return Err(DlrmError::DimensionMismatch {
                expected: out.len(),
                actual: pooled.len(),
            });
        }
        out.copy_from_slice(pooled);
        let took = *took;
        // Release stales the consumed ticket; the next begin of this slot
        // issues a fresh generation.
        self.pending.release(slot);
        Ok(took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_zoo;

    #[test]
    fn dram_backend_serves_pooled_lookups() {
        let model = model_zoo::tiny(2, 1, 200);
        let mut backend = DramBackend::new(&model, 5);
        assert_eq!(backend.num_tables(), 3);
        let (pooled, latency) = backend
            .pooled_lookup(0, &[1, 2, 3, 4], SimInstant::EPOCH)
            .unwrap();
        assert_eq!(pooled.len(), 32);
        assert!(latency > SimDuration::ZERO);
        assert_eq!(backend.backend_name(), "dram");
    }

    #[test]
    fn pooled_result_matches_manual_sum() {
        let model = model_zoo::tiny(1, 0, 50);
        let mut backend = DramBackend::new(&model, 7);
        let table = backend.table(0).unwrap().clone();
        let manual: Vec<f32> = {
            let a = table.dequantized_row(3).unwrap();
            let b = table.dequantized_row(9).unwrap();
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        };
        let (pooled, _) = backend
            .pooled_lookup(0, &[3, 9], SimInstant::EPOCH)
            .unwrap();
        for (x, y) in pooled.iter().zip(&manual) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn explicit_scalar_kernel_is_bit_identical_to_auto() {
        let model = model_zoo::tiny(1, 0, 50);
        let mut auto = DramBackend::new(&model, 7);
        let mut scalar = DramBackend::new(&model, 7).with_pool_kernel(PoolKernel::Scalar);
        assert_eq!(scalar.kernel().name(), "scalar");
        let indices = [3u64, 9, 11, 11, 42];
        let (a, _) = auto.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        let (b, _) = scalar
            .pooled_lookup(0, &indices, SimInstant::EPOCH)
            .unwrap();
        let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "auto kernel diverged from scalar");
    }

    #[test]
    fn unknown_table_and_bad_index_are_errors() {
        let model = model_zoo::tiny(1, 0, 50);
        let mut backend = DramBackend::new(&model, 7);
        assert!(matches!(
            backend.pooled_lookup(99, &[0], SimInstant::EPOCH),
            Err(DlrmError::UnknownTable { table: 99 })
        ));
        assert!(backend
            .pooled_lookup(0, &[10_000], SimInstant::EPOCH)
            .is_err());
    }

    #[test]
    fn free_list_reuses_slots_and_keeps_tickets_generation_safe() {
        let model = model_zoo::tiny(1, 0, 50);
        let mut backend = DramBackend::new(&model, 7);
        let dim = backend.table(0).unwrap().descriptor().dim;
        let mut out = vec![0.0f32; dim];

        // Begin/finish interleaved: after the window drains, later begins
        // must come from the free list instead of growing `pending`.
        let a = backend.lookup_begin(0, &[1], SimInstant::EPOCH).unwrap();
        let b = backend.lookup_begin(0, &[2], SimInstant::EPOCH).unwrap();
        assert_eq!(backend.pending.len(), 2);
        assert_eq!(backend.pending.free_len(), 0);
        backend.lookup_finish(a, &mut out).unwrap();
        backend.lookup_finish(b, &mut out).unwrap();
        let c = backend.lookup_begin(0, &[3], SimInstant::EPOCH).unwrap();
        let d = backend.lookup_begin(0, &[4], SimInstant::EPOCH).unwrap();
        assert_eq!(backend.pending.len(), 2, "drained slots were not reused");

        // The retained ticket `a` names a reused slot with an older
        // generation: it must be rejected, not consume the new occupant.
        assert!(matches!(
            backend.lookup_finish(a, &mut out),
            Err(DlrmError::StaleTicket { .. })
        ));
        backend.lookup_finish(c, &mut out).unwrap();
        backend.lookup_finish(d, &mut out).unwrap();

        // reset_pending returns abandoned slots to the free list and stales
        // their tickets even after the slots are re-acquired.
        let e = backend.lookup_begin(0, &[5], SimInstant::EPOCH).unwrap();
        backend.reset_pending();
        let f = backend.lookup_begin(0, &[6], SimInstant::EPOCH).unwrap();
        assert_eq!(backend.pending.len(), 2, "reset_pending leaked a slot");
        assert!(matches!(
            backend.lookup_finish(e, &mut out),
            Err(DlrmError::StaleTicket { .. })
        ));
        backend.lookup_finish(f, &mut out).unwrap();

        // Free-list invariant: every pending slot is vacant again.
        assert!(backend.pending.all_free());
    }

    #[test]
    fn mis_sized_finish_is_retryable_and_does_not_free_the_slot() {
        let model = model_zoo::tiny(1, 0, 50);
        let mut backend = DramBackend::new(&model, 7);
        let dim = backend.table(0).unwrap().descriptor().dim;
        let t = backend.lookup_begin(0, &[1], SimInstant::EPOCH).unwrap();
        let mut short = vec![0.0f32; dim - 1];
        assert!(matches!(
            backend.lookup_finish(t, &mut short),
            Err(DlrmError::DimensionMismatch { .. })
        ));
        assert_eq!(
            backend.pending.free_len(),
            0,
            "failed finish freed the slot"
        );
        let mut out = vec![0.0f32; dim];
        backend.lookup_finish(t, &mut out).unwrap();
        assert_eq!(backend.pending.free_len(), 1);
    }

    #[test]
    fn latency_scales_with_pooling_factor() {
        let model = model_zoo::tiny(1, 0, 500);
        let mut backend = DramBackend::new(&model, 7);
        let (_, short) = backend.pooled_lookup(0, &[1], SimInstant::EPOCH).unwrap();
        let indices: Vec<u64> = (0..100).collect();
        let (_, long) = backend
            .pooled_lookup(0, &indices, SimInstant::EPOCH)
            .unwrap();
        assert!(long > short * 50);
    }
}
