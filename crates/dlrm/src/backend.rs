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
use embedding::{EmbeddingTable, TableId};
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

/// Baseline backend: every table fully resident in DRAM.
///
/// This is the paper's HW-L style deployment (dual socket, 256 GB DRAM) and
/// the reference point the SDM configurations are compared against.
#[derive(Debug)]
pub struct DramBackend {
    /// Keyed by the model's own table ids.
    tables: IntMap<TableId, EmbeddingTable>,
    /// Resolved dequant-accumulate kernel ([`kernels::auto_kernel`]).
    kernel: SelectedKernel,
    /// DRAM random-access latency per row (cache-missing pointer chase).
    per_row_latency: SimDuration,
    /// Per-element dequantise + accumulate cost.
    per_element_cost: SimDuration,
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
        }
    }

    /// Builds a backend from pre-materialised tables.
    pub fn from_tables(tables: Vec<EmbeddingTable>) -> Self {
        DramBackend {
            tables: tables.into_iter().map(|t| (t.descriptor().id, t)).collect(),
            kernel: kernels::auto_kernel(),
            per_row_latency: SimDuration::from_nanos(150),
            per_element_cost: SimDuration::from_nanos(1),
        }
    }

    /// Access to a resident table (for tests).
    pub fn table(&self, id: TableId) -> Option<&EmbeddingTable> {
        self.tables.get(&id)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_zoo;

    #[test]
    fn dram_backend_serves_pooled_lookups() {
        let model = model_zoo::tiny(2, 1, 200);
        let mut backend = DramBackend::new(&model, 5);
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
        let indices = [3u64, 9, 11, 11, 42];
        let (a, _) = auto.pooled_lookup(0, &indices, SimInstant::EPOCH).unwrap();
        let table = auto.table(0).unwrap();
        let quant = table.descriptor().quant;
        let mut b = vec![0.0f32; a.len()];
        for &idx in &indices {
            let row = table.row(idx).unwrap();
            kernels::accumulate_row_with(SelectedKernel::SCALAR, row, quant, &mut b).unwrap();
        }
        let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            a_bits, b_bits,
            "{} kernel diverged from scalar",
            auto.kernel
        );
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
