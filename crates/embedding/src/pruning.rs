//! Pruned tables, mapping tensors and de-pruning at load time.
//!
//! Paper §4.5: post-training pruning removes near-zero rows and introduces a
//! *mapping tensor* translating unpruned indices to pruned ones. Placing a
//! pruned table on SM either costs two SM accesses per lookup (mapping +
//! row) or keeps the mapping tensor in fast memory, where it competes with
//! the SM cache for space. De-pruning at load time (Algorithm 2) rebuilds
//! the full table on the cheap SM capacity so the mapping tensor disappears
//! from fast memory, at the cost of slightly more SM traffic (the paper
//! measures ~2.5 % extra requests and up to 48 % performance gain from the
//! recovered cache space).

use crate::error::EmbeddingError;
use crate::quant::quantize_row;
use crate::table::{EmbeddingTable, TableDescriptor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdm_metrics::units::Bytes;

/// Maps indices in the unpruned space to row positions in the pruned table.
///
/// `None` entries are pruned rows (they decode to the zero vector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingTensor {
    entries: Vec<Option<u64>>,
    index_bytes: usize,
}

impl MappingTensor {
    /// Builds a mapping tensor from explicit entries. `index_bytes` is the
    /// storage width per entry (4 or 8 bytes in the paper).
    pub(crate) fn new(entries: Vec<Option<u64>>, index_bytes: usize) -> Self {
        MappingTensor {
            entries,
            index_bytes: if index_bytes == 8 { 8 } else { 4 },
        }
    }

    /// Looks up the pruned-space position of an unpruned index.
    pub fn map(&self, unpruned_index: u64) -> Option<u64> {
        self.entries.get(unpruned_index as usize).copied().flatten()
    }

    /// Fast-memory footprint of the tensor:
    /// `NumRows(unpruned) * IdxType` (paper §4.5).
    pub fn footprint(&self) -> Bytes {
        Bytes(self.entries.len() as u64 * self.index_bytes as u64)
    }
}

/// A pruned embedding table: the surviving rows plus the mapping tensor.
#[derive(Debug, Clone)]
pub struct PrunedTable {
    /// Descriptor of the *unpruned* logical table.
    unpruned_descriptor: TableDescriptor,
    /// Physical table holding only the surviving rows.
    pruned_rows: EmbeddingTable,
    /// Unpruned index -> pruned row position.
    mapping: MappingTensor,
}

/// Summary of a de-pruning pass (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepruneReport {
    /// Rows in the reconstructed (unpruned) table.
    pub total_rows: u64,
    /// Rows that had been pruned and were re-materialised as zero rows.
    pub zero_rows: u64,
    /// Fast-memory bytes freed by dropping the mapping tensor.
    pub mapping_bytes_freed: Bytes,
    /// Extra SM capacity consumed by the reconstruction.
    pub extra_sm_bytes: Bytes,
}

impl PrunedTable {
    /// Prunes a full table, keeping `keep_fraction` of its rows (chosen
    /// pseudo-randomly but deterministically from `seed` — the paper prunes
    /// near-zero rows; which rows survive does not matter for the systems
    /// behaviour, only how many).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidDescriptor`] when `keep_fraction`
    /// is not in `(0, 1]`.
    pub fn prune(
        table: &EmbeddingTable,
        keep_fraction: f64,
        seed: u64,
    ) -> Result<Self, EmbeddingError> {
        if !(keep_fraction > 0.0 && keep_fraction <= 1.0) {
            return Err(EmbeddingError::InvalidDescriptor {
                reason: format!("keep_fraction {keep_fraction} outside (0, 1]"),
            });
        }
        let total = table.num_rows();
        let keep = ((total as f64 * keep_fraction).round() as u64).clamp(1, total);
        let mut indices: Vec<u64> = (0..total).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_1234);
        indices.shuffle(&mut rng);
        let mut survivors: Vec<u64> = indices.into_iter().take(keep as usize).collect();
        survivors.sort_unstable();

        let mut entries = vec![None; total as usize];
        let mut rows = Vec::with_capacity(keep as usize);
        for (pruned_pos, &unpruned_idx) in survivors.iter().enumerate() {
            entries[unpruned_idx as usize] = Some(pruned_pos as u64);
            rows.push(table.row(unpruned_idx)?.to_vec());
        }

        let mut pruned_descriptor = table.descriptor().clone();
        pruned_descriptor.num_rows = keep;
        pruned_descriptor.pruned_fraction = 1.0 - keep_fraction;
        let pruned_rows = EmbeddingTable::from_rows(pruned_descriptor, rows)?;

        let index_bytes = if total > u32::MAX as u64 { 8 } else { 4 };
        Ok(PrunedTable {
            unpruned_descriptor: table.descriptor().clone(),
            pruned_rows,
            mapping: MappingTensor::new(entries, index_bytes),
        })
    }

    /// The physical pruned table.
    pub fn pruned_rows(&self) -> &EmbeddingTable {
        &self.pruned_rows
    }

    /// The mapping tensor.
    pub fn mapping(&self) -> &MappingTensor {
        &self.mapping
    }

    /// De-prunes at load time (paper Algorithm 2): reconstructs a full table
    /// where pruned rows become explicit zero rows, so the mapping tensor is
    /// no longer needed at serving time.
    ///
    /// # Errors
    ///
    /// Propagates row decoding errors.
    pub fn deprune(&self) -> Result<(EmbeddingTable, DepruneReport), EmbeddingError> {
        let descriptor = self.unpruned_descriptor.clone();
        let zero_row = quantize_row(&vec![0.0f32; descriptor.dim], descriptor.quant);
        let mut rows = Vec::with_capacity(descriptor.num_rows as usize);
        let mut zero_rows = 0u64;
        for idx in 0..descriptor.num_rows {
            match self.mapping.map(idx) {
                Some(pos) => rows.push(self.pruned_rows.row(pos)?.to_vec()),
                None => {
                    rows.push(zero_row.clone());
                    zero_rows += 1;
                }
            }
        }
        let full = EmbeddingTable::from_rows(
            TableDescriptor {
                pruned_fraction: 0.0,
                ..descriptor
            },
            rows,
        )?;
        let report = DepruneReport {
            total_rows: full.num_rows(),
            zero_rows,
            mapping_bytes_freed: self.mapping.footprint(),
            extra_sm_bytes: Bytes(zero_rows * full.descriptor().row_bytes() as u64),
        };
        Ok((full, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableKind;

    fn table() -> EmbeddingTable {
        let d = TableDescriptor::new(1, "t", TableKind::User, 200, 8);
        EmbeddingTable::generate(&d, 3)
    }

    #[test]
    fn prune_keeps_requested_fraction() {
        let t = table();
        let pruned = PrunedTable::prune(&t, 0.6, 42).unwrap();
        assert_eq!(pruned.pruned_rows().num_rows(), 120);
        assert_eq!(pruned.mapping().entries.len(), 200);
    }

    #[test]
    fn invalid_keep_fraction_rejected() {
        let t = table();
        assert!(PrunedTable::prune(&t, 0.0, 1).is_err());
        assert!(PrunedTable::prune(&t, 1.5, 1).is_err());
        assert!(PrunedTable::prune(&t, 1.0, 1).is_ok());
    }

    #[test]
    fn surviving_rows_keep_their_data() {
        let t = table();
        let pruned = PrunedTable::prune(&t, 0.5, 9).unwrap();
        let mut surviving_checked = 0;
        for idx in 0..t.num_rows() {
            if let Some(pos) = pruned.mapping().map(idx) {
                let row = pruned.pruned_rows().row(pos).unwrap();
                assert_eq!(row, t.row(idx).unwrap());
                surviving_checked += 1;
            }
        }
        assert_eq!(surviving_checked, 100);
    }

    #[test]
    fn mapping_footprint_uses_4_byte_indices_for_small_tables() {
        let t = table();
        let pruned = PrunedTable::prune(&t, 0.5, 9).unwrap();
        assert_eq!(pruned.mapping().footprint(), Bytes(200 * 4));
    }

    #[test]
    fn deprune_reconstructs_full_table() {
        let t = table();
        let pruned = PrunedTable::prune(&t, 0.7, 5).unwrap();
        let (full, report) = pruned.deprune().unwrap();
        assert_eq!(full.num_rows(), 200);
        assert_eq!(report.total_rows, 200);
        assert_eq!(report.zero_rows, 60);
        assert_eq!(report.mapping_bytes_freed, Bytes(800));
        assert_eq!(
            report.extra_sm_bytes,
            Bytes(60 * full.descriptor().row_bytes() as u64)
        );
        // Surviving rows identical, pruned rows decode to zeros.
        for idx in 0..t.num_rows() {
            match pruned.mapping().map(idx) {
                Some(pos) => {
                    let orig = pruned.pruned_rows().row(pos).unwrap();
                    assert_eq!(full.row(idx).unwrap(), orig);
                }
                None => {
                    let values = full.dequantized_row(idx).unwrap();
                    assert!(values.iter().all(|v| v.abs() < 1e-6));
                }
            }
        }
        assert!((full.descriptor().pruned_fraction - 0.0).abs() < 1e-12);
    }

    #[test]
    fn deprune_grows_capacity_by_pruned_share() {
        let t = table();
        let pruned = PrunedTable::prune(&t, 0.5, 5).unwrap();
        let (full, _) = pruned.deprune().unwrap();
        assert_eq!(full.capacity(), t.capacity());
        assert_eq!(
            pruned.pruned_rows().capacity(),
            Bytes(t.capacity().as_u64() / 2)
        );
    }
}
