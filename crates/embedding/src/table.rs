//! Logical table descriptors and materialised embedding tables.

use crate::arena::RowArena;
use crate::error::EmbeddingError;
use crate::quant::{dequantize_row, quantize_row, quantize_row_into, QuantScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdm_metrics::units::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one embedding table within a model.
pub type TableId = u32;

/// Whether a table materialises user-side or item-side categorical features.
///
/// The distinction matters because an inference query reads user tables once
/// (`B_U = 1`) but item tables once per ranked item (`B_I` in the tens to
/// thousands), so user tables dominate capacity while item tables dominate
/// bandwidth (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TableKind {
    /// User-side categorical feature.
    User,
    /// Item-side categorical feature.
    Item,
}

impl fmt::Display for TableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableKind::User => f.write_str("user"),
            TableKind::Item => f.write_str("item"),
        }
    }
}

/// The logical description of one embedding table.
///
/// Descriptors are used for capacity and bandwidth arithmetic even when the
/// table bytes themselves are scaled down for simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDescriptor {
    /// Table id, unique within a model.
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// User or item side.
    pub kind: TableKind,
    /// Number of rows (cardinality of the categorical feature after hashing).
    pub num_rows: u64,
    /// Embedding dimension in elements.
    pub dim: usize,
    /// Quantisation scheme of the stored rows.
    pub quant: QuantScheme,
    /// Average number of rows looked up per query (pooling factor).
    pub pooling_factor: u32,
    /// Zipf skew of the index popularity distribution for this table
    /// (higher means more temporal locality; item tables are typically more
    /// skewed than user tables, paper Figure 4).
    pub zipf_exponent: f64,
    /// Fraction of rows pruned away post-training (0.0 when unpruned).
    pub pruned_fraction: f64,
}

impl TableDescriptor {
    /// Creates a descriptor with default quantisation (int8), pooling factor
    /// 1 and a mild popularity skew.
    pub fn new(
        id: TableId,
        name: impl Into<String>,
        kind: TableKind,
        num_rows: u64,
        dim: usize,
    ) -> Self {
        TableDescriptor {
            id,
            name: name.into(),
            kind,
            num_rows,
            dim,
            quant: QuantScheme::Int8,
            pooling_factor: 1,
            zipf_exponent: 0.9,
            pruned_fraction: 0.0,
        }
    }

    /// Sets the pooling factor.
    pub fn with_pooling_factor(mut self, pf: u32) -> Self {
        self.pooling_factor = pf;
        self
    }

    /// Sets the quantisation scheme.
    pub fn with_quant(mut self, quant: QuantScheme) -> Self {
        self.quant = quant;
        self
    }

    /// Sets the Zipf exponent of the index popularity distribution.
    pub fn with_zipf_exponent(mut self, s: f64) -> Self {
        self.zipf_exponent = s;
        self
    }

    /// Validates the descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidDescriptor`] when rows or dimension
    /// are zero.
    pub fn validate(&self) -> Result<(), EmbeddingError> {
        if self.num_rows == 0 {
            return Err(EmbeddingError::InvalidDescriptor {
                reason: format!("table {} has zero rows", self.id),
            });
        }
        if self.dim == 0 {
            return Err(EmbeddingError::InvalidDescriptor {
                reason: format!("table {} has zero dimension", self.id),
            });
        }
        Ok(())
    }

    /// Bytes per stored row under the table's quantisation scheme.
    pub fn row_bytes(&self) -> usize {
        self.quant.row_bytes(self.dim)
    }

    /// Total table capacity.
    pub fn capacity(&self) -> Bytes {
        Bytes(self.num_rows * self.row_bytes() as u64)
    }

    /// Bytes this table contributes to one query: `batch * pooling_factor *
    /// row_bytes` where the batch is 1 for user tables and `item_batch` for
    /// item tables (paper Equation 2).
    pub fn bytes_per_query(&self, item_batch: u32) -> Bytes {
        let batch = match self.kind {
            TableKind::User => 1,
            TableKind::Item => item_batch.max(1),
        };
        Bytes(batch as u64 * self.pooling_factor as u64 * self.row_bytes() as u64)
    }

    /// Row lookups this table contributes to one query.
    pub fn lookups_per_query(&self, item_batch: u32) -> u64 {
        let batch = match self.kind {
            TableKind::User => 1,
            TableKind::Item => item_batch.max(1) as u64,
        };
        batch * self.pooling_factor as u64
    }
}

/// A materialised embedding table holding quantised rows in memory.
///
/// Rows live in one flat [`RowArena`] (a single contiguous allocation with a
/// fixed stride) rather than a `Vec<Vec<u8>>`, so row access is a slice into
/// one buffer and the table carries no per-row heap metadata.
///
/// Rows are generated deterministically from a seed so experiments can check
/// data integrity end to end (a row read back through the SM path must equal
/// the row generated here).
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    descriptor: TableDescriptor,
    rows: RowArena,
}

impl EmbeddingTable {
    /// Generates a table from its descriptor with deterministic contents.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor fails validation; use
    /// [`TableDescriptor::validate`] first for fallible handling.
    pub fn generate(descriptor: &TableDescriptor, seed: u64) -> Self {
        if let Err(e) = descriptor.validate() {
            panic!("invalid table descriptor passed to EmbeddingTable::generate: {e}");
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (descriptor.id as u64) << 32);
        let mut values = vec![0.0f32; descriptor.dim];
        let quant = descriptor.quant;
        let rows = RowArena::generate(descriptor.row_bytes(), descriptor.num_rows, |_, out| {
            for v in &mut values {
                *v = rng.gen_range(-1.0f32..1.0f32);
            }
            quantize_row_into(&values, quant, out);
        });
        EmbeddingTable {
            descriptor: descriptor.clone(),
            rows,
        }
    }

    /// Builds a table from already-quantised rows.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::MalformedRow`] if any row has the wrong
    /// length, or [`EmbeddingError::InvalidDescriptor`] if the row count does
    /// not match the descriptor.
    pub(crate) fn from_rows(
        descriptor: TableDescriptor,
        rows: Vec<Vec<u8>>,
    ) -> Result<Self, EmbeddingError> {
        descriptor.validate()?;
        if rows.len() as u64 != descriptor.num_rows {
            return Err(EmbeddingError::InvalidDescriptor {
                reason: format!(
                    "descriptor declares {} rows but {} rows were provided",
                    descriptor.num_rows,
                    rows.len()
                ),
            });
        }
        let rows = RowArena::from_rows(descriptor.row_bytes(), rows)?;
        Ok(EmbeddingTable { descriptor, rows })
    }

    /// The table's descriptor.
    pub fn descriptor(&self) -> &TableDescriptor {
        &self.descriptor
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u64 {
        self.rows.num_rows()
    }

    /// The quantised bytes of one row.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RowOutOfRange`] for an invalid index.
    #[inline]
    pub fn row(&self, index: u64) -> Result<&[u8], EmbeddingError> {
        self.rows.row(index)
    }

    /// The de-quantised values of one row.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RowOutOfRange`] for an invalid index.
    pub fn dequantized_row(&self, index: u64) -> Result<Vec<f32>, EmbeddingError> {
        let raw = self.row(index)?;
        dequantize_row(raw, self.descriptor.quant, self.descriptor.dim)
    }

    /// Iterates over the quantised rows in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.rows.iter()
    }

    /// Total bytes of quantised row data.
    pub fn capacity(&self) -> Bytes {
        Bytes(self.rows.total_bytes() as u64)
    }

    /// Re-encodes the table under a different quantisation scheme (used by
    /// the de-quantisation-at-load experiment, paper §A.5).
    ///
    /// # Errors
    ///
    /// Propagates row decoding errors.
    pub fn requantize(&self, scheme: QuantScheme) -> Result<EmbeddingTable, EmbeddingError> {
        let mut descriptor = self.descriptor.clone();
        descriptor.quant = scheme;
        let mut rows = Vec::with_capacity(self.num_rows() as usize);
        for i in 0..self.num_rows() {
            let values = self.dequantized_row(i)?;
            rows.push(quantize_row(&values, scheme));
        }
        let rows = RowArena::from_rows(descriptor.row_bytes(), rows)?;
        Ok(EmbeddingTable { descriptor, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> TableDescriptor {
        TableDescriptor::new(3, "t", TableKind::User, 100, 16)
            .with_pooling_factor(10)
            .with_quant(QuantScheme::Int8)
    }

    #[test]
    fn descriptor_capacity_math() {
        let d = desc();
        assert_eq!(d.row_bytes(), 24);
        assert_eq!(d.capacity(), Bytes(2400));
        assert_eq!(d.bytes_per_query(100), Bytes(240)); // user table ignores item batch
        assert_eq!(d.lookups_per_query(100), 10);

        let item = TableDescriptor::new(4, "i", TableKind::Item, 100, 16).with_pooling_factor(5);
        assert_eq!(item.lookups_per_query(50), 250);
        assert_eq!(item.bytes_per_query(50), Bytes(250 * 24));
    }

    #[test]
    fn invalid_descriptors_are_rejected() {
        let zero_rows = TableDescriptor::new(0, "x", TableKind::User, 0, 8);
        assert!(zero_rows.validate().is_err());
        let zero_dim = TableDescriptor::new(0, "x", TableKind::User, 8, 0);
        assert!(zero_dim.validate().is_err());
        assert!(desc().validate().is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = EmbeddingTable::generate(&desc(), 7);
        let b = EmbeddingTable::generate(&desc(), 7);
        let c = EmbeddingTable::generate(&desc(), 8);
        assert_eq!(a.row(5).unwrap(), b.row(5).unwrap());
        assert_ne!(a.row(5).unwrap(), c.row(5).unwrap());
    }

    #[test]
    fn row_access_and_bounds() {
        let t = EmbeddingTable::generate(&desc(), 1);
        assert_eq!(t.num_rows(), 100);
        assert_eq!(t.row(0).unwrap().len(), 24);
        assert_eq!(t.dequantized_row(99).unwrap().len(), 16);
        assert!(matches!(
            t.row(100),
            Err(EmbeddingError::RowOutOfRange {
                row: 100,
                rows: 100
            })
        ));
        assert_eq!(t.capacity(), Bytes(2400));
        assert_eq!(t.iter().count(), 100);
    }

    #[test]
    fn from_rows_validates_shapes() {
        let d = desc();
        let bad_count = EmbeddingTable::from_rows(d.clone(), vec![vec![0u8; 24]; 5]);
        assert!(bad_count.is_err());
        let bad_len = EmbeddingTable::from_rows(d.clone(), vec![vec![0u8; 3]; 100]);
        assert!(matches!(bad_len, Err(EmbeddingError::MalformedRow { .. })));
        let ok = EmbeddingTable::from_rows(d, vec![vec![0u8; 24]; 100]);
        assert!(ok.is_ok());
    }

    #[test]
    fn requantize_to_fp32_expands_rows() {
        let t = EmbeddingTable::generate(&desc(), 1);
        let wide = t.requantize(QuantScheme::Fp32).unwrap();
        assert_eq!(wide.descriptor().quant, QuantScheme::Fp32);
        assert_eq!(wide.row(0).unwrap().len(), 64);
        // Values are preserved (within int8 error, exactly zero extra error).
        let a = t.dequantized_row(10).unwrap();
        let b = wide.dequantized_row(10).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(TableKind::User.to_string(), "user");
        assert_eq!(TableKind::Item.to_string(), "item");
    }
}
