//! Byte layout of embedding tables on the slow-memory devices.
//!
//! The SM image is a flat array of fixed-stride rows per table. Strides are
//! the quantised row size rounded up to a DWORD so SGL reads stay aligned;
//! table base offsets are aligned to the device block size so a row never
//! straddles more blocks than necessary.

use crate::error::EmbeddingError;
use crate::table::{TableDescriptor, TableId};
use sdm_metrics::units::Bytes;
use std::collections::HashMap;

/// Where one table lives in the SM address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TablePlacement {
    /// Index of the device within the host's device array.
    pub device_index: usize,
    /// Byte offset of row 0 on that device.
    pub base_offset: u64,
    /// Distance in bytes between consecutive rows.
    pub row_stride: u64,
    /// Bytes of valid row payload (≤ `row_stride`).
    pub row_bytes: u32,
    /// Number of rows laid out.
    pub num_rows: u64,
}

impl TablePlacement {
    /// Byte offset of a row on the device.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RowOutOfRange`] when the row is outside the
    /// table.
    pub fn row_offset(&self, row: u64) -> Result<u64, EmbeddingError> {
        if row >= self.num_rows {
            return Err(EmbeddingError::RowOutOfRange {
                row,
                rows: self.num_rows,
            });
        }
        Ok(self.base_offset + row * self.row_stride)
    }

    /// Total bytes the table occupies on its device.
    pub fn footprint(&self) -> Bytes {
        Bytes(self.num_rows * self.row_stride)
    }
}

/// The layout of a set of tables across a host's SM devices.
///
/// Tables are assigned to devices greedily by remaining capacity (largest
/// table first, emptiest device first), which balances both capacity and —
/// because IOPS follow bytes for uniformly random row access — IO load.
#[derive(Debug, Clone, Default)]
pub struct SmLayout {
    placements: HashMap<TableId, TablePlacement>,
}

impl SmLayout {
    /// Plans a layout for `tables` across `device_count` devices of
    /// `device_capacity` each, aligning table bases to `alignment` bytes
    /// (typically the device access granularity).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidDescriptor`] when there are no
    /// devices, or when the tables do not fit in the aggregate capacity.
    pub fn plan(
        tables: &[TableDescriptor],
        device_count: usize,
        device_capacity: Bytes,
        alignment: Bytes,
    ) -> Result<Self, EmbeddingError> {
        if device_count == 0 {
            return Err(EmbeddingError::InvalidDescriptor {
                reason: "layout requires at least one device".into(),
            });
        }
        let alignment = alignment.as_u64().max(1);
        let mut device_used = vec![0u64; device_count];
        let mut placements = HashMap::new();

        // Largest-first balances the devices.
        let mut order: Vec<&TableDescriptor> = tables.iter().collect();
        order.sort_by_key(|t| std::cmp::Reverse(t.capacity().as_u64()));

        for desc in order {
            desc.validate()?;
            let row_bytes = desc.row_bytes() as u64;
            let row_stride = row_bytes.div_ceil(4) * 4;
            let table_bytes = desc.num_rows * row_stride;

            // Emptiest device that still fits.
            let candidate = (0..device_count)
                .filter(|&d| {
                    let base = device_used[d].div_ceil(alignment) * alignment;
                    base + table_bytes <= device_capacity.as_u64()
                })
                .min_by_key(|&d| device_used[d]);
            let Some(dev) = candidate else {
                return Err(EmbeddingError::InvalidDescriptor {
                    reason: format!(
                        "table {} ({}) does not fit: {} needed, per-device capacity {}",
                        desc.id,
                        desc.name,
                        Bytes(table_bytes),
                        device_capacity
                    ),
                });
            };
            let base = device_used[dev].div_ceil(alignment) * alignment;
            device_used[dev] = base + table_bytes;
            placements.insert(
                desc.id,
                TablePlacement {
                    device_index: dev,
                    base_offset: base,
                    row_stride,
                    row_bytes: desc.row_bytes() as u32,
                    num_rows: desc.num_rows,
                },
            );
        }
        Ok(SmLayout { placements })
    }

    /// Placement of one table.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::UnknownTable`] when the table was not part
    /// of the plan.
    pub fn placement(&self, table: TableId) -> Result<&TablePlacement, EmbeddingError> {
        self.placements
            .get(&table)
            .ok_or(EmbeddingError::UnknownTable { table })
    }

    /// Number of tables laid out.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True when no tables are laid out.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Iterates over `(TableId, &TablePlacement)`.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &TablePlacement)> {
        self.placements.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableKind;

    fn tables() -> Vec<TableDescriptor> {
        vec![
            TableDescriptor::new(0, "a", TableKind::User, 1000, 32),
            TableDescriptor::new(1, "b", TableKind::User, 500, 64),
            TableDescriptor::new(2, "c", TableKind::Item, 2000, 16),
        ]
    }

    #[test]
    fn plan_places_every_table_within_capacity() {
        let layout = SmLayout::plan(&tables(), 2, Bytes::from_mib(4), Bytes::from_kib(4)).unwrap();
        assert_eq!(layout.len(), 3);
        assert!(!layout.is_empty());
        for (_, p) in layout.iter() {
            assert!(p.device_index < 2);
            assert_eq!(p.base_offset % 4096, 0);
            assert_eq!(p.row_stride % 4, 0);
            assert!(p.row_stride >= p.row_bytes as u64);
            assert!(Bytes(p.base_offset) + p.footprint() <= Bytes::from_mib(4));
        }
    }

    #[test]
    fn rows_have_distinct_non_overlapping_offsets() {
        let layout = SmLayout::plan(&tables(), 1, Bytes::from_mib(8), Bytes(512)).unwrap();
        let p = layout.placement(0).unwrap();
        let o0 = p.row_offset(0).unwrap();
        let o1 = p.row_offset(1).unwrap();
        assert_eq!(o1 - o0, p.row_stride);
        assert!(p.row_offset(1000).is_err());
        assert_eq!(p.footprint(), Bytes(1000 * p.row_stride));
    }

    #[test]
    fn unknown_table_is_an_error() {
        let layout = SmLayout::plan(&tables(), 1, Bytes::from_mib(8), Bytes(512)).unwrap();
        assert!(matches!(
            layout.placement(99),
            Err(EmbeddingError::UnknownTable { table: 99 })
        ));
        assert!(layout.placement(0).unwrap().row_offset(10).is_ok());
    }

    #[test]
    fn capacity_overflow_is_detected() {
        let err = SmLayout::plan(&tables(), 1, Bytes::from_kib(16), Bytes(512)).unwrap_err();
        assert!(matches!(err, EmbeddingError::InvalidDescriptor { .. }));
    }

    #[test]
    fn zero_devices_rejected() {
        assert!(SmLayout::plan(&tables(), 0, Bytes::from_mib(1), Bytes(512)).is_err());
    }

    #[test]
    fn load_balances_across_devices() {
        // Eight equal tables over two devices should land four per device.
        let descs: Vec<TableDescriptor> = (0..8)
            .map(|i| TableDescriptor::new(i, format!("t{i}"), TableKind::User, 100, 32))
            .collect();
        let layout = SmLayout::plan(&descs, 2, Bytes::from_mib(1), Bytes(512)).unwrap();
        let on_dev0 = layout.iter().filter(|(_, p)| p.device_index == 0).count();
        assert_eq!(on_dev0, 4);
    }

    #[test]
    fn tables_on_same_device_do_not_overlap() {
        let layout = SmLayout::plan(&tables(), 1, Bytes::from_mib(8), Bytes(512)).unwrap();
        let mut spans: Vec<(u64, u64)> = layout
            .iter()
            .map(|(_, p)| (p.base_offset, p.base_offset + p.footprint().as_u64()))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
    }
}
