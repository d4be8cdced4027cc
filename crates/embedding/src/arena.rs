//! Flat arena storage for embedding rows.
//!
//! The seed implementation stored each table as `Vec<Vec<u8>>` — one heap
//! allocation per row plus a pointer chase on every lookup. A materialised
//! table's rows all have the same encoded length, so a table is really one
//! contiguous byte image with a fixed stride. [`RowArena`] stores exactly
//! that: one `Box<[u8]>` holding every row back to back, which halves the
//! metadata footprint, makes row access a bounds-checked slice into a single
//! allocation, and lets the whole table be written to (or read from) the SM
//! devices without re-assembly.

use crate::error::EmbeddingError;

/// A flat, fixed-stride row store: one contiguous buffer plus the row
/// length, replacing a `Vec<Vec<u8>>` per table.
///
/// # Example
///
/// ```
/// use embedding::RowArena;
///
/// let arena = RowArena::from_rows(3, vec![vec![1u8, 2, 3], vec![4, 5, 6]]).unwrap();
/// assert_eq!(arena.num_rows(), 2);
/// assert_eq!(arena.row(1).unwrap(), &[4, 5, 6]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowArena {
    data: Box<[u8]>,
    row_bytes: usize,
    num_rows: u64,
}

impl RowArena {
    /// Builds an arena by copying `rows` into one contiguous buffer.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::MalformedRow`] if any row's length differs
    /// from `row_bytes`.
    pub fn from_rows<I, R>(row_bytes: usize, rows: I) -> Result<Self, EmbeddingError>
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[u8]>,
    {
        let rows = rows.into_iter();
        let mut data = Vec::with_capacity(rows.size_hint().0 * row_bytes);
        let mut num_rows = 0u64;
        for row in rows {
            let row = row.as_ref();
            if row.len() != row_bytes {
                return Err(EmbeddingError::MalformedRow {
                    expected: row_bytes,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
            num_rows += 1;
        }
        Ok(RowArena {
            data: data.into_boxed_slice(),
            row_bytes,
            num_rows,
        })
    }

    /// Builds an arena by generating each row in index order through `f`,
    /// writing directly into the flat buffer (no intermediate per-row
    /// allocation beyond what `f` itself does).
    pub(crate) fn generate(
        row_bytes: usize,
        num_rows: u64,
        mut f: impl FnMut(u64, &mut [u8]),
    ) -> Self {
        let mut data = vec![0u8; (num_rows as usize) * row_bytes];
        for i in 0..num_rows {
            let at = (i as usize) * row_bytes;
            f(i, &mut data[at..at + row_bytes]);
        }
        RowArena {
            data: data.into_boxed_slice(),
            row_bytes,
            num_rows,
        }
    }

    /// Number of rows stored.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Total payload bytes.
    pub(crate) fn total_bytes(&self) -> usize {
        self.data.len()
    }

    /// Borrows one row.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RowOutOfRange`] for an invalid index.
    #[inline]
    pub fn row(&self, index: u64) -> Result<&[u8], EmbeddingError> {
        if index >= self.num_rows {
            return Err(EmbeddingError::RowOutOfRange {
                row: index,
                rows: self.num_rows,
            });
        }
        let at = (index as usize) * self.row_bytes;
        Ok(&self.data[at..at + self.row_bytes])
    }

    /// Iterates over the rows in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        // `chunks_exact(0)` panics; an arena of zero-length rows yields none.
        if self.row_bytes == 0 {
            self.data.chunks_exact(1).take(0)
        } else {
            self.data.chunks_exact(self.row_bytes).take(usize::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrip() {
        let arena = RowArena::from_rows(2, vec![vec![1u8, 2], vec![3, 4], vec![5, 6]]).unwrap();
        assert_eq!(arena.num_rows(), 3);
        assert_eq!(arena.row_bytes, 2);
        assert_eq!(arena.total_bytes(), 6);
        assert_eq!(arena.row(0).unwrap(), &[1, 2]);
        assert_eq!(arena.row(2).unwrap(), &[5, 6]);
        assert_eq!(&arena.data[..], &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = RowArena::from_rows(2, vec![vec![1u8, 2], vec![3u8]]).unwrap_err();
        assert!(matches!(err, EmbeddingError::MalformedRow { .. }));
    }

    #[test]
    fn out_of_range_row_is_error() {
        let arena = RowArena::from_rows(1, vec![vec![9u8]]).unwrap();
        assert!(matches!(
            arena.row(1),
            Err(EmbeddingError::RowOutOfRange { row: 1, rows: 1 })
        ));
    }

    #[test]
    fn generate_fills_rows_in_order() {
        let arena = RowArena::generate(3, 4, |i, out| out.fill(i as u8));
        assert_eq!(arena.num_rows(), 4);
        assert_eq!(arena.row(2).unwrap(), &[2, 2, 2]);
        assert_eq!(arena.iter().count(), 4);
        let collected: Vec<&[u8]> = arena.iter().collect();
        assert_eq!(collected[3], &[3, 3, 3]);
    }

    #[test]
    fn empty_arena_iterates_nothing() {
        let arena = RowArena::from_rows(4, Vec::<Vec<u8>>::new()).unwrap();
        assert_eq!(arena.num_rows(), 0);
        assert_eq!(arena.iter().count(), 0);
    }
}
