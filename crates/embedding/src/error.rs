//! Error type for embedding-table operations.

use std::error::Error;
use std::fmt;

/// Errors returned by embedding-table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmbeddingError {
    /// A row index was outside the table.
    RowOutOfRange {
        /// Requested row.
        row: u64,
        /// Number of rows in the table.
        rows: u64,
    },
    /// A quantised row buffer had the wrong length for the scheme/dimension.
    MalformedRow {
        /// Expected byte length.
        expected: usize,
        /// Actual byte length.
        actual: usize,
    },
    /// A table descriptor was invalid (zero rows or zero dimension).
    InvalidDescriptor {
        /// Explanation of the problem.
        reason: String,
    },
    /// The mapping tensor and table disagree about sizes.
    MappingMismatch {
        /// Explanation of the problem.
        reason: String,
    },
    /// A table was not found in a layout.
    UnknownTable {
        /// The missing table id.
        table: u32,
    },
}

impl fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbeddingError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for table with {rows} rows")
            }
            EmbeddingError::MalformedRow { expected, actual } => {
                write!(
                    f,
                    "malformed quantised row: expected {expected} bytes, got {actual}"
                )
            }
            EmbeddingError::InvalidDescriptor { reason } => {
                write!(f, "invalid table descriptor: {reason}")
            }
            EmbeddingError::MappingMismatch { reason } => {
                write!(f, "mapping tensor mismatch: {reason}")
            }
            EmbeddingError::UnknownTable { table } => write!(f, "unknown table id {table}"),
        }
    }
}

impl Error for EmbeddingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(EmbeddingError::RowOutOfRange { row: 9, rows: 3 }
            .to_string()
            .contains("9"));
        assert!(EmbeddingError::MalformedRow {
            expected: 40,
            actual: 4
        }
        .to_string()
        .contains("40"));
        assert!(EmbeddingError::UnknownTable { table: 2 }
            .to_string()
            .contains("2"));
    }

    #[test]
    fn is_std_error_send_sync() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<EmbeddingError>();
    }
}
