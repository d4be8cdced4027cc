//! Error type for the DLRM inference engine.

use std::error::Error;
use std::fmt;

/// Errors returned by model construction and query execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum DlrmError {
    /// A model configuration was inconsistent.
    InvalidModel {
        /// Explanation of the problem.
        reason: String,
    },
    /// A query referenced a table the model does not contain.
    UnknownTable {
        /// The missing table id.
        table: u32,
    },
    /// A vector had the wrong dimensionality for the layer it was fed to.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// The embedding backend failed.
    Backend {
        /// The underlying error.
        source: Box<dyn Error + Send + Sync + 'static>,
    },
}

impl fmt::Display for DlrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlrmError::InvalidModel { reason } => write!(f, "invalid model: {reason}"),
            DlrmError::UnknownTable { table } => {
                write!(f, "query references unknown table {table}")
            }
            DlrmError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            DlrmError::Backend { source } => write!(f, "embedding backend error: {source}"),
        }
    }
}

impl Error for DlrmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DlrmError::Backend { source } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl DlrmError {
    /// Wraps a backend error.
    pub fn backend<E: Error + Send + Sync + 'static>(e: E) -> Self {
        DlrmError::Backend {
            source: Box::new(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DlrmError::InvalidModel {
            reason: "no tables".into(),
        };
        assert!(e.to_string().contains("no tables"));
        assert!(e.source().is_none());

        let io = std::io::Error::other("boom");
        let wrapped = DlrmError::backend(io);
        assert!(wrapped.to_string().contains("boom"));
        assert!(wrapped.source().is_some());

        assert!(DlrmError::UnknownTable { table: 4 }
            .to_string()
            .contains("4"));
        assert!(DlrmError::DimensionMismatch {
            expected: 8,
            actual: 4
        }
        .to_string()
        .contains("8"));
    }
}
