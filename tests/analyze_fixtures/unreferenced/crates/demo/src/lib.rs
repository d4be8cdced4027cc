//! Known-bad fixture library for `unreferenced-pub-item`. Its only user is
//! `../../../tests/uses.rs`; the rule must report exactly the first three
//! items below.

/// Nothing anywhere names this.
pub fn dead_helper() -> u32 {
    1
}

/// Named by a doc comment in the user file, which is not a use.
pub fn doc_only() -> u32 {
    2
}

/// Named by a `pub use` in the user file, which is not a use either.
pub fn reexported_only() -> u32 {
    3
}

/// Callers receive this through [`make_report`] and never name it.
pub struct Report {
    /// The reported value.
    pub total: u32,
}

/// Used by the user file.
pub fn make_report() -> Report {
    Report {
        total: used_by_test(),
    }
}

/// Used by the user file.
pub fn used_by_test() -> u32 {
    4
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.total)
    }
}

pub fn kept_on_purpose() -> u32 { 5 } // sdm-analyze: allow(unreferenced-pub-item): exercised by the suppression check
