//! Self-test for the lint driver: its rule must trip on the known-bad
//! fixture workspace under `tests/analyze_fixtures/unreferenced/`, the
//! suppression must silence a justified item, and the live workspace must
//! scan clean. A scanner regression that disarms the rule fails here, not
//! silently.

use sdm_analyze::{analyze_workspace, unreferenced_pub_items};
use std::path::{Path, PathBuf};

/// Workspace root: two levels up from this crate's manifest.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn unreferenced_fixture_trips_unreferenced_pub_item() {
    // A two-file workspace: one library, one test file that uses part of it.
    let fixture = root().join("tests/analyze_fixtures/unreferenced");
    let findings = analyze_workspace(&fixture).expect("fixture workspace scan failed");
    let reported: Vec<&str> = findings
        .iter()
        .map(|f| f.message.split('`').nth(1).unwrap_or(""))
        .collect();
    // Dead, named only in a doc comment, named only by `pub use`. Not the
    // type reached through a return value, the items the test file uses,
    // the trait-impl method or the suppressed item.
    assert_eq!(
        reported,
        [
            "pub fn dead_helper",
            "pub fn doc_only",
            "pub fn reexported_only"
        ],
        "{findings:?}"
    );

    // The same-line suppression is what keeps `kept_on_purpose` quiet.
    let read = |rel: &str| {
        let content = std::fs::read_to_string(fixture.join(rel)).expect("fixture unreadable");
        (rel.to_string(), content)
    };
    let (lib, content) = read("crates/demo/src/lib.rs");
    let unsuppressed = content.replace("sdm-analyze: allow(unreferenced-pub-item)", "");
    let findings = unreferenced_pub_items(&[(lib, unsuppressed), read("tests/uses.rs")]);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("pub fn kept_on_purpose")),
        "{findings:?}"
    );
}

#[test]
fn live_workspace_scans_clean() {
    let findings = analyze_workspace(&root()).expect("workspace scan failed");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean; run `cargo run -p sdm-analyze` for details:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
