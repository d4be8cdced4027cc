//! Self-test for the lint driver: every rule must trip on its known-bad
//! fixture under `tests/analyze_fixtures/`, the suppression syntax must
//! silence a justified violation, and the live workspace must scan clean.
//! A scanner regression that disarms a rule fails here, not silently.

use sdm_analyze::{analyze_source, analyze_workspace, unreferenced_pub_items, Finding, RULES};
use std::path::{Path, PathBuf};

/// Workspace root: two levels up from this crate's manifest.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf()
}

/// Loads a fixture and scans it under a pseudo-path that puts it in the
/// rule's scope (fixtures live outside every scanned directory, so the
/// path is chosen per rule).
fn scan_fixture(fixture: &str, pseudo_path: &str) -> Vec<Finding> {
    let path = root().join("tests/analyze_fixtures").join(fixture);
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    analyze_source(pseudo_path, &content)
}

/// Asserts the fixture trips `rule` at least `min` times and nothing else.
fn assert_trips(fixture: &str, pseudo_path: &str, rule: &str, min: usize) {
    let findings = scan_fixture(fixture, pseudo_path);
    let hits = findings.iter().filter(|f| f.rule == rule).count();
    assert!(
        hits >= min,
        "{fixture}: expected >= {min} `{rule}` findings, got {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "{fixture}: unexpected extra rules in {findings:?}"
    );
}

#[test]
fn unwrap_fixture_trips_no_unwrap_outside_tests() {
    assert_trips(
        "unwrap_in_lib.rs",
        "crates/dlrm/src/fixture.rs",
        "no-unwrap-outside-tests",
        2,
    );
}

#[test]
fn wall_clock_fixture_trips_no_wall_clock() {
    // Scanned as an sdm-core source: sdm-core is a virtual-clock crate.
    assert_trips(
        "wall_clock.rs",
        "crates/sdm-core/src/fixture.rs",
        "no-wall-clock",
        2,
    );
    // The same file inside a wall-clock crate (bench) is legal.
    assert!(scan_fixture("wall_clock.rs", "crates/bench/src/fixture.rs").is_empty());
}

#[test]
fn unsafe_fixture_trips_unsafe_needs_safety_comment() {
    assert_trips(
        "unsafe_no_comment.rs",
        "crates/embedding/src/fixture.rs",
        "unsafe-needs-safety-comment",
        2,
    );
}

#[test]
fn print_fixture_trips_no_print_in_libs() {
    assert_trips(
        "print_in_lib.rs",
        "crates/workload/src/fixture.rs",
        "no-print-in-libs",
        3,
    );
    // The same file as a binary source is legal.
    assert!(scan_fixture("print_in_lib.rs", "crates/bench/src/bin/fixture.rs").is_empty());
}

#[test]
fn lock_fixture_trips_lock_across_await_style() {
    let findings = scan_fixture("lock_across_submit.rs", "crates/sdm-cache/src/fixture.rs");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "lock-across-await-style")
        .collect();
    assert_eq!(hits.len(), 1, "exactly the held-across case: {findings:?}");
    // The finding must point into `held_across_submit`, not `clean_submit`.
    assert!(
        hits[0].message.contains("guard"),
        "diagnostic names the guard: {}",
        hits[0].message
    );
}

#[test]
fn default_hasher_fixture_trips_default_hasher_on_serving_path() {
    assert_trips(
        "default_hasher.rs",
        "crates/sdm-core/src/fixture.rs",
        "default-hasher-on-serving-path",
        3,
    );
    // The same file off the serving path (cluster-level planning) is legal.
    assert!(scan_fixture("default_hasher.rs", "crates/cluster/src/fixture.rs").is_empty());
}

#[test]
fn unreferenced_fixture_trips_unreferenced_pub_item() {
    // A two-file workspace: one library, one test file that uses part of it.
    let fixture = root().join("tests/analyze_fixtures/unreferenced");
    let findings = analyze_workspace(&fixture).expect("fixture workspace scan failed");
    assert!(
        findings.iter().all(|f| f.rule == "unreferenced-pub-item"),
        "unexpected extra rules in {findings:?}"
    );
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
fn suppressed_fixture_is_clean() {
    let findings = scan_fixture("suppressed_clean.rs", "crates/workload/src/fixture.rs");
    assert!(findings.is_empty(), "suppressions ignored: {findings:?}");
}

#[test]
fn every_rule_has_a_fixture_that_trips_it() {
    // Keep this list in sync with RULES: adding a rule without a fixture
    // fails here.
    let covered = [
        "no-unwrap-outside-tests",
        "no-wall-clock",
        "unsafe-needs-safety-comment",
        "no-print-in-libs",
        "lock-across-await-style",
        "default-hasher-on-serving-path",
        "unreferenced-pub-item",
    ];
    for rule in RULES {
        assert!(
            covered.contains(&rule.name),
            "rule {} has no fixture coverage",
            rule.name
        );
    }
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
