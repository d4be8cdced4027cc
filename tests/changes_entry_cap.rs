//! `CHANGES.md` keeps each entry to its claim, what must not move, its
//! findings and pointers; the numbers live in the committed JSON. This
//! holds that cap on the newest entry, which runs from the file's last line
//! that starts with `- PR ` to the end of the file (its `FOUND:` lines
//! included).

/// Largest newest entry, in bytes.
const ENTRY_CAP: usize = 5_000;

/// The newest entry of a changelog: from its last line that starts with
/// `- PR ` to the end, or `None` when no line does.
fn newest_entry(changes: &str) -> Option<&str> {
    let mut start = None;
    let mut offset = 0;
    for line in changes.split_inclusive('\n') {
        if line.starts_with("- PR ") {
            start = Some(offset);
        }
        offset += line.len();
    }
    start.map(|s| &changes[s..])
}

#[test]
fn newest_entry_runs_from_the_last_pr_line_to_the_end() {
    let log = "# Changes\n- PR 1: one\n  - PR 9 nested\n- PR 2: two\nFOUND: x\n";
    assert_eq!(newest_entry(log), Some("- PR 2: two\nFOUND: x\n"));
    assert_eq!(newest_entry("no entry\n"), None);
}

#[test]
fn newest_changes_entry_is_within_the_cap() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CHANGES.md");
    let changes = std::fs::read_to_string(path).expect("CHANGES.md is at the repository root");
    let entry = newest_entry(&changes).expect("CHANGES.md has a line starting with `- PR `");
    assert!(
        entry.len() <= ENTRY_CAP,
        "the newest CHANGES.md entry is {} bytes, over the {ENTRY_CAP}-byte cap: \
         keep it to the claim, the must-not-move list, findings and pointers",
        entry.len()
    );
}
