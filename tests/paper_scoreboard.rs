//! The committed paper scoreboard holds to its own rule, without running
//! any experiment: every row of `BENCH_paper.json` has a cite and a basis,
//! its tolerance is the one the rule gives its paper value, and its verdict
//! recomputes from its own printed numbers. A hand-edited verdict or a
//! widened tolerance fails here; `exp_paper --check` (the full `./ci.sh`)
//! re-runs the experiments.
//!
//! The README's scoreboard table is generated from the same file. To
//! refresh it, run `exp_paper` and paste the table it prints between the
//! README's `paper-scoreboard` markers.

use sdm_bench::paper::{markdown_table, printed_rows, tolerance, verdict};

const FIELDS: [&str; 6] = ["cite", "paper", "measured", "tol", "basis", "verdict"];

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_paper.json");
    std::fs::read_to_string(path).expect("BENCH_paper.json is committed at the repository root")
}

#[test]
fn every_committed_row_follows_the_rule() {
    let doc = committed();
    let rows = printed_rows(&doc);
    assert!(!rows.is_empty(), "the scoreboard has no rows");
    let mut keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), rows.len(), "a row key repeats");
    for row in &rows {
        let key = &row.key;
        let names: Vec<&str> = row.fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, FIELDS, "{key}: fields");
        assert!(!row.get("cite").is_empty(), "{key}: no cite");
        assert!(
            ["run", "arithmetic"].contains(&row.get("basis")),
            "{key}: basis `{}`",
            row.get("basis")
        );
        let paper = row.get("paper");
        assert_eq!(
            Ok(row.get("tol").to_string()),
            tolerance(paper),
            "{key}: the tolerance is not the rule's for `{paper}`"
        );
        let pass = verdict(paper, row.get("measured")).unwrap_or_else(|err| panic!("{key}: {err}"));
        assert_eq!(
            row.get("verdict"),
            if pass { "pass" } else { "fail" },
            "{key}: the verdict does not recompute from `{}`",
            row.get("measured")
        );
    }
}

#[test]
fn the_readme_table_is_generated_from_the_committed_rows() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let table = markdown_table(&committed());
    let block = format!("<!-- paper-scoreboard:begin -->\n{table}<!-- paper-scoreboard:end -->");
    assert!(
        readme.contains(&block),
        "README.md's scoreboard is stale; put this between its markers:\n{table}"
    );
}
