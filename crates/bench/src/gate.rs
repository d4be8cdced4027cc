//! The exact gate behind the committed bench documents
//! (`BENCH_hotpath.json`, `BENCH_paper.json`): one renderer, its parser,
//! and a field-by-field comparison that names every field that differs, is
//! missing or is extra.
//!
//! A document is one level of sections, one `"key": value` per line (no
//! JSON crate is vendored). Values are compared as printed, so a change in
//! the last printed digit fails the gate.

use std::collections::BTreeMap;

/// One document section: its name, then field names and printed values.
pub(crate) type Section<S> = (S, Vec<(String, String)>);

/// Renders a document: the `schema` line, then each section's fields in
/// order.
pub fn render<S: AsRef<str>>(schema: &str, sections: &[Section<S>]) -> String {
    let mut doc = format!("{{\n  \"schema\": \"{schema}\"");
    for (name, fields) in sections {
        doc.push_str(&format!(",\n  \"{}\": {{", name.as_ref()));
        for (i, (key, value)) in fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            doc.push_str(&format!("{sep}\n    \"{key}\": {value}"));
        }
        doc.push_str("\n  }");
    }
    doc.push_str("\n}\n");
    doc
}

/// `section.field` (or `field` at the top level) and its printed value,
/// for every field line of a document [`render`] wrote.
pub(crate) fn printed_fields(doc: &str) -> Vec<(String, &str)> {
    let mut section = None;
    let mut out = Vec::new();
    for line in doc.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.starts_with('}') {
            section = None;
        } else if let Some((key, value)) = line.split_once(": ") {
            let key = key.trim_matches('"');
            match (value, section) {
                ("{", _) => section = Some(key),
                (_, Some(section)) => out.push((format!("{section}.{key}"), value)),
                (_, None) => out.push((key.to_string(), value)),
            }
        }
    }
    out
}

/// The exact gate: one message per field of `committed` and `fresh` that
/// differs, is missing from `fresh`, or is extra in `fresh`. A field for
/// which `may_differ` holds must be present but may differ.
pub(crate) fn compare(
    committed: &str,
    fresh: &str,
    may_differ: impl Fn(&str) -> bool,
) -> Vec<String> {
    let old: BTreeMap<_, _> = printed_fields(committed).into_iter().collect();
    let new: BTreeMap<_, _> = printed_fields(fresh).into_iter().collect();
    let mut failures = Vec::new();
    for (key, was) in &old {
        match new.get(key) {
            None => failures.push(format!(
                "{key}: missing from the fresh run (committed {was})"
            )),
            Some(now) if now != was && !may_differ(key) => {
                failures.push(format!("{key}: committed {was}, fresh {now}"))
            }
            Some(_) => {}
        }
    }
    for (key, now) in &new {
        if !old.contains_key(key) {
            failures.push(format!("{key}: not in the committed file (fresh {now})"));
        }
    }
    failures
}

/// What a gated binary was asked to do: `[--check] [--out PATH]`.
pub struct GateArgs {
    /// Compare with the committed document instead of writing it.
    pub check: bool,
    /// The committed document.
    pub path: String,
}

impl GateArgs {
    /// Parses the process arguments; anything else prints the usage of
    /// `bin` and exits 2.
    pub fn from_env(bin: &str, default_path: &str) -> GateArgs {
        let usage = || -> ! {
            eprintln!("usage: {bin} [--check] [--out PATH]");
            std::process::exit(2)
        };
        let mut parsed = GateArgs {
            check: false,
            path: default_path.to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" => parsed.check = true,
                "--out" => parsed.path = args.next().unwrap_or_else(|| usage()),
                _ => usage(),
            }
        }
        parsed
    }

    /// Gates `doc` against the committed file under `--check` (writing
    /// nothing), or writes it. Returns one message per failure.
    pub fn apply(&self, doc: &str, may_differ: impl Fn(&str) -> bool) -> Vec<String> {
        if self.check {
            match std::fs::read_to_string(&self.path) {
                Ok(committed) => compare(&committed, doc, may_differ),
                Err(err) => vec![format!("{}: {err}", self.path)],
            }
        } else {
            match std::fs::write(&self.path, doc) {
                Ok(()) => Vec::new(),
                Err(err) => vec![format!("{}: {err}", self.path)],
            }
        }
    }

    /// Prints `failures` and exits 1 when there are any; otherwise reports
    /// what was checked or written.
    pub fn finish(&self, failures: &[String]) {
        if !failures.is_empty() {
            for failure in failures {
                eprintln!("FAIL {failure}");
            }
            std::process::exit(1);
        }
        if self.check {
            println!("{}: every field equal", self.path);
        } else {
            println!("wrote {}", self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = "{
  \"schema\": \"sdm-hotpath-v1\",
  \"io_overlap\": {
    \"exact_qps\": 484.6,
    \"p99_latency_exact\": 2096.895
  },
  \"shared_tier\": {
    \"on_qps_4\": 1001.6,
    \"cross_shard_hit_rate_4\": 0.9432
  }
}
";

    fn exact(_: &str) -> bool {
        false
    }

    fn interleaving(field: &str) -> bool {
        field.starts_with("shared_tier.cross_shard_hit_rate_")
    }

    #[test]
    fn an_identical_document_passes() {
        assert_eq!(compare(COMMITTED, COMMITTED, exact), Vec::<String>::new());
    }

    #[test]
    fn a_change_in_the_last_printed_digit_fails_and_names_the_field() {
        let fresh = COMMITTED.replace("2096.895", "2096.896");
        let failures = compare(COMMITTED, &fresh, exact);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("io_overlap.p99_latency_exact:"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_field_that_may_differ_passes_but_only_that_field() {
        let fresh = COMMITTED.replace("0.9432", "0.8974");
        assert_eq!(
            compare(COMMITTED, &fresh, interleaving),
            Vec::<String>::new()
        );
        assert_eq!(compare(COMMITTED, &fresh, exact).len(), 1);
        let fresh = COMMITTED.replace("1001.6", "1001.7");
        assert_eq!(compare(COMMITTED, &fresh, interleaving).len(), 1);
    }

    #[test]
    fn a_missing_field_fails() {
        let fresh = COMMITTED.replace("    \"on_qps_4\": 1001.6,\n", "");
        let failures = compare(COMMITTED, &fresh, exact);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("shared_tier.on_qps_4: missing"),
            "{failures:?}"
        );
        // A field that may differ may not vanish.
        let fresh = COMMITTED.replace(",\n    \"cross_shard_hit_rate_4\": 0.9432", "");
        assert_eq!(compare(COMMITTED, &fresh, interleaving).len(), 1);
    }

    #[test]
    fn an_extra_field_fails() {
        let fresh = COMMITTED.replace(
            "\"exact_qps\": 484.6,",
            "\"exact_qps\": 484.6,\n    \"promotions_4\": 0,",
        );
        let failures = compare(COMMITTED, &fresh, exact);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("io_overlap.promotions_4: not in the committed file"),
            "{failures:?}"
        );
    }

    #[test]
    fn render_and_printed_fields_round_trip() {
        let field = |k: &str, v: &str| (k.to_string(), v.to_string());
        let doc = render(
            "sdm-hotpath-v1",
            &[
                ("a", vec![field("x", "0.7"), field("y", "\"m\"")]),
                ("b", vec![field("z", "3")]),
            ],
        );
        assert_eq!(
            doc,
            "{\n  \"schema\": \"sdm-hotpath-v1\",\n  \"a\": {\n    \"x\": 0.7,\n    \
             \"y\": \"m\"\n  },\n  \"b\": {\n    \"z\": 3\n  }\n}\n"
        );
        let parsed = printed_fields(&doc);
        assert_eq!(
            parsed,
            [
                ("schema".to_string(), "\"sdm-hotpath-v1\""),
                ("a.x".to_string(), "0.7"),
                ("a.y".to_string(), "\"m\""),
                ("b.z".to_string(), "3"),
            ]
        );
    }
}
