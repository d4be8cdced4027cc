//! CLI front end for the workspace lint driver.
//!
//! ```text
//! sdm-analyze [--root <dir>] [--list-rules]
//! ```
//!
//! Scans every workspace source file (crates, umbrella `src/`, `tests/`,
//! `examples/`; `vendor/` and `target/` excluded), prints one
//! `file:line: [rule] message` diagnostic per finding and exits non-zero
//! when any finding survives suppression. `--list-rules` prints the rule
//! table and exits.

use std::path::PathBuf;
use std::process::ExitCode;

/// Locates the workspace root: `--root` wins, then the directory holding
/// this crate's manifest (two levels up from `crates/analyze`), then the
/// current directory.
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(root) = manifest.ancestors().nth(2) {
        if root.join("Cargo.toml").is_file() {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    let mut list_rules = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!("usage: sdm-analyze [--root <workspace-dir>] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sdm-analyze: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if list_rules {
        for rule in sdm_analyze::RULES {
            println!("{:<32} {}", rule.name, rule.rationale);
            println!("{:<32}   scope: {}", "", rule.scope);
        }
        return ExitCode::SUCCESS;
    }

    let root = workspace_root(root);
    match sdm_analyze::analyze_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!(
                "sdm-analyze: workspace clean ({} rules)",
                sdm_analyze::RULES.len()
            );
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!(
                "sdm-analyze: {} finding(s); suppress with `// sdm-analyze: allow(rule)` \
                 next to a written justification",
                findings.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sdm-analyze: failed to scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}
