//! CLI front end for the workspace lint driver.
//!
//! ```text
//! sdm-analyze [--root <dir>]
//! ```
//!
//! Scans every workspace source file (crates, umbrella `src/`, `tests/`,
//! `examples/`; `vendor/` and `target/` excluded; `benchmark/src/` only as
//! a user of exported items), prints one `file:line: [rule] message`
//! diagnostic per unreferenced export and exits non-zero when any finding
//! survives suppression.

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
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: sdm-analyze [--root <workspace-dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sdm-analyze: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root(root);
    match sdm_analyze::analyze_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("sdm-analyze: workspace clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!(
                "sdm-analyze: {} finding(s); suppress with \
                 `// sdm-analyze: allow(unreferenced-pub-item)` next to a written justification",
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
