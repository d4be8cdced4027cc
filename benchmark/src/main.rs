//! The repo's benchmark. One command:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload` it measures that workload in this process and prints,
//! as the last line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics (`--trace 0`, the default) or the
//! per-layer metrics (`--trace 1`). Without it, every workload runs in its
//! own sequential child process, so `peak_rss_mib` is per workload. Two more
//! subcommands read result files: `compare A.json B.json` and `pairs`.
//!
//! Every number names its clock: `virt_*` is modelled hardware time on the
//! stack's virtual clock; everything else is host time of this Rust code.

mod check;
mod compare;
mod drive;
mod json;
mod layers;
mod run;
mod spec;
mod sys;
mod trace;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

/// `--seconds` when the caller gives none; `BENCHMARK.json` says the same.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<&'static spec::WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sdm-benchmark [--workload {}] [--seed S] [--seconds N] [--trace 0|1] [--smoke]\n       sdm-benchmark compare A.json B.json\n       sdm-benchmark pairs --a BIN --b BIN --workload W [--pairs N] [--seed S] [--seconds N]",
        names.join("|")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let workload =
                    spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                options.workload = Some(workload);
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
                }
                options.seconds = seconds;
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match args.peek().map(|s| s.as_str()) {
                Some("0") => {
                    args.next();
                    options.trace = false;
                }
                Some("1") => {
                    args.next();
                    options.trace = true;
                }
                Some(other) if !other.starts_with("--") => {
                    return Err(format!("--trace takes 0 or 1, got {other:?}"));
                }
                _ => options.trace = true,
            },
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// `benchmark/out`, next to the package's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { ".layers" } else { "" };
    out_dir().join(format!("{workload}{suffix}.json"))
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures one workload in this process.
fn run_workload(options: &Options, spec: &spec::WorkloadSpec) -> Result<bool, String> {
    let name = spec.name;
    let fingerprint = sys::fingerprint(options.seed, options.smoke);
    println!(
        "== {} | seed {} | {} | {} ==",
        spec.name,
        options.seed,
        if options.smoke { "smoke" } else { "full" },
        if options.trace {
            "per-layer metrics (traced run)"
        } else {
            "end-to-end metrics (tracing off)"
        }
    );
    println!("why: {}", spec.why);
    println!("host: {}", fingerprint.render());
    let ctx = drive::Ctx::new(spec, options.seed, options.smoke)?;
    let outcome = if options.trace {
        let (outcome, spans) = layers::traced_run(&ctx, options.seconds)?;
        let path = out_dir().join(format!("trace_{name}.json"));
        write_file(&path, &spans.render())?;
        println!("spans written to {}", path.display());
        outcome
    } else {
        run::end_to_end(&ctx, options.seconds)?
    };
    outcome.print();
    write_file(
        &result_path(name, options.trace),
        &outcome.to_file(fingerprint).render_pretty(),
    )?;
    println!("{}", outcome.last_line().render());
    Ok(outcome.correct)
}

/// Runs every workload in its own child process, one after another, and
/// prints one combined object as the last line.
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    let mut files = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }]);
        if options.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("spawning {}: {e}", workload.name))?;
        if !status.success() {
            println!("workload {} exited with {status}", workload.name);
            correct = false;
            continue;
        }
        let path = result_path(workload.name, options.trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, metric) in result.get("metrics").map_or(&[][..], Json::entries) {
            let value = metric.get("value").cloned().unwrap_or(Json::Null);
            let unit = metric.get("unit").cloned().unwrap_or(Json::Null);
            metrics.push((
                format!("{}.{name}", workload.name),
                Json::obj([("value", value), ("unit", unit)]),
            ));
        }
        files.push(result);
    }
    let summary = out_dir().join(if options.trace {
        "summary.layers.json"
    } else {
        "summary.json"
    });
    write_file(&summary, &Json::Arr(files).render_pretty())?;
    println!("summary written to {}", summary.display());
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_command(&args[1..]),
        Some("pairs") => compare::pairs_command(&args[1..]),
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_options(&args).and_then(|options| match options.workload {
            Some(spec) => run_workload(&options, spec),
            None => run_all(&options),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_shape_parses() {
        let options = parse(&[
            "--workload",
            "sm_bound",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(options.workload.map(|w| w.name), Some("sm_bound"));
        assert_eq!((options.seed, options.seconds), (42, 10.0));
        assert!(options.trace && !options.smoke);
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--smoke"]).unwrap().smoke);
        assert_eq!(parse(&[]).unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
