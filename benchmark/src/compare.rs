//! Reading results back: `compare A.json B.json` applies the bounds of the
//! end-to-end table to two result files, and `pairs` runs two builds
//! alternately and applies the paired rule (win rate plus median difference
//! against the quartile distance of the baseline's own runs).

use crate::drive::{quartiles, Quartiles};
use crate::json::{self, Json};
use crate::spec::{self, Better, Clock, EndToEndSpec, END_TO_END};
use std::process::Command;

/// Fingerprint fields that must match before host-clock numbers compare.
const HOST_FIELDS: [&str; 4] = ["nproc", "cpu_features", "pool_kernel", "rustc"];
/// Fingerprint fields that make the inputs equal.
const INPUT_FIELDS: [&str; 2] = ["seed", "size"];

/// One metric of one result file.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    value: f64,
    /// Quartile distance over the median of the run's own host-clock
    /// samples, where the file has them.
    spread: Option<f64>,
}

#[derive(Debug, Clone)]
struct RunFile {
    workload: String,
    fingerprint: Json,
    digest: Option<String>,
    metrics: Vec<(String, Sample)>,
}

impl RunFile {
    fn metric(&self, name: &str) -> Option<Sample> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }
}

fn parse_run(doc: &Json) -> Option<RunFile> {
    if doc.get("traced").and_then(Json::as_bool) != Some(false) {
        return None;
    }
    let metrics = doc
        .get("metrics")?
        .entries()
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let quartile = |key| m.get(key).and_then(Json::as_f64);
            let spread = quartile("q1").zip(quartile("q3")).map(|(q1, q3)| {
                Quartiles {
                    q1,
                    median: value,
                    q3,
                    samples: 0,
                }
                .relative_spread()
            });
            Some((name.clone(), Sample { value, spread }))
        })
        .collect();
    Some(RunFile {
        workload: doc.get("workload")?.as_str()?.to_string(),
        fingerprint: doc.get("fingerprint")?.clone(),
        digest: doc
            .get("score_digest")
            .and_then(Json::as_str)
            .map(str::to_string),
        metrics,
    })
}

/// A result file holds one run, or (the summary) a list of runs.
fn load_runs(path: &str) -> Result<Vec<RunFile>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<RunFile> = match &doc {
        Json::Arr(items) => items.iter().filter_map(parse_run).collect(),
        single => parse_run(single).into_iter().collect(),
    };
    if runs.is_empty() {
        return Err(format!("{path}: no end-to-end result in this file"));
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
    /// Host-clock numbers from different hosts are not compared.
    Refused,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Refused => "refused",
        }
    }
}

/// By how much of `base` the metric got worse (negative = better).
fn worsening(metric: &EndToEndSpec, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match metric.better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

fn judge(metric: &EndToEndSpec, worse_by: f64, spread: Option<f64>, same_host: bool) -> Verdict {
    if metric.clock == Clock::Host && !same_host {
        Verdict::Refused
    } else if spread.is_some_and(|s| s > metric.bound) {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regression
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn fields_match(a: &Json, b: &Json, fields: &[&str]) -> bool {
    fields.iter().all(|f| a.get(f) == b.get(f))
}

fn print_row(
    workload: &str,
    metric: &EndToEndSpec,
    a: f64,
    b: f64,
    worse_by: f64,
    verdict: Verdict,
) {
    println!(
        "{workload:<13} {:<20} {a:>14.4} {b:>14.4} {:>4} {:>+8.2}% {:>6.1}%  {}",
        metric.name,
        metric.unit,
        worse_by * 100.0,
        metric.bound * 100.0,
        verdict.as_str()
    );
}

/// `compare A.json B.json`: B against A under the table's bounds.
pub fn compare_command(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let (runs_a, runs_b) = (load_runs(path_a)?, load_runs(path_b)?);
    let mut compared = 0;
    let mut regressions = 0;
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>4} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "unit", "worse by", "bound"
    );
    for a in &runs_a {
        let Some(b) = runs_b.iter().find(|b| b.workload == a.workload) else {
            continue;
        };
        if !fields_match(&a.fingerprint, &b.fingerprint, &INPUT_FIELDS) {
            return Err(format!(
                "{}: seed or size differ ({} vs {}); the inputs are not the same",
                a.workload,
                a.fingerprint.render(),
                b.fingerprint.render()
            ));
        }
        let same_host = fields_match(&a.fingerprint, &b.fingerprint, &HOST_FIELDS);
        if !same_host {
            println!(
                "{}: host fingerprints differ; host-clock metrics are not compared\n  A {}\n  B {}",
                a.workload,
                a.fingerprint.render(),
                b.fingerprint.render()
            );
        }
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (a.metric(metric.name), b.metric(metric.name)) else {
                return Err(format!(
                    "{}: {} missing from a file",
                    a.workload, metric.name
                ));
            };
            let worse_by = worsening(metric, sa.value, sb.value);
            let spread = match (sa.spread, sb.spread) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = judge(metric, worse_by, spread, same_host);
            print_row(&a.workload, metric, sa.value, sb.value, worse_by, verdict);
            regressions += usize::from(verdict == Verdict::Regression);
            compared += 1;
        }
        println!(
            "{:<13} score_digest {} {}",
            a.workload,
            a.digest.as_deref().unwrap_or("-"),
            if a.digest == b.digest {
                "identical".to_string()
            } else {
                format!("DIFFERS from {}", b.digest.as_deref().unwrap_or("-"))
            }
        );
    }
    if compared == 0 {
        return Err("the two files share no workload".to_string());
    }
    println!("{compared} comparisons, {regressions} regressions");
    Ok(regressions == 0)
}

/// What the paired rule says about one metric.
#[derive(Debug, Clone, PartialEq)]
struct PairedResult {
    a: Quartiles,
    b: Quartiles,
    /// Pairs in which B was better / worse; ties count for neither.
    wins: usize,
    losses: usize,
    verdict: &'static str,
}

/// The rule of choosing-metrics §8: a gain (or loss) is claimed only when
/// one side wins at least nine tenths of all pairs run and the medians
/// differ by more than the distance between the baseline's own quartiles.
/// Independently, B's median may not be worse than A's by more than the
/// metric's bound; where A's own spread exceeds the bound that is reported
/// as unresolved rather than as unchanged.
fn paired_rule(metric: &EndToEndSpec, a: &[f64], b: &[f64]) -> PairedResult {
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let losses = a.iter().zip(b).filter(|(&x, &y)| better(x, y)).count();
    let (qa, qb) = (quartiles(a), quartiles(b));
    let pairs = a.len().min(b.len());
    let needed = (0.9 * pairs as f64).ceil() as usize;
    let resolved = (qb.median - qa.median).abs() > (qa.q3 - qa.q1).abs();
    let worse_by = worsening(metric, qa.median, qb.median);
    let verdict = if pairs > 0 && wins >= needed && resolved {
        "gain"
    } else if pairs > 0 && losses >= needed && resolved && worse_by > metric.bound {
        "REGRESSION"
    } else if qa.relative_spread() > metric.bound {
        "unresolved"
    } else if worse_by > metric.bound {
        "REGRESSION"
    } else {
        "no change"
    };
    PairedResult {
        a: qa,
        b: qb,
        wins,
        losses,
        verdict,
    }
}

/// Runs one build on one seed and returns its end-to-end metrics.
fn run_build(
    exe: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Vec<(String, f64)>, String> {
    // `output` waits for the child to end.
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("{exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| format!("{exe}: last line is not a result: {e}"))?;
    if !output.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{exe}: run on seed {seed} failed ({})",
            output.status
        ));
    }
    Ok(doc
        .get("metrics")
        .map_or(&[][..], Json::entries)
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// `pairs --a BIN --b BIN --workload W [--pairs N] [--seed S] [--seconds N]`:
/// alternating runs of two builds of this harness (parent and change), one
/// seed per pair.
pub fn pairs_command(args: &[String]) -> Result<bool, String> {
    let (mut exe_a, mut exe_b, mut workload) = (None, None, None);
    let (mut pairs, mut seed, mut seconds) = (10usize, 1u64, 15.0f64);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{arg} needs a value"))?
            .clone();
        match arg.as_str() {
            "--a" => exe_a = Some(value),
            "--b" => exe_b = Some(value),
            "--workload" => workload = Some(value),
            "--pairs" => pairs = value.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let (Some(exe_a), Some(exe_b), Some(workload)) = (exe_a, exe_b, workload) else {
        return Err("pairs needs --a, --b and --workload".to_string());
    };
    if spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    if pairs < 10 {
        return Err("the paired rule needs at least 10 pairs".to_string());
    }

    let mut values: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); END_TO_END.len()];
    for pair in 0..pairs {
        let seed = seed + pair as u64;
        // Alternate which side runs first, so drift hits both alike.
        let a_first = pair % 2 == 0;
        let first = run_build(
            if a_first { &exe_a } else { &exe_b },
            &workload,
            seed,
            seconds,
        )?;
        let second = run_build(
            if a_first { &exe_b } else { &exe_a },
            &workload,
            seed,
            seconds,
        )?;
        let (run_a, run_b) = if a_first {
            (first, second)
        } else {
            (second, first)
        };
        for (metric, (va, vb)) in END_TO_END.iter().zip(&mut values) {
            let find = |run: &[(String, f64)]| {
                run.iter()
                    .find(|(n, _)| n == metric.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{} missing from a run", metric.name))
            };
            va.push(find(&run_a)?);
            vb.push(find(&run_b)?);
        }
        println!("pair {} of {pairs} done (seed {seed})", pair + 1);
    }

    println!(
        "{:<20} {:>4} {:>38} {:>38} {:>9}  verdict",
        "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut regressions = 0;
    for (metric, (va, vb)) in END_TO_END.iter().zip(&values) {
        let result = paired_rule(metric, va, vb);
        let show = |q: &Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
        println!(
            "{:<20} {:>4} {:>38} {:>38} {:>4}/{:<4}  {}",
            metric.name,
            metric.unit,
            show(&result.a),
            show(&result.b),
            result.wins,
            pairs,
            result.verdict
        );
        regressions += usize::from(result.verdict == "REGRESSION");
    }
    println!("{pairs} pairs on {workload}, {regressions} regressions");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEndSpec {
        END_TO_END.iter().find(|m| m.name == name).expect("metric")
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let qps = metric("wall_qps");
        assert!((worsening(qps, 1000.0, 900.0) - 0.1).abs() < 1e-12);
        assert!((worsening(qps, 1000.0, 1100.0) + 0.1).abs() < 1e-12);
        let latency = metric("virt_p90_us_r3");
        assert!((worsening(latency, 200.0, 250.0) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(latency, 0.0, 0.0), 0.0);
        assert_eq!(worsening(latency, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn verdicts_apply_bound_spread_and_fingerprint() {
        let qps = metric("wall_qps");
        assert_eq!(judge(qps, 0.05, Some(0.02), true), Verdict::Ok);
        assert_eq!(
            judge(qps, qps.bound + 0.01, Some(0.02), true),
            Verdict::Regression
        );
        assert_eq!(
            judge(qps, -qps.bound - 0.01, Some(0.02), true),
            Verdict::Improved
        );
        // A spread wider than the bound: no claim, even for a big change.
        assert_eq!(
            judge(qps, 0.9, Some(qps.bound + 0.01), true),
            Verdict::Unresolved
        );
        // Another host: host-clock numbers are refused, virtual ones are not.
        assert_eq!(judge(qps, 0.0, None, false), Verdict::Refused);
        let virt = metric("virt_served_qps_r5");
        assert_eq!(judge(virt, 0.0, None, false), Verdict::Ok);
        assert_eq!(
            judge(virt, virt.bound + 0.01, None, false),
            Verdict::Regression
        );
    }

    #[test]
    fn paired_rule_needs_wins_and_a_resolved_difference() {
        let qps = metric("wall_qps");
        let a: Vec<f64> = (0..10).map(|i| 1000.0 + f64::from(i)).collect();
        // B clearly faster in every pair, by far more than A's own spread.
        let b: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        let gain = paired_rule(qps, &a, &b);
        assert_eq!((gain.wins, gain.losses, gain.verdict), (10, 0, "gain"));
        // B faster in every pair, but by less than A's quartile distance.
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        assert_eq!(paired_rule(qps, &a, &b).verdict, "no change");
        // B wins only 8 of 10: no claim.
        let mut b: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        b[0] = 1.0;
        b[1] = 1.0;
        assert_eq!(paired_rule(qps, &a, &b).verdict, "no change");
        // B slower everywhere by more than the bound.
        let b: Vec<f64> = a.iter().map(|x| x * 0.5).collect();
        let loss = paired_rule(qps, &a, &b);
        assert_eq!(
            (loss.wins, loss.losses, loss.verdict),
            (0, 10, "REGRESSION")
        );
        // A's own runs spread wider than the bound: unresolved, not unchanged.
        let noisy: Vec<f64> = (0..10).map(|i| 500.0 + 100.0 * f64::from(i)).collect();
        assert_eq!(paired_rule(qps, &noisy, &noisy).verdict, "unresolved");
        // Ties count for neither side.
        let same = paired_rule(qps, &a, &a);
        assert_eq!((same.wins, same.losses, same.verdict), (0, 0, "no change"));
    }

    #[test]
    fn result_files_load_single_or_summary() {
        let run = |workload: &str, traced: bool| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("traced", Json::Bool(traced)),
                ("fingerprint", Json::obj([("seed", Json::Num(1.0))])),
                ("score_digest", Json::str("00ff")),
                (
                    "metrics",
                    Json::obj([
                        (
                            "wall_qps",
                            Json::obj([
                                ("value", Json::Num(100.0)),
                                ("q1", Json::Num(95.0)),
                                ("q3", Json::Num(105.0)),
                            ]),
                        ),
                        ("failed_share", Json::obj([("value", Json::Num(0.1))])),
                    ]),
                ),
            ])
        };
        let single = parse_run(&run("hot_exact", false)).expect("parses");
        assert_eq!(single.workload, "hot_exact");
        assert_eq!(
            single.metric("wall_qps"),
            Some(Sample {
                value: 100.0,
                spread: Some(0.1)
            })
        );
        assert_eq!(single.metric("failed_share").and_then(|s| s.spread), None);
        assert_eq!(single.digest.as_deref(), Some("00ff"));
        // Traced (per-layer) results are not end-to-end results.
        assert!(parse_run(&run("hot_exact", true)).is_none());
        assert!(parse_run(&Json::Null).is_none());
    }
}
