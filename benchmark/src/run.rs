//! One workload, start to finish: set-up, the measured passes, the
//! correctness gate, and the end-to-end metrics. End-to-end numbers are
//! always taken with tracing off; `layers::traced_run` is the other run.

use crate::check::{self, Gate};
use crate::drive::{self, mean, percentile, quartiles, slowest_mean, Ctx, Pass, Quartiles};
use crate::json::Json;
use crate::spec::{
    Better, Clock, END_TO_END, GOOD_SHARE, KEEP_UP_SHARE, MIN_WALL_PASSES, PER_LAYER, R3, R5,
    SETUPS,
};
use crate::sys;
use sdm_core::ServingHost;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Quartiles and sample count where the value is a median of host-clock
    /// samples.
    pub spread: Option<Quartiles>,
    /// What the number was computed from, for the printed report.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, note: impl Into<String>) -> Metric {
        let (unit, better) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .find(|(n, _, _)| *n == name)
            .map_or(("", Better::Lower), |(_, unit, better)| (unit, better));
        debug_assert!(!unit.is_empty(), "metric {name} is not in the tables");
        Metric {
            name,
            unit,
            better,
            value,
            spread: None,
            note: note.into(),
        }
    }

    /// A median of host-clock samples, with its quartiles.
    pub fn median(name: &'static str, samples: &[f64], note: impl Into<String>) -> Metric {
        let q = quartiles(samples);
        Metric {
            spread: Some(q),
            ..Metric::new(name, q.median, note)
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub correct: bool,
    /// Queries offered at rates the workload is calibrated to sustain
    /// (r1..r3 and every repeated r3 pass).
    pub attempted: u64,
    /// Of those, the ones shed. The deliberate overload passes (r4, r5) are
    /// reported through `failed_share` and the per-pass lines instead.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub score_digest: Option<u64>,
    pub failures: Vec<String>,
    /// Per-pass accounting, in execution order.
    pub passes: Vec<Json>,
}

impl Outcome {
    /// The one JSON object the contract wants as the last line of stdout.
    pub fn last_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The result file: the last line plus what `compare` needs.
    pub fn to_file(&self, fingerprint: Json) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut entry = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::str(m.unit)),
            ];
            if let Some(q) = m.spread {
                entry.push(("q1".to_string(), Json::Num(q.q1)));
                entry.push(("q3".to_string(), Json::Num(q.q3)));
                entry.push(("samples".to_string(), Json::Num(q.samples as f64)));
            }
            (m.name, Json::Obj(entry))
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("fingerprint", fingerprint),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "score_digest",
                self.score_digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
            ),
            ("metrics", Json::obj(metrics)),
            ("passes", Json::Arr(self.passes.clone())),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, then the verdict.
    pub fn print(&self) {
        for m in &self.metrics {
            let clock = END_TO_END
                .iter()
                .find(|e| e.name == m.name)
                .map(|e| match e.clock {
                    Clock::Virtual => "virtual clock; ",
                    Clock::Host => "host clock; ",
                })
                .unwrap_or("");
            let spread = m.spread.map_or(String::new(), |q| {
                format!("; median of {}, q1 {:.6} q3 {:.6}", q.samples, q.q1, q.q3)
            });
            let note = if m.note.is_empty() { "" } else { "; " };
            println!(
                "metric {} = {:.6} {} [{clock}{} is better{note}{}{spread}]",
                m.name,
                m.value,
                m.unit,
                m.better.as_str(),
                m.note
            );
        }
        if let Some(digest) = self.score_digest {
            println!("score_digest = {digest:016x}");
        }
        for failure in &self.failures {
            println!("CHECK FAILED: {failure}");
        }
        println!(
            "checks: {}; attempted {} failed {}",
            if self.correct { "all passed" } else { "FAILED" },
            self.attempted,
            self.failed
        );
    }
}

/// One line and one JSON record per pass: offered / served / failed counts
/// and the virtual-clock latencies.
pub fn describe_pass(ctx: &Ctx, label: &str, pass: &Pass) -> Json {
    let latencies = pass.latencies_ns();
    let (offered_qps, served_qps) = pass.virt_rates_qps();
    let mean_us = mean(&latencies) / 1e3;
    let [p50, p90, p99, max] =
        [0.5, 0.9, 0.99, 1.0].map(|p| percentile(&latencies, p) as f64 / 1e3);
    let good = pass.good(ctx.spec.slo_us);
    println!(
        "pass {label} at {} q/s: offered {} served {} failed {} good {} | virt mean {mean_us:.1} p50 {p50:.1} p90 {p90:.1} p99 {p99:.1} max {max:.1} us ({} samples) served {served_qps:.2} of {offered_qps:.2} q/s | host {:.3} s",
        pass.rate,
        pass.offered(),
        pass.served(),
        pass.shed(),
        good,
        latencies.len(),
        pass.wall_s,
    );
    Json::obj([
        ("pass", Json::str(label)),
        ("rate_qps", Json::Num(pass.rate)),
        ("offered", Json::Num(pass.offered() as f64)),
        ("served", Json::Num(pass.served() as f64)),
        ("failed", Json::Num(pass.shed() as f64)),
        ("good", Json::Num(good as f64)),
        ("virt_mean_us", Json::Num(mean_us)),
        ("virt_p50_us", Json::Num(p50)),
        ("virt_p90_us", Json::Num(p90)),
        ("virt_p99_us", Json::Num(p99)),
        ("virt_max_us", Json::Num(max)),
        ("virt_served_qps", Json::Num(served_qps)),
        ("host_seconds", Json::Num(pass.wall_s)),
    ])
}

/// Whether the pass met the SLO: enough of the *offered* queries good, and
/// the server keeping up with the arrivals (no growing backlog).
pub fn meets_slo(ctx: &Ctx, pass: &Pass) -> bool {
    let (offered_qps, served_qps) = pass.virt_rates_qps();
    pass.good(ctx.spec.slo_us) as f64 >= GOOD_SHARE * pass.offered() as f64
        && served_qps >= KEEP_UP_SHARE * offered_qps
}

/// Runs `SETUPS` set-ups on fresh hosts, keeping the last.
fn set_up(ctx: &Ctx, count: usize) -> Result<(ServingHost, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(count);
    let mut kept = None;
    for _ in 0..count {
        // Drop the previous host first, so peak memory is one host's.
        drop(kept.take());
        let (host, seconds) = drive::setup_once(ctx)?;
        samples.push(seconds);
        kept = Some(host);
    }
    kept.map(|host| (host, samples))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// The end-to-end run: tracing off, all ten metrics.
pub fn end_to_end(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let spec = &ctx.spec;
    let (mut host, setup_samples) = set_up(ctx, SETUPS)?;
    println!(
        "set-up x{}: {} s (build + warm pass at {} q/s; query generation {:.3} s excluded)",
        setup_samples.len(),
        setup_samples
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        spec.rates[R3],
        ctx.gen_seconds,
    );

    let mut gate = Gate::default();
    let mut records = Vec::new();
    let sm_reads_before = host.stats().sm_reads;

    let mut rate_passes = Vec::with_capacity(spec.rates.len());
    for (i, &rate) in spec.rates.iter().enumerate() {
        let label = format!("r{}", i + 1);
        let pass = drive::run_pass(ctx, &mut host, rate, false)?;
        check::check_pass(&mut gate, ctx, &label, &pass);
        records.push(describe_pass(ctx, &label, &pass));
        rate_passes.push(pass);
    }

    // The score replay comes right after the fixed passes, before the
    // repeats whose number depends on the clock: where misses are pooled in
    // completion order (`sm_bound`), the low bits of a score depend on which
    // rows are cached, so the digest repeats only from a repeatable state.
    let batches = rate_passes[R3]
        .batches()
        .ok_or("the first r3 pass cannot be replayed: its logs disagree")?;
    let digest = check::replay_scores(ctx, &mut host, &batches, &mut gate)?;

    // Host-clock samples: the first r3 pass and as many repeats as fit.
    let (mut attempted, mut failed) = rate_passes[..=R3]
        .iter()
        .fold((0, 0), |(a, f), p| (a + p.offered(), f + p.shed()));
    let mut measured_seconds: f64 = rate_passes.iter().map(|p| p.wall_s).sum();
    let mut wall_qps = Vec::new();
    let mut cpu_us = Vec::new();
    let mut sample = |pass: &Pass| -> Result<(), String> {
        let served = pass.served().max(1) as f64;
        wall_qps.push(served / pass.wall_s);
        let cpu = pass
            .cpu_s
            .ok_or("process CPU time unavailable (/proc/self/stat)")?;
        cpu_us.push(cpu * 1e6 / served);
        Ok(())
    };
    sample(&rate_passes[R3])?;
    let mut last_pass_seconds = rate_passes[R3].wall_s;
    let min_passes = if ctx.smoke { 1 } else { MIN_WALL_PASSES };
    let mut repeats = 0;
    loop {
        let fits = measured_seconds + last_pass_seconds <= seconds;
        if 1 + repeats >= min_passes && (ctx.smoke || !fits) {
            break;
        }
        repeats += 1;
        let label = format!("r3 repeat {repeats}");
        let pass = drive::run_pass(ctx, &mut host, spec.rates[R3], false)?;
        check::check_pass(&mut gate, ctx, &label, &pass);
        records.push(describe_pass(ctx, &label, &pass));
        attempted += pass.offered();
        failed += pass.shed();
        sample(&pass)?;
        measured_seconds += pass.wall_s;
        last_pass_seconds = pass.wall_s;
    }
    let sm_reads_measured = host.stats().sm_reads - sm_reads_before;
    check::check_host(&mut gate, ctx, &host, sm_reads_measured);
    println!(
        "measured {measured_seconds:.2} s in passes of a {seconds} s window; {} checks run",
        gate.checks
    );

    let latencies_r1 = rate_passes[0].latencies_ns();
    let latencies_r3 = rate_passes[R3].latencies_ns();
    let slo_rate = spec
        .rates
        .iter()
        .zip(&rate_passes)
        .filter(|(_, pass)| meets_slo(ctx, pass))
        .map(|(&rate, _)| rate)
        .fold(0.0, f64::max);
    let peak_rss = sys::peak_rss_mib().ok_or("peak memory unavailable (/proc/self/status)")?;

    let metrics = vec![
        Metric::median("setup_s", &setup_samples, "build + warm pass at r3"),
        Metric::median("wall_qps", &wall_qps, "served / host seconds, r3 passes"),
        Metric::median("cpu_us_per_query", &cpu_us, "process CPU / served, r3 passes"),
        Metric::new("peak_rss_mib", peak_rss, "VmHWM of this workload's process"),
        Metric::new(
            "virt_mean_us_r1",
            mean(&latencies_r1) / 1e3,
            format!("{} samples at {} q/s", latencies_r1.len(), spec.rates[0]),
        ),
        Metric::new(
            "virt_slow10_us_r1",
            slowest_mean(&latencies_r1, 0.10) / 1e3,
            format!(
                "mean of the slowest tenth of {} samples at {} q/s",
                latencies_r1.len(),
                spec.rates[0]
            ),
        ),
        Metric::new(
            "virt_p90_us_r3",
            percentile(&latencies_r3, 0.90) as f64 / 1e3,
            format!("{} samples at {} q/s", latencies_r3.len(), spec.rates[R3]),
        ),
        Metric::new(
            "virt_served_qps_r5",
            rate_passes[R5].virt_rates_qps().1,
            format!("offered {} q/s", spec.rates[R5]),
        ),
        Metric::new(
            "virt_slo_rate_qps",
            slo_rate,
            format!(
                "highest of r1..r5 with >= {GOOD_SHARE} of offered within {} us and served >= {KEEP_UP_SHARE} of offered rate",
                spec.slo_us
            ),
        ),
    ];
    Ok(Outcome {
        workload: spec.name,
        traced: false,
        correct: gate.passed(),
        attempted,
        failed,
        metrics,
        score_digest: Some(digest),
        failures: gate.failures,
        passes: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::WORKLOADS;

    fn smoke(workload: usize, seed: u64) -> Outcome {
        let ctx = Ctx::new(&WORKLOADS[workload], seed, true).expect("context");
        end_to_end(&ctx, 1.0).expect("smoke run")
    }

    #[test]
    fn same_seed_same_digest_and_virtual_metrics() {
        let (a, b) = (smoke(0, 11), smoke(0, 11));
        assert!(a.correct, "{:?}", a.failures);
        assert_eq!(a.score_digest, b.score_digest);
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let virt = END_TO_END
                .iter()
                .any(|e| e.name == ma.name && e.clock == Clock::Virtual);
            if virt {
                assert_eq!(ma.value, mb.value, "{}", ma.name);
            }
        }
        assert_ne!(a.score_digest, smoke(0, 12).score_digest);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = Ctx::new(&WORKLOADS[0], 1, true).expect("context");
        let b = Ctx::new(&WORKLOADS[0], 2, true).expect("context");
        assert_eq!(a.queries.len(), b.queries.len());
        assert_ne!(a.queries, b.queries);
        let again = Ctx::new(&WORKLOADS[0], 1, true).expect("context");
        assert_eq!(a.queries, again.queries);
    }

    #[test]
    fn update_workload_serves_the_updated_rows() {
        // refresh_nand: scores are checked against tables regenerated the way
        // the updater wrote them, and every injected corruption is detected.
        let outcome = smoke(3, 5);
        assert!(outcome.correct, "{:?}", outcome.failures);
        assert_eq!(outcome.failed, 0);
    }

    #[test]
    fn every_end_to_end_metric_is_reported_once_in_table_order() {
        let outcome = smoke(1, 3);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let line = outcome.last_line().render();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("last line parses");
        let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed.get("metrics").map(|m| m.entries().len()),
            Some(END_TO_END.len())
        );
        let file = outcome.to_file(Json::Null).render_pretty();
        assert_eq!(
            json::parse(&file).expect("file parses").get("workload"),
            Some(&Json::str("sm_bound"))
        );
    }
}
