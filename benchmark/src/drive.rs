//! Driving the stack through its public API: inputs from the seed, host
//! construction, one open-loop pass, and the order statistics the metrics
//! are made of.

use crate::spec::{
    WorkloadSpec, ITEM_BATCH, MAX_BATCH, MAX_BATCH_DELAY_US, MLP_DIVISOR, MODEL_SEED, R3,
};
use crate::sys;
use dlrm::{model_zoo, ModelConfig};
use io_engine::RetryConfig;
use scm_device::{DeviceId, FaultPlan, FaultStats};
use sdm_cache::CacheConfig;
use sdm_core::{
    BatchRecord, Frontend, FrontendConfig, ModelUpdater, QueryOutcome, QueryRecord, SdmConfig,
    SdmError, ServingHost, UpdateKind,
};
use sdm_metrics::alloc_hook::CountingScope;
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use std::time::Instant;
use workload::{
    ArrivalGenerator, ArrivalProcess, Query, QueryGenerator, RoutingPolicy, WorkloadConfig,
};

/// Smoke runs use a sixteenth of every stream length.
const SMOKE_DIVISOR: usize = 16;

/// Independent input streams derived from `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Queries = 1,
    Arrivals = 2,
    Faults = 3,
    Sample = 4,
    Versions = 5,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub fn derive_seed(seed: u64, stream: Stream) -> u64 {
    splitmix64(seed ^ splitmix64(stream as u64))
}

/// One workload at one seed and size, with its generated query stream.
pub struct Ctx {
    pub spec: WorkloadSpec,
    pub seed: u64,
    pub smoke: bool,
    pub model: ModelConfig,
    pub queries: Vec<Query>,
    /// Host seconds `QueryGenerator::generate` took (load-generator cost,
    /// kept out of `setup_s`).
    pub gen_seconds: f64,
}

impl Ctx {
    pub fn new(spec: &WorkloadSpec, seed: u64, smoke: bool) -> Result<Ctx, String> {
        let model = model_zoo::scaled_model(&model_zoo::m1(), spec.capacity_divisor, MLP_DIVISOR);
        let count = if smoke {
            spec.queries / SMOKE_DIVISOR
        } else {
            spec.queries
        };
        let started = Instant::now();
        let queries = generate_queries(spec, &model, derive_seed(seed, Stream::Queries), count)?;
        Ok(Ctx {
            spec: *spec,
            seed,
            smoke,
            model,
            queries,
            gen_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Queries between two model updates, `None` when the workload has none.
    pub fn segment(&self) -> Option<usize> {
        let every = self.spec.update_every?;
        Some(if self.smoke {
            every / SMOKE_DIVISOR
        } else {
            every
        })
    }

    /// Table version written by the update before segment `s`. It depends on
    /// the segment only, so every pass leaves the devices holding the same
    /// final version and replays see the same rows.
    pub fn version(&self, segment: usize) -> u64 {
        derive_seed(self.seed, Stream::Versions).wrapping_add(segment as u64)
    }

    /// The version the devices hold after any complete pass.
    pub fn final_version(&self) -> Option<u64> {
        let segment = self.segment()?;
        Some(self.version(self.queries.len().div_ceil(segment) - 1))
    }
}

pub fn workload_config(spec: &WorkloadSpec, model: &ModelConfig) -> WorkloadConfig {
    let base = if spec.skewed_users {
        WorkloadConfig::skewed(64, 1.1)
    } else {
        WorkloadConfig {
            user_population: 5_000,
            user_zipf_exponent: 0.8,
            ..WorkloadConfig::default()
        }
    };
    WorkloadConfig {
        item_batch: model.item_batch.min(ITEM_BATCH),
        ..base
    }
}

pub fn generate_queries(
    spec: &WorkloadSpec,
    model: &ModelConfig,
    seed: u64,
    count: usize,
) -> Result<Vec<Query>, String> {
    let mut generator = QueryGenerator::new(&model.tables, workload_config(spec, model), seed)
        .map_err(|e| format!("query generator: {e}"))?;
    Ok(generator.generate(count))
}

pub fn sdm_config(spec: &WorkloadSpec) -> SdmConfig {
    let mut cache = CacheConfig::with_total_budget(Bytes::from_kib(spec.row_cache_kib));
    if !spec.pooled_cache {
        cache.pooled_cache_budget = Bytes::ZERO;
    }
    let mut config = SdmConfig {
        device_capacity: Bytes::from_mib(256),
        fm_budget: Bytes::from_mib(32),
        cache,
        seed: MODEL_SEED,
        ..SdmConfig::default()
    }
    .with_batch_mode(spec.mode)
    .with_shared_tier(Bytes::from_mib(spec.shared_tier_mib));
    if spec.nand {
        config = config.with_nand_flash();
    }
    if spec.faults {
        // Six attempts: with 2.5 % of attempts failing, four would leave
        // about one read in 2.5 million exhausted, and a run issues more
        // than a million — a degraded row would then fail the gate by
        // chance.
        config.io.retry = RetryConfig {
            max_attempts: 6,
            ..RetryConfig::default()
        };
    }
    config
}

pub fn frontend_config(spec: &WorkloadSpec) -> FrontendConfig {
    FrontendConfig {
        max_batch: MAX_BATCH,
        max_batch_delay: SimDuration::from_micros(MAX_BATCH_DELAY_US),
        max_queue_wait: SimDuration::from_micros(spec.slo_us),
        token_bucket: None,
    }
}

pub fn arrival_process(spec: &WorkloadSpec, rate: f64) -> ArrivalProcess {
    if spec.bursty {
        ArrivalProcess::Bursty {
            base_qps: 0.5 * rate,
            burst_qps: 3.0 * rate,
            period: SimDuration::from_secs(2),
            burst_fraction: 0.2,
        }
    } else {
        ArrivalProcess::Poisson { rate_qps: rate }
    }
}

/// Builds a fresh host for the workload and, where the workload injects
/// faults, attaches a seeded plan to every device.
pub fn build_host(ctx: &Ctx) -> Result<ServingHost, SdmError> {
    let spec = &ctx.spec;
    let mut host = ServingHost::build(
        &ctx.model,
        &sdm_config(spec),
        MODEL_SEED,
        spec.shards,
        RoutingPolicy::UserSticky,
    )?;
    if spec.faults {
        let fault_seed = derive_seed(ctx.seed, Stream::Faults);
        for s in 0..host.shards() {
            let array = host.shard_mut(s).manager_mut().io_engine_mut().array_mut();
            for d in 0..array.len() {
                let plan = FaultPlan::new(splitmix64(fault_seed ^ ((s as u64) << 32 | d as u64)))
                    .with_transient_errors(0.02)
                    .with_corruption(0.005);
                array.device_mut(DeviceId(d))?.set_fault_plan(Some(plan));
            }
        }
    }
    Ok(host)
}

/// Faults injected so far, summed over every device of the host.
pub fn injected_faults(host: &ServingHost) -> FaultStats {
    let mut total = FaultStats::default();
    for s in 0..host.shards() {
        for (_, device) in host.shard(s).manager().io_engine().array().iter() {
            if let Some(plan) = device.fault_plan() {
                total.merge(plan.stats());
            }
        }
    }
    total
}

/// One stretch of a pass served by one `Frontend::run`: where its records
/// start in the pass's logs.
#[derive(Debug, Clone, Copy)]
struct Segment {
    first_query: usize,
    first_batch: usize,
}

/// Everything one open-loop pass over the stream produced.
#[derive(Debug, Clone)]
pub struct Pass {
    pub rate: f64,
    /// Host seconds from the first update/arrival to the last completion.
    pub wall_s: f64,
    /// Process CPU seconds over the same window.
    pub cpu_s: Option<f64>,
    /// Heap allocations inside `Frontend::run`, when counted.
    pub allocations: Option<u64>,
    /// Per-query records, index = position in the stream.
    pub query_log: Vec<QueryRecord>,
    pub batch_log: Vec<BatchRecord>,
    /// Host milliseconds of each `ModelUpdater::apply`.
    pub update_ms: Vec<f64>,
    segments: Vec<Segment>,
}

impl Pass {
    pub fn offered(&self) -> u64 {
        self.query_log.len() as u64
    }

    pub fn served(&self) -> u64 {
        self.batch_log.iter().map(|b| b.len as u64).sum()
    }

    pub fn shed(&self) -> u64 {
        self.offered() - self.logged_served()
    }

    /// Served queries counted from the per-query log (the accounting gate
    /// compares it with the per-batch count).
    pub fn logged_served(&self) -> u64 {
        self.query_log
            .iter()
            .filter(|q| latency_ns(q).is_some())
            .count() as u64
    }

    /// `completed − arrival` of every served query, ascending.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.query_log.iter().filter_map(latency_ns).collect();
        all.sort_unstable();
        all
    }

    /// Queries served within `slo_us`. Shed queries are not good.
    pub fn good(&self, slo_us: u64) -> u64 {
        self.query_log
            .iter()
            .filter_map(latency_ns)
            .filter(|&ns| ns <= slo_us * 1_000)
            .count() as u64
    }

    /// Offered and served rates on the virtual clock, over the window from
    /// the first arrival to the later of the last arrival and the last
    /// completion (so served ≤ offered, as in `FrontendReport`).
    pub fn virt_rates_qps(&self) -> (f64, f64) {
        let (Some(first), Some(last)) = (self.query_log.first(), self.query_log.last()) else {
            return (0.0, 0.0);
        };
        let arrivals = last.arrival.duration_since(first.arrival).as_secs_f64();
        let end = self
            .batch_log
            .iter()
            .map(|b| b.completed_at)
            .fold(last.arrival, |a, b| a.max(b));
        let window = end.duration_since(first.arrival).as_secs_f64();
        let per = |count: u64, secs: f64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
        (per(self.offered(), arrivals), per(self.served(), window))
    }

    /// The batches as the batcher formed them: positions in the stream, one
    /// list per `BatchRecord`. `None` when the logs disagree.
    pub fn batches(&self) -> Option<Vec<Vec<usize>>> {
        let mut all = Vec::with_capacity(self.batch_log.len());
        for (i, seg) in self.segments.iter().enumerate() {
            let (query_end, batch_end) = self
                .segments
                .get(i + 1)
                .map_or((self.query_log.len(), self.batch_log.len()), |next| {
                    (next.first_query, next.first_batch)
                });
            let mut batches = reconstruct_batches(
                &self.query_log[seg.first_query..query_end],
                &self.batch_log[seg.first_batch..batch_end],
            )?;
            for picks in &mut batches {
                for pick in picks.iter_mut() {
                    *pick += seg.first_query;
                }
            }
            all.append(&mut batches);
        }
        Some(all)
    }

    #[cfg(test)]
    pub fn for_tests(query_log: Vec<QueryRecord>, segment_starts: &[usize]) -> Pass {
        Pass {
            rate: 1.0,
            wall_s: 1.0,
            cpu_s: None,
            allocations: None,
            query_log,
            batch_log: Vec::new(),
            update_ms: Vec::new(),
            segments: segment_starts
                .iter()
                .map(|&first_query| Segment {
                    first_query,
                    first_batch: 0,
                })
                .collect(),
        }
    }

    /// Stream positions at which a model update preceded the query.
    pub fn segment_starts(&self) -> impl Iterator<Item = usize> + '_ {
        self.segments.iter().map(|s| s.first_query)
    }
}

/// `completed − arrival` of a served query, `None` for a shed one.
pub fn latency_ns(record: &QueryRecord) -> Option<u64> {
    match record.outcome {
        QueryOutcome::Served { completed } => {
            Some(completed.duration_since(record.arrival).as_nanos())
        }
        _ => None,
    }
}

/// Rebuilds each batch's pick list from one `Frontend::run`'s logs: the
/// batcher admits in arrival order and never reorders, so batch `k` holds
/// the next `len` served queries. `None` when the counts do not add up or a
/// query's completion instant is not its batch's.
pub fn reconstruct_batches(
    queries: &[QueryRecord],
    batches: &[BatchRecord],
) -> Option<Vec<Vec<usize>>> {
    let mut served = queries
        .iter()
        .enumerate()
        .filter_map(|(i, q)| match q.outcome {
            QueryOutcome::Served { completed } => Some((i, completed)),
            _ => None,
        });
    let mut out = Vec::with_capacity(batches.len());
    for batch in batches {
        let mut picks = Vec::with_capacity(batch.len);
        for _ in 0..batch.len {
            let (i, completed) = served.next()?;
            if completed != batch.completed_at {
                return None;
            }
            picks.push(i);
        }
        out.push(picks);
    }
    served.next().is_none().then_some(out)
}

/// Exact order statistic (nearest rank): the smallest sample with at least
/// `p` of the samples at or below it. Zero for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the slowest `share` of the samples (at least one). On workloads
/// whose service time is the same for every query, light-load latencies
/// pile up on a few exact values (batch delay + k service times), so an
/// order statistic there reads identically for every seed; a mean over the
/// tail does not.
pub fn slowest_mean(sorted: &[u64], share: f64) -> f64 {
    let count = ((share * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    mean(&sorted[sorted.len().saturating_sub(count)..])
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

/// Median and quartiles of host-clock samples, by the same method as
/// Python's `statistics.quantiles(values, n=4)` (exclusive), which is what
/// the driver applies across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Quartiles {
    /// Quartile distance as a share of the median (0 for a zero median).
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as i64;
    let at = |i: i64| -> f64 {
        match n {
            0 => 0.0,
            1 => sorted[0],
            _ => {
                // Rank i(n+1)/4, clamped to a neighbouring pair; `delta` is
                // taken after the clamp, so the ends extrapolate as Python's do.
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1) - j * 4) as f64;
                let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            }
        }
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        samples: sorted.len(),
    }
}

/// Operations and the host nanoseconds they took, accumulated over timed
/// stretches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    pub ops: u64,
    pub ns: u64,
}

impl Timed {
    pub fn add(&mut self, ops: u64, since: Instant) {
        self.ops += ops;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    /// Host nanoseconds per operation (0 before any operation).
    pub fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// One open-loop pass over the whole stream at `rate`: a fresh front end
/// and a fresh seeded arrival generator; on update workloads a full model
/// update before every segment, inside the timed window, with the arrival
/// generator continuing across segments.
pub fn run_pass(
    ctx: &Ctx,
    host: &mut ServingHost,
    rate: f64,
    count_allocations: bool,
) -> Result<Pass, String> {
    let spec = &ctx.spec;
    let queries = &ctx.queries;
    let mut frontend =
        Frontend::new(frontend_config(spec)).map_err(|e| format!("frontend config: {e}"))?;
    let mut arrivals = ArrivalGenerator::new(
        arrival_process(spec, rate),
        derive_seed(ctx.seed, Stream::Arrivals),
    )
    .map_err(|e| format!("arrival process: {e}"))?;
    let segment_len = ctx.segment().unwrap_or(queries.len()).max(1);

    let mut pass = Pass {
        rate,
        wall_s: 0.0,
        cpu_s: None,
        allocations: count_allocations.then_some(0),
        query_log: Vec::with_capacity(queries.len()),
        batch_log: Vec::with_capacity(queries.len()),
        update_ms: Vec::new(),
        segments: Vec::new(),
    };
    let cpu_before = sys::process_cpu_seconds();
    let started = Instant::now();
    for (s, segment) in queries.chunks(segment_len).enumerate() {
        if ctx.segment().is_some() {
            let update_started = Instant::now();
            for shard in 0..host.shards() {
                ModelUpdater::apply(
                    host.shard_mut(shard).manager_mut(),
                    UpdateKind::Full,
                    ctx.version(s),
                )
                .map_err(|e| format!("model update: {e}"))?;
            }
            pass.update_ms
                .push(update_started.elapsed().as_secs_f64() * 1e3);
        }
        pass.segments.push(Segment {
            first_query: pass.query_log.len(),
            first_batch: pass.batch_log.len(),
        });
        let scope = count_allocations.then(CountingScope::new);
        frontend
            .run(host, segment, &mut arrivals)
            .map_err(|e| format!("serving at {rate} q/s: {e}"))?;
        if let (Some(scope), Some(total)) = (scope, pass.allocations.as_mut()) {
            *total += scope.allocations();
        }
        pass.query_log.extend_from_slice(frontend.query_log());
        pass.batch_log.extend_from_slice(frontend.batch_log());
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.cpu_s = cpu_before
        .zip(sys::process_cpu_seconds())
        .map(|(before, after)| after - before);
    Ok(pass)
}

/// Build plus one warm pass at r3: the set-up a deployment pays before it
/// serves at steady state. Returns the warmed host and the host seconds it
/// took (query generation excluded).
pub fn setup_once(ctx: &Ctx) -> Result<(ServingHost, f64), String> {
    let started = Instant::now();
    let mut host = build_host(ctx).map_err(|e| format!("host build: {e}"))?;
    run_pass(ctx, &mut host, ctx.spec.rates[R3], false)?;
    Ok((host, started.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_core::CloseReason;
    use sdm_metrics::SimInstant;

    fn at(us: u64) -> SimInstant {
        SimInstant::from_nanos(us * 1_000)
    }

    fn served(arrival: u64, completed: u64) -> QueryRecord {
        QueryRecord {
            arrival: at(arrival),
            outcome: QueryOutcome::Served {
                completed: at(completed),
            },
        }
    }

    fn shed(arrival: u64) -> QueryRecord {
        QueryRecord {
            arrival: at(arrival),
            outcome: QueryOutcome::ShedOverload,
        }
    }

    fn batch(len: usize, completed: u64) -> BatchRecord {
        BatchRecord {
            len,
            oldest_arrival: at(0),
            closed_at: at(0),
            started_at: at(0),
            completed_at: at(completed),
            reason: CloseReason::Full,
        }
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let log: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&log, 0.5), 50);
        assert_eq!(percentile(&log, 0.99), 99);
        assert_eq!(percentile(&log, 1.0), 100);
        assert_eq!(percentile(&log, 0.0), 1);
        // 1024 samples: p99 leaves exactly ten beyond it.
        let log: Vec<u64> = (0..1024).collect();
        assert_eq!(percentile(&log, 0.99), 1013);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Never interpolated: the answer is always one of the samples.
        assert_eq!(percentile(&[10, 20, 1000], 0.5), 20);
    }

    #[test]
    fn tail_mean_covers_the_slowest_share() {
        let log: Vec<u64> = (1..=100).collect();
        assert_eq!(mean(&log), 50.5);
        assert_eq!(slowest_mean(&log, 0.10), 95.5);
        assert_eq!(slowest_mean(&log, 1.0), 50.5);
        // 10 % of 15 samples rounds up to two.
        let log: Vec<u64> = (1..=15).collect();
        assert_eq!(slowest_mean(&log, 0.10), 14.5);
        assert_eq!(slowest_mean(&[7], 0.10), 7.0);
        assert_eq!(slowest_mean(&[], 0.10), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&values);
        assert_eq!((q.q1, q.median, q.q3, q.samples), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 5, 6, 9, 20], n=4) == [3.0, 6.0, 14.5]
        let q = quartiles(&[20.0, 1.0, 6.0, 9.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (3.0, 6.0, 14.5));
        assert_eq!(quartiles(&[4.0]).median, 4.0);
        assert_eq!(quartiles(&[]).samples, 0);
        assert_eq!(quartiles(&values).relative_spread(), 1.0);
        assert_eq!(quartiles(&[]).relative_spread(), 0.0);
    }

    #[test]
    fn batches_are_rebuilt_from_the_logs() {
        let queries = [
            served(0, 90),
            shed(1),
            served(2, 90),
            served(3, 150),
            shed(4),
            served(5, 150),
            served(6, 150),
        ];
        let batches = [batch(2, 90), batch(3, 150)];
        assert_eq!(
            reconstruct_batches(&queries, &batches),
            Some(vec![vec![0, 2], vec![3, 5, 6]])
        );
        // A served query left over, a short log, or a completion instant
        // that is not the batch's: the logs disagree.
        assert_eq!(reconstruct_batches(&queries, &batches[..1]), None);
        assert_eq!(reconstruct_batches(&queries[..4], &batches), None);
        assert_eq!(
            reconstruct_batches(&queries, &[batch(2, 90), batch(3, 151)]),
            None
        );
        assert_eq!(reconstruct_batches(&[], &[]), Some(vec![]));
    }

    #[test]
    fn pass_accounting_reads_the_logs() {
        let pass = Pass {
            rate: 10.0,
            wall_s: 1.0,
            cpu_s: None,
            allocations: None,
            query_log: vec![served(0, 40), shed(10), served(20, 100), served(30, 100)],
            batch_log: vec![batch(1, 40), batch(2, 100)],
            update_ms: Vec::new(),
            segments: vec![
                Segment {
                    first_query: 0,
                    first_batch: 0,
                },
                Segment {
                    first_query: 2,
                    first_batch: 1,
                },
            ],
        };
        assert_eq!((pass.offered(), pass.served(), pass.shed()), (4, 3, 1));
        assert_eq!(pass.logged_served(), 3);
        assert_eq!(pass.latencies_ns(), [40_000, 70_000, 80_000]);
        assert_eq!(pass.good(70), 2);
        assert_eq!(pass.batches(), Some(vec![vec![0], vec![2, 3]]));
        // 4 arrivals over 30 µs; 3 served by 100 µs.
        let (offered, served_qps) = pass.virt_rates_qps();
        assert!((offered - 4.0 / 30e-6).abs() < 1e-3);
        assert!((served_qps - 3.0 / 100e-6).abs() < 1e-3);
    }

    #[test]
    fn seeds_derive_distinct_streams() {
        let a = derive_seed(1, Stream::Queries);
        assert_eq!(a, derive_seed(1, Stream::Queries));
        assert_ne!(a, derive_seed(1, Stream::Arrivals));
        assert_ne!(a, derive_seed(2, Stream::Queries));
    }
}
