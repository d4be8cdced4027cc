//! Open-loop request front end: SLO-aware dynamic batching and load
//! shedding ahead of a [`ServingHost`].
//!
//! Closed-loop driving ([`ServingHost::run_selected_batch`] on pre-built batches)
//! measures how fast shards drain work; the paper's serving criterion is
//! what p50/p99 the host delivers *at a given offered QPS* while meeting a
//! latency target. This module provides that measurement surface:
//!
//! * arrivals come from a seeded [`workload::ArrivalGenerator`] (open loop
//!   — the arrival instants do not depend on how fast the server runs);
//! * a **work-conserving dynamic batcher** accumulates admitted queries
//!   and closes the open batch at the earliest of three instants:
//!   (a) `max_batch` reached, (b) the host can take it —
//!   `max(server_free, oldest_arrival)` — and (c) the deadline
//!   `oldest_arrival + max_batch_delay`. Batches form by themselves under
//!   load: whatever arrives while one batch is in service is the next one;
//! * **admission control** sheds queries instead of queueing without
//!   bound: a token bucket (rate limit) and an SLO guard that rejects a
//!   query when the estimated queue wait (time until the server frees up)
//!   already exceeds `max_queue_wait`; when backend shard health degrades
//!   ([`ServingHost::health_fraction`] < 1) the guard **browns out** —
//!   the threshold tightens in proportion, and queries only the tightened
//!   guard rejects are counted as [`QueryOutcome::ShedBrownout`];
//! * everything runs on the virtual clock, so a `(stream, seed, config)`
//!   triple produces a bit-identical [`FrontendReport`] on every run, and
//!   the warmed admission→batch→serve path performs no per-query heap
//!   allocation.
//!
//! The server is modelled as the serially-reused host: a dispatched batch
//! starts at `max(close_time, server_free)` and occupies the host for its
//! measured [`HostReport::virtual_makespan`]. Every query in a batch
//! completes when the batch does, so a served query's latency is
//! `batch_completion - arrival`.
//!
//! **Start law.** Close rule (b) means the host is never idle while an
//! admitted query waits: every batch starts at
//! `max(previous batch's completed_at, its own oldest_arrival)`. Rule (c)
//! therefore binds only while the host is busy past the deadline — the
//! overload regime, where batches close `Full` or `Deadline` and queue for
//! the host — and below saturation no latency contains the timer.

use crate::error::SdmError;
use crate::host::ServingHost;
use sdm_metrics::{LatencyHistogram, SimDuration, SimInstant};
use workload::{ArrivalGenerator, Query};

/// Token-bucket admission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketConfig {
    /// Maximum burst the bucket absorbs, in queries. Must be ≥ 1.
    pub capacity: f64,
    /// Sustained admission rate, queries per virtual second.
    pub refill_per_sec: f64,
}

/// Front-end tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// Close the open batch as soon as it holds this many queries.
    pub max_batch: usize,
    /// Close the open batch once its oldest query has waited this long —
    /// no admitted query is held past `arrival + max_batch_delay` before
    /// its batch is handed to the host. A free host takes the batch
    /// earlier ([`CloseReason::HostFree`]), so this binds only while the
    /// host is busy past the deadline.
    pub max_batch_delay: SimDuration,
    /// SLO guard: shed an arrival when the estimated queue wait (time
    /// until the server frees up) already exceeds this.
    pub max_queue_wait: SimDuration,
    /// Optional token-bucket rate limit applied before the SLO guard.
    pub token_bucket: Option<TokenBucketConfig>,
}

impl FrontendConfig {
    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), SdmError> {
        if self.max_batch == 0 {
            return Err(SdmError::InvalidConfig {
                reason: "frontend max_batch must be at least 1".to_string(),
            });
        }
        if let Some(bucket) = &self.token_bucket {
            if !(bucket.capacity.is_finite() && bucket.capacity >= 1.0) {
                return Err(SdmError::InvalidConfig {
                    reason: format!(
                        "token bucket capacity must be >= 1 query, got {}",
                        bucket.capacity
                    ),
                });
            }
            if !(bucket.refill_per_sec.is_finite() && bucket.refill_per_sec > 0.0) {
                return Err(SdmError::InvalidConfig {
                    reason: format!(
                        "token bucket refill must be positive, got {}",
                        bucket.refill_per_sec
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Why the batcher handed a batch to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The batch reached `max_batch` queries.
    Full,
    /// The host could take the batch: it closed at
    /// `max(server_free, oldest_arrival)`, at or before its deadline.
    HostFree,
    /// The oldest query reached its `max_batch_delay` deadline with the
    /// host still busy; the closed batch queues for the host.
    Deadline,
    /// End of the arrival stream: the final partial batch is dispatched at
    /// the instant it would have closed anyway (host free or deadline,
    /// whichever is first).
    Flush,
}

/// What happened to one offered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Admitted and queued; replaced by [`QueryOutcome::Served`] when its
    /// batch completes. Never present in the log of a finished run.
    Pending,
    /// Served; the batch completed at this instant.
    Served {
        /// Completion instant of the query's batch.
        completed: SimInstant,
    },
    /// Shed by the token bucket.
    ShedRateLimited,
    /// Shed by the SLO guard (estimated queue wait above `max_queue_wait`).
    ShedOverload,
    /// Shed by the brownout guard: backend shard health was degraded, so
    /// admission tightened to `max_queue_wait ×`
    /// `ServingHost::health_fraction` — a healthy backend would have
    /// admitted this query.
    ShedBrownout,
}

/// Per-query front-end record: when it arrived and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Arrival instant on the virtual clock.
    pub arrival: SimInstant,
    /// Final outcome.
    pub outcome: QueryOutcome,
}

/// Per-batch front-end record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Queries in the batch.
    pub len: usize,
    /// Arrival of the batch's oldest query.
    pub oldest_arrival: SimInstant,
    /// When the batcher closed the batch. Never exceeds
    /// `oldest_arrival + max_batch_delay`.
    pub closed_at: SimInstant,
    /// When the host started executing it: `max(closed_at, server_free)`,
    /// which the close rules make `max(previous batch's completed_at,
    /// oldest_arrival)`.
    pub started_at: SimInstant,
    /// `started_at` plus the batch's measured virtual makespan.
    pub completed_at: SimInstant,
    /// Why the batch closed.
    pub reason: CloseReason,
}

/// Measured outcome of one [`Frontend::run`] over an arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendReport {
    /// Queries that arrived.
    pub offered: u64,
    /// Queries past admission control (all of which were then served).
    pub admitted: u64,
    /// Queries served to completion.
    pub served: u64,
    /// Queries shed by the token bucket.
    pub shed_rate_limited: u64,
    /// Queries shed by the SLO guard.
    pub shed_overload: u64,
    /// Queries shed only because degraded backend health tightened the
    /// admission threshold (brownout). Always zero on a healthy backend.
    pub shed_brownout: u64,
    /// Batches dispatched to the host.
    pub batches: u64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Median served latency (arrival → batch completion).
    pub p50_latency: SimDuration,
    /// 99th-percentile served latency.
    pub p99_latency: SimDuration,
    /// Mean served latency.
    pub mean_latency: SimDuration,
    /// Slowest served latency.
    pub max_latency: SimDuration,
    /// Measured offered rate: arrivals over the arrival window.
    pub offered_qps: f64,
    /// Measured served rate: completions over the window from the first
    /// arrival to `max(last completion, last arrival)`. The window is at
    /// least the arrival window and completions are at most arrivals, so
    /// `served_qps <= offered_qps` holds by construction.
    pub served_qps: f64,
}

impl FrontendReport {
    /// Total queries shed, for any reason (brownout included).
    pub fn shed(&self) -> u64 {
        self.shed_rate_limited + self.shed_overload + self.shed_brownout
    }

    /// Fraction of offered queries shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }
}

/// Token bucket on the virtual clock.
#[derive(Debug, Clone)]
struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    fill: f64,
    last: SimInstant,
}

impl TokenBucket {
    fn new(config: TokenBucketConfig) -> Self {
        TokenBucket {
            capacity: config.capacity,
            refill_per_sec: config.refill_per_sec,
            fill: config.capacity,
            last: SimInstant::EPOCH,
        }
    }

    fn reset(&mut self) {
        self.fill = self.capacity;
        self.last = SimInstant::EPOCH;
    }

    fn refill(&mut self, now: SimInstant) {
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.fill = (self.fill + elapsed * self.refill_per_sec).min(self.capacity);
        self.last = now;
    }

    fn try_take(&mut self) -> bool {
        if self.fill >= 1.0 {
            self.fill -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The open-loop front end: admission control plus a dynamic batcher
/// feeding a [`ServingHost`].
///
/// All per-run buffers (pick list, logs, latency histogram) are owned and
/// reused, so repeated runs of equal length allocate nothing once warmed.
#[derive(Debug)]
pub struct Frontend {
    config: FrontendConfig,
    bucket: Option<TokenBucket>,
    /// Open batch: positions within the current query stream.
    picks: Vec<usize>,
    /// Arrival of the open batch's oldest query.
    oldest_arrival: SimInstant,
    /// Instant the (serially reused) host becomes free.
    server_free: SimInstant,
    hist: LatencyHistogram,
    query_log: Vec<QueryRecord>,
    batch_log: Vec<BatchRecord>,
    /// Per-run counters.
    admitted: u64,
    served: u64,
    shed_rate_limited: u64,
    shed_overload: u64,
    shed_brownout: u64,
}

impl Frontend {
    /// Builds a front end from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SdmError::InvalidConfig`] for a zero `max_batch` or a
    /// degenerate token bucket.
    pub fn new(config: FrontendConfig) -> Result<Self, SdmError> {
        config.validate()?;
        Ok(Frontend {
            config,
            bucket: config.token_bucket.map(TokenBucket::new),
            picks: Vec::new(),
            oldest_arrival: SimInstant::EPOCH,
            server_free: SimInstant::EPOCH,
            hist: LatencyHistogram::new(),
            query_log: Vec::new(),
            batch_log: Vec::new(),
            admitted: 0,
            served: 0,
            shed_rate_limited: 0,
            shed_overload: 0,
            shed_brownout: 0,
        })
    }

    /// Per-query records of the last run, parallel to its query stream.
    pub fn query_log(&self) -> &[QueryRecord] {
        &self.query_log
    }

    /// Per-batch records of the last run, in dispatch order.
    pub fn batch_log(&self) -> &[BatchRecord] {
        &self.batch_log
    }

    /// Drives the host with one open-loop pass over `queries`: query `i`
    /// arrives at the generator's `i`-th arrival instant, passes admission
    /// control or is shed, and admitted queries are served in dynamic
    /// batches via [`ServingHost::run_selected_batch`].
    ///
    /// The generator is taken `&mut` and *not* reset, so a caller can
    /// continue one arrival timeline across successive runs; pass a fresh
    /// seeded generator for independent, reproducible runs.
    ///
    /// # Errors
    ///
    /// Propagates host errors. After an error the logs describe the
    /// partial run up to the failed dispatch.
    pub fn run(
        &mut self,
        host: &mut ServingHost,
        queries: &[Query],
        arrivals: &mut ArrivalGenerator,
    ) -> Result<FrontendReport, SdmError> {
        self.begin_run();
        let mut first_arrival = SimInstant::EPOCH;
        let mut last_arrival = SimInstant::EPOCH;
        for (qi, _) in queries.iter().enumerate() {
            let t = arrivals.next_arrival();
            if qi == 0 {
                first_arrival = t;
            }
            last_arrival = t;
            // If the open batch's close instant (host free, else deadline)
            // passed before this arrival, it was dispatched back then.
            if !self.picks.is_empty() {
                let (close, reason) = self.pending_close();
                if close <= t {
                    self.dispatch(host, queries, close, reason)?;
                }
            }
            self.query_log.push(QueryRecord {
                arrival: t,
                outcome: QueryOutcome::Pending,
            });
            if let Some(bucket) = self.bucket.as_mut() {
                bucket.refill(t);
                if !bucket.try_take() {
                    self.query_log[qi].outcome = QueryOutcome::ShedRateLimited;
                    self.shed_rate_limited += 1;
                    continue;
                }
            }
            // SLO guard: the server is busy until `server_free`; a query
            // that would already wait longer than the SLO allows is shed
            // now instead of serving a guaranteed-late response. When
            // backend health degrades the threshold tightens in proportion
            // (brownout): a reduced-capacity host should queue less, and
            // the queries only the tightened guard rejects are counted
            // separately. At full health the scaled threshold is exactly
            // `max_queue_wait`, so the guard is bit-identical to before.
            let wait = self.server_free.duration_since(t);
            if wait > self.config.max_queue_wait {
                self.query_log[qi].outcome = QueryOutcome::ShedOverload;
                self.shed_overload += 1;
                continue;
            }
            let health = host.health_fraction();
            if health < 1.0 {
                let tightened = SimDuration::from_nanos(
                    (self.config.max_queue_wait.as_nanos() as f64 * health).round() as u64,
                );
                if wait > tightened {
                    self.query_log[qi].outcome = QueryOutcome::ShedBrownout;
                    self.shed_brownout += 1;
                    continue;
                }
            }
            if self.picks.is_empty() {
                self.oldest_arrival = t;
            }
            self.picks.push(qi);
            self.admitted += 1;
            if self.picks.len() >= self.config.max_batch {
                self.dispatch(host, queries, t, CloseReason::Full)?;
            } else if self.server_free <= t {
                // An idle host takes the query now.
                self.dispatch(host, queries, t, CloseReason::HostFree)?;
            }
        }
        if !self.picks.is_empty() {
            let (close, _) = self.pending_close();
            self.dispatch(host, queries, close, CloseReason::Flush)?;
        }
        Ok(self.report(first_arrival, last_arrival))
    }

    /// When and why the open batch closes if it does not fill first: the
    /// instant the host can take it, or its deadline if that comes sooner.
    fn pending_close(&self) -> (SimInstant, CloseReason) {
        let ready = self.server_free.max(self.oldest_arrival);
        let deadline = self.oldest_arrival + self.config.max_batch_delay;
        if ready <= deadline {
            (ready, CloseReason::HostFree)
        } else {
            (deadline, CloseReason::Deadline)
        }
    }

    /// Resets all per-run state; buffer capacity is retained.
    fn begin_run(&mut self) {
        self.picks.clear();
        self.query_log.clear();
        self.batch_log.clear();
        self.hist.reset();
        self.oldest_arrival = SimInstant::EPOCH;
        self.server_free = SimInstant::EPOCH;
        self.admitted = 0;
        self.served = 0;
        self.shed_rate_limited = 0;
        self.shed_overload = 0;
        self.shed_brownout = 0;
        if let Some(bucket) = self.bucket.as_mut() {
            bucket.reset();
        }
    }

    /// Hands the open batch to the host, completes its queries and
    /// advances `server_free`.
    fn dispatch(
        &mut self,
        host: &mut ServingHost,
        queries: &[Query],
        closed_at: SimInstant,
        reason: CloseReason,
    ) -> Result<(), SdmError> {
        debug_assert!(!self.picks.is_empty());
        let started_at = self.server_free.max(closed_at);
        let host_report = host.run_selected_batch(queries, &self.picks)?;
        let completed_at = started_at + host_report.virtual_makespan;
        let Self {
            picks,
            query_log,
            hist,
            ..
        } = self;
        for &qi in picks.iter() {
            let record = &mut query_log[qi];
            hist.record(completed_at.duration_since(record.arrival));
            record.outcome = QueryOutcome::Served {
                completed: completed_at,
            };
        }
        self.batch_log.push(BatchRecord {
            len: self.picks.len(),
            oldest_arrival: self.oldest_arrival,
            closed_at,
            started_at,
            completed_at,
            reason,
        });
        self.served += self.picks.len() as u64;
        self.server_free = completed_at;
        self.picks.clear();
        Ok(())
    }

    fn report(&self, first_arrival: SimInstant, last_arrival: SimInstant) -> FrontendReport {
        let offered = self.query_log.len() as u64;
        let arrival_window = last_arrival.duration_since(first_arrival);
        let offered_qps = if arrival_window.is_zero() {
            0.0
        } else {
            offered as f64 / arrival_window.as_secs_f64()
        };
        // Serving extends past the last arrival while queued batches
        // drain; taking the max keeps the served window at least as long
        // as the arrival window, so served_qps <= offered_qps always.
        let serve_end = self.server_free.max(last_arrival);
        let served_window = serve_end.duration_since(first_arrival);
        let served_qps = if served_window.is_zero() {
            0.0
        } else {
            self.served as f64 / served_window.as_secs_f64()
        };
        let batches = self.batch_log.len() as u64;
        FrontendReport {
            offered,
            admitted: self.admitted,
            served: self.served,
            shed_rate_limited: self.shed_rate_limited,
            shed_overload: self.shed_overload,
            shed_brownout: self.shed_brownout,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                self.served as f64 / batches as f64
            },
            p50_latency: self.hist.p50(),
            p99_latency: self.hist.p99(),
            mean_latency: self.hist.mean(),
            max_latency: self.hist.max(),
            offered_qps,
            served_qps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdmConfig;
    use dlrm::model_zoo;
    use workload::{ArrivalProcess, QueryGenerator, RoutingPolicy, WorkloadConfig};

    fn setup(count: usize, seed: u64) -> (ServingHost, Vec<Query>) {
        let model = model_zoo::tiny(2, 1, 400);
        let cfg = WorkloadConfig {
            item_batch: model.item_batch,
            user_population: 64,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&model.tables, cfg, seed).unwrap();
        let queries = gen.generate(count);
        let host = ServingHost::build(
            &model,
            &SdmConfig::for_tests(),
            seed,
            1,
            RoutingPolicy::UserSticky,
        )
        .unwrap();
        (host, queries)
    }

    fn frontend(max_batch: usize, delay_us: u64, wait_us: u64) -> Frontend {
        Frontend::new(FrontendConfig {
            max_batch,
            max_batch_delay: SimDuration::from_micros(delay_us),
            max_queue_wait: SimDuration::from_micros(wait_us),
            token_bucket: None,
        })
        .unwrap()
    }

    fn poisson(rate: f64, seed: u64) -> ArrivalGenerator {
        ArrivalGenerator::new(ArrivalProcess::Poisson { rate_qps: rate }, seed).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Frontend::new(FrontendConfig {
            max_batch: 0,
            max_batch_delay: SimDuration::ZERO,
            max_queue_wait: SimDuration::ZERO,
            token_bucket: None,
        })
        .is_err());
        for bucket in [
            TokenBucketConfig {
                capacity: 0.5,
                refill_per_sec: 10.0,
            },
            TokenBucketConfig {
                capacity: 8.0,
                refill_per_sec: 0.0,
            },
        ] {
            assert!(Frontend::new(FrontendConfig {
                max_batch: 8,
                max_batch_delay: SimDuration::ZERO,
                max_queue_wait: SimDuration::ZERO,
                token_bucket: Some(bucket),
            })
            .is_err());
        }
    }

    #[test]
    fn slow_arrivals_start_on_arrival_and_shed_nothing() {
        let (mut host, queries) = setup(24, 21);
        // 20 qps: mean gap 50ms, far above both the 2ms close deadline and
        // the tiny model's service time, and far below capacity.
        let delay = SimDuration::from_micros(2_000);
        let mut fe = frontend(8, 2_000, 1_000_000);
        let report = fe.run(&mut host, &queries, &mut poisson(20.0, 1)).unwrap();
        assert_eq!(report.offered, 24);
        assert_eq!(report.served, 24);
        assert_eq!(report.shed(), 0);
        assert!(report.shed_rate() == 0.0);
        // Gaps dwarf the service time, so the host is idle at nearly every
        // arrival and takes the query at once: no batch waits for the
        // timer (a query that found the host busy goes when it frees, the
        // last such batch by flush).
        assert!(report.batches >= 20, "batches {}", report.batches);
        let log = fe.batch_log();
        assert_eq!(log.len(), report.batches as usize);
        for batch in log {
            assert!(
                matches!(batch.reason, CloseReason::HostFree | CloseReason::Flush),
                "a trickle never closes on the timer: {batch:?}"
            );
            assert_eq!(batch.started_at, batch.closed_at);
            assert!(batch.closed_at <= batch.oldest_arrival + delay);
            assert!(batch.completed_at > batch.started_at);
        }
        let idle_starts = log
            .iter()
            .filter(|b| b.started_at == b.oldest_arrival)
            .count();
        assert!(idle_starts >= 20, "idle starts {idle_starts}");
        for record in fe.query_log() {
            match record.outcome {
                QueryOutcome::Served { completed } => assert!(completed > record.arrival),
                other => panic!("expected served, got {other:?}"),
            }
        }
        // The median query met an idle host: its latency is its service
        // time, with no share of the close deadline in it.
        assert!(report.p50_latency < delay, "p50 {:?}", report.p50_latency);
        assert!(report.max_latency >= report.p99_latency);
        assert!(report.served_qps <= report.offered_qps);
    }

    #[test]
    fn fast_arrivals_fill_batches_behind_the_first_query() {
        let (mut host, queries) = setup(33, 22);
        // 1M qps: ~1µs gaps. The first query meets an idle host and goes
        // alone; everything behind it queues while the host is busy and
        // hits max_batch long before the 1s deadline. A generous SLO
        // admits everything.
        let mut fe = frontend(4, 1_000_000, 10_000_000);
        let report = fe
            .run(&mut host, &queries, &mut poisson(1_000_000.0, 2))
            .unwrap();
        assert_eq!(report.served, 33);
        assert_eq!(report.batches, 9);
        let log = fe.batch_log();
        assert_eq!(log[0].len, 1);
        assert_eq!(log[0].reason, CloseReason::HostFree);
        assert_eq!(log[0].started_at, log[0].oldest_arrival);
        for batch in &log[1..] {
            assert_eq!(batch.len, 4);
            assert_eq!(batch.reason, CloseReason::Full);
        }
    }

    #[test]
    fn overload_sheds_once_queue_wait_exceeds_slo() {
        let (mut host, queries) = setup(48, 23);
        // Offered far above capacity with a zero-wait SLO: any arrival
        // while the server is busy is shed.
        let mut fe = frontend(4, 1_000_000, 0);
        let report = fe
            .run(&mut host, &queries, &mut poisson(1_000_000.0, 3))
            .unwrap();
        assert!(report.shed_overload > 0, "nothing shed: {report:?}");
        assert_eq!(report.shed_rate_limited, 0);
        assert_eq!(
            report.served + report.shed(),
            report.offered,
            "every offered query must be accounted for"
        );
        assert_eq!(report.admitted, report.served);
        let shed_logged = fe
            .query_log()
            .iter()
            .filter(|r| r.outcome == QueryOutcome::ShedOverload)
            .count() as u64;
        assert_eq!(shed_logged, report.shed_overload);
        // Shedding is load-dependent: the same stream at trivial load
        // sheds nothing.
        let (mut cold_host, _) = setup(48, 23);
        let relaxed = fe
            .run(&mut cold_host, &queries, &mut poisson(10.0, 3))
            .unwrap();
        assert_eq!(relaxed.shed(), 0);
    }

    #[test]
    fn token_bucket_rate_limits_bursts() {
        let (mut host, queries) = setup(24, 24);
        let mut fe = Frontend::new(FrontendConfig {
            max_batch: 4,
            max_batch_delay: SimDuration::from_micros(500),
            max_queue_wait: SimDuration::from_secs(10),
            token_bucket: Some(TokenBucketConfig {
                capacity: 2.0,
                refill_per_sec: 1.0,
            }),
        })
        .unwrap();
        // A ~1µs-gap burst against a 2-token bucket refilling at 1/s: the
        // first two queries take the stored tokens, the rest are shed.
        let report = fe
            .run(&mut host, &queries, &mut poisson(1_000_000.0, 4))
            .unwrap();
        assert_eq!(report.admitted, 2);
        assert_eq!(report.shed_rate_limited, 22);
        assert_eq!(report.shed_overload, 0);
        assert_eq!(report.served, 2);
    }

    #[test]
    fn degraded_backend_health_browns_out_admission() {
        let model = model_zoo::tiny(2, 1, 400);
        let cfg = WorkloadConfig {
            item_batch: model.item_batch,
            user_population: 64,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&model.tables, cfg, 26).unwrap();
        let queries = gen.generate(120);
        let build = || {
            ServingHost::build(
                &model,
                &SdmConfig::for_tests(),
                26,
                2,
                RoutingPolicy::UserSticky,
            )
            .unwrap()
        };
        // A fresh host with shard 1 degraded by two consecutive worker
        // panics: the host routes around it until its periodic recovery
        // probe, and reports the lost capacity as health below 1.
        let degraded = || {
            let mut host = build();
            for _ in 0..2 {
                host.shard_mut(1).poison();
                let all: Vec<usize> = (0..queries.len()).collect();
                assert!(host.run_selected_batch(&queries, &all).is_err());
            }
            assert!(host.health_fraction() < 1.0);
            host
        };
        // Under overload a query's wait grows one batch's service time per
        // dispatched batch, so a wait lands in the brownout band — (health
        // × SLO, SLO] — only if the band is wider than that step; and it
        // must land there before the host's periodic recovery probe, a few
        // batches in, restores full health. Size the SLO from the degraded
        // host's own service time, measured by a run that sheds nothing: at
        // half health 2.5 of its slowest batches put the band at 1.25 to
        // 2.5 of them, which the queue reaches within three batches.
        let mut sighting = frontend(4, 1_000_000, 1_000_000);
        sighting
            .run(&mut degraded(), &queries, &mut poisson(1_000_000.0, 6))
            .unwrap();
        let step = sighting
            .batch_log()
            .iter()
            .map(|b| b.completed_at.duration_since(b.started_at))
            .max()
            .unwrap();
        let mut fe = frontend(4, 1_000_000, (step * 5 / 2).as_micros());
        // A healthy backend never browns out, whatever the load.
        let healthy = fe
            .run(&mut build(), &queries, &mut poisson(1_000_000.0, 6))
            .unwrap();
        assert_eq!(healthy.shed_brownout, 0);
        assert!(healthy.shed_overload > 0, "report: {healthy:?}");
        // The same overload on the degraded host: the tightened guard sheds
        // queries the plain SLO guard would have admitted.
        let browned = fe
            .run(&mut degraded(), &queries, &mut poisson(1_000_000.0, 6))
            .unwrap();
        assert!(browned.shed_brownout > 0, "report: {browned:?}");
        assert_eq!(
            browned.served + browned.shed(),
            browned.offered,
            "brownout sheds must be accounted for"
        );
        let shed_logged = fe
            .query_log()
            .iter()
            .filter(|r| r.outcome == QueryOutcome::ShedBrownout)
            .count() as u64;
        assert_eq!(shed_logged, browned.shed_brownout);
    }

    #[test]
    fn identical_seeds_reproduce_the_report_bit_for_bit() {
        let run = || {
            let (mut host, queries) = setup(40, 25);
            let mut fe = frontend(8, 1_000, 5_000);
            fe.run(&mut host, &queries, &mut poisson(2_000.0, 5))
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.served_qps <= a.offered_qps);
    }
}
