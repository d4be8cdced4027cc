//! Differential test of the engine's admission control — the per-device,
//! per-table and **tables-in-flight** throttles — against a naive reference
//! that recomputes every decision from the full list of in-flight
//! completions.
//!
//! The engine answers "may this IO issue now?" from sorted per-queue lists,
//! a tag → slot map and an incrementally maintained count of tables with
//! tracked completions. The reference keeps two flat, unordered lists (one
//! of device completions, one of `(table, completion)` pairs) and scans
//! them: sort to find the k-th completion, walk every pair to count the
//! tables still active. Both drive identically seeded devices with the same
//! fault plan through the same retry / deadline / hedging policy, so any
//! divergence in an issue instant changes the device's answer and shows up
//! in `issued_at`, `completed_at` or the queue-depth statistics.

use io_engine::{
    EngineConfig, FailureKind, IoEngine, IoError, IoRequest, IoStats, ResilienceStats, RetryConfig,
};
use scm_device::{checksum64, DeviceArray, DeviceId, FaultPlan, ReadCommand, TechnologyProfile};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use std::collections::HashMap;

/// xorshift64*: a seeded stream for the submit sequences.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const DEVICES: usize = 2;

fn devices(fault_seed: u64) -> DeviceArray {
    let mut array =
        DeviceArray::homogeneous(TechnologyProfile::nand_flash(), Bytes::from_mib(4), DEVICES)
            .unwrap();
    for d in 0..DEVICES {
        array.device_mut(DeviceId(d)).unwrap().set_fault_plan(Some(
            FaultPlan::new(fault_seed + d as u64)
                .with_transient_errors(0.08)
                .with_corruption(0.05)
                .with_stuck(0.03, SimDuration::from_millis(4)),
        ));
    }
    array
}

/// One device command's fate, as the reference sees it.
enum Attempt {
    Completed {
        issued_at: SimInstant,
        completed_at: SimInstant,
    },
    Failed {
        kind: FailureKind,
        retry_at: SimInstant,
    },
}

/// The obviously-right engine: flat lists, full scans, no incremental state.
struct Reference {
    array: DeviceArray,
    config: EngineConfig,
    /// `(device, completion instant)` of every tracked device command.
    device_inflight: Vec<(usize, SimInstant)>,
    /// `(table, completion instant)` of every tracked device command.
    table_inflight: Vec<(u32, SimInstant)>,
    depth: IoStats,
    resilience: ResilienceStats,
    /// Attempts the tables-in-flight limit alone pushed later.
    held_by_table_limit: u64,
}

/// Earliest instant (≥ `now`) at which fewer than `cap` of `active` (all
/// strictly after `now`) are still in flight.
fn admission_time(mut active: Vec<SimInstant>, now: SimInstant, cap: usize) -> SimInstant {
    if active.len() < cap {
        return now;
    }
    active.sort();
    active[active.len() - cap]
}

impl Reference {
    fn issue_attempt(&mut self, request: &IoRequest, earliest: SimInstant) -> Attempt {
        let device = request.device.0;
        let table = request.table.unwrap();

        // A queue forgets completions at or before the instant it is asked
        // about — the device's own queue and the submitting table's, never
        // another table's.
        self.device_inflight
            .retain(|&(d, at)| d != device || at > earliest);
        self.table_inflight
            .retain(|&(t, at)| t != table || at > earliest);

        let on_device: Vec<SimInstant> = self
            .device_inflight
            .iter()
            .filter(|&&(d, _)| d == device)
            .map(|&(_, at)| at)
            .collect();
        let on_table: Vec<SimInstant> = self
            .table_inflight
            .iter()
            .filter(|&&(t, _)| t == table)
            .map(|&(_, at)| at)
            .collect();
        let mut issue_at = admission_time(
            on_device.clone(),
            earliest,
            self.config.max_outstanding_per_device,
        )
        .max(admission_time(
            on_table,
            earliest,
            self.config.max_outstanding_per_table,
        ));

        // Tables in flight: every *other* table with a completion still
        // ahead of `earliest` is active and drains at its last completion.
        let mut drains: HashMap<u32, SimInstant> = HashMap::new();
        for &(t, at) in &self.table_inflight {
            if t != table && at > earliest {
                let drain = drains.entry(t).or_insert(at);
                *drain = (*drain).max(at);
            }
        }
        if drains.len() >= self.config.max_tables_in_flight {
            let earliest_drain = *drains.values().min().unwrap();
            self.held_by_table_limit += u64::from(earliest_drain > issue_at);
            issue_at = issue_at.max(earliest_drain);
        }

        let queue_depth = on_device.iter().filter(|at| **at > issue_at).count() + 1;
        self.depth.record(queue_depth);
        let outcome =
            match self
                .array
                .read_at(request.device, &request.command, queue_depth, issue_at)
            {
                Ok(outcome) => outcome,
                Err(e) => {
                    assert!(e.is_transient(), "unexpected hard error: {e}");
                    return Attempt::Failed {
                        kind: FailureKind::Transient,
                        retry_at: issue_at,
                    };
                }
            };
        let completed_at = issue_at + outcome.device_latency;
        self.device_inflight.push((device, completed_at));
        self.table_inflight.push((table, completed_at));

        let deadline = self.config.retry.io_deadline;
        if !deadline.is_zero() && outcome.device_latency > deadline {
            return Attempt::Failed {
                kind: FailureKind::DeadlineExceeded,
                retry_at: issue_at + deadline,
            };
        }
        if checksum64(&outcome.data) != outcome.checksum {
            return Attempt::Failed {
                kind: FailureKind::ChecksumMismatch,
                retry_at: completed_at,
            };
        }
        Attempt::Completed {
            issued_at: issue_at,
            completed_at,
        }
    }

    fn note_failure(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::Transient => self.resilience.transient_errors += 1,
            FailureKind::ChecksumMismatch => self.resilience.checksum_failures += 1,
            FailureKind::DeadlineExceeded => self.resilience.deadline_timeouts += 1,
            other => panic!("failure kind {other:?} is not modelled by the reference"),
        }
    }

    /// `(issued_at, completed_at)` of the winning attempt, or the
    /// `(attempts, last failure)` of an exhausted read.
    fn submit(
        &mut self,
        request: &IoRequest,
        now: SimInstant,
    ) -> Result<(SimInstant, SimInstant), (u32, FailureKind)> {
        let retry = self.config.retry;
        let mut attempt = 0u32;
        let mut earliest = now;
        loop {
            attempt += 1;
            match self.issue_attempt(request, earliest) {
                Attempt::Failed { kind, retry_at } => {
                    self.note_failure(kind);
                    if attempt >= retry.max_attempts {
                        self.resilience.exhausted += 1;
                        return Err((attempt, kind));
                    }
                    self.resilience.retries += 1;
                    earliest = retry_at + retry.backoff(attempt);
                }
                Attempt::Completed {
                    issued_at,
                    completed_at,
                } => {
                    let mut best = (issued_at, completed_at);
                    if let Some(delay) = retry.hedge_after {
                        if completed_at.duration_since(earliest) > delay {
                            self.resilience.hedges += 1;
                            match self.issue_attempt(request, earliest + delay) {
                                Attempt::Completed {
                                    issued_at,
                                    completed_at,
                                } => {
                                    if completed_at < best.1 {
                                        self.resilience.hedge_wins += 1;
                                        best = (issued_at, completed_at);
                                    }
                                }
                                Attempt::Failed { kind, .. } => self.note_failure(kind),
                            }
                        }
                    }
                    return Ok(best);
                }
            }
        }
    }
}

/// Opaque, deliberately sparse table tags: nothing in the engine may be
/// sized by their magnitude.
const TABLES: [u32; 6] = [0, 7, 4096, 65_537, 1 << 30, u32::MAX];

/// Runs one seeded sequence; returns `(reads served, attempts the
/// tables-in-flight limit held back)`.
fn run_sequence(seed: u64) -> (u64, u64) {
    let mut stream = Stream(0x9e37_79b9_7f4a_7c15 ^ (seed + 1));
    let config = EngineConfig {
        max_outstanding_per_device: 2 + stream.below(5) as usize,
        max_outstanding_per_table: 1 + stream.below(3) as usize,
        max_tables_in_flight: 1 + stream.below(3) as usize,
        retry: RetryConfig {
            max_attempts: 3,
            io_deadline: SimDuration::from_millis(2),
            hedge_after: Some(SimDuration::from_micros(400)),
        },
    };
    let mut engine = IoEngine::new(devices(seed * 31), config.clone());
    let mut reference = Reference {
        array: devices(seed * 31),
        config,
        device_inflight: Vec::new(),
        table_inflight: Vec::new(),
        depth: IoStats::default(),
        resilience: ResilienceStats::default(),
        held_by_table_limit: 0,
    };

    let mut now = SimInstant::EPOCH;
    let mut expected: HashMap<u64, (SimInstant, SimInstant)> = HashMap::new();
    let mut served = 0u64;
    for id in 0..400u64 {
        // Mostly bursts at one instant, sometimes a step, rarely a long gap
        // that lets every queue drain.
        now += match stream.below(10) {
            0..=5 => SimDuration::ZERO,
            6..=8 => SimDuration::from_micros(stream.below(60)),
            _ => SimDuration::from_millis(stream.below(3)),
        };
        let table = TABLES[stream.below(TABLES.len() as u64) as usize];
        let request = IoRequest::new(
            DeviceId(stream.below(DEVICES as u64) as usize),
            ReadCommand::sgl(stream.below(900) * 4096, 64 + stream.below(3) as u32 * 33),
        )
        .with_table(table)
        .with_user_data(id);

        let want = reference.submit(&request, now);
        let got = engine.submit(request, now);
        match (want, got) {
            (Ok(times), Ok(())) => {
                expected.insert(id, times);
            }
            (
                Err((attempts, last)),
                Err(IoError::RetriesExhausted {
                    attempts: a,
                    last: l,
                }),
            ) => {
                assert_eq!((attempts, last), (a, l), "seed {seed} id {id}");
            }
            (want, got) => panic!("seed {seed} id {id}: reference {want:?}, engine {got:?}"),
        }

        if stream.below(8) == 0 || id == 399 {
            engine
                .drain_each(now, |c| {
                    let (issued_at, completed_at) = expected
                        .remove(&c.user_data)
                        .expect("completion for an unknown submission");
                    assert_eq!(
                        (c.issued_at, c.completed_at),
                        (issued_at, completed_at),
                        "seed {seed} id {}",
                        c.user_data
                    );
                    served += 1;
                })
                .unwrap();
            assert!(expected.is_empty(), "seed {seed}: completions went missing");
        }
    }

    let depth = &engine.stats().queue_depth;
    assert_eq!(
        (depth.depth_samples, depth.depth_sum, depth.max_depth),
        (
            reference.depth.depth_samples,
            reference.depth.depth_sum,
            reference.depth.max_depth
        ),
        "seed {seed}: queue-depth statistics"
    );
    assert_eq!(
        engine.stats().resilience,
        reference.resilience,
        "seed {seed}: resilience counters"
    );
    (served, reference.held_by_table_limit)
}

#[test]
fn admission_matches_a_naive_recomputation_from_all_inflight_completions() {
    let mut served = 0;
    let mut held = 0;
    for seed in 0..24 {
        let (s, h) = run_sequence(seed);
        served += s;
        held += h;
    }
    // The limit under test must actually bind, or the comparison is vacuous.
    assert!(served > 5_000, "only {served} reads served");
    assert!(
        held * 10 > served,
        "the tables-in-flight limit held back only {held} attempts of {served} reads"
    );
}
