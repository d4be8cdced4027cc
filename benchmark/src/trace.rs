//! Spans recorded from the benchmark's own files, around the calls into the
//! engine and the memory manager — the two seams that can be wrapped from
//! outside. Layers below the manager are timed by direct calls instead
//! (`layers`); spans inside the program are a later change.
//!
//! Span tree: `batch → query → engine.execute_into →
//! manager.pooled_lookup_into`. Spans stay in memory until the run ends.

use crate::drive::{Ctx, Timed};
use crate::json::Json;
use crate::spec::MODEL_SEED;
use dlrm::{
    ComputeModel, DlrmError, EmbeddingBackend, InferenceEngine, PoolingBuffers, QueryResult,
};
use embedding::TableId;
use sdm_core::{SdmMemoryManager, ServingHost};
use sdm_metrics::{SimDuration, SimInstant};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{RoutingPolicy, Scheduler};

pub const BATCH: &str = "batch";
pub const QUERY: &str = "query";
pub const ENGINE: &str = "engine.execute_into";
pub const LOOKUP: &str = "manager.pooled_lookup_into";

/// Spans written to the trace file; all of them count for the metrics.
const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Batch index for `batch` spans, query id below.
    pub id: u64,
    /// Row lookups the span covers.
    pub rows: u64,
    /// Virtual latency the call returned, in nanoseconds.
    pub virt_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink. Disabled, it takes no timestamps and stores
/// nothing, which is what the overhead measurement runs against.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that is off until a replay turns it on for a batch.
    /// `expected` spans are reserved up front, so recording does not pay
    /// for growing the sink.
    pub fn new(expected: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::with_capacity(expected),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, id: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            rows: 0,
            virt_ns: 0,
        });
        Some(index)
    }

    pub fn close(&mut self, span: Option<u32>, rows: u64, virt: SimDuration) {
        if let Some(index) = span {
            let end_ns = self.now_ns();
            let span = &mut self.spans[index as usize];
            span.end_ns = end_ns;
            span.rows = rows;
            span.virt_ns = virt.as_nanos();
        }
    }
}

/// `EmbeddingBackend` over a live manager that records a span around every
/// pooled lookup.
pub struct TracedBackend<'a> {
    manager: &'a mut SdmMemoryManager,
    recorder: &'a mut Recorder,
    parent: Option<u32>,
    query: u64,
}

impl EmbeddingBackend for TracedBackend<'_> {
    fn pooled_lookup(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<(Vec<f32>, SimDuration), DlrmError> {
        let span = self.recorder.open(LOOKUP, self.parent, self.query);
        let result = self.manager.pooled_lookup(table, indices, now);
        let virt = result.as_ref().map_or(SimDuration::ZERO, |(_, took)| *took);
        self.recorder.close(span, indices.len() as u64, virt);
        result
    }

    fn pooled_lookup_into(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        let span = self.recorder.open(LOOKUP, self.parent, self.query);
        let result = self.manager.pooled_lookup_into(table, indices, now, out);
        let virt = *result.as_ref().unwrap_or(&SimDuration::ZERO);
        self.recorder.close(span, indices.len() as u64, virt);
        result
    }

    fn backend_name(&self) -> &str {
        "traced-sdm"
    }
}

/// How one batch of a replay is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Engine seam with the recorder on.
    Traced,
    /// Engine seam with the recorder off.
    Untraced,
    /// `Shard::run_indexed_batch`, the real executor, one shard at a time.
    ShardSeam,
}

impl Lane {
    /// Batches take the three lanes in turn, so all three see the same
    /// machine load and the same evolving cache contents; two separate
    /// replays a second apart do not.
    pub fn interleaved(batch: usize) -> Lane {
        [Lane::Traced, Lane::Untraced, Lane::ShardSeam][batch % 3]
    }
}

/// Totals of one replay.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub traced: Timed,
    pub untraced: Timed,
    pub shard_seam: Timed,
    /// Virtual bottom + top MLP time over the engine-seam queries.
    pub virt_compute: SimDuration,
    /// Scores of the engine-seam queries `keep` asked for.
    pub kept_scores: Vec<(usize, Vec<f32>)>,
}

/// Replays `batches` on the live host, every batch in the lane `lane_of`
/// gives it, all on this thread. At the engine seam a harness-owned engine
/// executes each query with `execute_into` against the shard's manager
/// behind a `TracedBackend`, shards one after another, each on a
/// harness-kept virtual clock starting at `shard.now()`.
pub fn replay(
    ctx: &Ctx,
    host: &mut ServingHost,
    batches: &[Vec<usize>],
    recorder: &mut Recorder,
    lane_of: impl Fn(usize) -> Lane,
    keep: impl Fn(usize) -> bool,
) -> Result<Replay, String> {
    let engine = InferenceEngine::new(ctx.model.clone(), ComputeModel::default(), MODEL_SEED)
        .map_err(|e| format!("replay engine: {e}"))?;
    let mut scheduler = Scheduler::new(host.shards(), RoutingPolicy::UserSticky);
    let mut clocks: Vec<SimInstant> = (0..host.shards()).map(|s| host.shard(s).now()).collect();
    let (mut parts, mut merge) = (Vec::new(), Vec::new());
    let mut buffers = PoolingBuffers::new();
    let mut result = QueryResult::default();
    let mut totals = Replay::default();

    for (b, picks) in batches.iter().enumerate() {
        let lane = lane_of(b);
        recorder.enabled = lane == Lane::Traced;
        let started = Instant::now();
        let batch_span = recorder.open(BATCH, None, b as u64);
        scheduler.partition_picks_into(&ctx.queries, picks, &mut parts, &mut merge);
        for (s, part) in parts.iter().enumerate() {
            if lane == Lane::ShardSeam {
                if !part.is_empty() {
                    host.shard_mut(s)
                        .run_indexed_batch(&ctx.queries, part)
                        .map_err(|e| format!("shard replay: {e}"))?;
                }
                continue;
            }
            for &pos in part {
                let query = &ctx.queries[pos];
                let query_span = recorder.open(QUERY, batch_span, query.id);
                let engine_span = recorder.open(ENGINE, query_span, query.id);
                let mut backend = TracedBackend {
                    manager: host.shard_mut(s).manager_mut(),
                    recorder: &mut *recorder,
                    parent: engine_span,
                    query: query.id,
                };
                engine
                    .execute_into(query, &mut backend, clocks[s], &mut buffers, &mut result)
                    .map_err(|e| format!("replay of query {}: {e}", query.id))?;
                let latency = result.latency;
                recorder.close(engine_span, query.total_lookups() as u64, latency.total);
                recorder.close(query_span, query.total_lookups() as u64, latency.total);
                clocks[s] += latency.total;
                totals.virt_compute += latency.bottom_mlp + latency.top_mlp;
                if keep(pos) {
                    totals.kept_scores.push((pos, result.scores.clone()));
                }
            }
        }
        recorder.close(batch_span, picks.len() as u64, SimDuration::ZERO);
        let lane_totals = match lane {
            Lane::Traced => &mut totals.traced,
            Lane::Untraced => &mut totals.untraced,
            Lane::ShardSeam => &mut totals.shard_seam,
        };
        lane_totals.add(picks.len() as u64, started);
    }
    recorder.enabled = false;
    Ok(totals)
}

/// Per span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub rows: u64,
}

/// Totals per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.spans += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
        entry.rows += span.rows;
    }
    totals
}

/// The trace file: per-name totals over every span, and the first spans
/// themselves as `[name, start_ns, end_ns, parent, id, rows, virt_ns]`.
pub fn spans_to_json(workload: &str, spans: &[Span]) -> Json {
    let written = &spans[..spans.len().min(MAX_SPANS_WRITTEN)];
    let totals = totals_by_name(spans).into_iter().map(|(name, t)| {
        (
            name,
            Json::obj([
                ("spans", Json::Num(t.spans as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
                ("rows", Json::Num(t.rows as f64)),
            ]),
        )
    });
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "clock",
            Json::str("host nanoseconds since the replay began"),
        ),
        ("recorded", Json::Num(spans.len() as f64)),
        ("written", Json::Num(written.len() as f64)),
        ("totals", Json::obj(totals)),
        (
            "columns",
            Json::Arr(
                [
                    "name", "start_ns", "end_ns", "parent", "id", "rows", "virt_ns",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                written
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::str(s.name),
                            Json::Num(s.start_ns as f64),
                            Json::Num(s.end_ns as f64),
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            Json::Num(s.id as f64),
                            Json::Num(s.rows as f64),
                            Json::Num(s.virt_ns as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            rows: 1,
            virt_ns: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(BATCH, 0, 1_000, None),
            span(QUERY, 10, 600, Some(0)),
            span(ENGINE, 20, 590, Some(1)),
            span(LOOKUP, 30, 130, Some(2)),
            span(LOOKUP, 200, 450, Some(2)),
            span(QUERY, 610, 990, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 220, 100, 250, 380]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1_000);

        let totals = totals_by_name(&spans);
        assert_eq!(
            totals[LOOKUP],
            NameTotals {
                spans: 2,
                total_ns: 350,
                self_ns: 350,
                rows: 2
            }
        );
        assert_eq!(totals[QUERY].total_ns, 590 + 380);
        assert_eq!(totals[QUERY].self_ns, 20 + 380);
        assert_eq!(totals[ENGINE].self_ns, 220);
    }

    #[test]
    fn children_longer_than_their_parent_do_not_underflow() {
        // Timestamps are taken at different instants; a child may read a
        // nanosecond past its parent.
        let spans = [span(ENGINE, 10, 20, None), span(LOOKUP, 9, 22, Some(0))];
        assert_eq!(self_times_ns(&spans), [0, 13]);
    }

    #[test]
    fn lanes_take_turns() {
        let lanes: Vec<Lane> = (0..6).map(Lane::interleaved).collect();
        assert_eq!(
            lanes,
            [
                Lane::Traced,
                Lane::Untraced,
                Lane::ShardSeam,
                Lane::Traced,
                Lane::Untraced,
                Lane::ShardSeam
            ]
        );
        let lane = Timed { ops: 4, ns: 1_000 };
        assert_eq!(lane.per_op(), 250.0);
        assert_eq!(Timed::default().per_op(), 0.0);
    }

    #[test]
    fn a_disabled_recorder_stores_nothing() {
        let mut off = Recorder::new(0);
        let span = off.open(BATCH, None, 1);
        off.close(span, 3, SimDuration::from_nanos(5));
        assert!(span.is_none() && off.spans.is_empty());

        let mut on = Recorder::new(2);
        on.enabled = true;
        let outer = on.open(BATCH, None, 7);
        let inner = on.open(QUERY, outer, 8);
        on.close(inner, 3, SimDuration::from_nanos(5));
        on.close(outer, 4, SimDuration::ZERO);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert_eq!((on.spans[1].rows, on.spans[1].virt_ns), (3, 5));
        assert!(on.spans[0].end_ns >= on.spans[1].end_ns);
        let file = spans_to_json("w", &on.spans);
        assert_eq!(file.get("recorded").and_then(Json::as_f64), Some(2.0));
        assert_eq!(file.get("spans").map(|s| s.items().len()), Some(2));
    }
}
