//! Laws of one query's embedding phase on the virtual clock.
//!
//! A query's embedding operators run as chains (`dlrm::ExecutionMode`), one
//! operator per table on each side: operator *k* of a chain starts when
//! operator *k − 1* finished plus the per-operator overhead, and its
//! segments — one per request of that table — run back to back. The
//! device and the ledger must agree on that:
//!
//! 1. **No self-queueing.** An operator's reads never wait behind reads of
//!    its own query that the chain has not reached yet: with every
//!    operator's misses under `max_outstanding_per_table`, no read is
//!    issued at a device depth greater than the largest single-operator
//!    miss count, and no read waits for admission at all.
//! 2. **Chain bounds.** A query's embedding phase is at least its last
//!    completion minus its start, and at most the serial sum of its
//!    requests' *isolated* latencies plus one per-operator overhead per
//!    distinct table. The isolated latency of a request is what it takes on
//!    a twin stack with the same history and idle devices.
//! 3. **Every lookup ends inside its query.** After a query the manager's
//!    clock — the latest end of any lookup — is no later than the query's
//!    start plus its embedding phase (`latency.user_embeddings` on a model
//!    with only user tables). `Shard`'s clock sync relies on this.
//! 4. **Chain time.** Each side's chain time in the latency breakdown is
//!    exactly the sum of the times its lookups took plus
//!    `operator_overhead` times the number of distinct tables that side
//!    requested: the overhead is paid once per table operator, not once
//!    per request.
//! 5. **Back to back.** Within a chain, each lookup is handed the instant
//!    the previous one finished, plus `operator_overhead` where the table
//!    (and so the operator) changes; a chain's first lookup is handed the
//!    chain's start.
//!
//! Each law is checked per query on one cold `Exact` stream, SM-only with a
//! row cache, in both execution modes: a user-tables-only model, whose one
//! chain runs under `InterOpParallel`, and a user + item model under
//! `Sequential`, whose item chain starts where the user chain ended.

pub mod common;

use common::single_stream;
use dlrm::{
    model_zoo, ComputeModel, DlrmError, EmbeddingBackend, ExecutionMode, InferenceEngine,
    ModelConfig, PoolingBuffers, QueryResult,
};
use embedding::TableId;
use sdm_core::{SdmConfig, SdmMemoryManager};
use sdm_metrics::{SimDuration, SimInstant};
use workload::{EmbeddingRequest, QueryGenerator, WorkloadConfig};

const SEED: u64 = 17;
const QUERIES: usize = 24;

/// One lookup as the engine handed it to the manager.
struct Op {
    table: TableId,
    handed: SimInstant,
    took: SimDuration,
    misses: u64,
}

/// Passes every lookup through to a shard's manager, recording it.
struct Recorder<'a> {
    manager: &'a mut SdmMemoryManager,
    ops: Vec<Op>,
}

impl Recorder<'_> {
    fn record(&mut self, table: TableId, handed: SimInstant, took: SimDuration, reads_before: u64) {
        let misses = self.manager.stats().sm_reads - reads_before;
        self.ops.push(Op {
            table,
            handed,
            took,
            misses,
        });
    }
}

impl EmbeddingBackend for Recorder<'_> {
    fn pooled_lookup(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<(Vec<f32>, SimDuration), DlrmError> {
        let before = self.manager.stats().sm_reads;
        let (pooled, took) = self.manager.pooled_lookup(table, indices, now)?;
        self.record(table, now, took, before);
        Ok((pooled, took))
    }

    fn pooled_lookup_into(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        let before = self.manager.stats().sm_reads;
        let took = self.manager.pooled_lookup_into(table, indices, now, out)?;
        self.record(table, now, took, before);
        Ok(took)
    }
}

/// How many distinct tables `requests` name: the side's operator count.
fn distinct_tables(requests: &[EmbeddingRequest]) -> u64 {
    let mut tables: Vec<TableId> = requests.iter().map(|r| r.table).collect();
    tables.sort_unstable();
    tables.dedup();
    tables.len() as u64
}

fn total_took(ops: &[Op]) -> SimDuration {
    ops.iter().fold(SimDuration::ZERO, |sum, op| sum + op.took)
}

fn check_laws(name: &str, model: &ModelConfig, mode: ExecutionMode) {
    let config = SdmConfig::for_tests();
    let workload = WorkloadConfig {
        item_batch: model.item_batch,
        ..WorkloadConfig::default()
    };
    let queries = QueryGenerator::new(&model.tables, workload, SEED)
        .unwrap()
        .generate(QUERIES);
    let mut stream = single_stream(model, &config, SEED);
    let mut twin = single_stream(model, &config, SEED);
    let (shard, twin) = (stream.shard_mut(0), twin.shard_mut(0));
    let mut engine = InferenceEngine::new(model.clone(), ComputeModel::default(), SEED).unwrap();
    engine.set_mode(mode);
    let overhead = engine.compute().operator_overhead;
    let (mut buffers, mut result) = (PoolingBuffers::new(), QueryResult::default());

    let mut start = SimInstant::EPOCH;
    let mut twin_at = SimInstant::EPOCH;
    let mut max_misses = 0u64;
    for (k, query) in queries.iter().enumerate() {
        let tag = format!("{name}, query {k}");
        let mut recorder = Recorder {
            manager: shard.manager_mut(),
            ops: Vec::new(),
        };
        engine
            .execute_into(query, &mut recorder, start, &mut buffers, &mut result)
            .unwrap();
        let ops = recorder.ops;
        let latency = result.latency;
        let embedding = latency.total - latency.bottom_mlp - latency.top_mlp;
        max_misses = max_misses.max(ops.iter().map(|op| op.misses).max().unwrap_or(0));

        // Law 3: the manager's clock ends inside the embedding phase.
        assert!(
            shard.manager().now() - start <= embedding,
            "{tag}: a lookup ended {} after the start, past the embedding phase {embedding}",
            shard.manager().now() - start
        );

        // Law 2, lower bound: the phase covers its last completion.
        let last = ops.iter().map(|op| op.handed + op.took).max().unwrap();
        assert!(
            last - start <= embedding,
            "{tag}: last completion {} after the start, embedding phase {embedding}",
            last - start
        );

        // Law 4: each chain is its lookups' time plus one overhead per
        // table operator. The recorder saw the user side's lookups first.
        let (user_tables, item_tables) = (
            distinct_tables(&query.user_requests),
            distinct_tables(&query.item_requests),
        );
        let (user_ops, item_ops) = ops.split_at(query.user_requests.len());
        assert_eq!(
            latency.user_embeddings,
            total_took(user_ops) + overhead * user_tables,
            "{tag}: user chain"
        );
        assert_eq!(
            latency.item_embeddings,
            total_took(item_ops) + overhead * item_tables,
            "{tag}: item chain"
        );

        // Law 5: each chain's lookups run back to back, one overhead at
        // each operator boundary.
        let item_start = match mode {
            ExecutionMode::Sequential => start + latency.user_embeddings,
            ExecutionMode::InterOpParallel => start,
        };
        for (chain, from) in [(user_ops, start), (item_ops, item_start)] {
            let mut at = from;
            for (k, op) in chain.iter().enumerate() {
                if k > 0 && chain[k - 1].table != op.table {
                    at += overhead;
                }
                assert_eq!(op.handed, at, "{tag}: lookup {k} (table {})", op.table);
                at = op.handed + op.took;
            }
        }

        // Law 2, upper bound: no longer than the serial sum of isolated
        // requests — the same requests, in the same order, on a twin with
        // the same history whose devices are idle at every request — plus
        // one overhead per table operator.
        let mut serial = overhead * (user_tables + item_tables);
        for req in query.user_requests.iter().chain(&query.item_requests) {
            let (_, isolated) = twin
                .manager_mut()
                .pooled_lookup(req.table, &req.indices, twin_at)
                .unwrap();
            serial += isolated;
            twin_at += isolated + SimDuration::from_millis(1);
        }
        assert!(
            embedding <= serial,
            "{tag}: embedding phase {embedding} exceeds the serial sum {serial}"
        );

        // `Exact`: the next query starts where this one finished.
        start += latency.total;
    }

    // Law 1, over the whole cold stream.
    let limit = config.io.max_outstanding_per_table as u64;
    assert!(
        0 < max_misses && max_misses < limit,
        "{name}: the law needs every operator's misses in (0, {limit}), max {max_misses}"
    );
    let io = shard.manager().io_engine().stats();
    assert!(
        io.queue_depth.max_depth as u64 <= max_misses,
        "{name}: a read was issued at device depth {} > the largest operator's {max_misses} misses",
        io.queue_depth.max_depth
    );
    assert_eq!(
        io.queue_delay,
        SimDuration::ZERO,
        "{name}: reads waited for admission behind their own query"
    );
}

#[test]
fn one_user_chain_obeys_the_clock_laws() {
    // 12 tables × pooling factor 12: every operator's misses fit a table's
    // queue, but all of a query's at once would overflow a device's.
    let model = model_zoo::tiny(12, 0, 4_000);
    check_laws("user chain", &model, ExecutionMode::InterOpParallel);
}

#[test]
fn sequential_user_and_item_chains_obey_the_clock_laws() {
    let model = model_zoo::tiny(6, 3, 4_000);
    check_laws("sequential chains", &model, ExecutionMode::Sequential);
}
