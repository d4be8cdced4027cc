//! Query execution: bottom MLP, embedding operators, interaction, top MLP.
//!
//! # One operator per table
//!
//! A query's embedding work is issued the way table-batched embedding
//! stacks issue it: **one pooled operator per (side, table)**, in the
//! SparseLengthsSum shape. The user side is a batch of one (§2–§3), so each
//! user table's operator has one segment — or one per repeat when the user
//! side is batched too (inference-eval, Table 2). The item side ranks a
//! batch of items, so each item table's operator pools every ranked item's
//! request as one segment, in request order: one
//! [`EmbeddingBackend::pooled_lookup_into`] per segment, into its own range
//! of the arena, handed the instant the previous segment finished.
//! Operators run in the order their table is first requested, and each pays
//! `ComputeModel::operator_overhead` once: a scaled-M1 query (16 ranked
//! items over 30 item tables, plus 61 user tables) dispatches 91 operators,
//! not 541.
//!
//! Batching changes only which vectors share an operator, never a value:
//! every request still pools into its own range of the arena, and
//! [`InferenceEngine`]'s interaction folds them per item in request order
//! with the salts a per-request operator had.

use crate::backend::EmbeddingBackend;
use crate::config::{ComputeModel, ModelConfig};
use crate::error::DlrmError;
use crate::mlp::Mlp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdm_metrics::{IntMap, SimDuration, SimInstant};
use workload::{EmbeddingRequest, Query};

/// Whether embedding operators run one after another or overlap.
///
/// Paper §A.2: async IO alone is not enough — the embedding *operators*
/// themselves must execute asynchronously so user-side SM reads overlap with
/// item-side work. Inter-op parallelism cut M1's latency (and therefore
/// raised QPS at fixed latency) by about 20 %.
///
/// Both modes run a query's operators — one per table on each side (see the
/// module docs) — as two **chains**, user side and item side. Within a
/// chain operators run back to back: operator *k* is handed
/// `chain_start + Σ_{j<k}(took_j + operator_overhead)`, the instant its
/// predecessor finished, so its SM reads never queue behind reads the chain
/// has not reached yet; within an operator, segment *s* is handed the
/// operator's instant plus its earlier segments' time. A chain's time is
/// the sum of its operators' times plus one `operator_overhead` per
/// distinct table on that side. The mode decides where the item chain
/// starts and how the two chains combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// The item chain starts where the user chain ends (no overlap); the
    /// embedding phase is the sum of the two chains.
    Sequential,
    /// Both chains start at the query's start and overlap; the embedding
    /// phase takes the maximum of the two (Equation 3's budget).
    #[default]
    InterOpParallel,
}

/// Per-phase latency of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Bottom MLP over the continuous features.
    pub bottom_mlp: SimDuration,
    /// The user-side chain: every user-side operator's time plus the
    /// per-operator overhead, one operator per user table, back to back
    /// (see [`ExecutionMode`]).
    pub user_embeddings: SimDuration,
    /// The item-side chain, summed the same way.
    pub item_embeddings: SimDuration,
    /// Top MLP over the interactions (whole item batch).
    pub top_mlp: SimDuration,
    /// End-to-end query latency under the chosen execution mode.
    pub total: SimDuration,
}

/// The outcome of executing one query.
///
/// Reusable: [`InferenceEngine::execute_into`] clears and refills an
/// existing result, so the serving loop can recycle one `QueryResult`
/// (and its `scores` capacity) across queries instead of allocating.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// One ranking score per item in the batch.
    pub scores: Vec<f32>,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
}

/// One request's pooled vector — a segment of its table's operator —
/// recorded as a range into the flat pooled-vector arena of
/// [`PoolingBuffers`].
#[derive(Debug, Clone, Copy, Default)]
struct PooledVector {
    table: u32,
    start: usize,
    dim: usize,
}

/// A model table as the engine sees it: its position in the model (which
/// indexes [`ChainPlan::op_of_table`]) and its embedding dimension.
#[derive(Debug, Clone, Copy)]
struct TableInfo {
    slot: usize,
    dim: usize,
}

/// One table-batched operator of the chain being run: its segments are the
/// requests at `order[first..first + count]`.
#[derive(Debug, Clone, Copy)]
struct TableOp {
    table: u32,
    dim: usize,
    first: usize,
    count: usize,
}

/// Reused scratch that turns one side's requests into its table-batched
/// operators: a counting sort of request positions by operator.
#[derive(Debug, Default)]
struct ChainPlan {
    /// The side's operators, in the order their table is first requested.
    ops: Vec<TableOp>,
    /// Per model table (by [`TableInfo::slot`]): its operator's index in
    /// `ops`, or [`ChainPlan::NO_OP`].
    op_of_table: Vec<usize>,
    /// Per request: its operator's index in `ops`.
    request_op: Vec<usize>,
    /// Request positions grouped by operator, in request order within one.
    order: Vec<usize>,
}

impl ChainPlan {
    const NO_OP: usize = usize::MAX;
}

/// Reusable scratch for query execution — the heart of the zero-copy hot
/// path.
///
/// Owned flat buffers only — no shared handles — so the scratch is `Send`
/// and each shard of a multi-stream serving host can carry its own across
/// worker threads (statically asserted by `engine_and_scratch_are_send`).
///
/// The seed `execute` allocated per query: the dense-feature vector, one
/// `Vec<f32>` per MLP layer, one pooled `Vec<f32>` per embedding request
/// (plus a `Vec<Vec<…>>` to group them per item), and the interaction
/// buffer. `PoolingBuffers` replaces all of that with flat vectors whose
/// capacity is reused across queries: pooled vectors live back to back in
/// one `f32` arena addressed by `(start, dim)` ranges, each operator's
/// segments contiguous, the table-batched operators are planned in reused
/// lists, and the MLPs ping-pong between two scratch buffers. After the
/// first few queries the steady state performs zero heap allocations per
/// query.
///
/// The interaction is built in two halves that mirror the paper's broadcast
/// structure (§2–§3: the user side of a query has a batch of one): `prefix`
/// holds the bottom-MLP output and every user-side pooled vector folded
/// once per query, and `interaction` starts each ranked item from a copy of
/// it before folding that item's own operators.
#[derive(Debug, Default)]
pub struct PoolingBuffers {
    /// Dense (continuous) feature staging, resized to the bottom MLP input.
    dense: Vec<f32>,
    /// Bottom-MLP output, broadcast into every item's interaction.
    bottom_out: Vec<f32>,
    /// MLP working buffer (result side).
    mlp_out: Vec<f32>,
    /// MLP working buffer (ping-pong side).
    mlp_scratch: Vec<f32>,
    /// Flat arena of pooled embedding vectors for the current query.
    pooled: Vec<f32>,
    /// The table-batched operators of the side being run.
    plan: ChainPlan,
    /// User-side pooled vectors: ranges into `pooled`, in request order.
    user_vectors: Vec<PooledVector>,
    /// Item-side pooled vectors, in request order (each ranked item's
    /// requests are contiguous).
    item_vectors: Vec<PooledVector>,
    /// The broadcast half of the interaction (bottom MLP + user side),
    /// folded once per query.
    prefix: Vec<f32>,
    /// Interaction buffer, rebuilt per ranked item from `prefix`.
    interaction: Vec<f32>,
}

impl PoolingBuffers {
    /// Creates empty buffers (capacity grows on first use).
    pub fn new() -> Self {
        PoolingBuffers::default()
    }

    fn reset(&mut self) {
        self.pooled.clear();
    }
}

/// Executes DLRM queries against an [`EmbeddingBackend`].
///
/// The engine owns its model, MLP weights and a plain RNG seed — nothing
/// reference-counted or interior-mutable — so it is `Send` and can be moved
/// onto (or borrowed by) a shard worker thread. Multi-stream serving
/// depends on this bound; `engine_and_scratch_are_send` pins it down so a
/// future field can't silently regress it.
#[derive(Debug)]
pub struct InferenceEngine {
    model: ModelConfig,
    bottom: Mlp,
    top: Mlp,
    compute: ComputeModel,
    mode: ExecutionMode,
    dense_rng_seed: u64,
    /// Position and embedding dimension per table, so operators can be
    /// grouped and output ranges sized without consulting the backend.
    /// Keyed by the model's own table ids; an unknown id from a query only
    /// misses.
    tables: IntMap<u32, TableInfo>,
    /// Item-side table count, cached so the hot path never materialises the
    /// `Vec<&TableDescriptor>` that `ModelConfig::item_tables` collects.
    item_table_count: usize,
}

impl InferenceEngine {
    /// Builds the engine (materialising its MLPs) for a model.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidModel`] when the model fails validation.
    pub fn new(model: ModelConfig, compute: ComputeModel, seed: u64) -> Result<Self, DlrmError> {
        model.validate()?;
        let bottom = Mlp::generate(&model.bottom_mlp, seed ^ 0xb077);
        let top = Mlp::generate(&model.top_mlp, seed ^ 0x70b0);
        let tables = model
            .tables
            .iter()
            .enumerate()
            .map(|(slot, t)| (t.id, TableInfo { slot, dim: t.dim }))
            .collect();
        let item_table_count = model.item_tables().len();
        Ok(InferenceEngine {
            model,
            bottom,
            top,
            compute,
            mode: ExecutionMode::default(),
            dense_rng_seed: seed,
            tables,
            item_table_count,
        })
    }

    /// The model being served.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Switches between sequential and inter-op-parallel execution.
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        self.mode = mode;
    }

    /// The compute model used to convert FLOPs to time.
    pub fn compute(&self) -> &ComputeModel {
        &self.compute
    }

    /// Deterministic continuous-feature vector for a query, written into a
    /// reusable buffer.
    fn dense_features_into(&self, query: &Query, out: &mut Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(self.dense_rng_seed ^ query.user_id);
        out.clear();
        for _ in 0..self.model.dense_features {
            out.push(rng.gen_range(-1.0f32..1.0f32));
        }
    }

    /// Folds a pooled embedding vector into the fixed-width interaction
    /// buffer. The paper's models concatenate; since this reproduction cares
    /// about systems behaviour rather than model accuracy, folding keeps the
    /// top-MLP input width independent of the (configurable) table count.
    ///
    /// Element `i` lands in slot `(i + salt * 13) % buffer.len()`. The start
    /// slot is computed once and the vector is added as contiguous segments,
    /// wrapping as often as its length needs — elements still arrive in
    /// increasing-`i` order, so a slot hit by several wraps sums them in the
    /// same order as the per-element form.
    fn fold_into(buffer: &mut [f32], vector: &[f32], salt: usize) {
        if buffer.is_empty() {
            return;
        }
        let mut pos = (salt * 13) % buffer.len();
        let mut rest = vector;
        while !rest.is_empty() {
            let (segment, tail) = rest.split_at(rest.len().min(buffer.len() - pos));
            for (slot, v) in buffer[pos..pos + segment.len()].iter_mut().zip(segment) {
                *slot += *v;
            }
            rest = tail;
            pos = 0;
        }
    }

    /// Runs one side's `requests` as a chain of table-batched operators
    /// starting at `start` (see [`ExecutionMode`]) and returns the chain's
    /// time. Each segment gets its own zeroed range of `pooled`, and
    /// `vectors` receives every request's range in request order.
    fn run_chain<B: EmbeddingBackend + ?Sized>(
        &self,
        backend: &mut B,
        requests: &[EmbeddingRequest],
        start: SimInstant,
        plan: &mut ChainPlan,
        pooled: &mut Vec<f32>,
        vectors: &mut Vec<PooledVector>,
    ) -> Result<SimDuration, DlrmError> {
        let ChainPlan {
            ops,
            op_of_table,
            request_op,
            order,
        } = plan;
        // One operator per distinct table, in first-request order.
        ops.clear();
        request_op.clear();
        op_of_table.clear();
        op_of_table.resize(self.tables.len(), ChainPlan::NO_OP);
        for req in requests {
            let table = req.table;
            let info = self
                .tables
                .get(&table)
                .ok_or(DlrmError::UnknownTable { table })?;
            let mut k = op_of_table[info.slot];
            if k == ChainPlan::NO_OP {
                k = ops.len();
                op_of_table[info.slot] = k;
                let dim = info.dim;
                ops.push(TableOp {
                    table,
                    dim,
                    first: 0,
                    count: 0,
                });
            }
            ops[k].count += 1;
            request_op.push(k);
        }
        // Counting sort of the request positions by operator: stable, so an
        // operator's segments stay in request order.
        let mut first = 0;
        for op in ops.iter_mut() {
            op.first = first;
            first += op.count;
            op.count = 0;
        }
        order.clear();
        order.resize(requests.len(), 0);
        for (pos, &k) in request_op.iter().enumerate() {
            let op = &mut ops[k];
            order[op.first + op.count] = pos;
            op.count += 1;
        }

        vectors.clear();
        vectors.resize(requests.len(), PooledVector::default());
        let mut time = SimDuration::ZERO;
        for op in ops.iter() {
            // The operator's segments run back to back, each handed the
            // operator's instant plus its earlier segments' time.
            let mut took = SimDuration::ZERO;
            for &pos in &order[op.first..op.first + op.count] {
                let at = pooled.len();
                pooled.resize(at + op.dim, 0.0);
                took += backend.pooled_lookup_into(
                    op.table,
                    &requests[pos].indices,
                    start + time + took,
                    &mut pooled[at..],
                )?;
                vectors[pos] = PooledVector {
                    table: op.table,
                    start: at,
                    dim: op.dim,
                };
            }
            time += took + self.compute.operator_overhead;
        }
        Ok(time)
    }

    /// Executes one query against the backend using caller-provided scratch
    /// buffers, writing scores and latency into `result` (cleared first).
    /// Scratch never affects values: fresh and reused buffers give the same
    /// result.
    ///
    /// With warm `buffers`/`result` capacity and a warmed backend cache this
    /// path performs zero heap allocations per query: pooled vectors are
    /// written into a flat reused arena, operators are planned in reused
    /// lists, the MLPs ping-pong between two reused buffers, and the backend
    /// accumulates rows straight into the caller's ranges.
    ///
    /// Each side issues one operator per table (see the module docs), each
    /// handed the instant its chain reaches it (see [`ExecutionMode`]): the
    /// user chain starts at `now`, the item chain at `now` or, when
    /// sequential, at `now + user_embeddings`. Every lookup therefore ends
    /// inside the query's embedding phase.
    ///
    /// # Errors
    ///
    /// Propagates backend failures and dimension errors.
    pub fn execute_into<B: EmbeddingBackend + ?Sized>(
        &self,
        query: &Query,
        backend: &mut B,
        now: SimInstant,
        buffers: &mut PoolingBuffers,
        result: &mut QueryResult,
    ) -> Result<(), DlrmError> {
        buffers.reset();

        // Bottom MLP on the continuous features.
        self.dense_features_into(query, &mut buffers.dense);
        buffers.dense.resize(self.bottom.input_dim().max(1), 0.0);
        self.bottom.forward_into(
            &buffers.dense,
            &mut buffers.bottom_out,
            &mut buffers.mlp_scratch,
        )?;
        let bottom_time = self.compute.time_for_flops(self.bottom.flops());

        // User-side operators: one chain from `now`, one operator per user
        // table, each handed the instant its predecessor finished.
        let user_time = self.run_chain(
            backend,
            &query.user_requests,
            now,
            &mut buffers.plan,
            &mut buffers.pooled,
            &mut buffers.user_vectors,
        )?;

        // Item-side operators, one per item table over every ranked item.
        // Their chain starts beside the user chain, or after it when
        // execution is sequential.
        let item_start = match self.mode {
            ExecutionMode::Sequential => now + user_time,
            ExecutionMode::InterOpParallel => now,
        };
        let item_time = self.run_chain(
            backend,
            &query.item_requests,
            item_start,
            &mut buffers.plan,
            &mut buffers.pooled,
            &mut buffers.item_vectors,
        )?;

        // Interaction + top MLP per item (user embeddings broadcast).
        let top_time = self.rank_items(query, buffers, result)?;

        let embedding_time = match self.mode {
            ExecutionMode::Sequential => user_time + item_time,
            ExecutionMode::InterOpParallel => user_time.max(item_time),
        };
        let total = bottom_time + embedding_time + top_time;
        result.latency = LatencyBreakdown {
            bottom_mlp: bottom_time,
            user_embeddings: user_time,
            item_embeddings: item_time,
            top_mlp: top_time,
            total,
        };
        Ok(())
    }

    /// The interaction + top-MLP half of query execution. Expects every
    /// pooled vector in `buffers.pooled` to be final; writes one score per
    /// ranked item and returns the top-MLP time.
    ///
    /// User embeddings are looked up once and broadcast over the ranked
    /// items, so their half of the interaction is folded once per query into
    /// `buffers.prefix`; each item copies the prefix and folds only its own
    /// requests' vectors, in request order. Every slot still receives `0 +
    /// bottom + u₁ + … + uₙ + i₁ + …` in that order — float addition is only
    /// reassociated if the order changes, and it does not — so the scores
    /// are bit-identical to folding the whole sequence per item, however the
    /// vectors were batched into operators.
    fn rank_items(
        &self,
        query: &Query,
        buffers: &mut PoolingBuffers,
        result: &mut QueryResult,
    ) -> Result<SimDuration, DlrmError> {
        let item_slots = query.item_batch.max(1) as usize;
        let top_in_dim = self.top.input_dim().max(1);
        result.scores.clear();
        result.scores.reserve(item_slots);
        buffers.prefix.clear();
        buffers.prefix.resize(top_in_dim, 0.0);
        Self::fold_into(&mut buffers.prefix, &buffers.bottom_out, 0);
        for (salt, v) in buffers.user_vectors.iter().enumerate() {
            let pooled = &buffers.pooled[v.start..v.start + v.dim];
            Self::fold_into(&mut buffers.prefix, pooled, salt + 1 + v.table as usize);
        }
        // Request `pos` belongs to ranked item `pos / item_tables` (the last
        // slot takes any overflow), so each item's requests are one run.
        let item_tables = self.item_table_count.max(1);
        let item_of = |pos: usize| (pos / item_tables).min(item_slots - 1);
        let mut item_cursor = 0usize;
        for item in 0..item_slots {
            buffers.interaction.clear();
            buffers.interaction.extend_from_slice(&buffers.prefix);
            // This item's contiguous run of vectors, salted by their
            // position within the item (exactly the seed's per-item order).
            let mut salt = 0usize;
            while item_cursor < buffers.item_vectors.len() && item_of(item_cursor) == item {
                let v = buffers.item_vectors[item_cursor];
                let pooled = &buffers.pooled[v.start..v.start + v.dim];
                Self::fold_into(
                    &mut buffers.interaction,
                    pooled,
                    salt + 101 + v.table as usize,
                );
                salt += 1;
                item_cursor += 1;
            }
            self.top.forward_into(
                &buffers.interaction,
                &mut buffers.mlp_out,
                &mut buffers.mlp_scratch,
            )?;
            result
                .scores
                .push(buffers.mlp_out.first().copied().unwrap_or(0.0));
        }
        Ok(self
            .compute
            .time_for_flops(self.top.flops() * query.item_batch.max(1) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DramBackend;
    use crate::model_zoo;
    use workload::{QueryGenerator, WorkloadConfig};

    fn setup() -> (InferenceEngine, DramBackend, Vec<Query>) {
        let model = model_zoo::tiny(3, 2, 300);
        let engine = InferenceEngine::new(model.clone(), ComputeModel::default(), 1).unwrap();
        let backend = DramBackend::new(&model, 1);
        let cfg = WorkloadConfig {
            item_batch: model.item_batch,
            ..WorkloadConfig::default()
        };
        let mut gen = QueryGenerator::new(&model.tables, cfg, 2).unwrap();
        let queries = gen.generate(5);
        (engine, backend, queries)
    }

    /// Runs one query on fresh scratch buffers.
    fn run<B: EmbeddingBackend>(
        engine: &InferenceEngine,
        query: &Query,
        backend: &mut B,
        now: SimInstant,
    ) -> QueryResult {
        let mut result = QueryResult::default();
        engine
            .execute_into(query, backend, now, &mut PoolingBuffers::new(), &mut result)
            .unwrap();
        result
    }

    #[test]
    fn execution_produces_one_score_per_item() {
        let (engine, mut backend, queries) = setup();
        let result = run(&engine, &queries[0], &mut backend, SimInstant::EPOCH);
        assert_eq!(result.scores.len(), 10);
        assert!(result.latency.total > SimDuration::ZERO);
        assert!(result.latency.user_embeddings > SimDuration::ZERO);
        assert!(result.latency.item_embeddings > SimDuration::ZERO);
    }

    #[test]
    fn results_are_deterministic() {
        let (engine, mut backend, queries) = setup();
        let a = run(&engine, &queries[1], &mut backend, SimInstant::EPOCH);
        let b = run(&engine, &queries[1], &mut backend, SimInstant::EPOCH);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.latency.total, b.latency.total);
    }

    #[test]
    fn interop_parallelism_reduces_latency() {
        let (mut engine, mut backend, queries) = setup();
        engine.set_mode(ExecutionMode::Sequential);
        let seq = run(&engine, &queries[0], &mut backend, SimInstant::EPOCH);
        engine.set_mode(ExecutionMode::InterOpParallel);
        let par = run(&engine, &queries[0], &mut backend, SimInstant::EPOCH);
        assert!(par.latency.total < seq.latency.total);
        // Scores do not depend on the execution mode.
        assert_eq!(par.scores, seq.scores);
        assert_eq!(engine.mode, ExecutionMode::InterOpParallel);
    }

    /// Answers table `t` in a fixed `t + 1` µs and records the instant every
    /// operator was handed.
    #[derive(Default)]
    struct RecordingBackend {
        handed: Vec<(u32, SimInstant)>,
    }

    impl RecordingBackend {
        fn took(table: u32) -> SimDuration {
            SimDuration::from_micros(u64::from(table) + 1)
        }
    }

    impl EmbeddingBackend for RecordingBackend {
        fn pooled_lookup(
            &mut self,
            table: u32,
            indices: &[u64],
            now: SimInstant,
        ) -> Result<(Vec<f32>, SimDuration), DlrmError> {
            let mut out = vec![0.0; 32];
            let took = self.pooled_lookup_into(table, indices, now, &mut out)?;
            Ok((out, took))
        }

        fn pooled_lookup_into(
            &mut self,
            table: u32,
            _indices: &[u64],
            now: SimInstant,
            _out: &mut [f32],
        ) -> Result<SimDuration, DlrmError> {
            self.handed.push((table, now));
            Ok(Self::took(table))
        }
    }

    #[test]
    fn each_chain_hands_an_operator_the_instant_its_predecessor_finished() {
        let (mut engine, _, queries) = setup();
        // Inference-eval repeats every user table once per ranked item, so
        // the user side batches too.
        let eval_workload = WorkloadConfig {
            item_batch: engine.model().item_batch,
            inference_eval: true,
            ..WorkloadConfig::default()
        };
        let eval = QueryGenerator::new(&engine.model().tables, eval_workload, 2)
            .unwrap()
            .next_query();
        let overhead = engine.compute().operator_overhead;
        let start = SimInstant::EPOCH + SimDuration::from_millis(7);
        // The table-batched chain rule, rebuilt from the fixed answers
        // alone: a side's requests form one operator per distinct table, in
        // first-request order; operator k starts at `chain_start +
        // Σ_{j<k}(took_j + overhead)`, where an operator's time is the sum of
        // its segments', and segment s of an operator is handed the
        // operator's start plus its earlier segments' time.
        let chain = |requests: &[workload::EmbeddingRequest], from: SimInstant| {
            let mut tables: Vec<u32> = Vec::new();
            for req in requests {
                if !tables.contains(&req.table) {
                    tables.push(req.table);
                }
            }
            let mut at = from;
            let mut handed = Vec::new();
            for table in tables {
                for req in requests.iter().filter(|r| r.table == table) {
                    handed.push((req.table, at));
                    at += RecordingBackend::took(req.table);
                }
                at += overhead;
            }
            (handed, at.duration_since(from))
        };
        for (query, mode) in [&queries[0], &eval].into_iter().flat_map(|q| {
            [
                (q, ExecutionMode::InterOpParallel),
                (q, ExecutionMode::Sequential),
            ]
        }) {
            assert!(!query.user_requests.is_empty() && !query.item_requests.is_empty());
            engine.set_mode(mode);
            let mut backend = RecordingBackend::default();
            let r = run(&engine, query, &mut backend, start);

            let (mut want, user_time) = chain(&query.user_requests, start);
            let item_start = match mode {
                ExecutionMode::Sequential => start + user_time,
                ExecutionMode::InterOpParallel => start,
            };
            let (item, item_time) = chain(&query.item_requests, item_start);
            want.extend(item);
            assert_eq!(backend.handed, want, "{mode:?}: handed instants");

            // Only the instants moved: the ledger keeps its formulas.
            let embedding_time = match mode {
                ExecutionMode::Sequential => user_time + item_time,
                ExecutionMode::InterOpParallel => user_time.max(item_time),
            };
            let bottom = engine.compute().time_for_flops(engine.bottom.flops());
            let top = engine
                .compute()
                .time_for_flops(engine.top.flops() * u64::from(query.item_batch.max(1)));
            let want_latency = LatencyBreakdown {
                bottom_mlp: bottom,
                user_embeddings: user_time,
                item_embeddings: item_time,
                top_mlp: top,
                total: bottom + embedding_time + top,
            };
            assert_eq!(r.latency, want_latency, "{mode:?}: breakdown");
        }
    }

    #[test]
    fn execute_into_with_reused_buffers_matches_fresh_buffers() {
        let (engine, mut backend, queries) = setup();
        let mut buffers = PoolingBuffers::new();
        let mut result = QueryResult::default();
        for q in &queries {
            let fresh = run(&engine, q, &mut backend, SimInstant::EPOCH);
            engine
                .execute_into(
                    q,
                    &mut backend,
                    SimInstant::EPOCH,
                    &mut buffers,
                    &mut result,
                )
                .unwrap();
            assert_eq!(fresh.scores, result.scores);
            assert_eq!(fresh.latency, result.latency);
        }
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut model = model_zoo::tiny(1, 1, 100);
        model.tables.clear();
        assert!(InferenceEngine::new(model, ComputeModel::default(), 0).is_err());
    }

    #[test]
    fn latency_breakdown_sums_to_total_in_sequential_mode() {
        let (mut engine, mut backend, queries) = setup();
        engine.set_mode(ExecutionMode::Sequential);
        let r = run(&engine, &queries[2], &mut backend, SimInstant::EPOCH);
        let sum = r.latency.bottom_mlp
            + r.latency.user_embeddings
            + r.latency.item_embeddings
            + r.latency.top_mlp;
        assert_eq!(sum, r.latency.total);
    }

    #[test]
    fn engine_and_scratch_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<InferenceEngine>();
        assert_send::<PoolingBuffers>();
        assert_send::<QueryResult>();
        assert_send::<LatencyBreakdown>();
    }

    #[test]
    fn fold_matches_the_per_element_reference_bit_for_bit() {
        // The seed expression, kept here as the reference.
        fn reference(buffer: &mut [f32], vector: &[f32], salt: usize) {
            for (i, v) in vector.iter().enumerate() {
                buffer[(i + salt * 13) % buffer.len()] += *v;
            }
        }
        let value = |i: usize| (i as f32 * 0.37 - 11.0) * 1.000_123;
        let salts = [0, 1, 7, 61, 101, 162, u32::MAX as usize + 101];
        for len in 1..=70usize {
            for vector_len in 0..=200usize {
                let vector: Vec<f32> = (0..vector_len).map(|i| value(i + len)).collect();
                let start: Vec<f32> = (0..len).map(|i| value(i * 3 + vector_len)).collect();
                for salt in salts {
                    let (mut want, mut got) = (start.clone(), start.clone());
                    reference(&mut want, &vector, salt);
                    InferenceEngine::fold_into(&mut got, &vector, salt);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "buffer {len}, vector {vector_len}, salt {salt}"
                    );
                }
            }
        }
        // An empty buffer is left alone instead of dividing by zero.
        InferenceEngine::fold_into(&mut [], &[1.0, 2.0], 3);
    }

    #[test]
    fn engine_exposes_model_and_compute() {
        let (engine, _, _) = setup();
        assert_eq!(engine.model().name, "tiny");
        assert!(engine.compute().flops_per_second > 0.0);
    }
}
