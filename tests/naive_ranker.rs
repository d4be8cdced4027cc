//! An obviously-right ranker checked bit for bit against the engine.
//!
//! The engine folds the broadcast half of the interaction (bottom MLP +
//! user side) once per query, adds contiguous segments instead of taking a
//! `%` per element, and reuses scratch across queries. `naive_scores` does
//! none of that: per ranked item it zeroes a fresh vector, re-folds
//! everything element by element and calls the allocating `Mlp::forward`.
//! Same additions in the same order, so the scores must agree to the bit.

use dlrm::{
    model_zoo, ComputeModel, DramBackend, EmbeddingBackend, ExecutionMode, InferenceEngine, Mlp,
    MlpConfig, ModelConfig, PoolingBuffers, QueryResult,
};
use embedding::TableKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdm_metrics::SimInstant;
use workload::{EmbeddingRequest, Query, QueryGenerator, WorkloadConfig};

const SEED: u64 = 0x5d2022;

fn fold(buffer: &mut [f32], vector: &[f32], salt: usize) {
    for (i, v) in vector.iter().enumerate() {
        buffer[(i + salt * 13) % buffer.len()] += *v;
    }
}

fn naive_scores(model: &ModelConfig, query: &Query, backend: &mut DramBackend) -> Vec<f32> {
    let bottom = Mlp::generate(&model.bottom_mlp, SEED ^ 0xb077);
    let top = Mlp::generate(&model.top_mlp, SEED ^ 0x70b0);
    let mut rng = StdRng::seed_from_u64(SEED ^ query.user_id);
    let mut dense: Vec<f32> = (0..model.dense_features)
        .map(|_| rng.gen_range(-1.0f32..1.0f32))
        .collect();
    dense.resize(bottom.input_dim().max(1), 0.0);
    let bottom_out = bottom.forward(&dense).unwrap();
    let mut pool = |req: &EmbeddingRequest| {
        let (pooled, _) = backend
            .pooled_lookup(req.table, &req.indices, SimInstant::EPOCH)
            .unwrap();
        (req.table as usize, pooled)
    };
    let users: Vec<_> = query.user_requests.iter().map(&mut pool).collect();
    let items: Vec<_> = query.item_requests.iter().map(&mut pool).collect();
    let item_tables = model.item_tables().len().max(1);
    let slots = query.item_batch.max(1) as usize;
    (0..slots)
        .map(|item| {
            let mut interaction = vec![0.0f32; top.input_dim().max(1)];
            fold(&mut interaction, &bottom_out, 0);
            for (position, (table, pooled)) in users.iter().enumerate() {
                fold(&mut interaction, pooled, position + 1 + table);
            }
            let of_item = |pos: &usize| (pos / item_tables).min(slots - 1) == item;
            let own = (0..items.len()).filter(of_item);
            for (position, pos) in own.enumerate() {
                let (table, pooled) = &items[pos];
                fold(&mut interaction, pooled, position + 101 + table);
            }
            top.forward(&interaction).unwrap()[0]
        })
        .collect()
}

/// Scaled M1–M3 (M3 cut to 20 user + 10 item tables, as the identity suite
/// does — its full table count exercises nothing extra here), with the
/// replicas' tables, pooling factors and interaction widths but one-layer
/// MLPs. The replicas' own 8- to 33-layer ReLU stacks cut their input's
/// variance to about a third per layer and score every item exactly 0.0, and
/// a score that is always zero would let any fold through. Interaction widths of 5, 74 and
/// 20 put pooled vectors on both sides of the buffer length: several wraps
/// per vector, and none.
fn models() -> Vec<ModelConfig> {
    let mut m3 = model_zoo::scaled_model(&model_zoo::m3(), 4_000_000, 300.0);
    let of_kind = |kind: TableKind, n: usize| {
        let tables = m3.tables.iter().filter(move |t| t.kind == kind);
        tables.take(n).cloned().collect::<Vec<_>>()
    };
    m3.tables = [of_kind(TableKind::User, 20), of_kind(TableKind::Item, 10)].concat();
    let mut models = vec![
        model_zoo::scaled_model(&model_zoo::m1(), 400_000, 60.0),
        model_zoo::scaled_model(&model_zoo::m2(), 400_000, 10.0),
        m3,
    ];
    for model in &mut models {
        let width = |mlp: &MlpConfig| mlp.widths[0];
        model.bottom_mlp = MlpConfig::new(vec![width(&model.bottom_mlp), 24]);
        model.top_mlp = MlpConfig::new(vec![width(&model.top_mlp), 1]);
    }
    models
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn engine_scores_match_the_naive_ranker_bit_for_bit() {
    for model in models() {
        let mut engine =
            InferenceEngine::new(model.clone(), ComputeModel::default(), SEED).unwrap();
        let mut backend = DramBackend::new(&model, SEED);
        // One scratch set across every case: stale prefix or interaction
        // contents from a wider query must not leak into a narrower one.
        let mut buffers = PoolingBuffers::new();
        let mut result = QueryResult::default();
        let mut live_scores = 0usize;
        for item_batch in [16u32, 1, 8] {
            let cfg = WorkloadConfig {
                item_batch,
                ..WorkloadConfig::default()
            };
            let mut queries = QueryGenerator::new(&model.tables, cfg, 7 + u64::from(item_batch))
                .unwrap()
                .generate(3);
            // Item requests that stop mid-item: the trailing items see only
            // the broadcast prefix (plus, for one item, a partial run).
            let short = queries.last_mut().unwrap();
            let keep = short.item_requests.len() / 2 + 1;
            short.item_requests.truncate(keep);
            for mode in [ExecutionMode::Sequential, ExecutionMode::InterOpParallel] {
                engine.set_mode(mode);
                for query in &queries {
                    let want = bits(&naive_scores(&model, query, &mut backend));
                    assert_eq!(want.len(), item_batch as usize);
                    live_scores += want.iter().filter(|&&s| s != 0).count();
                    let case = format!("{} batch {item_batch} {mode:?}", model.name);
                    engine
                        .execute_into(
                            query,
                            &mut backend,
                            SimInstant::EPOCH,
                            &mut buffers,
                            &mut result,
                        )
                        .unwrap();
                    assert_eq!(bits(&result.scores), want, "execute_into, {case}");
                }
            }
        }
        // 150 scores per model; the ReLU zeroes the negative ones.
        assert!(live_scores >= 30, "{}: {live_scores} live", model.name);
    }
}
