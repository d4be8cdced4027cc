//! The correctness gate that runs inside the one command: a failed check
//! makes the run report `"correct": false` and exit non-zero.

use crate::drive::{derive_seed, injected_faults, Ctx, Pass, Stream};
use crate::spec::{MODEL_SEED, SAMPLED_QUERIES};
use dlrm::{ComputeModel, DramBackend, InferenceEngine, PoolingBuffers, QueryResult};
use embedding::EmbeddingTable;
use sdm_core::ServingHost;
use sdm_metrics::SimInstant;
use std::collections::BTreeSet;

/// Largest absolute score difference from the DRAM reference that passes.
const SCORE_TOLERANCE: f32 = 1e-3;

/// Collects what failed; the run is correct when nothing did.
#[derive(Debug, Default)]
pub struct Gate {
    pub failures: Vec<String>,
    pub checks: u64,
}

impl Gate {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// FNV-1a over the bit patterns of every score, in replay order.
#[derive(Debug, Clone, Copy)]
pub struct ScoreDigest(u64);

impl ScoreDigest {
    pub fn new() -> Self {
        ScoreDigest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, scores: &[f32]) {
        for score in scores {
            for byte in score.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The obviously-right side of the score check: the same engine and seed
/// over tables held entirely in DRAM. After model updates the SM-resident
/// tables are regenerated exactly as `ModelUpdater` wrote them, so serving a
/// stale cached row shows up as a wrong score.
pub struct Reference {
    engine: InferenceEngine,
    backend: DramBackend,
    buffers: PoolingBuffers,
    result: QueryResult,
}

impl Reference {
    pub fn new(ctx: &Ctx, host: &ServingHost) -> Result<Reference, String> {
        let loaded = host.shard(0).manager().loaded();
        let version = ctx.final_version();
        let tables = ctx
            .model
            .tables
            .iter()
            .map(|desc| match (version, loaded.tables.get(&desc.id)) {
                (Some(version), Some(table)) if loaded.on_sm(desc.id) => {
                    EmbeddingTable::generate(&table.stored, version ^ u64::from(desc.id))
                }
                _ => EmbeddingTable::generate(desc, MODEL_SEED),
            })
            .collect();
        let engine = InferenceEngine::new(ctx.model.clone(), ComputeModel::default(), MODEL_SEED)
            .map_err(|e| format!("reference engine: {e}"))?;
        Ok(Reference {
            engine,
            backend: DramBackend::from_tables(tables),
            buffers: PoolingBuffers::new(),
            result: QueryResult::default(),
        })
    }

    /// A reference table, for timing the pooling kernels on real rows.
    pub fn table(&self, id: u32) -> Option<&EmbeddingTable> {
        self.backend.table(id)
    }

    pub fn scores(&mut self, query: &workload::Query) -> Result<&[f32], String> {
        self.engine
            .execute_into(
                query,
                &mut self.backend,
                SimInstant::EPOCH,
                &mut self.buffers,
                &mut self.result,
            )
            .map_err(|e| format!("reference query {}: {e}", query.id))?;
        Ok(&self.result.scores)
    }
}

/// Compares one query's scores with the reference.
pub fn check_scores(gate: &mut Gate, query_id: u64, expected: &[f32], got: &[f32]) {
    // Element by element with `<=`, so a NaN score fails (a running
    // `f32::max` would skip it).
    let close = expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(e, g)| (e - g).abs() <= SCORE_TOLERANCE);
    gate.require(close, || {
        format!(
            "query {query_id}: scores {got:?} are off the DRAM reference {expected:?} by more than {SCORE_TOLERANCE}"
        )
    });
}

/// `count` stream positions out of `candidates`, chosen by the seed.
pub fn sample_positions(candidates: &[usize], seed: u64, count: usize) -> BTreeSet<usize> {
    let mut keyed: Vec<(u64, usize)> = candidates
        .iter()
        .map(|&pos| (derive_seed(seed ^ pos as u64, Stream::Sample), pos))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().take(count).map(|(_, pos)| pos).collect()
}

/// Replays `batches` through `ServingHost::run_selected_batch` (the front
/// end keeps no scores), digests every score and compares a seeded sample of
/// queries with the reference.
pub fn replay_scores(
    ctx: &Ctx,
    host: &mut ServingHost,
    batches: &[Vec<usize>],
    gate: &mut Gate,
) -> Result<u64, String> {
    let served: Vec<usize> = batches.iter().flatten().copied().collect();
    let sampled = sample_positions(&served, ctx.seed, SAMPLED_QUERIES);
    let mut reference = Reference::new(ctx, host)?;
    let mut digest = ScoreDigest::new();
    for picks in batches {
        host.run_selected_batch(&ctx.queries, picks)
            .map_err(|e| format!("score replay: {e}"))?;
        for (i, &pos) in picks.iter().enumerate() {
            let got = host.scores(i);
            digest.update(got);
            if sampled.contains(&pos) {
                let query = &ctx.queries[pos];
                check_scores(gate, query.id, reference.scores(query)?, got);
            }
        }
    }
    Ok(digest.value())
}

/// Per-pass accounting: every offered query is served or shed, and the
/// per-query and per-batch logs agree.
pub fn check_pass(gate: &mut Gate, ctx: &Ctx, label: &str, pass: &Pass) {
    gate.require(pass.offered() == ctx.queries.len() as u64, || {
        format!(
            "{label}: {} queries logged, {} offered",
            pass.offered(),
            ctx.queries.len()
        )
    });
    gate.require(pass.served() == pass.logged_served(), || {
        format!(
            "{label}: batches served {}, query log says {}",
            pass.served(),
            pass.logged_served()
        )
    });
    gate.require(pass.batches().is_some(), || {
        format!("{label}: batches cannot be rebuilt from the logs")
    });
}

/// Host-wide checks after all passes of a run.
pub fn check_host(gate: &mut Gate, ctx: &Ctx, host: &ServingHost, sm_reads_measured: u64) {
    let stats = host.stats();
    gate.require(stats.degraded_rows == 0, || {
        format!("{} rows served degraded", stats.degraded_rows)
    });
    let injected = injected_faults(host);
    gate.require(stats.io_checksum_failures == injected.corruptions, || {
        format!(
            "{} checksum failures detected, {} corruptions injected",
            stats.io_checksum_failures, injected.corruptions
        )
    });
    if ctx.spec.faults {
        gate.require(injected.corruptions > 0 && stats.io_retries > 0, || {
            "fault plan injected nothing".to_string()
        });
    }
    if ctx.spec.cache_holds_model {
        gate.require(sm_reads_measured == 0, || {
            format!("{sm_reads_measured} SM reads after warm-up on a cache-resident model")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_score_fails_the_gate() {
        let expected = [0.25f32, -1.5, 3.0];
        let mut gate = Gate::default();
        check_scores(&mut gate, 7, &expected, &expected);
        check_scores(&mut gate, 8, &expected, &[0.25, -1.5, 3.0 + 5e-4]);
        assert!(gate.passed());
        assert_eq!(gate.checks, 2);

        check_scores(&mut gate, 9, &expected, &[0.25, -1.5, 3.01]);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].contains("query 9"));
        check_scores(&mut gate, 10, &expected, &[0.25, -1.5]);
        check_scores(&mut gate, 11, &expected, &[0.25, f32::NAN, 3.0]);
        assert_eq!(gate.failures.len(), 3);
        assert!(!gate.passed());
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let digest = |scores: &[f32]| {
            let mut d = ScoreDigest::new();
            d.update(scores);
            d.value()
        };
        assert_eq!(digest(&[1.0, 2.0]), digest(&[1.0, 2.0]));
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_ne!(
            digest(&[1.0]),
            digest(&[f32::from_bits(1.0f32.to_bits() + 1)])
        );
        let mut split = ScoreDigest::new();
        split.update(&[1.0]);
        split.update(&[2.0]);
        assert_eq!(split.value(), digest(&[1.0, 2.0]));
    }

    #[test]
    fn samples_are_seeded_distinct_and_bounded() {
        let candidates: Vec<usize> = (0..500).collect();
        let a = sample_positions(&candidates, 1, 64);
        assert_eq!(a.len(), 64);
        assert_eq!(a, sample_positions(&candidates, 1, 64));
        assert_ne!(a, sample_positions(&candidates, 2, 64));
        assert_eq!(sample_positions(&candidates[..10], 1, 64).len(), 10);
    }
}
