//! The table-batched embedding operator against its definition.
//!
//! `EmbeddingBackend::pooled_lookup_segments_into` pools a SparseLengthsSum
//! operator — flat indices plus one length per segment — and is defined as
//! one `pooled_lookup_into` per segment, segment *s* handed `now + Σ_{r<s}
//! took_r`. These properties hold it to that bit for bit: the pooled
//! vectors, the operator's time and, on the SDM manager, every statistic,
//! the IO engine's counters and the clock. They cover the DRAM baseline and
//! the manager over fast-memory (item) and SM (user) tables, one to seven
//! segments per operator with a repeated segment, with roomy and tight row
//! caches and the pooled cache on and off.

pub mod common;

use common::single_stream;
use dlrm::{model_zoo, DramBackend, EmbeddingBackend};
use embedding::TableId;
use proptest::prelude::*;
use sdm_cache::RowCache;
use sdm_core::{SdmConfig, SdmMemoryManager, ServingHost};
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};

const SEED: u64 = 41;
const ROWS: u64 = 400;
const DIM: usize = 32;

/// The definition, spelled out: one zero-filled lookup per segment, each
/// handed the instant the previous one finished.
fn per_segment<B: EmbeddingBackend>(
    backend: &mut B,
    table: TableId,
    segments: &[Vec<u64>],
    now: SimInstant,
) -> (Vec<u32>, SimDuration) {
    let mut out = vec![0.0f32; segments.len() * DIM];
    let mut took = SimDuration::ZERO;
    for (segment, indices) in out.chunks_mut(DIM).zip(segments) {
        took += backend
            .pooled_lookup_into(table, indices, now + took, segment)
            .unwrap();
    }
    (out.iter().map(|x| x.to_bits()).collect(), took)
}

/// The same segments as one operator.
fn batched<B: EmbeddingBackend>(
    backend: &mut B,
    table: TableId,
    segments: &[Vec<u64>],
    now: SimInstant,
) -> (Vec<u32>, SimDuration) {
    let flat: Vec<u64> = segments.concat();
    let lengths: Vec<usize> = segments.iter().map(Vec::len).collect();
    let mut out = vec![0.0f32; segments.len() * DIM];
    let took = backend
        .pooled_lookup_segments_into(table, &flat, &lengths, now, &mut out)
        .unwrap();
    (out.iter().map(|x| x.to_bits()).collect(), took)
}

/// Everything of a manager's state an operator may move, as one string.
fn ledger(manager: &SdmMemoryManager) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        manager.stats(),
        manager.io_engine().stats(),
        manager.row_cache().stats(),
        manager.pooled_cache().stats(),
        manager.now()
    )
}

fn config(tight: bool, pooled: bool) -> SdmConfig {
    let mut config = SdmConfig::for_tests();
    if tight {
        config.cache.row_cache_budget = Bytes::from_kib(8);
    }
    if !pooled {
        config.cache.pooled_cache_budget = Bytes::ZERO;
    }
    config
}

/// Two identical single-shard hosts of the tiny model (two SM user tables,
/// one fast-memory item table).
fn twins(tight: bool, pooled: bool) -> (ServingHost, ServingHost) {
    let model = model_zoo::tiny(2, 1, ROWS);
    let config = config(tight, pooled);
    let a = single_stream(&model, &config, SEED);
    let b = single_stream(&model, &config, SEED);
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0x5d11_0048))]

    /// A sequence of operators on twin managers — batched on one, segment
    /// by segment on the other — leaves identical vectors, times and
    /// ledgers after every operator. A segment repeated within an operator
    /// hits the row (or pooled) cache its predecessor just filled.
    #[test]
    fn manager_operator_equals_one_lookup_per_segment(
        ops in prop::collection::vec(
            (0u32..3, prop::collection::vec(prop::collection::vec(0u64..ROWS, 0..14), 1..7), 0u8..2),
            1..6,
        ),
        tight in 0u8..2,
        pooled in 0u8..2,
        start_us in 0u64..5_000,
    ) {
        let (mut a, mut b) = twins(tight == 1, pooled == 1);
        let mut now = SimInstant::EPOCH + SimDuration::from_micros(start_us);
        for (table, mut segments, repeat) in ops {
            if repeat == 1 {
                segments.push(segments[0].clone());
            }
            let got = batched(a.shard_mut(0).manager_mut(), table, &segments, now);
            let want = per_segment(b.shard_mut(0).manager_mut(), table, &segments, now);
            prop_assert_eq!(&got, &want, "table {}, {} segments", table, segments.len());
            prop_assert_eq!(ledger(a.shard(0).manager()), ledger(b.shard(0).manager()));
            now += got.1 + SimDuration::from_micros(3);
        }
    }

    /// The trait's default on the DRAM baseline is the same loop.
    #[test]
    fn dram_operator_equals_one_lookup_per_segment(
        table in 0u32..3,
        segments in prop::collection::vec(prop::collection::vec(0u64..ROWS, 0..14), 1..7),
    ) {
        let model = model_zoo::tiny(2, 1, ROWS);
        let mut dram = DramBackend::new(&model, SEED);
        let got = batched(&mut dram, table, &segments, SimInstant::EPOCH);
        let want = per_segment(&mut dram, table, &segments, SimInstant::EPOCH);
        prop_assert_eq!(got, want);
    }
}
