//! Model updates: refreshing the SM image (paper §A.3) without paying for
//! it in a cold cache afterwards (§A.4).
//!
//! A full update rewrites every SM-resident table, so every cached copy is
//! stale — but *which* rows were cached is not: new weights do not change
//! which users and items are popular, so the resident key set of the old
//! cache is the hot set of the new image. An update therefore runs
//!
//! 1. **write** — each SM table is regenerated once and written to every
//!    shard's devices;
//! 2. **snapshot** — `(stamp, key)` of every privately cached row, least
//!    recently used first, into one transient buffer;
//! 3. **invalidate** — [`SdmMemoryManager::invalidate_caches`] on every
//!    shard (row cache, pooled cache, shared tier, warm-up tracker), before
//!    any re-read, so no shard's clear wipes what another just promoted;
//! 4. **re-read** — the snapshot's rows come back from the new image as bulk
//!    IO through the ordinary read path (queue limits, retries, checksum
//!    guard), in groups drained oldest first so recency survives group-wise,
//!    each fill promoted into the shared tier like any other. Rows resident
//!    *only* in the tier are not re-read, and pooled-cache entries are not
//!    re-created (their keys are hashes of index sequences).
//!
//! Nothing about this is off the clock. The shard tells the manager its
//! present whenever a stretch of work ends, so the update starts where the
//! shard stands; the manager's clock then advances by `write_time +
//! rewarm_time` (the re-read starts when the writes end), and the shard
//! raises its own clock to the manager's when it next starts work. The first
//! batch after an update therefore carries the whole window in its makespan,
//! and the front end sees a host that was busy. Without an update the raise
//! is the identity: serving never puts the manager ahead of its shard. See
//! the manager's module docs ("After a model update") for the measured
//! sizes.
//!
//! There is no partial update. One that rewrites only some rows has to
//! re-read exactly the resident keys among them — step 4 restricted to keys
//! below the rewritten row count — instead of keeping their stale copies;
//! that is what it would be rebuilt on.

use crate::error::SdmError;
use crate::loader::write_table;
use crate::manager::SdmMemoryManager;
use embedding::{EmbeddingTable, TableDescriptor, TableId};
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;

/// What kind of refresh to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Rewrite every SM-resident table (new snapshot of all embeddings) and
    /// re-read the rows the caches held from the new image.
    Full,
}

/// Outcome of a model update. Over several shards
/// ([`crate::ServingHost::apply_update`]) bytes and rows are summed and the
/// two times are the slowest shard's, since shards update side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateReport {
    /// Bytes written to the SM devices.
    pub bytes_written: Bytes,
    /// Simulated device time spent writing.
    pub write_time: SimDuration,
    /// Whether the fast-memory caches were invalidated. Always true: the
    /// rows in [`UpdateReport::rows_rewarmed`] were re-read afterwards;
    /// pooled vectors and rows held only by the shared tier stay dropped.
    pub caches_invalidated: bool,
    /// Rows read back from the new image into the caches.
    pub rows_rewarmed: u64,
    /// Simulated time from the end of the writes to the last re-read row.
    pub rewarm_time: SimDuration,
    /// Minimum days between updates of this size that the devices' rated
    /// endurance allows (the tightest device across the array).
    pub min_update_interval_days: f64,
}

/// Applies model updates to a running [`SdmMemoryManager`].
#[derive(Debug, Default)]
pub struct ModelUpdater;

impl ModelUpdater {
    /// Performs an update with fresh table contents derived from
    /// `new_version` (a seed for the regenerated weights). The manager's
    /// clock advances by `write_time + rewarm_time`.
    ///
    /// On a host with a shared tier use
    /// [`crate::ServingHost::apply_update`]: updating shard by shard through
    /// this function clears the tier once per shard, dropping what the
    /// shards before it re-read.
    ///
    /// # Errors
    ///
    /// Returns [`SdmError`] for device write failures and hard IO errors of
    /// the re-read.
    pub fn apply(
        manager: &mut SdmMemoryManager,
        kind: UpdateKind,
        new_version: u64,
    ) -> Result<UpdateReport, SdmError> {
        apply_to_all(&mut [manager], kind, new_version)
    }
}

/// The update over every manager of a host (one, for
/// [`ModelUpdater::apply`]), in the four steps of the module docs.
pub(crate) fn apply_to_all(
    managers: &mut [&mut SdmMemoryManager],
    kind: UpdateKind,
    new_version: u64,
) -> Result<UpdateReport, SdmError> {
    let UpdateKind::Full = kind;
    let mut report = UpdateReport {
        bytes_written: Bytes::ZERO,
        write_time: SimDuration::ZERO,
        caches_invalidated: true,
        rows_rewarmed: 0,
        rewarm_time: SimDuration::ZERO,
        min_update_interval_days: 0.0,
    };
    // Shards are replicas: same model, same placement policy, so the first
    // one names the SM-resident tables for all. The descriptor clones are
    // update-time only (minutes apart), never on the query path.
    let Some(first) = managers.first() else {
        return Ok(report);
    };
    let loaded = first.loaded();
    let on_sm = loaded.tables.iter().filter(|(id, _)| loaded.on_sm(**id));
    let sm_tables: Vec<(TableId, TableDescriptor)> =
        on_sm.map(|(id, t)| (*id, t.stored.clone())).collect();

    // 1. Write: one table in memory at a time, one image buffer throughout.
    let mut written = vec![(Bytes::ZERO, SimDuration::ZERO); managers.len()];
    let mut image = Vec::new();
    for (table_id, stored) in &sm_tables {
        let new_table = EmbeddingTable::generate(stored, new_version ^ u64::from(*table_id));
        for (manager, (bytes, time)) in managers.iter_mut().zip(&mut written) {
            let placement = *manager.loaded().layout.placement(*table_id)?;
            let engine = manager.io_engine_mut();
            let outcome = write_table(engine, &placement, &new_table, &mut image)?;
            *bytes += outcome.written;
            *time += outcome.device_latency;
        }
    }

    // 2–3. Snapshot every shard, then invalidate every shard.
    let mut resident = Vec::new();
    let mut ends = Vec::with_capacity(managers.len());
    for manager in managers.iter() {
        manager.row_cache().append_resident_lru_first(&mut resident);
        ends.push(resident.len());
    }
    for manager in managers.iter_mut() {
        manager.invalidate_caches();
    }

    // 4. Re-read, each shard from the end of its own writes.
    let mut from = 0;
    for ((manager, (bytes, write_time)), end) in managers.iter_mut().zip(written).zip(ends) {
        let start = manager.now() + write_time;
        let (rows, finished) = manager.reread_rows(&resident[from..end], start)?;
        from = end;
        report.bytes_written += bytes;
        report.write_time = report.write_time.max(write_time);
        report.rows_rewarmed += rows;
        report.rewarm_time = report.rewarm_time.max(finished.duration_since(start));
        let devices = manager.io_engine().array().iter();
        let days = devices.map(|(_, d)| d.profile().min_update_interval_days(bytes, d.capacity()));
        report.min_update_interval_days = days.fold(report.min_update_interval_days, f64::max);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdmConfig;
    use crate::loader::ModelLoader;
    use crate::manager::{SdmMemoryManager, REWARM_GROUP_ROWS};
    use dlrm::model_zoo;
    use io_engine::{EngineConfig, IoEngine};
    use scm_device::DeviceArray;
    use sdm_cache::{RowCache, RowKey};
    use sdm_metrics::SimInstant;

    fn build(model: &dlrm::ModelConfig, config: SdmConfig) -> SdmMemoryManager {
        let array = DeviceArray::homogeneous(
            config.technology.clone(),
            config.device_capacity,
            config.device_count,
        )
        .unwrap();
        let mut engine = IoEngine::new(array, EngineConfig::default());
        let loaded = ModelLoader::load(model, &config, &mut engine).unwrap();
        SdmMemoryManager::new(config, loaded, engine)
    }

    fn manager() -> SdmMemoryManager {
        build(&model_zoo::tiny(2, 1, 300), SdmConfig::for_tests())
    }

    /// The resident rows, in key order.
    fn resident_keys(m: &SdmMemoryManager) -> Vec<RowKey> {
        let mut rows = Vec::new();
        m.row_cache().append_resident_lru_first(&mut rows);
        let mut keys: Vec<RowKey> = rows.into_iter().map(|(_, key)| key).collect();
        keys.sort_unstable();
        keys
    }

    /// Asserts that every resident row holds the bytes of `version`'s image.
    fn assert_cache_holds_version(m: &mut SdmMemoryManager, version: u64) {
        for key in resident_keys(m) {
            let stored = m.loaded().table(key.table).unwrap().stored.clone();
            let table = EmbeddingTable::generate(&stored, version ^ u64::from(key.table));
            let cached = m.row_cache_mut().get(&key).unwrap().to_vec();
            assert_eq!(cached, table.row(key.row).unwrap(), "{key} is stale");
        }
    }

    #[test]
    fn full_update_rewrites_everything_and_rereads_the_resident_rows() {
        let mut m = manager();
        for table in [0u32, 1] {
            m.pooled_lookup_at(table, &[1, 2, 3, 40, 41], SimInstant::EPOCH)
                .unwrap();
        }
        let before = resident_keys(&m);
        assert_eq!(before.len(), 10);
        let (demand_reads, started) = (m.stats().sm_reads, m.now());
        let device_reads = m.io_engine().stats().submitted;

        let report = ModelUpdater::apply(&mut m, UpdateKind::Full, 99).unwrap();
        assert!(report.caches_invalidated);
        assert!(report.bytes_written > Bytes::ZERO);
        assert!(report.write_time > SimDuration::ZERO);
        assert!(report.min_update_interval_days >= 0.0);
        assert_eq!(report.rows_rewarmed, 10);
        assert!(report.rewarm_time > SimDuration::ZERO);
        // The whole window is on the manager's clock.
        assert_eq!(m.now(), started + report.write_time + report.rewarm_time);

        // Same rows resident, every one of them from the new image; pooled
        // vectors (sums over old rows) stay dropped.
        assert_eq!(resident_keys(&m), before);
        assert_cache_holds_version(&mut m, 99);
        assert_eq!(m.pooled_cache().len(), 0);
        // The re-read is device IO, not demand traffic.
        assert_eq!(m.io_engine().stats().submitted, device_reads + 10);
        assert_eq!(m.stats().sm_reads, demand_reads);
        m.pooled_lookup_at(0, &[1, 2, 3], SimInstant::EPOCH)
            .unwrap();
        assert_eq!(m.stats().sm_reads, demand_reads, "re-read rows must hit");
    }

    #[test]
    fn back_to_back_updates_reread_the_same_rows() {
        let mut m = manager();
        m.pooled_lookup_at(0, &[5, 6, 7, 8], SimInstant::EPOCH)
            .unwrap();
        let before = resident_keys(&m);
        let first = ModelUpdater::apply(&mut m, UpdateKind::Full, 7).unwrap();
        let second = ModelUpdater::apply(&mut m, UpdateKind::Full, 8).unwrap();
        assert_eq!(first.rows_rewarmed, 4);
        assert_eq!(second.rows_rewarmed, 4);
        assert_eq!(second.bytes_written, first.bytes_written);
        assert_eq!(resident_keys(&m), before);
        assert_cache_holds_version(&mut m, 8);
    }

    #[test]
    fn cold_manager_rereads_nothing() {
        let mut m = manager();
        let report = ModelUpdater::apply(&mut m, UpdateKind::Full, 3).unwrap();
        assert_eq!(report.rows_rewarmed, 0);
        assert_eq!(report.rewarm_time, SimDuration::ZERO);
        assert_eq!(m.io_engine().stats().submitted, 0);
        assert_eq!(m.row_cache().len(), 0);
        assert_eq!(m.now(), SimInstant::EPOCH + report.write_time);
    }

    #[test]
    fn rows_of_an_earlier_reread_group_are_evicted_first() {
        // 308-byte rows go to the exact-LRU engine (64 bytes of overhead per
        // entry), sized to hold one full re-read group and part of a second.
        let mut model = model_zoo::tiny(1, 0, 8_000);
        model.tables[0].dim = 300;
        let second_group = 452;
        let capacity = REWARM_GROUP_ROWS + second_group;
        let mut config = SdmConfig::for_tests();
        config.cache.memory_optimized_fraction = 0.0;
        config.cache.row_cache_budget = Bytes((capacity * (308 + 64)) as u64);
        let mut m = build(&model, config);
        let touch = |m: &mut SdmMemoryManager, rows: std::ops::Range<u64>| {
            for row in rows {
                m.pooled_lookup_at(0, &[row], SimInstant::EPOCH).unwrap();
            }
        };
        // Recency order = row order: rows 0..2048 form the first group.
        touch(&mut m, 0..capacity as u64);
        assert_eq!(m.row_cache().len(), capacity);
        let report = ModelUpdater::apply(&mut m, UpdateKind::Full, 5).unwrap();
        assert_eq!(report.rows_rewarmed, capacity as u64);
        assert_eq!(m.row_cache().stats().evictions, 0);

        let resident = |m: &SdmMemoryManager, rows: std::ops::Range<u64>| {
            rows.filter(|row| m.row_cache().contains(&RowKey::new(0, *row)))
                .count()
        };
        let (first, second) = (
            0..REWARM_GROUP_ROWS as u64,
            REWARM_GROUP_ROWS as u64..capacity as u64,
        );
        // 300 new rows push out 300 rows of the first group and none of the
        // second, whatever order the first group's completions landed in.
        touch(&mut m, 5_000..5_300);
        assert_eq!(resident(&m, first.clone()), REWARM_GROUP_ROWS - 300);
        assert_eq!(resident(&m, second.clone()), second_group);
        // The second group goes only once the first is gone.
        touch(&mut m, 5_300..7_200);
        assert_eq!(resident(&m, first), 0);
        assert_eq!(resident(&m, second), second_group - 152);
    }
}
