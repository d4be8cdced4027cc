//! Model loading: materialise tables, apply load-time transformations and
//! write the SM image.

use crate::config::{LoadTransform, SdmConfig};
use crate::error::SdmError;
use crate::placement::{PlacementPlan, TableLocation};
use dlrm::ModelConfig;
use embedding::{
    EmbeddingError, EmbeddingTable, MappingTensor, PrunedTable, QuantScheme, SmLayout,
    TableDescriptor, TableId, TablePlacement,
};
use io_engine::IoEngine;
use scm_device::{DeviceId, WriteOutcome};
use sdm_metrics::units::Bytes;
use sdm_metrics::{IntMap, SimDuration};

/// One table as it exists after loading.
#[derive(Debug)]
pub struct LoadedTable {
    /// Descriptor of the table as stored (post de-prune / de-quantise).
    pub stored: TableDescriptor,
    /// Descriptor the queries address (the unpruned index space).
    pub logical: TableDescriptor,
    /// Where the rows live.
    pub location: TableLocation,
    /// Mapping tensor kept in fast memory when the table is pruned and was
    /// not de-pruned at load time.
    pub mapping: Option<MappingTensor>,
}

/// The result of loading a model onto one host.
#[derive(Debug)]
pub struct LoadedModel {
    /// The (scaled) model being served.
    pub model: ModelConfig,
    /// Per-table load state, keyed by the model's own table ids.
    pub tables: IntMap<TableId, LoadedTable>,
    /// Tables resident directly in fast memory: exactly the tables whose
    /// [`LoadedTable::location`] is [`TableLocation::FastMemory`].
    pub fm_tables: IntMap<TableId, EmbeddingTable>,
    /// Byte layout of the SM-resident tables.
    pub layout: SmLayout,
    /// The placement plan that was applied.
    pub placement: PlacementPlan,
    /// Fast-memory bytes used by directly placed tables (materialised size).
    pub fm_table_bytes: Bytes,
    /// Fast-memory bytes used by mapping tensors.
    pub fm_mapping_bytes: Bytes,
    /// Bytes written to the SM devices during the load.
    pub sm_written_bytes: Bytes,
    /// Simulated device time of the load writes.
    pub load_time: SimDuration,
}

impl LoadedModel {
    /// Load state of a table.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::UnknownTable`] for an id the model does not
    /// have.
    pub fn table(&self, table: TableId) -> Result<&LoadedTable, EmbeddingError> {
        self.tables
            .get(&table)
            .ok_or(EmbeddingError::UnknownTable { table })
    }

    /// Whether a table is SM-resident.
    pub fn on_sm(&self, table: TableId) -> bool {
        matches!(
            self.placement.location(table),
            TableLocation::SlowMemoryCached | TableLocation::SlowMemoryUncached
        )
    }
}

/// Writes `table`'s rows to their place on the SM devices, one row per
/// stride (the padding between rows zeroed). `image` is scratch, reused from
/// table to table by the model load and by every model update.
pub(crate) fn write_table(
    engine: &mut IoEngine,
    placement: &TablePlacement,
    table: &EmbeddingTable,
    image: &mut Vec<u8>,
) -> Result<WriteOutcome, SdmError> {
    let stride = placement.row_stride as usize;
    image.clear();
    image.resize(placement.num_rows as usize * stride, 0u8);
    for (i, row) in table.iter().enumerate() {
        let at = i * stride;
        image[at..at + row.len()].copy_from_slice(row);
    }
    let device = DeviceId(placement.device_index);
    Ok(engine
        .array_mut()
        .write(device, placement.base_offset, image)?)
}

/// Loads models onto a host's devices.
#[derive(Debug, Default)]
pub struct ModelLoader;

impl ModelLoader {
    /// Loads `model` according to `config`, writing SM-resident tables
    /// through `engine`'s device array.
    ///
    /// The model passed here should already be scaled to a materialisable
    /// size (see `dlrm::model_zoo::scaled_model`).
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid, the tables do not
    /// fit on the devices, or a device write fails.
    pub fn load(
        model: &ModelConfig,
        config: &SdmConfig,
        engine: &mut IoEngine,
    ) -> Result<LoadedModel, SdmError> {
        config.validate()?;
        model.validate()?;
        let placement = PlacementPlan::compute(model, &config.placement);

        // Descriptor/model clones below are load-time only (once per model
        // deployment, never on the query path), so the simplicity of owned
        // copies beats threading lifetimes through the serving structs.
        let mut fm_tables = IntMap::default();
        let mut loaded_tables = IntMap::default();
        let mut sm_materialised: Vec<(TableDescriptor, EmbeddingTable)> = Vec::new();
        let mut fm_table_bytes = Bytes::ZERO;
        let mut fm_mapping_bytes = Bytes::ZERO;

        for desc in &model.tables {
            let location = placement.location(desc.id);
            let table = EmbeddingTable::generate(desc, config.seed);
            match location {
                TableLocation::FastMemory => {
                    fm_table_bytes += table.capacity();
                    loaded_tables.insert(
                        desc.id,
                        LoadedTable {
                            stored: desc.clone(),
                            logical: desc.clone(),
                            location,
                            mapping: None,
                        },
                    );
                    fm_tables.insert(desc.id, table);
                }
                TableLocation::SlowMemoryCached | TableLocation::SlowMemoryUncached => {
                    let (stored_table, mapping) =
                        Self::apply_transforms(desc, table, &config.transform, config.seed)?;
                    if let Some(m) = &mapping {
                        fm_mapping_bytes += m.footprint();
                    }
                    loaded_tables.insert(
                        desc.id,
                        LoadedTable {
                            stored: stored_table.descriptor().clone(),
                            logical: desc.clone(),
                            location,
                            mapping,
                        },
                    );
                    sm_materialised.push((stored_table.descriptor().clone(), stored_table));
                }
            }
        }

        // Lay the SM tables out and write the image.
        let sm_descriptors: Vec<TableDescriptor> =
            sm_materialised.iter().map(|(d, _)| d.clone()).collect();
        let layout = SmLayout::plan(
            &sm_descriptors,
            config.device_count,
            config.device_capacity,
            config.technology.access_granularity,
        )?;

        let mut sm_written_bytes = Bytes::ZERO;
        let mut load_time = SimDuration::ZERO;
        let mut image = Vec::new();
        for (desc, table) in &sm_materialised {
            let outcome = write_table(engine, layout.placement(desc.id)?, table, &mut image)?;
            sm_written_bytes += outcome.written;
            load_time += outcome.device_latency;
        }

        Ok(LoadedModel {
            model: model.clone(),
            tables: loaded_tables,
            fm_tables,
            layout,
            placement,
            fm_table_bytes,
            fm_mapping_bytes,
            sm_written_bytes,
            load_time,
        })
    }

    /// Applies pruning/de-pruning and de-quantisation to an SM-bound table.
    fn apply_transforms(
        desc: &TableDescriptor,
        table: EmbeddingTable,
        transform: &LoadTransform,
        seed: u64,
    ) -> Result<(EmbeddingTable, Option<MappingTensor>), SdmError> {
        // Step 1: pruning, when the descriptor declares a pruned fraction.
        let (mut stored, mapping) = if desc.pruned_fraction > 0.0 {
            let keep = (1.0 - desc.pruned_fraction).clamp(0.001, 1.0);
            let pruned = PrunedTable::prune(&table, keep, seed ^ desc.id as u64)?;
            if transform.deprune {
                let (full, _report) = pruned.deprune()?;
                (full, None)
            } else {
                let mapping = pruned.mapping().clone();
                (pruned.pruned_rows().clone(), Some(mapping))
            }
        } else {
            (table, None)
        };

        // Step 2: de-quantisation at load time (§A.5).
        if transform.dequantize && stored.descriptor().quant != QuantScheme::Fp32 {
            stored = stored.requantize(QuantScheme::Fp32)?;
        }
        Ok((stored, mapping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdmConfig;
    use dlrm::model_zoo;
    use io_engine::EngineConfig;
    use scm_device::DeviceArray;

    fn engine(config: &SdmConfig) -> IoEngine {
        let array = DeviceArray::homogeneous(
            config.technology.clone(),
            config.device_capacity,
            config.device_count,
        )
        .unwrap();
        IoEngine::new(array, EngineConfig::default())
    }

    #[test]
    fn load_places_user_tables_on_sm_and_item_tables_in_fm() {
        let model = model_zoo::tiny(3, 2, 400);
        let config = SdmConfig::for_tests();
        let mut eng = engine(&config);
        let loaded = ModelLoader::load(&model, &config, &mut eng).unwrap();
        assert_eq!(loaded.tables.len(), 5);
        assert_eq!(loaded.fm_tables.len(), 2);
        assert_eq!(loaded.layout.len(), 3);
        assert!(loaded.sm_written_bytes > Bytes::ZERO);
        assert!(loaded.load_time > SimDuration::ZERO);
        assert!(loaded.on_sm(0));
        assert!(!loaded.on_sm(3));
        assert_eq!(loaded.fm_mapping_bytes, Bytes::ZERO);
    }

    #[test]
    fn sm_rows_written_match_generated_tables() {
        let model = model_zoo::tiny(1, 0, 100);
        let config = SdmConfig::for_tests();
        let mut eng = engine(&config);
        let loaded = ModelLoader::load(&model, &config, &mut eng).unwrap();
        let reference = EmbeddingTable::generate(&model.tables[0], config.seed);
        let placement = loaded.layout.placement(0).unwrap();
        // Read row 7 back from the device and compare.
        let offset = placement.row_offset(7).unwrap();
        let out = eng
            .array_mut()
            .read(
                DeviceId(placement.device_index),
                &scm_device::ReadCommand::sgl(offset, placement.row_bytes),
                1,
            )
            .unwrap();
        assert_eq!(out.data, reference.row(7).unwrap());
    }

    #[test]
    fn pruned_tables_keep_mapping_in_fm_unless_depruned() {
        let mut model = model_zoo::tiny(1, 0, 300);
        model.tables[0].pruned_fraction = 0.4;
        let config = SdmConfig::for_tests();
        let mut eng = engine(&config);
        let loaded = ModelLoader::load(&model, &config, &mut eng).unwrap();
        let t = &loaded.tables[&0];
        assert!(t.mapping.is_some());
        assert!(loaded.fm_mapping_bytes > Bytes::ZERO);
        assert!(t.stored.num_rows < t.logical.num_rows);

        // With de-pruning the mapping disappears and the stored table is full
        // size again.
        let config = SdmConfig {
            transform: LoadTransform {
                deprune: true,
                dequantize: false,
            },
            ..SdmConfig::for_tests()
        };
        let mut eng = engine(&config);
        let loaded = ModelLoader::load(&model, &config, &mut eng).unwrap();
        let t = &loaded.tables[&0];
        assert!(t.mapping.is_none());
        assert_eq!(loaded.fm_mapping_bytes, Bytes::ZERO);
        assert_eq!(t.stored.num_rows, t.logical.num_rows);
    }

    #[test]
    fn dequantize_at_load_expands_sm_footprint() {
        let model = model_zoo::tiny(1, 0, 200);
        let base_cfg = SdmConfig::for_tests();
        let mut eng = engine(&base_cfg);
        let quantised = ModelLoader::load(&model, &base_cfg, &mut eng).unwrap();

        let wide_cfg = SdmConfig {
            transform: LoadTransform {
                deprune: false,
                dequantize: true,
            },
            ..SdmConfig::for_tests()
        };
        let mut eng = engine(&wide_cfg);
        let dequantised = ModelLoader::load(&model, &wide_cfg, &mut eng).unwrap();
        assert!(dequantised.sm_written_bytes > quantised.sm_written_bytes * 2);
        assert_eq!(dequantised.tables[&0].stored.quant, QuantScheme::Fp32);
    }

    #[test]
    fn oversized_model_is_rejected() {
        let model = model_zoo::tiny(2, 0, 50_000);
        let mut config = SdmConfig::for_tests();
        config.device_capacity = Bytes::from_kib(64);
        let mut eng = engine(&config);
        assert!(ModelLoader::load(&model, &config, &mut eng).is_err());
    }
}
