//! Model and compute configuration.

use crate::error::DlrmError;
use embedding::{TableDescriptor, TableKind};
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use serde::{Deserialize, Serialize};

/// Shape of an MLP stack: the layer widths, input to output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Layer widths including the input width (so `n` widths describe
    /// `n - 1` dense layers).
    pub widths: Vec<usize>,
}

impl MlpConfig {
    /// Creates a config from layer widths.
    pub fn new(widths: Vec<usize>) -> Self {
        MlpConfig { widths }
    }

    /// A uniform stack of `layers` dense layers of width `width`.
    pub(crate) fn uniform(layers: usize, width: usize) -> Self {
        MlpConfig {
            widths: vec![width.max(1); layers.max(1) + 1],
        }
    }

    /// Multiply-accumulate FLOPs per forward pass of one sample.
    pub(crate) fn flops(&self) -> u64 {
        self.widths
            .windows(2)
            .map(|w| 2 * (w[0] as u64) * (w[1] as u64))
            .sum()
    }

    /// Scales every width by `factor` (used to materialise a laptop-sized
    /// replica of a datacenter-scale MLP while keeping the layer count).
    pub(crate) fn scaled(&self, factor: f64) -> MlpConfig {
        MlpConfig {
            widths: self
                .widths
                .iter()
                .map(|&w| ((w as f64 * factor).round() as usize).max(2))
                .collect(),
        }
    }
}

/// The inference use case (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum UseCase {
    /// Latency-sensitive serving: user batch 1, item batch ≫ 1.
    #[default]
    Inference,
    /// Accuracy validation: user batch equals item batch.
    InferenceEval,
}

/// Host compute capability used to convert FLOPs into time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Sustained dense-math throughput in FLOP/s.
    pub flops_per_second: f64,
    /// Fixed per-operator dispatch overhead.
    pub operator_overhead: SimDuration,
}

impl Default for ComputeModel {
    fn default() -> Self {
        // A single CPU socket's order of magnitude for fp32 GEMM.
        ComputeModel {
            flops_per_second: 2.0e11,
            operator_overhead: SimDuration::from_micros(2),
        }
    }
}

impl ComputeModel {
    /// An accelerator-class compute model (the paper's HW-A* platforms).
    pub fn accelerator() -> Self {
        ComputeModel {
            flops_per_second: 2.0e13,
            operator_overhead: SimDuration::from_micros(1),
        }
    }

    /// Time to execute `flops` floating point operations.
    pub(crate) fn time_for_flops(&self, flops: u64) -> SimDuration {
        if self.flops_per_second <= 0.0 {
            return self.operator_overhead;
        }
        self.operator_overhead + SimDuration::from_secs_f64(flops as f64 / self.flops_per_second)
    }
}

/// A full DLRM model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model name (M1/M2/M3 or custom).
    pub name: String,
    /// Every embedding table in the model.
    pub tables: Vec<TableDescriptor>,
    /// Bottom MLP (continuous features → dense representation).
    pub bottom_mlp: MlpConfig,
    /// Top MLP (interaction → score).
    pub top_mlp: MlpConfig,
    /// Number of continuous (dense) input features.
    pub dense_features: usize,
    /// Default item batch per query.
    pub item_batch: u32,
    /// Use case the model serves.
    pub use_case: UseCase,
}

impl ModelConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidModel`] when there are no tables, table
    /// ids collide, or a table fails its own validation.
    pub fn validate(&self) -> Result<(), DlrmError> {
        if self.tables.is_empty() {
            return Err(DlrmError::InvalidModel {
                reason: "model has no embedding tables".into(),
            });
        }
        let mut ids: Vec<u32> = self.tables.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.tables.len() {
            return Err(DlrmError::InvalidModel {
                reason: "duplicate table ids".into(),
            });
        }
        for t in &self.tables {
            t.validate().map_err(|e| DlrmError::InvalidModel {
                reason: e.to_string(),
            })?;
        }
        if self.item_batch == 0 {
            return Err(DlrmError::InvalidModel {
                reason: "item_batch must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Tables of a given kind.
    pub(crate) fn tables_of(&self, kind: TableKind) -> Vec<&TableDescriptor> {
        self.tables.iter().filter(|t| t.kind == kind).collect()
    }

    /// User-side tables.
    pub fn user_tables(&self) -> Vec<&TableDescriptor> {
        self.tables_of(TableKind::User)
    }

    /// Item-side tables.
    pub fn item_tables(&self) -> Vec<&TableDescriptor> {
        self.tables_of(TableKind::Item)
    }

    /// Total embedding capacity.
    pub fn embedding_capacity(&self) -> Bytes {
        self.tables.iter().map(|t| t.capacity()).sum()
    }

    /// Capacity of the user-side embeddings.
    pub fn user_capacity(&self) -> Bytes {
        self.user_tables().iter().map(|t| t.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ModelConfig {
        ModelConfig {
            name: "tiny".into(),
            tables: vec![
                TableDescriptor::new(0, "u", TableKind::User, 100, 8).with_pooling_factor(4),
                TableDescriptor::new(1, "i", TableKind::Item, 100, 8).with_pooling_factor(2),
            ],
            bottom_mlp: MlpConfig::new(vec![4, 8, 8]),
            top_mlp: MlpConfig::new(vec![24, 16, 1]),
            dense_features: 4,
            item_batch: 5,
            use_case: UseCase::Inference,
        }
    }

    #[test]
    fn mlp_config_arithmetic() {
        let m = MlpConfig::new(vec![4, 8, 2]);
        assert_eq!(m.flops(), 2 * (4 * 8 + 8 * 2));
        let u = MlpConfig::uniform(3, 10);
        let s = u.scaled(0.1);
        assert!(s.widths.iter().all(|&w| w == 2));
    }

    #[test]
    fn compute_model_converts_flops_to_time() {
        let c = ComputeModel::default();
        let t1 = c.time_for_flops(0);
        let t2 = c.time_for_flops(2_000_000_000);
        assert_eq!(t1, c.operator_overhead);
        assert!(t2 > t1);
        assert!(ComputeModel::accelerator().time_for_flops(2_000_000_000) < t2);
    }

    #[test]
    fn model_validation_catches_problems() {
        assert!(tiny_model().validate().is_ok());

        let mut no_tables = tiny_model();
        no_tables.tables.clear();
        assert!(no_tables.validate().is_err());

        let mut dup = tiny_model();
        dup.tables[1].id = 0;
        assert!(dup.validate().is_err());

        let mut zero_batch = tiny_model();
        zero_batch.item_batch = 0;
        assert!(zero_batch.validate().is_err());
    }

    #[test]
    fn capacity_and_lookup_helpers() {
        let m = tiny_model();
        assert_eq!(m.user_tables().len(), 1);
        assert_eq!(m.item_tables().len(), 1);
        assert_eq!(m.embedding_capacity(), Bytes(2 * 100 * 16));
        assert_eq!(m.user_capacity(), Bytes(100 * 16));
    }
}
