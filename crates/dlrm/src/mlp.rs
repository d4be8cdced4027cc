//! Small dense MLP used for the bottom and top networks.

use crate::config::MlpConfig;
use crate::error::DlrmError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fully connected layer with ReLU activation.
#[derive(Debug, Clone)]
struct DenseLayer {
    weights: Vec<f32>, // row-major, out x in
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl DenseLayer {
    /// Creates a layer with deterministic pseudo-random weights.
    pub(crate) fn generate(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / (in_dim.max(1) as f32)).sqrt();
        DenseLayer {
            weights: (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-scale..scale))
                .collect(),
            bias: (0..out_dim).map(|_| rng.gen_range(-0.01..0.01)).collect(),
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Forward pass with ReLU, writing into a reusable output vector
    /// (cleared and refilled; capacity is reused across calls, so a warm
    /// serving loop allocates nothing here).
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::DimensionMismatch`] for a wrong input length.
    pub(crate) fn forward_into(&self, input: &[f32], out: &mut Vec<f32>) -> Result<(), DlrmError> {
        if input.len() != self.in_dim {
            return Err(DlrmError::DimensionMismatch {
                expected: self.in_dim,
                actual: input.len(),
            });
        }
        out.clear();
        out.reserve(self.out_dim);
        for o in 0..self.out_dim {
            let mut acc = self.bias[o];
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            out.push(acc.max(0.0));
        }
        Ok(())
    }
}

/// A stack of dense layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    config: MlpConfig,
}

impl Mlp {
    /// Materialises an MLP from its configuration with deterministic
    /// weights.
    pub fn generate(config: &MlpConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = config
            .widths
            .windows(2)
            .map(|w| DenseLayer::generate(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            config: config.clone(),
        }
    }

    /// Input dimension of the first layer (0 for an empty stack).
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim()).unwrap_or(0)
    }

    /// Forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::DimensionMismatch`] when the input does not
    /// match the first layer.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, DlrmError> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.forward_into(input, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Forward pass through every layer using two reusable ping-pong
    /// buffers; the result lands in `out`. Both buffers are cleared and
    /// refilled, so a serving loop that reuses them allocates nothing once
    /// their capacity has grown to the widest layer.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::DimensionMismatch`] when the input does not
    /// match the first layer.
    pub fn forward_into(
        &self,
        input: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut Vec<f32>,
    ) -> Result<(), DlrmError> {
        out.clear();
        out.extend_from_slice(input);
        for layer in &self.layers {
            layer.forward_into(out, scratch)?;
            std::mem::swap(out, scratch);
        }
        Ok(())
    }

    /// FLOPs of one forward pass.
    pub(crate) fn flops(&self) -> u64 {
        self.config.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_produces_expected_shapes() {
        let mlp = Mlp::generate(&MlpConfig::new(vec![4, 8, 3]), 1);
        assert_eq!(mlp.input_dim(), 4);
        let out = mlp.forward(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(out.len(), 3);
        // ReLU output is non-negative.
        assert!(out.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let mlp = Mlp::generate(&MlpConfig::new(vec![4, 2]), 1);
        assert!(matches!(
            mlp.forward(&[1.0, 2.0]),
            Err(DlrmError::DimensionMismatch {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Mlp::generate(&MlpConfig::new(vec![6, 6, 1]), 9);
        let b = Mlp::generate(&MlpConfig::new(vec![6, 6, 1]), 9);
        let c = Mlp::generate(&MlpConfig::new(vec![6, 6, 1]), 10);
        let x = [0.5f32; 6];
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
        // Compare the weights themselves rather than a forward pass: a
        // single ReLU output can saturate to 0.0 under both seeds, which
        // would mask genuinely different models.
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn flops_come_from_config() {
        let cfg = MlpConfig::new(vec![10, 20, 5]);
        let mlp = Mlp::generate(&cfg, 0);
        assert_eq!(mlp.flops(), cfg.flops());
        assert_eq!(mlp.config, cfg);
    }

    #[test]
    fn zero_input_propagates_to_bias_relu() {
        let mlp = Mlp::generate(&MlpConfig::new(vec![3, 2]), 4);
        let out = mlp.forward(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(out.len(), 2);
    }
}
