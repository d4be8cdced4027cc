//! Zipf-distributed index sampling with a scrambled rank → row mapping.
//!
//! A plain Zipf sampler would make row 0 the hottest, row 1 the second
//! hottest and so on, which would create artificial *spatial* locality (hot
//! rows packed into the first few 4 KiB blocks). Production tables have hot
//! rows scattered across the index space, which is exactly why the paper
//! finds temporal locality without spatial locality (Figures 4 and 5). The
//! sampler therefore applies a deterministic pseudo-random permutation to the
//! sampled rank.

use crate::error::WorkloadError;
use rand::Rng;
use rand_distr::{Distribution, Zipf};

/// Samples row indices for one table with power-law popularity.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    num_rows: u64,
    zipf: Zipf<f64>,
    scramble_key: u64,
}

impl ZipfSampler {
    /// Creates a sampler over `num_rows` rows with the given Zipf exponent
    /// (`s` near 0 is uniform, `s` around 1 is strongly skewed).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] when `num_rows` is zero or
    /// the exponent is negative or not finite.
    pub fn new(num_rows: u64, exponent: f64, scramble_key: u64) -> Result<Self, WorkloadError> {
        if num_rows == 0 {
            return Err(WorkloadError::InvalidConfig {
                reason: "zipf sampler needs at least one row".into(),
            });
        }
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(WorkloadError::InvalidConfig {
                reason: format!("zipf exponent {exponent} must be finite and non-negative"),
            });
        }
        // rand_distr's Zipf requires s > 0; treat 0 as "almost uniform".
        let effective = exponent.max(1e-3);
        let zipf = Zipf::new(num_rows, effective).map_err(|e| WorkloadError::InvalidConfig {
            reason: format!("zipf construction failed: {e}"),
        })?;
        Ok(ZipfSampler {
            num_rows,
            zipf,
            scramble_key,
        })
    }

    /// Maps a popularity rank (1 = hottest) to a scattered row index.
    fn scramble(&self, rank: u64) -> u64 {
        // Feistel-free multiplicative hash, then reduce modulo the table
        // size. Collisions merely merge two ranks onto one row, which is
        // harmless for locality statistics.
        let mut x = rank ^ self.scramble_key;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x % self.num_rows
    }

    /// Draws one row index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.zipf.sample(rng) as u64;
        self.scramble(rank.clamp(1, self.num_rows))
    }

    /// Draws a pooled lookup: `count` row indices (duplicates allowed, as in
    /// real traces).
    pub(crate) fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(ZipfSampler::new(0, 1.0, 0).is_err());
        assert!(ZipfSampler::new(10, -1.0, 0).is_err());
        assert!(ZipfSampler::new(10, f64::NAN, 0).is_err());
        assert!(ZipfSampler::new(10, 0.0, 0).is_ok());
    }

    #[test]
    fn samples_are_in_range_and_deterministic() {
        let s = ZipfSampler::new(1000, 0.9, 7).unwrap();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let xs = s.sample_many(&mut a, 100);
        let ys = s.sample_many(&mut b, 100);
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 1000));
        assert_eq!(s.num_rows, 1000);
    }

    #[test]
    fn high_exponent_concentrates_accesses() {
        let rows = 10_000u64;
        let skewed = ZipfSampler::new(rows, 1.1, 3).unwrap();
        let uniform = ZipfSampler::new(rows, 0.01, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let count_top_share = |sampler: &ZipfSampler, rng: &mut StdRng| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for _ in 0..20_000 {
                *counts.entry(sampler.sample(rng)).or_default() += 1;
            }
            let mut freqs: Vec<u64> = counts.values().copied().collect();
            freqs.sort_unstable_by(|a, b| b.cmp(a));
            let top = freqs.iter().take(freqs.len() / 100 + 1).sum::<u64>() as f64;
            top / 20_000.0
        };
        let skewed_share = count_top_share(&skewed, &mut rng);
        let uniform_share = count_top_share(&uniform, &mut rng);
        assert!(
            skewed_share > 3.0 * uniform_share,
            "skewed {skewed_share} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn hot_rows_are_scattered_across_blocks() {
        // The hottest 100 ranks should not cluster into a handful of 4KiB
        // blocks (assuming 128B rows → 32 rows per block).
        let s = ZipfSampler::new(100_000, 1.0, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(s.sample(&mut rng)).or_default() += 1;
        }
        let mut rows: Vec<(u64, u64)> = counts.into_iter().collect();
        rows.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
        let hot_blocks: std::collections::HashSet<u64> =
            rows.iter().take(100).map(|(r, _)| r / 32).collect();
        assert!(
            hot_blocks.len() > 80,
            "hot rows clustered: {}",
            hot_blocks.len()
        );
    }

    #[test]
    fn different_scramble_keys_give_different_hot_sets() {
        let a = ZipfSampler::new(1000, 1.0, 1).unwrap();
        let b = ZipfSampler::new(1000, 1.0, 2).unwrap();
        // Rank 1 maps to different rows under different keys.
        assert_ne!(a.scramble(1), b.scramble(1));
    }
}
