//! A cheap hasher for integer keys the program generates itself.
//!
//! The standard `HashMap` defaults to SipHash, which defends against keys an
//! adversary crafts to collide. Arena offsets, chunk indices and table tags
//! are produced by this program, so that defence buys nothing on the
//! per-IO paths that look them up — one multiply per word does. Keep the
//! default hasher for anything keyed by outside input.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (2^64 / golden ratio): multiplying by it is a bijection
/// on `u64` that pushes every input bit towards the high half.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-rotate hasher over the integer words of a key.
///
/// Each word is folded in with one multiply; [`Hasher::finish`] folds the
/// well-mixed high half back into the low half, because `hashbrown` takes
/// the bucket index from the low bits and aligned offsets (multiples of a
/// row size) would otherwise share them.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by program-generated integers (see the module docs).
#[expect(
    clippy::disallowed_types,
    reason = "the one HashMap the serving path may name: it brings its own hasher"
)]
pub type IntMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Offsets that are all multiples of 128 must not collapse onto a
        // handful of bucket indices (the low 7 bits of the hash).
        let build = BuildHasherDefault::<IntHasher>::default();
        let mut seen = [false; 128];
        for i in 0..4096usize {
            seen[(build.hash_one(i * 128) & 127) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "low hash bits are not mixed");
    }

    #[test]
    fn map_roundtrip() {
        let mut map: IntMap<u64, u32> = IntMap::default();
        for i in 0..1000u64 {
            map.insert(i * 4096, i as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(7 * 4096)), Some(&7));
        assert_eq!(map.remove(&(7 * 4096)), Some(7));
        assert_eq!(map.get(&(7 * 4096)), None);
    }
}
