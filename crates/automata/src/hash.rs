//! The one hasher behind every in-memory map, set and shard pick.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// rustc-hash 2's construction with its fixed seed, 0: each 64-bit word
/// `w` sets `h = (h + w) · K`, and `finish` rotates `h` left by 26 so a
/// shard pick's `% n` reads mixed bits. Every process hashes alike. It
/// never feeds a stored or sent key, and crafted collisions cost CPU,
/// never a verdict (`docs/ARCHITECTURE.md`, *Determinism*).
#[derive(Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.0 = self.0.wrapping_add(word).wrapping_mul(K);
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FixedHasher`]s: a map's state, and a shard pick's `hash_one`.
pub type FixedState = BuildHasherDefault<FixedHasher>;
/// A [`HashMap`] under [`FixedState`].
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;
/// A [`HashSet`] under [`FixedState`].
pub type FixedSet<T> = HashSet<T, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        FixedState::default().hash_one(key)
    }

    /// Recorded once: a changed seed, a changed construction or a
    /// per-process `RandomState` behind the alias moves these values.
    #[test]
    fn the_hasher_is_pinned_and_spreads_sequential_keys() {
        let class_key: (u128, u128, usize) = (u128::MAX / 3, 7, usize::MAX);
        let pinned = [
            hash_of(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128),
            hash_of(class_key),
            hash_of("ingress-R0C1"),
            hash_of(vec![0usize, 1, 5, 9]),
        ];
        let recorded = [
            5_777_156_171_602_510_347,
            10_117_128_175_686_155_985,
            5_756_459_399_000_789_286,
            10_311_868_198_470_746_790,
        ];
        assert_eq!(pinned, recorded);

        let mut shards = [0usize; 64];
        for key in 0..10_000usize {
            shards[hash_of(key) as usize % 64] += 1;
        }
        let mean = 10_000 / 64;
        assert!(shards.iter().all(|&n| n <= 2 * mean), "{shards:?}");
    }
}
