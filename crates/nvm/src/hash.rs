//! Word hashing for state-space fingerprints.
//!
//! A folded-multiply hasher: each word is XORed into the state, and the
//! state is replaced by the 128-bit product with an odd constant, low half
//! XOR high half. [`hash2`] runs two lanes with distinct constants and
//! seeds in **one** pass over the words, so a caller gets a 128-bit
//! fingerprint for the cost of reading its input once. [`FoldBuildHasher`]
//! puts the same mix behind `std`'s hashing traits, for maps keyed by such
//! fingerprints (or by short word vectors).
//!
//! The hash is unkeyed, like `DefaultHasher::new()`: it is for the
//! program's own states, never for keys taken from outside input.

use std::hash::{BuildHasherDefault, Hasher};

use crate::word::Word;

/// Per-lane multipliers: odd, with no structure shared between the lanes.
const MUL: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93];

/// The default lane seeds (the fractional digits of π).
pub const SEEDS: (u64, u64) = (0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344);

fn fold(x: u64, mul: u64) -> u64 {
    let p = u128::from(x) * u128::from(mul);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Two independent 64-bit hashes of `words` under `seeds`, one pass. The
/// length is folded in last, so inputs that differ only in trailing zero
/// words still differ.
pub fn hash2(seeds: (u64, u64), words: &[Word]) -> (u64, u64) {
    let (mut a, mut b) = seeds;
    for &w in words {
        a = fold(a ^ w, MUL[0]);
        b = fold(b ^ w, MUL[1]);
    }
    let len = words.len() as u64;
    (fold(a ^ len, MUL[1]), fold(b ^ len, MUL[0]))
}

/// A [`Hasher`] running one lane of the fold per 64-bit write. Byte writes
/// are taken eight at a time, so a `[Word]` key costs one fold per word.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(SEEDS.0)
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = fold(self.0 ^ w, MUL[0]);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) for fingerprint-keyed maps
/// and sets.
pub type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every eight-word vector with entries in `0..6`.
    fn small_vectors() -> Vec<[Word; 8]> {
        (0..6u64.pow(8))
            .map(|mut n| {
                let mut v = [0; 8];
                for w in &mut v {
                    *w = n % 6;
                    n /= 6;
                }
                v
            })
            .collect()
    }

    #[test]
    fn each_lane_is_collision_free_on_small_vectors() {
        let hashes: Vec<(u64, u64)> = small_vectors().iter().map(|v| hash2(SEEDS, v)).collect();
        assert_eq!(hashes.len(), 1_679_616);
        for lane in [0, 1] {
            let mut h: Vec<u64> = hashes
                .iter()
                .map(|&(a, b)| if lane == 0 { a } else { b })
                .collect();
            h.sort_unstable();
            h.dedup();
            assert_eq!(h.len(), hashes.len(), "lane {lane} collides");
        }
        assert!(
            hashes.iter().all(|&(a, b)| a != b),
            "the two lanes agree on some input"
        );
    }

    #[test]
    fn length_and_seed_change_both_lanes() {
        let base = hash2(SEEDS, &[1, 2, 3]);
        for other in [
            hash2(SEEDS, &[1, 2, 3, 0]),
            hash2(SEEDS, &[1, 2]),
            hash2((SEEDS.0 ^ 1, SEEDS.1 ^ 1), &[1, 2, 3]),
        ] {
            assert_ne!(other.0, base.0);
            assert_ne!(other.1, base.1);
        }
        assert_ne!(hash2(SEEDS, &[]), hash2(SEEDS, &[0]));
    }

    #[test]
    fn vec_and_slice_keys_hash_alike() {
        use std::hash::BuildHasher;
        let build = FoldBuildHasher::default();
        let key: Vec<Word> = vec![4, 5, 6];
        // Sets of `Vec<Word>` are probed with borrowed slices.
        assert_eq!(build.hash_one(&key), build.hash_one(key.as_slice()));
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
    }
}
