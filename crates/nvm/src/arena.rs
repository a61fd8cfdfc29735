//! Append-only, deduplicating word-image arena for state-space searches.
//!
//! Breadth-first searches revisit states in arbitrary order, so every
//! frontier node must *carry* the memory it will resume from. Storing a
//! [`MemSnapshot`](crate::MemSnapshot) per node costs a `Vec` plus a
//! `BTreeMap` allocation each, and moving nodes between worker threads
//! moves those heaps with them. For crash-free searches the logical word
//! image alone determines all future behavior, and the same image recurs
//! across many nodes (the same memory with different in-flight machines),
//! so the Theorem 1 census stores each **distinct** image once in a shared
//! [`StateArena`] and hands nodes around as 8-byte [`CompactState`]
//! handles: peak memory drops from O(nodes × memory) to
//! O(nodes + distinct images × memory), and node hand-off between workers
//! is a copy of one word.
//!
//! The arena is sharded (64 ways, like the census visited set): interning
//! hashes the image, locks one shard, compares against the images already
//! stored under that hash (dedup is **exact** — hashes only route), and
//! appends to the shard's flat word store only when the image is novel.
//! Entries are never moved or freed, so a handle stays valid for the
//! arena's lifetime and reads only lock the one shard they touch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::hash::FoldBuildHasher;
use crate::word::Word;

const SHARDS: usize = 64;

/// A handle to one interned word image: shard and slot, packed so frontier
/// nodes carry 8 bytes instead of an owned memory copy. Equal images intern
/// to equal handles (within one arena), so handles double as exact image
/// identity.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CompactState {
    shard: u32,
    slot: u32,
}

#[derive(Default)]
struct Shard {
    /// Image hash → slots whose stored image carries that hash (exact
    /// comparison resolves collisions). The key is already a hash, so the
    /// map mixes it with one fold rather than the default SipHash.
    index: HashMap<u64, Vec<u32>, FoldBuildHasher>,
    /// Slot `s` occupies `words[s * stride .. (s + 1) * stride]`.
    words: Vec<Word>,
}

/// A sharded, append-only store of fixed-width word images with exact
/// deduplication. See the [module docs](self).
pub struct StateArena {
    stride: usize,
    shards: Vec<Mutex<Shard>>,
    distinct: AtomicUsize,
}

impl StateArena {
    /// An empty arena for images of exactly `stride` words (a search over
    /// one layout interns `Layout::total_words`-sized images).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero — a zero-width image cannot address
    /// anything.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "arena stride must be positive");
        StateArena {
            stride,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            distinct: AtomicUsize::new(0),
        }
    }

    /// Words per interned image.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct images stored.
    pub fn distinct(&self) -> usize {
        self.distinct.load(Ordering::Relaxed)
    }

    /// Total words held across all shards (`distinct() * stride()`) — the
    /// arena's storage footprint, for callers accounting memory.
    pub fn stored_words(&self) -> usize {
        self.distinct() * self.stride
    }

    /// Interns `images` — stride-sized images back to back, one hash each
    /// from `hashes` — writing one handle per image, in order, into `out`:
    /// the existing slot if an equal image was interned before (by any
    /// thread), a freshly appended slot otherwise.
    ///
    /// A hash routes its image to a shard and keys the dedup index, so it
    /// **must be a pure function of the image contents** (the same image
    /// must always arrive with the same hash, or dedup silently degrades
    /// to duplicate storage — identity stays exact either way, membership
    /// is decided by comparison). The census passes the image hash it
    /// computes for its fingerprints anyway.
    ///
    /// The images are grouped by destination shard first, so each distinct
    /// shard is locked **once per batch** instead of once per image; the
    /// handles are those one-image batches in order would return.
    /// Worker threads of a parallel search stage a whole expansion's
    /// admitted successors locally and intern them in one call, cutting
    /// the shard-lock round-trips and the cache-line traffic they cause.
    /// Duplicates *within* one batch dedup like any others: the first copy
    /// appends, later copies hit the shard index it just extended.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not one stride per hash.
    pub fn intern_batch(
        &self,
        images: &[Word],
        hashes: impl IntoIterator<Item = u64>,
        out: &mut Vec<CompactState>,
    ) {
        // Sort (shard, index, hash): groups by shard while keeping batch
        // order within each shard, so slot assignment matches the
        // one-call-per-image order exactly.
        let mut order: Vec<(usize, usize, u64)> = hashes
            .into_iter()
            .enumerate()
            .map(|(i, h)| ((h as usize) % SHARDS, i, h))
            .collect();
        assert_eq!(
            images.len(),
            order.len() * self.stride,
            "batch width != images × arena stride"
        );
        out.clear();
        out.resize(order.len(), CompactState { shard: 0, slot: 0 });
        order.sort_unstable();
        let mut at = 0;
        while at < order.len() {
            let shard_idx = order[at].0;
            let mut shard = self.shards[shard_idx].lock().expect("arena shard poisoned");
            while at < order.len() && order[at].0 == shard_idx {
                let (_, i, hash) = order[at];
                let image = &images[i * self.stride..(i + 1) * self.stride];
                out[i] = self.intern_locked(shard_idx, &mut shard, image, hash);
                at += 1;
            }
        }
    }

    /// The single-image intern body, run under `shard`'s lock.
    fn intern_locked(
        &self,
        shard_idx: usize,
        shard: &mut Shard,
        image: &[Word],
        hash: u64,
    ) -> CompactState {
        let Shard { index, words } = shard;
        let slots = index.entry(hash).or_default();
        // Hash routing only: membership is decided by exact comparison.
        for &slot in slots.iter() {
            let at = slot as usize * self.stride;
            if &words[at..at + self.stride] == image {
                return CompactState {
                    shard: shard_idx as u32,
                    slot,
                };
            }
        }
        let slot = (words.len() / self.stride) as u32;
        slots.push(slot);
        words.extend_from_slice(image);
        self.distinct.fetch_add(1, Ordering::Relaxed);
        CompactState {
            shard: shard_idx as u32,
            slot,
        }
    }

    /// Copies the image behind `handle` into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `handle` did not come from this arena (shard or slot out
    /// of range).
    pub fn read_into(&self, handle: CompactState, out: &mut Vec<Word>) {
        let shard = self.shards[handle.shard as usize]
            .lock()
            .expect("arena shard poisoned");
        let at = handle.slot as usize * self.stride;
        assert!(
            at + self.stride <= shard.words.len(),
            "arena handle out of range"
        );
        out.clear();
        out.extend_from_slice(&shard.words[at..at + self.stride]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{hash2, SEEDS};

    fn hash_image(image: &[Word]) -> u64 {
        hash2(SEEDS, image).0
    }

    /// Interns one image as a batch of one.
    fn intern(arena: &StateArena, image: &[Word]) -> CompactState {
        let mut out = Vec::new();
        arena.intern_batch(image, [hash_image(image)], &mut out);
        out[0]
    }

    #[test]
    fn intern_dedups_and_reads_back() {
        let arena = StateArena::new(3);
        let a = intern(&arena, &[1, 2, 3]);
        let b = intern(&arena, &[4, 5, 6]);
        let a2 = intern(&arena, &[1, 2, 3]);
        assert_eq!(a, a2, "equal images share a slot");
        assert_ne!(a, b);
        assert_eq!(arena.distinct(), 2);
        assert_eq!(arena.stored_words(), 6);
        let mut out = Vec::new();
        arena.read_into(a, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        arena.read_into(b, &mut out);
        assert_eq!(out, vec![4, 5, 6]);
    }

    #[test]
    fn concurrent_interning_agrees_on_identity() {
        let arena = StateArena::new(2);
        let handles: Vec<Vec<CompactState>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| (0..100u64).map(|i| intern(&arena, &[i % 10, 7])).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("intern worker panicked"))
                .collect()
        });
        assert_eq!(arena.distinct(), 10, "10 distinct images across threads");
        for other in &handles[1..] {
            assert_eq!(&handles[0], other, "every thread saw the same handles");
        }
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn wrong_width_is_rejected() {
        intern(&StateArena::new(2), &[1]);
    }

    #[test]
    fn batch_interning_matches_per_image_interning() {
        // The batch path must hand out exactly the handles the one-call
        // path would: same dedup, same slots, staging order preserved.
        let reference = StateArena::new(2);
        let batched = StateArena::new(2);
        let images: Vec<[Word; 2]> = (0..200u64).map(|i| [i % 13, i % 7]).collect();
        let one_by_one: Vec<CompactState> =
            images.iter().map(|im| intern(&reference, im)).collect();

        let mut out = Vec::new();
        let mut via_batch = Vec::new();
        for chunk in images.chunks(9) {
            let flat: Vec<Word> = chunk.concat();
            batched.intern_batch(&flat, chunk.iter().map(|im| hash_image(im)), &mut out);
            via_batch.extend(out.iter().copied());
        }
        assert_eq!(via_batch, one_by_one);
        assert_eq!(batched.distinct(), reference.distinct());
    }

    #[test]
    fn duplicates_within_one_batch_share_a_handle() {
        let arena = StateArena::new(2);
        let images: [[Word; 2]; 3] = [[1, 2], [3, 4], [1, 2]];
        let mut out = Vec::new();
        arena.intern_batch(
            &images.concat(),
            images.iter().map(|im| hash_image(im)),
            &mut out,
        );
        assert_eq!(out[0], out[2], "in-batch duplicate dedups");
        assert_ne!(out[0], out[1]);
        assert_eq!(arena.distinct(), 2);
    }
}
