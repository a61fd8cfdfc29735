//! Disk-spillable word-image arena for external-memory state-space searches.
//!
//! The census's disk tier keeps its frontier on disk, so its nodes carry
//! handles into a store of their memory images rather than the images
//! themselves. [`SpillableArena`] is that store: append-only, with
//! deduplication and stable handles, its storage partitioned into
//! fixed-size **segments**: one active segment accepts appends in
//! RAM, and every filled segment is *sealed* — written to a file under a
//! caller-supplied directory and dropped from RAM. Reads of
//! sealed segments go through a small hot-segment cache; a miss reads the
//! whole segment back from its file. Only the active segment, the cache,
//! and the dedup index stay resident, so the arena's RAM footprint is
//! bounded by configuration, not by N.
//!
//! # Identity is probabilistic, not exact
//!
//! Resolving hash collisions by exact image comparison would mean a disk
//! read per intern. Instead the dedup index keys on a caller-supplied
//! **128-bit** hash and trusts it: two distinct images with equal
//! 128-bit hashes would alias. This is the
//! same trade the census already makes for its visited-set fingerprints
//! (see `Census::key_prefix` in the harness), so the disk tier adds
//! no *new* class of error by using it — and the differential tests pin
//! it against the exact in-RAM engine on every count.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::hash::FoldBuildHasher;
use crate::word::Word;

/// Sizing knobs and directory of a [`SpillableArena`]. Callers derive the
/// sizes from a RAM budget.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Images per segment. The active segment and each cached segment
    /// cost `seg_slots * stride * 8` bytes of RAM.
    pub seg_slots: usize,
    /// Sealed segments kept hot in RAM for re-reads (LRU-evicted).
    pub hot_segments: usize,
    /// Where sealed segments are written.
    pub disk_dir: PathBuf,
}

/// Counters describing how much of a [`SpillableArena`]'s traffic hit the
/// disk tier.
#[derive(Copy, Clone, Default, Debug)]
pub struct SpillArenaStats {
    /// Segments filled, sealed and written to files.
    pub segments_spilled: usize,
    /// Whole-segment reads back from files (hot-cache misses).
    pub segment_reads: usize,
    /// Sealed-segment reads served from the hot cache.
    pub cache_hits: usize,
}

/// A sealed segment: its file, opened read-only.
struct Sealed {
    file: File,
    path: PathBuf,
}

struct Inner {
    /// 128-bit image hash → handle. Stays resident; this is the one
    /// structure whose size still grows with distinct images (24 bytes
    /// per image instead of a full image).
    index: HashMap<(u64, u64), u64, FoldBuildHasher>,
    active: Vec<Word>,
    sealed: Vec<Sealed>,
    cache: HashMap<usize, Box<[Word]>>,
    cache_order: VecDeque<usize>,
    stats: SpillArenaStats,
    peak_resident: usize,
}

/// A segmented, disk-spillable, append-only store of fixed-width word
/// images deduplicated by 128-bit hash. See the [module docs](self).
pub struct SpillableArena {
    stride: usize,
    cfg: SpillConfig,
    inner: Mutex<Inner>,
}

impl SpillableArena {
    /// An empty arena for images of exactly `stride` words.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `cfg.seg_slots` is zero.
    pub fn new(stride: usize, cfg: SpillConfig) -> Self {
        assert!(stride > 0, "arena stride must be positive");
        assert!(cfg.seg_slots > 0, "segments must hold at least one image");
        // The first segment is reserved whole, like every later one: a
        // census interns from several threads, and a segment grown by
        // reallocation would leave freed copies resident in each thread's
        // allocator. Its pages are touched only as images arrive.
        let active = Vec::with_capacity(cfg.seg_slots * stride);
        SpillableArena {
            stride,
            cfg,
            inner: Mutex::new(Inner {
                index: HashMap::default(),
                active,
                sealed: Vec::new(),
                cache: HashMap::new(),
                cache_order: VecDeque::new(),
                stats: SpillArenaStats::default(),
                peak_resident: 0,
            }),
        }
    }

    /// Words per interned image.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct images stored (by 128-bit hash identity).
    pub fn distinct(&self) -> usize {
        self.lock().index.len()
    }

    /// Disk-tier counters so far.
    pub fn spill_stats(&self) -> SpillArenaStats {
        self.lock().stats
    }

    /// High-water mark of the arena's *resident* footprint in bytes:
    /// dedup index plus active segment plus hot cache. An estimate
    /// (hash-map overhead is approximated), maintained so callers can
    /// check a RAM budget rather than assert it.
    pub fn peak_resident_bytes(&self) -> usize {
        self.lock().peak_resident
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("spillable arena poisoned")
    }

    fn resident_estimate(&self, inner: &Inner) -> usize {
        // Index: 16-byte key + 8-byte value + ~8 bytes of table overhead
        // per capacity slot. Word storage: exact.
        let index = inner.index.capacity() * 32;
        let active = inner.active.capacity() * 8;
        let cache: usize = inner.cache.values().map(|w| w.len() * 8).sum();
        index + active + cache
    }

    fn note_resident(&self, inner: &mut Inner) {
        let now = self.resident_estimate(inner);
        if now > inner.peak_resident {
            inner.peak_resident = now;
        }
    }

    /// Interns a batch of images in one lock acquisition: `images` holds
    /// `hashes.len()` stride-sized images back to back, and `out` receives
    /// one dense `u64` handle per image in order (equal hashes intern to
    /// equal handles). A hash **must be a pure function of the image
    /// contents**; distinct images with colliding hashes alias (see the
    /// module docs for why that trade is acceptable here).
    ///
    /// # Panics
    ///
    /// Panics if `images.len() != hashes.len() * stride`, or if sealing a
    /// segment to disk fails.
    pub fn intern128_batch(&self, images: &[Word], hashes: &[(u64, u64)], out: &mut Vec<u64>) {
        assert_eq!(
            images.len(),
            hashes.len() * self.stride,
            "batch width != images × arena stride"
        );
        out.clear();
        let mut inner = self.lock();
        for (i, &hash) in hashes.iter().enumerate() {
            let image = &images[i * self.stride..(i + 1) * self.stride];
            out.push(self.intern128_locked(&mut inner, image, hash));
        }
    }

    /// The single-image intern body, run under the arena lock.
    fn intern128_locked(&self, inner: &mut Inner, image: &[Word], hash: (u64, u64)) -> u64 {
        if let Some(&handle) = inner.index.get(&hash) {
            return handle;
        }
        let seg = inner.sealed.len();
        let slot = inner.active.len() / self.stride;
        let handle = (seg * self.cfg.seg_slots + slot) as u64;
        inner.active.extend_from_slice(image);
        inner.index.insert(hash, handle);
        if slot + 1 == self.cfg.seg_slots {
            self.seal(inner);
        }
        self.note_resident(inner);
        handle
    }

    /// Seals the (full) active segment: spills it to
    /// `disk_dir/arena-seg-N.bin`.
    fn seal(&self, inner: &mut Inner) {
        let words = std::mem::take(&mut inner.active);
        let seg = inner.sealed.len();
        let path = self.cfg.disk_dir.join(format!("arena-seg-{seg}.bin"));
        let mut file = File::create(&path)
            .unwrap_or_else(|e| panic!("create arena segment {}: {e}", path.display()));
        let mut buf = Vec::with_capacity(words.len() * 8);
        for w in &words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        file.write_all(&buf)
            .unwrap_or_else(|e| panic!("write arena segment {}: {e}", path.display()));
        inner.stats.segments_spilled += 1;
        // Reopen read-only so later reads cannot write back.
        let file = File::open(&path)
            .unwrap_or_else(|e| panic!("reopen arena segment {}: {e}", path.display()));
        inner.sealed.push(Sealed { file, path });
        inner.active = Vec::with_capacity(self.cfg.seg_slots * self.stride);
    }

    /// Copies the image behind `handle` into `out` (cleared first). A read
    /// of a spilled segment loads the whole segment into the hot cache,
    /// evicting the least-recently-loaded entry beyond `hot_segments`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` did not come from this arena, or if a segment
    /// file cannot be read back.
    pub fn read_into(&self, handle: u64, out: &mut Vec<Word>) {
        let seg = handle as usize / self.cfg.seg_slots;
        let slot = handle as usize % self.cfg.seg_slots;
        let at = slot * self.stride;
        let mut inner = self.lock();
        out.clear();
        if seg == inner.sealed.len() {
            assert!(
                at + self.stride <= inner.active.len(),
                "handle out of range"
            );
            out.extend_from_slice(&inner.active[at..at + self.stride]);
            return;
        }
        assert!(seg < inner.sealed.len(), "handle out of range");
        if let Some(words) = inner.cache.get(&seg) {
            out.extend_from_slice(&words[at..at + self.stride]);
            inner.stats.cache_hits += 1;
            return;
        }
        let words = self.load_segment(&mut inner, seg);
        out.extend_from_slice(&words[at..at + self.stride]);
        let evict = if inner.cache.len() >= self.cfg.hot_segments.max(1) {
            inner.cache_order.pop_front()
        } else {
            None
        };
        if let Some(old) = evict {
            inner.cache.remove(&old);
        }
        inner.cache.insert(seg, words);
        inner.cache_order.push_back(seg);
        inner.stats.segment_reads += 1;
        self.note_resident(&mut inner);
    }

    fn load_segment(&self, inner: &mut Inner, seg: usize) -> Box<[Word]> {
        let Sealed { file, path } = &mut inner.sealed[seg];
        let bytes = self.cfg.seg_slots * self.stride * 8;
        let mut buf = vec![0u8; bytes];
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_exact(&mut buf))
            .unwrap_or_else(|e| panic!("read arena segment {}: {e}", path.display()));
        buf.chunks_exact(8)
            .map(|c| Word::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }
}

impl Drop for SpillableArena {
    /// Best-effort removal of this arena's segment files, so a run that
    /// completes leaves its disk directory empty.
    fn drop(&mut self) {
        let inner = self.inner.get_mut().expect("spillable arena poisoned");
        for s in &inner.sealed {
            let _ = fs::remove_file(&s.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Interns one image as a batch of one.
    fn intern128(arena: &SpillableArena, image: &[Word], hash: (u64, u64)) -> u64 {
        let mut out = Vec::new();
        arena.intern128_batch(image, &[hash], &mut out);
        out[0]
    }

    fn hash(image: &[Word]) -> (u64, u64) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = DefaultHasher::new();
        0u64.hash(&mut a);
        image.hash(&mut a);
        let mut b = DefaultHasher::new();
        1u64.hash(&mut b);
        image.hash(&mut b);
        (a.finish(), b.finish())
    }

    fn unique_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nvm-spill-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn intern_dedups_and_reads_back_across_segments() {
        let dir = unique_dir();
        let arena = SpillableArena::new(
            3,
            SpillConfig {
                seg_slots: 2,
                hot_segments: 1,
                disk_dir: dir.clone(),
            },
        );
        let images: Vec<Vec<Word>> = (0..7u64).map(|i| vec![i, i + 1, i + 2]).collect();
        let handles: Vec<u64> = images
            .iter()
            .map(|im| intern128(&arena, im, hash(im)))
            .collect();
        for (im, &h) in images.iter().zip(&handles) {
            assert_eq!(intern128(&arena, im, hash(im)), h, "re-intern is stable");
        }
        assert_eq!(arena.distinct(), 7);
        assert_eq!(arena.spill_stats().segments_spilled, 3);
        let mut out = Vec::new();
        for (im, &h) in images.iter().zip(&handles) {
            arena.read_into(h, &mut out);
            assert_eq!(&out, im);
        }
        drop(arena);
        fs::remove_dir(&dir).expect("remove test dir");
    }

    #[test]
    fn disk_spill_round_trips_and_cleans_up() {
        let dir = unique_dir();
        let handles: Vec<u64>;
        let images: Vec<Vec<Word>> = (0..9u64).map(|i| vec![i * 10, i * 10 + 1]).collect();
        {
            let arena = SpillableArena::new(
                2,
                SpillConfig {
                    seg_slots: 2,
                    hot_segments: 1,
                    disk_dir: dir.clone(),
                },
            );
            handles = images
                .iter()
                .map(|im| intern128(&arena, im, hash(im)))
                .collect();
            let stats = arena.spill_stats();
            assert!(stats.segments_spilled >= 2, "multi-segment spill forced");
            assert!(
                fs::read_dir(&dir).expect("dir listing").count() >= 2,
                "segment files on disk"
            );
            let mut out = Vec::new();
            // Read in reverse so the 1-segment hot cache must churn.
            for (im, &h) in images.iter().zip(&handles).rev() {
                arena.read_into(h, &mut out);
                assert_eq!(&out, im);
            }
            let stats = arena.spill_stats();
            assert!(stats.segment_reads >= 2, "cold segment reads happened");
            assert!(arena.peak_resident_bytes() > 0);
        }
        assert_eq!(
            fs::read_dir(&dir).expect("dir listing").count(),
            0,
            "drop removes segment files"
        );
        fs::remove_dir(&dir).expect("remove test dir");
    }

    #[test]
    fn hot_cache_serves_repeat_reads() {
        let dir = unique_dir();
        let arena = SpillableArena::new(
            1,
            SpillConfig {
                seg_slots: 2,
                hot_segments: 2,
                disk_dir: dir.clone(),
            },
        );
        for i in 0..6u64 {
            intern128(&arena, &[i], hash(&[i]));
        }
        let mut out = Vec::new();
        arena.read_into(0, &mut out);
        arena.read_into(1, &mut out);
        let stats = arena.spill_stats();
        assert_eq!(stats.segment_reads, 1, "same segment loaded once");
        assert_eq!(stats.cache_hits, 1);
        drop(arena);
        fs::remove_dir(&dir).expect("remove test dir");
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn wrong_width_is_rejected() {
        let arena = SpillableArena::new(
            2,
            SpillConfig {
                seg_slots: 4,
                hot_segments: 1,
                // The width check fires before anything is written.
                disk_dir: std::env::temp_dir(),
            },
        );
        intern128(&arena, &[1], (0, 0));
    }
}
