//! The census's disk storage tier: BFS with a disk-resident frontier.
//!
//! The in-RAM tier of [`census_bfs_engine`](crate::census::census_bfs_engine)
//! holds a fingerprint per admitted node. This tier moves its visited set,
//! its frontier and the frontier's images to disk, behind the same worker
//! loop and the same expansion:
//!
//! * **images** live in a [`SpillableArena`] — sealed segments spill to
//!   files, only the active segment, a small hot-segment cache and the
//!   (hash → handle) index stay resident;
//! * **the frontier** is a sequence of *generations*, each a set of node
//!   files (one per worker) of node records
//!   `[ops_used, arena handle, len, driver key…]`, the key being the one
//!   the expansion spliced for the fingerprint ([`Driver::encode_key`]).
//!   [`Driver::decode_frontier`] resumes a record through
//!   [`RecoverableObject::decode_op`] — so this tier is only for objects
//!   that are [`decodable`](RecoverableObject::decodable);
//! * **the visited set** is `SHARDS` (8) sorted *seen files* of admitted
//!   configuration fingerprints, one per fingerprint range: a fingerprint
//!   belongs to the shard its top three bits name, so the shards, read in
//!   shard order, are one sorted file. They are consulted by streamed
//!   sort-merge instead of hash lookup.
//!
//! # Blocks and extents
//!
//! Expansion runs on [`resolve_parallelism`]`(`[`BfsConfig::parallelism`]`)`
//! workers, each the shared worker loop on its own memory fork. A
//! generation's *node stream* — its records in sequence order — is cut
//! into *blocks* of at most `BLOCK_RECORDS` (1,024) records, which the workers
//! claim through an atomic counter. The records a block writes form one
//! contiguous *extent* of the claiming worker's node file; they and the
//! block's candidates are numbered from 0 within the block. The
//! generation's *block table* holds,
//! in block order, each extent's worker, its candidate count and the byte
//! offset of every `BLOCK_RECORDS`-th record it wrote, so the next
//! generation is cut from the table without reading a file. A block's
//! *base* — the candidates of all earlier blocks — turns its local numbers
//! into the generation's sequence numbers. Those are the canonical
//! one-worker numbering: the blocks, in block order, are the node stream
//! in sequence order, and each block is expanded in order by one worker.
//! One worker runs the same blocked code.
//!
//! # One generation
//!
//! 1. **Expand**: each worker expands the admitted records of the blocks
//!    it claims exactly like the in-RAM tier. A *repeat filter*, cleared
//!    at each block's start, drops each successor that repeats a recent
//!    candidate of the same block. Every other successor is a candidate:
//!    its fingerprint is appended — tagged `block << 32 | local`, its block
//!    and block-local sequence number — to the worker's candidate file of
//!    the fingerprint's shard, and its record (budget, interned image
//!    handle, driver key) to the worker's node file of generation `g + 1`.
//! 2. **Meet**: a worker that finds no block left waits at a blocking
//!    barrier. Once all have arrived, worker 0 computes each block's base
//!    and sizes a shared admission bitmap indexed by sequence number, then
//!    releases the others.
//! 3. **Sort-merge**: every worker claims shards through an atomic counter.
//!    For a shard it reads every worker's candidate file of the shard,
//!    sorts the entries with its own RAM-budget-sized chunk into run
//!    files, and k-way merges the runs against the shard's seen file. Tags
//!    sort as sequence numbers do, since block bases rise with the block
//!    index. A fingerprint group that is not in the seen file admits its
//!    first candidate in sequence order, as the in-RAM visited set admits
//!    a fingerprint's first occurrence: it sets the bit of that
//!    candidate's sequence number, its block's base plus its local number.
//!    The same walk writes the shard's next seen file: the old entries
//!    below each group, then the group's fingerprint. A group lies in one
//!    shard, so which worker judges it changes nothing.
//! 4. **Cap**: at a second meet, worker 0 alone scans the bitmap in
//!    sequence order, a word at a time, reserving one admission slot per
//!    set bit and clearing those past [`BfsConfig::max_states`]. Because
//!    sequence order *is* the canonical sequential BFS admission order,
//!    the tier admits exactly the nodes a sequential BFS admits — folded
//!    or not, truncated or not, at every worker count — so every count in
//!    the report matches the reference census's, and the in-RAM tier's on
//!    complete runs. The differential tests pin this. Unlike the in-RAM
//!    visited set, the seen files may keep a fingerprint whose admission
//!    the cap refused; that changes nothing, since once `Slots::reserve`
//!    fails every later call fails too.
//! 5. **Next**: cut generation `g + 1` from the block table. Each extent
//!    splits at its noted offsets into pieces of at most `BLOCK_RECORDS`
//!    records, and consecutive pieces are packed, in order, into blocks of
//!    at most `BLOCK_RECORDS` records. Workers read a block's records
//!    through the bitmap, seeking past those whose bit is clear, so no
//!    record is copied.
//!
//! No spill file is deleted before the run ends. Generation `g + 1`'s
//! node files overwrite generation `g - 1`'s, each merge writes a seen
//! shard's other side, and candidate and run files are rewritten in
//! place: overwriting a file's cached pages costs the kernel far less
//! than freeing a deleted file's pages and allocating a new file's.
//!
//! The filter never changes an admission. Its slots hold only fingerprints
//! written as candidates, and a repeat of a candidate is not a first
//! occurrence (the fingerprint already carries the budget). Most repeats
//! follow their twin closely, so a small table catches most of them; it
//! has one slot per 4 KiB of RAM budget, 96 KiB per worker at a 16 MiB
//! budget. Because it is cleared at each block's start, what it drops — and
//! with that every spill counter but the arena's hot-cache misses — is a
//! function of the generation and the block size, never of the worker
//! count or of timing.
//!
//! Images are interned at expansion time, before admission is known, so
//! the arena may store images only capacity-rejected nodes reference —
//! bounded over-storage on truncated runs, spilled to disk anyway.
//!
//! Node identity is probabilistic (the same 128-bit fingerprints the
//! in-RAM tier uses; the arena dedups by a 128-bit image hash of the same
//! class). The Theorem 1 census count itself stays exact: shared keys are
//! compared verbatim, never hashed.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use detectable::{OpSpec, RecoverableObject};
use nvm::{Memory, SimMemory, SpillConfig, SpillableArena, Word};

use crate::census::{
    Admission, BfsConfig, BfsNode, Census, CensusReport, Frontier, Images, Seeded, Slots,
};
use crate::driver::{Driver, Proc};
use crate::sched::{resolve_parallelism, SchedStats};

/// Disk-tier counters for one census run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Arena segments written to files.
    pub arena_segments_spilled: u64,
    /// Whole-segment loads that missed the arena's hot cache. The one
    /// counter that depends on the worker count: it follows which worker
    /// reads which image when.
    pub arena_segment_reads: u64,
    /// Sorted run files written across all generations and shards: at
    /// least one per shard merge, and more where a shard's candidates
    /// overflow a sort chunk.
    pub sort_runs: u64,
    /// Shard merges executed: one per shard that received candidates, per
    /// generation. `sort_runs > merge_passes` means some shard merged two
    /// or more runs.
    pub merge_passes: u64,
    /// Frontier generations processed.
    pub generations: u64,
    /// Successors the repeat filter dropped before they were written.
    pub candidates_dropped: u64,
    /// Total bytes written to spill files (frontier, candidates, runs,
    /// seen files — every shard of the seen set is rewritten in each
    /// generation with candidates; arena segments are counted by the
    /// arena's own stats).
    pub bytes_spilled: u64,
}

/// RAM-budget-derived buffer sizes. The floors keep tiny budgets *legal*
/// rather than fast — the differential tests use them to force
/// multi-segment arena spill and multi-run external sorts on small worlds.
/// The sort chunk's floor is small since a shard holds an eighth of a
/// generation's candidates.
struct Knobs {
    seg_slots: usize,
    hot_segments: usize,
    chunk_entries: usize,
    filter_slots: usize,
}

/// Words per candidate-fingerprint entry: `fp0, fp1` and the tag.
const FP_ENTRY_WORDS: usize = 3;

fn knobs(stride: usize, ram_budget: Option<usize>) -> Knobs {
    let budget = ram_budget.unwrap_or(512 << 20);
    Knobs {
        // A quarter of the budget for the active segment (the hot cache
        // holds two more of the same size), a 64th for each worker's sort
        // chunk, one repeat-filter slot of 24 bytes per 4 KiB per worker;
        // the rest is headroom for the resident index and bitmaps. Each
        // chunk is allocated once and kept for the run, so it stays
        // resident at its high-water mark while the arena grows: a small
        // chunk keeps that share small, and a large shard sorts in a few
        // runs instead.
        seg_slots: (budget / 4 / (stride * 8)).clamp(8, 1 << 20),
        hot_segments: 2,
        chunk_entries: (budget / 64 / (FP_ENTRY_WORDS * 8)).clamp(8, 1 << 24),
        filter_slots: budget / 4096,
    }
}

/// Node records per block, at most: the unit a worker claims and the
/// span of one repeat filter. A constant rather than a knob, since the
/// filter's drops — and so the spill volume — depend on it.
pub(crate) const BLOCK_RECORDS: usize = 1024;

/// Fingerprint-range shards of the visited set: the unit of work of the
/// end-of-generation sort-merge. A constant like [`BLOCK_RECORDS`], so
/// what a generation writes depends on neither the worker count nor the
/// budget.
const SHARDS: usize = 8;
const _: () = assert!(SHARDS.is_power_of_two() && SHARDS > 1);

/// The shard of a fingerprint whose first word is `fp0`: its top
/// `log2 SHARDS` bits, so shards are contiguous fingerprint ranges.
fn shard_of(fp0: u64) -> usize {
    (fp0 >> (64 - SHARDS.trailing_zeros())) as usize
}

/// Bytes of a spill file's write buffer.
const BUF_BYTES: usize = 8 * 1024;

/// Bytes of a candidate file's write buffer: a worker writes one per
/// shard at once, so each gets a quarter of [`BUF_BYTES`].
const CAND_BUF_BYTES: usize = BUF_BYTES / 4;

/// Words converted per `write_all` / `read_exact` through a stack buffer;
/// every fixed-size entry and most node records fit in one.
const IO_CHUNK_WORDS: usize = 64;

/// Writes of at most this many words — every fixed-size entry and record
/// header — take a buffer of this size.
const SMALL_WORDS: usize = 4;

/// Encodes `words` little-endian into the front of `buf` and returns that
/// part.
fn le_bytes<'b>(words: &[Word], buf: &'b mut [u8]) -> &'b [u8] {
    let bytes = &mut buf[..words.len() * 8];
    for (b, w) in bytes.chunks_exact_mut(8).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Buffered little-endian word writer that counts what it wrote.
struct WordWriter {
    w: BufWriter<File>,
    words: u64,
}

impl WordWriter {
    /// Opens `path` to be written from its start, creating it if need be:
    /// a run reuses its spill files (see the [module docs](self)), and
    /// [`finish`](Self::finish) cuts off whatever an earlier, longer use
    /// left past the end.
    fn create(path: &Path) -> io::Result<Self> {
        Self::with_buffer(path, BUF_BYTES)
    }

    /// [`create`](Self::create) with a write buffer of `bytes` bytes.
    fn with_buffer(path: &Path, bytes: usize) -> io::Result<Self> {
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(WordWriter {
            w: BufWriter::with_capacity(bytes, file),
            words: 0,
        })
    }

    fn put_all(&mut self, words: &[Word]) -> io::Result<()> {
        self.words += words.len() as u64;
        if words.len() <= SMALL_WORDS {
            // Entries and record headers, through a buffer their size
            // rather than the large one zeroed per call.
            let mut buf = [0u8; SMALL_WORDS * 8];
            return self.w.write_all(le_bytes(words, &mut buf));
        }
        let mut buf = [0u8; IO_CHUNK_WORDS * 8];
        for chunk in words.chunks(IO_CHUNK_WORDS) {
            self.w.write_all(le_bytes(chunk, &mut buf))?;
        }
        Ok(())
    }

    /// Writes `bytes`, whole little-endian words, as they are.
    fn put_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        debug_assert_eq!(bytes.len() % 8, 0, "not whole words");
        self.words += bytes.len() as u64 / 8;
        self.w.write_all(bytes)
    }

    /// Bytes written so far: the file offset the next word lands at.
    fn bytes(&self) -> u64 {
        self.words * 8
    }

    /// Flushes, cuts the file to what this writer wrote, and returns the
    /// bytes written.
    fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        let bytes = self.bytes();
        let file = self.w.get_ref();
        if file.metadata()?.len() > bytes {
            file.set_len(bytes)?;
        }
        Ok(bytes)
    }
}

/// Buffered little-endian word reader.
struct WordReader {
    r: BufReader<File>,
}

impl WordReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(WordReader {
            r: BufReader::new(File::open(path)?),
        })
    }

    /// Reads the next `out.len()` words: `Ok(false)` at a clean end of
    /// file, `UnexpectedEof` if the file ends inside `out`. Words that lie
    /// whole in the read buffer — nearly every entry and record — are
    /// decoded in place.
    fn get_into(&mut self, out: &mut [Word]) -> io::Result<bool> {
        let buffered = self.r.fill_buf()?;
        if buffered.is_empty() {
            return Ok(out.is_empty());
        }
        let bytes = out.len() * 8;
        if let Some(words) = buffered.get(..bytes) {
            for (w, b) in out.iter_mut().zip(words.chunks_exact(8)) {
                *w = Word::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
            self.r.consume(bytes);
            return Ok(true);
        }
        let mut buf = [0u8; IO_CHUNK_WORDS * 8];
        for chunk in out.chunks_mut(IO_CHUNK_WORDS) {
            let bytes = &mut buf[..chunk.len() * 8];
            self.r.read_exact(bytes)?;
            for (w, b) in chunk.iter_mut().zip(bytes.chunks_exact(8)) {
                *w = Word::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        Ok(true)
    }

    /// Skips the next `words` words.
    fn skip(&mut self, words: usize) -> io::Result<()> {
        self.r.seek_relative(words as i64 * 8)
    }

    /// Moves to byte `offset` of the file.
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.r.seek(SeekFrom::Start(offset)).map(drop)
    }
}

/// Reads the next fixed-size entry; `None` at a clean end of file.
fn next_entry<const N: usize>(r: &mut WordReader) -> io::Result<Option<[Word; N]>> {
    let mut e = [0; N];
    Ok(r.get_into(&mut e)?.then_some(e))
}

/// Reads the next fixed-size entry, which the file must hold: a block
/// table promises its extents' entries.
fn promised_entry<const N: usize>(r: &mut WordReader) -> io::Result<[Word; N]> {
    next_entry(r)?.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
}

/// Reads a node record's `len`-word driver key into `key`, which the file
/// must hold in full: a record's header promises its body.
fn read_body(r: &mut WordReader, len: usize, key: &mut Vec<Word>) -> io::Result<()> {
    key.resize(len, 0);
    if r.get_into(key)? {
        Ok(())
    } else {
        Err(io::ErrorKind::UnexpectedEof.into())
    }
}

/// Writes one node record `[ops_used, handle, len, key...]`, `key` being
/// the node's driver key ([`Driver::encode_key`]); a node file is these
/// records back to back.
fn put_node(w: &mut WordWriter, ops_used: usize, handle: u64, key: &[Word]) -> io::Result<()> {
    w.put_all(&[ops_used as Word, handle, key.len() as Word])?;
    w.put_all(key)
}

/// Removes the run directory on drop, so a panicking run does not leak
/// spill files. Success paths drop it too — cleanup is unconditional.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A candidate fingerprint entry `[fp0, fp1, block << 32 | local]`,
/// sorted as a tuple for the sort-merge. A seen-file entry is
/// `[fp0, fp1]`, sorted likewise.
type FpEntry = [u64; FP_ENTRY_WORDS];

/// Appends a candidate of block `block`, numbered `local` within it, to
/// its shard's file among a worker's candidate `files`.
fn put_candidate(
    files: &mut [WordWriter],
    fp: (u64, u64),
    block: usize,
    local: usize,
) -> io::Result<()> {
    debug_assert!(local < 1 << 32, "block-local number overflows its tag");
    files[shard_of(fp.0)].put_all(&[fp.0, fp.1, (block as u64) << 32 | local as u64])
}

/// The old seen file, streamed into the next one as the merge passes
/// each fingerprint group.
struct SeenMerge {
    r: WordReader,
    cur: Option<[u64; 2]>,
    w: WordWriter,
}

impl SeenMerge {
    /// Copies the old entries below `fp` (all that remain if `None`), and
    /// takes `fp`'s own entry if it is next, returning whether it was.
    fn upto(&mut self, fp: Option<[u64; 2]>) -> io::Result<bool> {
        while let Some(s) = self.cur {
            if fp.is_some_and(|fp| s > fp) {
                break;
            }
            if fp == Some(s) {
                self.cur = next_entry(&mut self.r)?;
                return Ok(true);
            }
            self.w.put_all(&s)?;
            self.copy_buffered_below(fp)?;
            self.cur = next_entry(&mut self.r)?;
        }
        Ok(false)
    }

    /// Copies the whole entries the reader has buffered that lie below
    /// `fp` (all of them if `None`) byte for byte: most of an old seen
    /// file is copied, so its entries are compared but never re-encoded.
    fn copy_buffered_below(&mut self, fp: Option<[u64; 2]>) -> io::Result<()> {
        let buffered = self.r.r.fill_buf()?;
        let below = buffered
            .chunks_exact(16)
            .take_while(|e| {
                let word = |i: usize| Word::from_le_bytes(e[i..i + 8].try_into().expect("8 bytes"));
                fp.is_none_or(|fp| [word(0), word(8)] < fp)
            })
            .count()
            * 16;
        self.w.put_bytes(&buffered[..below])?;
        self.r.r.consume(below);
        Ok(())
    }
}

/// Admission bitmap over one generation's candidate sequence numbers.
#[derive(Default)]
struct Bitmap {
    bits: Vec<u64>,
}

impl Bitmap {
    fn new(len: usize) -> Self {
        Bitmap {
            bits: vec![0; len.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Keeps each set bit, in index order, while `slots` grants it a slot:
    /// once one reservation fails every later one would, so the rest are
    /// cleared without asking.
    fn cap(&mut self, slots: &Slots) {
        let mut full = false;
        for word in &mut self.bits {
            let mut ungranted = *word;
            while ungranted != 0 && !full && slots.reserve() {
                ungranted &= ungranted - 1;
            }
            full |= ungranted != 0;
            *word ^= ungranted;
        }
    }

    /// Bits `at..at + len`, renumbered from 0.
    fn slice(&self, at: usize, len: usize) -> Bitmap {
        let mut out = Bitmap::new(len);
        for i in (0..len).filter(|&i| self.get(at + i)) {
            out.set(i);
        }
        out
    }

    fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Monotone run-directory counter so concurrent censuses under one
/// `disk_dir` never collide.
static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Admission on disk: every successor the repeat filter lets through is a
/// candidate, and the seen-file replay at generation end decides (see the
/// [module docs](self)).
struct SeenFile;

impl Admission for SeenFile {
    fn admit(&self, _: &Slots, _: (u64, u64)) -> bool {
        true
    }

    /// The root is generation 0 by itself: replay against the empty seen
    /// file admits it, so only the cap remains.
    fn admit_root(&self, slots: &Slots, _: (u64, u64)) -> bool {
        slots.reserve()
    }
}

/// A worker's repeat filter: a direct-mapped table of the block's recent
/// candidate fingerprints. Each slot is tagged with the block it was
/// written in, so clearing the table for a new block is one increment.
struct RepeatFilter {
    /// `(fp0, fp1, block tag)`; tag 0 is never current, so a slot is empty
    /// until the current block writes it.
    slots: Vec<(u64, u64, u64)>,
    tag: u64,
    dropped: u64,
}

impl RepeatFilter {
    fn new(slots: usize) -> Self {
        RepeatFilter {
            slots: vec![(0, 0, 0); slots.max(1)],
            tag: 1,
            dropped: 0,
        }
    }

    /// Resident bytes of a filter of `slots` slots.
    fn bytes(slots: usize) -> usize {
        slots.max(1) * std::mem::size_of::<(u64, u64, u64)>()
    }

    /// Forgets every fingerprint: a new block starts.
    fn clear(&mut self) {
        self.tag += 1;
    }

    /// Whether `fp` repeats the fingerprint in its slot (and is dropped);
    /// otherwise it takes the slot and becomes a candidate.
    fn repeats(&mut self, fp: (u64, u64)) -> bool {
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(fp.0 % len) as usize];
        if *slot == (fp.0, fp.1, self.tag) {
            self.dropped += 1;
            return true;
        }
        *slot = (fp.0, fp.1, self.tag);
        false
    }
}

impl Images for SpillableArena {
    type Handle = u64;
    fn intern(&self, images: &[Word], hashes: &[(u64, u64)], out: &mut Vec<u64>) {
        self.intern128_batch(images, hashes, out);
    }
    fn read_into(&self, handle: &u64, out: &mut Vec<Word>) {
        SpillableArena::read_into(self, *handle, out);
    }
}

/// The disk tier of [`census_bfs_engine`](crate::census::census_bfs_engine):
/// the shared worker loop over a [`SpillableArena`], [`SeenFile`]
/// admission and the [`Generations`] frontier, on
/// [`resolve_parallelism`]`(cfg.parallelism)` workers, in a per-run
/// subdirectory of `dir` that is removed on return.
pub(crate) fn census_on_disk(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    alphabet: &[OpSpec],
    cfg: &BfsConfig,
    dir: &Path,
) -> CensusReport {
    let run_dir = dir.join(format!(
        "census-{}-{}",
        std::process::id(),
        RUN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&run_dir).expect("create census spill dir");
    let _cleanup = DirGuard(run_dir.clone());
    let stride = mem.layout().total_words();
    let k = knobs(stride, cfg.ram_budget);
    let arena = SpillableArena::new(
        stride,
        SpillConfig {
            seg_slots: k.seg_slots,
            hot_segments: k.hot_segments,
            disk_dir: run_dir.clone(),
        },
    );
    let workers = resolve_parallelism(cfg.parallelism);
    let census = Census::new(obj, alphabet, cfg, &arena, &SeenFile);
    let gens = Generations::new(obj, &census.slots, &run_dir, k.chunk_entries, workers);
    gens.seed(census.root(mem)).expect(SPILL_IO);
    let (tally, per_worker_expansions) =
        census.work_on_threads(mem, workers, |id| gens.worker(id, k.filter_slots));
    let gen = gens
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let arena_stats = arena.spill_stats();
    let spill = SpillStats {
        arena_segments_spilled: arena_stats.segments_spilled as u64,
        arena_segment_reads: arena_stats.segment_reads as u64,
        ..gen.spill
    };
    let filters = workers * RepeatFilter::bytes(k.filter_slots);
    let resident = (arena.peak_resident_bytes() + filters) as u64 + gen.transient_peak;
    let sched = SchedStats {
        workers: workers as u64,
        per_worker_expansions,
        ..SchedStats::default()
    };
    census.report(mem, tally, sched, resident, Some(spill))
}

const SPILL_IO: &str = "census spill I/O failed";

/// The generation barrier, met twice per generation. Waiting workers
/// block on a condvar, never spin. Worker 0 — the calling thread — runs
/// each meet's pass once all have arrived, then releases the others, so
/// those passes' buffers always come from one thread's allocator. A worker
/// that leaves its loop — unwinding included, between the two meets too —
/// aborts the barrier, so a panicking worker never leaves its siblings
/// waiting.
struct Barrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    round: u64,
    aborted: bool,
}

impl Barrier {
    fn new(parties: usize) -> Self {
        Barrier {
            parties,
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until every party has arrived; the `runner` then runs `pass`
    /// before the others are released. `false` if the barrier was aborted
    /// instead.
    fn wait(&self, runner: bool, pass: impl FnOnce()) -> bool {
        let mut s = self.lock();
        s.arrived += 1;
        if runner {
            while s.arrived < self.parties && !s.aborted {
                s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            if s.aborted {
                return false;
            }
            // Every other party is waiting, so none can abort meanwhile;
            // a panic in `pass` aborts through the runner's drop.
            drop(s);
            pass();
            s = self.lock();
            s.arrived = 0;
            s.round += 1;
            self.cv.notify_all();
            return true;
        }
        let round = s.round;
        self.cv.notify_all();
        while s.round == round && !s.aborted {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.round != round
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.cv.notify_all();
    }
}

/// Consecutive node records of one worker's node file.
#[derive(Clone, Copy, Debug)]
struct Piece {
    /// The worker whose node file holds the records.
    file: usize,
    /// Byte offset of the first record.
    offset: u64,
    /// Sequence number of the first record.
    base: usize,
    len: usize,
}

/// What one block wrote: a contiguous extent of its worker's node file,
/// and as many candidates.
#[derive(Default)]
struct Extent {
    worker: usize,
    /// Candidates written; their block-local sequence numbers are `0..len`.
    len: usize,
    /// Node-file byte offsets of the extent's records `0`,
    /// [`BLOCK_RECORDS`], `2 ×` [`BLOCK_RECORDS`], …: where the next
    /// generation's pieces start.
    cuts: Vec<u64>,
}

/// The generation being expanded. Workers read it when they claim a block
/// and write it when they finish one; worker 0 replaces it at the
/// generation's second meet while the others wait.
#[derive(Default)]
struct GenState {
    gen: u64,
    /// The node stream, in sequence order.
    pieces: Vec<Piece>,
    /// Block `b` is `pieces[blocks[b].clone()]`.
    blocks: Vec<Range<usize>>,
    /// Which records were admitted, by sequence number.
    admitted: Bitmap,
    /// The block table: the extent each block wrote, by block.
    extents: Vec<Extent>,
    /// Set once the search has drained.
    done: bool,
    spill: SpillStats,
    /// Run files the current generation's shard merges wrote.
    pass_runs: usize,
    /// Peak of the per-generation transient buffers (the workers' sort
    /// chunks and candidate writers, bitmap, block bases, merge cursors,
    /// block table).
    transient_peak: u64,
}

/// The shared side of the sort-merge between a generation's two meets:
/// worker 0 sets it up at the first, and every worker reads it while it
/// merges shards.
#[derive(Default)]
struct Pass {
    /// Each block's base: the candidates of all earlier blocks.
    bases: Vec<u64>,
    /// Admission bits by sequence number, set by the worker that merges
    /// the admitted candidate's shard.
    bits: Vec<AtomicU64>,
    /// The side of the seen shards that holds the seen set.
    seen: usize,
}

impl Pass {
    /// Admits the candidate tagged `tag` (`block << 32 | local`).
    fn admit(&self, tag: u64) {
        let seq = (self.bases[(tag >> 32) as usize] + (tag & u64::from(u32::MAX))) as usize;
        self.bits[seq / 64].fetch_or(1 << (seq % 64), Ordering::Relaxed);
    }
}

impl GenState {
    /// Makes `pieces` the node stream, packed in order into blocks of at
    /// most [`BLOCK_RECORDS`] records, with an empty block table.
    fn cut(&mut self, pieces: Vec<Piece>) {
        self.blocks.clear();
        let (mut start, mut len) = (0, 0);
        for (i, p) in pieces.iter().enumerate() {
            if len + p.len > BLOCK_RECORDS {
                self.blocks.push(start..i);
                (start, len) = (i, 0);
            }
            len += p.len;
        }
        if start < pieces.len() {
            self.blocks.push(start..pieces.len());
        }
        self.pieces = pieces;
        self.extents = self.blocks.iter().map(|_| Extent::default()).collect();
    }
}

/// The disk frontier's shared side: generation files, the claim counter,
/// and the end-of-generation pass that runs the sharded
/// sort-merge admission replay and the cap (see the [module docs](self)).
struct Generations<'a> {
    obj: &'a dyn RecoverableObject,
    slots: &'a Slots,
    dir: &'a Path,
    chunk_entries: usize,
    workers: usize,
    /// The next unit of work to claim: a block of the current generation
    /// while the workers expand it, a shard while they merge.
    claims: AtomicUsize,
    barrier: Barrier,
    state: Mutex<GenState>,
    pass: RwLock<Pass>,
}

impl<'a> Generations<'a> {
    fn new(
        obj: &'a dyn RecoverableObject,
        slots: &'a Slots,
        dir: &'a Path,
        chunk_entries: usize,
        workers: usize,
    ) -> Self {
        Generations {
            obj,
            slots,
            dir,
            chunk_entries,
            workers,
            claims: AtomicUsize::new(0),
            barrier: Barrier::new(workers),
            state: Mutex::default(),
            pass: RwLock::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GenState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Worker `w`'s node file of generation `g`. Generations alternate
    /// between two files per worker: writing generation `g + 1`
    /// overwrites generation `g - 1`.
    fn gen_path(&self, g: u64, w: usize) -> PathBuf {
        self.dir.join(format!("gen-{}-{w}.nodes", g % 2))
    }

    /// Worker `w`'s candidate file of shard `s` in the current generation.
    fn cand_path(&self, w: usize, s: usize) -> PathBuf {
        self.dir.join(format!("cand-{w}-{s}.fps"))
    }

    /// Shard `s` of the seen set on `side`: each merge reads one side and
    /// writes the other.
    fn seen_path(&self, s: usize, side: usize) -> PathBuf {
        self.dir.join(format!("seen-{s}-{side}.fps"))
    }

    /// Writes generation 0 (the admitted root, if any, in worker 0's node
    /// file) and the seen shards, the root's holding its fingerprint.
    fn seed(&self, root: Option<Seeded<u64>>) -> io::Result<()> {
        let mut st = self.lock();
        for s in 0..SHARDS {
            let mut seen_w = WordWriter::create(&self.seen_path(s, 0))?;
            if let Some((_, fp)) = root.as_ref().filter(|(_, fp)| shard_of(fp.0) == s) {
                seen_w.put_all(&[fp.0, fp.1])?;
            }
            st.spill.bytes_spilled += seen_w.finish()?;
        }
        for w in 0..self.workers {
            let mut gen_w = WordWriter::create(&self.gen_path(0, w))?;
            if let (0, Some((node, _))) = (w, &root) {
                put_node(&mut gen_w, 0, node.state, &node.driver.key())?;
            }
            st.spill.bytes_spilled += gen_w.finish()?;
        }
        if root.is_some() {
            st.admitted = Bitmap::new(1);
            st.admitted.set(0);
            st.spill.generations += 1;
            st.cut(vec![Piece {
                file: 0,
                offset: 0,
                base: 0,
                len: 1,
            }]);
        }
        Ok(())
    }

    /// Worker `id`'s side of the frontier. It opens no file yet, so the
    /// drop guard that aborts the barrier exists before any I/O can fail.
    /// Each worker calls this on its own thread, so its sort chunk —
    /// allocated here once and kept for the run — comes from that thread's
    /// allocator: a buffer that several threads allocate and free in turn
    /// leaves freed copies resident in each thread's allocator.
    fn worker(&self, id: usize, filter_slots: usize) -> BlockWorker<'_, 'a> {
        BlockWorker {
            gens: self,
            id,
            gen: 0,
            filter: RepeatFilter::new(filter_slots),
            readers: (0..self.workers).map(|_| None).collect(),
            block: None,
            extent: Extent::default(),
            out: None,
            rec: Vec::new(),
            chunk: Vec::with_capacity(self.chunk_entries),
        }
    }

    /// The first meet's pass, run by worker 0 once every worker has
    /// arrived: computes each block's base and sizes the admission bitmap
    /// for the shard merges — or, if the generation wrote no candidate,
    /// marks the search drained.
    fn begin_pass(&self) {
        let mut guard = self.lock();
        let st = &mut *guard;
        let candidates: usize = st.extents.iter().map(|e| e.len).sum();
        if candidates == 0 {
            st.done = true;
            return;
        }
        let mut pass = self.pass.write().unwrap_or_else(PoisonError::into_inner);
        pass.bases.clear();
        let mut base = 0;
        for e in &st.extents {
            pass.bases.push(base);
            base += e.len as u64;
        }
        pass.bits.clear();
        pass.bits
            .resize_with(candidates.div_ceil(64), AtomicU64::default);
        st.pass_runs = 0;
        self.claims.store(0, Ordering::Relaxed);
    }

    /// Every worker's part of the pass between the two meets: claims
    /// shards until none is left, sort-merging each with `chunk`.
    fn merge_shards(&self, chunk: &mut Vec<FpEntry>) -> io::Result<()> {
        let pass = self.pass.read().unwrap_or_else(PoisonError::into_inner);
        loop {
            let s = self.claims.fetch_add(1, Ordering::Relaxed);
            if s >= SHARDS {
                return Ok(());
            }
            self.merge_shard(s, chunk, &pass)?;
        }
    }

    /// Sort-merges shard `s`: sorts every worker's candidates of the shard
    /// into run files through `chunk`, then walks the runs' merge against
    /// the shard's seen file, admitting each new group's first candidate
    /// in `pass` and writing the shard's next seen file.
    fn merge_shard(&self, s: usize, chunk: &mut Vec<FpEntry>, pass: &Pass) -> io::Result<()> {
        let mut bytes = 0;

        // ---- Sort the shard's candidates into run files. ----
        let mut runs: Vec<PathBuf> = Vec::new();
        for w in 0..self.workers {
            let mut cands = WordReader::open(&self.cand_path(w, s))?;
            while let Some(e) = next_entry(&mut cands)? {
                chunk.push(e);
                if chunk.len() == self.chunk_entries {
                    runs.push(self.write_run(chunk, s, runs.len(), &mut bytes)?);
                }
            }
        }
        if !chunk.is_empty() {
            runs.push(self.write_run(chunk, s, runs.len(), &mut bytes)?);
        }

        // ---- Merge the runs against the seen shard, writing the ----
        // ---- next one as the walk passes each group.             ----
        {
            let mut cursors: Vec<(WordReader, Option<FpEntry>)> = Vec::new();
            for p in &runs {
                let mut r = WordReader::open(p)?;
                let head = next_entry(&mut r)?;
                cursors.push((r, head));
            }
            let mut seen_r = WordReader::open(&self.seen_path(s, pass.seen))?;
            let mut seen = SeenMerge {
                cur: next_entry(&mut seen_r)?,
                r: seen_r,
                w: WordWriter::create(&self.seen_path(s, 1 - pass.seen))?,
            };
            // The fingerprint group being walked.
            let mut group = None;
            // Pop the smallest (fp0, fp1, tag) entry each round.
            while let Some(best) = cursors
                .iter()
                .enumerate()
                .filter_map(|(i, (_, e))| e.map(|e| (e, i)))
                .min()
                .map(|(_, i)| i)
            {
                let [fp0, fp1, tag] = cursors[best].1.take().expect("cursor checked non-empty");
                cursors[best].1 = next_entry(&mut cursors[best].0)?;
                // Only a group's first, lowest-sequence candidate can
                // admit, and only if no earlier generation saw it.
                if group != Some([fp0, fp1]) {
                    group = Some([fp0, fp1]);
                    if !seen.upto(group)? {
                        pass.admit(tag);
                    }
                    seen.w.put_all(&[fp0, fp1])?;
                }
            }
            seen.upto(None)?;
            bytes += seen.w.finish()?;
        }
        let mut st = self.lock();
        st.spill.sort_runs += runs.len() as u64;
        st.spill.merge_passes += u64::from(!runs.is_empty());
        st.spill.bytes_spilled += bytes;
        st.pass_runs += runs.len();
        Ok(())
    }

    /// The second meet's pass, run by worker 0 once every worker has
    /// merged its shards: applies the cap in sequence order and cuts the
    /// next generation's blocks — or marks the search drained.
    fn end_pass(&self) {
        let mut guard = self.lock();
        let st = &mut *guard;
        let extents = std::mem::take(&mut st.extents);
        let mut pass = self.pass.write().unwrap_or_else(PoisonError::into_inner);
        pass.seen = 1 - pass.seen;
        let mut bitmap = Bitmap {
            bits: std::mem::take(&mut pass.bits)
                .into_iter()
                .map(AtomicU64::into_inner)
                .collect(),
        };

        // ---- Apply the admission cap in sequence order. ----
        // Sequence order is canonical sequential BFS admission order.
        bitmap.cap(self.slots);

        // ---- Next: cut the next generation from the block table. ----
        if !bitmap.any() {
            st.done = true;
            return;
        }
        st.gen += 1;
        let mut pieces = Vec::new();
        for (e, &base) in extents.iter().zip(&pass.bases) {
            for (k, &offset) in e.cuts.iter().enumerate() {
                let from = k * BLOCK_RECORDS;
                pieces.push(Piece {
                    file: e.worker,
                    offset,
                    base: base as usize + from,
                    len: (e.len - from).min(BLOCK_RECORDS),
                });
            }
        }
        st.cut(pieces);
        st.spill.generations += 1;
        st.admitted = bitmap;
        // Every worker holds its chunk and, while it expands, one
        // candidate writer per shard.
        let per_worker = self.chunk_entries * FP_ENTRY_WORDS * 8 + SHARDS * CAND_BUF_BYTES;
        st.transient_peak = st.transient_peak.max(
            (st.admitted.bytes()
                + pass.bases.len() * 8
                + self.workers * per_worker
                + st.pass_runs * FP_ENTRY_WORDS * 8
                + st.pieces.len() * std::mem::size_of::<Piece>()
                + st.blocks.len() * std::mem::size_of::<(Range<usize>, Extent)>())
                as u64,
        );
        self.claims.store(0, Ordering::Relaxed);
    }

    /// Sorts `chunk` into run file `index` of shard `shard`, empties it,
    /// adds the run's size to `bytes` and returns its path.
    fn write_run(
        &self,
        chunk: &mut Vec<FpEntry>,
        shard: usize,
        index: usize,
        bytes: &mut u64,
    ) -> io::Result<PathBuf> {
        chunk.sort_unstable();
        let path = self.dir.join(format!("run-{shard}-{index}.fps"));
        let mut w = WordWriter::create(&path)?;
        w.put_all(chunk.as_flattened())?;
        *bytes += w.finish()?;
        chunk.clear();
        Ok(path)
    }
}

/// The block a worker is expanding.
struct Claimed {
    /// Its index in the block table.
    index: usize,
    pieces: Vec<Piece>,
    /// The next piece to read.
    next: usize,
    /// The node file of the piece being read, and its records left.
    file: usize,
    left: usize,
    /// The block's admission bits and the next record's index among them.
    admitted: Bitmap,
    at: usize,
}

/// A worker's output files for one generation.
struct Outputs {
    /// Candidate fingerprints, one file per shard.
    fps: Vec<WordWriter>,
    /// Candidate records: the worker's node file of the next generation.
    next: WordWriter,
}

/// One worker's side of the disk frontier: the block it is expanding, its
/// repeat filter and its output files (see the [module docs](self)).
struct BlockWorker<'g, 'a> {
    gens: &'g Generations<'a>,
    id: usize,
    gen: u64,
    filter: RepeatFilter,
    /// The generation's node files, by writing worker, opened on first
    /// read.
    readers: Vec<Option<WordReader>>,
    block: Option<Claimed>,
    /// What the claimed block has written so far.
    extent: Extent,
    /// `None` between generations.
    out: Option<Outputs>,
    /// The driver key of the record being read.
    rec: Vec<Word>,
    /// The sort chunk this worker's shard merges use.
    chunk: Vec<FpEntry>,
}

impl BlockWorker<'_, '_> {
    fn try_next(&mut self) -> io::Result<Option<BfsNode<u64>>> {
        loop {
            if self.out.is_none() {
                let gens = self.gens;
                self.out = Some(Outputs {
                    fps: (0..SHARDS)
                        .map(|s| {
                            WordWriter::with_buffer(&gens.cand_path(self.id, s), CAND_BUF_BYTES)
                        })
                        .collect::<io::Result<_>>()?,
                    next: WordWriter::create(&gens.gen_path(self.gen + 1, self.id))?,
                });
            }
            if let Some([ops_used, handle]) = self.next_record()? {
                let obj = self.gens.obj;
                let driver = Driver::decode_frontier(obj, obj.processes(), &self.rec)
                    .expect("decodable object failed to decode its own node key");
                debug_assert_eq!(self.rec, driver.key(), "key decode does not round-trip");
                return Ok(Some(BfsNode {
                    state: handle,
                    driver,
                    ops_used: ops_used as usize,
                }));
            }
            if let Some(block) = self.block.take() {
                self.gens.lock().extents[block.index] = std::mem::take(&mut self.extent);
            }
            if !self.claim() && !self.next_generation()? {
                return Ok(None);
            }
        }
    }

    /// Reads the claimed block's next admitted record — its driver key into
    /// `rec` — and returns `[ops_used, handle]`; `None` once the block is
    /// exhausted or none is claimed.
    fn next_record(&mut self) -> io::Result<Option<[Word; 2]>> {
        let Some(b) = self.block.as_mut() else {
            return Ok(None);
        };
        loop {
            while b.left == 0 {
                let Some(&p) = b.pieces.get(b.next) else {
                    return Ok(None);
                };
                b.next += 1;
                let r = match &mut self.readers[p.file] {
                    Some(r) => r,
                    slot => slot.insert(WordReader::open(&self.gens.gen_path(self.gen, p.file))?),
                };
                r.seek_to(p.offset)?;
                (b.file, b.left) = (p.file, p.len);
            }
            let r = self.readers[b.file]
                .as_mut()
                .expect("opened with its piece");
            let [ops_used, handle, len] = promised_entry(r)?;
            b.left -= 1;
            b.at += 1;
            if b.admitted.get(b.at - 1) {
                read_body(r, len as usize, &mut self.rec)?;
                return Ok(Some([ops_used, handle]));
            }
            r.skip(len as usize)?;
        }
    }

    /// Claims the generation's next block, if one is left.
    fn claim(&mut self) -> bool {
        let index = self.gens.claims.fetch_add(1, Ordering::Relaxed);
        let st = self.gens.lock();
        let Some(range) = st.blocks.get(index).cloned() else {
            return false;
        };
        let pieces = st.pieces[range].to_vec();
        let len = pieces.iter().map(|p| p.len).sum();
        let admitted = st.admitted.slice(pieces[0].base, len);
        drop(st);
        self.filter.clear();
        self.extent = Extent {
            worker: self.id,
            ..Extent::default()
        };
        self.block = Some(Claimed {
            index,
            pieces,
            next: 0,
            file: 0,
            left: 0,
            admitted,
            at: 0,
        });
        true
    }

    /// Closes the generation's files and runs the end-of-generation pass
    /// with the other workers: worker 0 sets it up at a first meet, every
    /// worker merges shards, and worker 0 finishes it at a second meet.
    /// Returns whether a next generation was cut.
    fn next_generation(&mut self) -> io::Result<bool> {
        let out = self.out.take().expect("outputs open during a generation");
        let mut bytes = out.next.finish()?;
        for w in out.fps {
            bytes += w.finish()?;
        }
        self.readers.iter_mut().for_each(|r| *r = None);
        let gens = self.gens;
        gens.lock().spill.bytes_spilled += bytes;
        let runner = self.id == 0;
        if !gens.barrier.wait(runner, || gens.begin_pass()) {
            return Ok(false);
        }
        if !gens.lock().done {
            gens.merge_shards(&mut self.chunk)?;
            if !gens.barrier.wait(runner, || gens.end_pass()) {
                return Ok(false);
            }
        }
        let st = gens.lock();
        self.gen = st.gen;
        Ok(!st.done)
    }

    fn try_push(
        &mut self,
        nodes: &mut Vec<BfsNode<u64, Box<[Word]>>>,
        fps: &[(u64, u64)],
    ) -> io::Result<()> {
        let out = self.out.as_mut().expect("push during an expansion");
        let block = self.block.as_ref().expect("push during a block").index;
        for (node, &fp) in nodes.drain(..).zip(fps) {
            let seq = self.extent.len;
            if seq.is_multiple_of(BLOCK_RECORDS) {
                self.extent.cuts.push(out.next.bytes());
            }
            put_candidate(&mut out.fps, fp, block, seq)?;
            put_node(&mut out.next, node.ops_used, node.state, &node.driver)?;
            self.extent.len += 1;
        }
        Ok(())
    }
}

impl Frontier<u64> for BlockWorker<'_, '_> {
    /// A successor's driver key alone: the words its node record stores.
    type Staged = Box<[Word]>;
    fn stage(_: &Driver, _: usize, _: Proc, key: &[Word]) -> Box<[Word]> {
        key.into()
    }
    fn repeats(&mut self, fp: (u64, u64)) -> bool {
        self.filter.repeats(fp)
    }
    fn next(&mut self) -> Option<BfsNode<u64>> {
        self.try_next().expect(SPILL_IO)
    }
    fn push(&mut self, nodes: &mut Vec<BfsNode<u64, Box<[Word]>>>, fps: &[(u64, u64)]) {
        self.try_push(nodes, fps).expect(SPILL_IO);
    }
}

impl Drop for BlockWorker<'_, '_> {
    /// Books the filter's drops and aborts the barrier: after the last
    /// generation that changes nothing, and after a panic it releases the
    /// waiting workers.
    fn drop(&mut self) {
        self.gens.lock().spill.candidates_dropped += self.filter.dropped;
        self.gens.barrier.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{census_bfs_engine, BfsConfig};
    use crate::sim::build_world;
    use detectable::DetectableCas;
    use std::collections::{BTreeMap, BTreeSet};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "census-ext-test-{}-{}-{tag}",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).expect("test dir");
        d
    }

    fn cas_alphabet() -> [OpSpec; 2] {
        [
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
        ]
    }

    #[test]
    fn external_engine_matches_in_ram_counts_exactly() {
        let dir = tmp_dir("match");
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        for (max_ops, max_states, fold_private) in [
            (4, 200_000, false),
            (4, 200_000, true),
            (4, 37, false),
            (4, 37, true),
            (3, 1, false),
        ] {
            let cfg = BfsConfig {
                max_ops,
                max_states,
                fold_private,
                disk_dir: Some(dir.clone()),
                // Tiny: forces multi-segment arena spill and multi-run sorts.
                ram_budget: Some(4096),
                parallelism: 1,
            };
            let ext = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
            let ram_cfg = BfsConfig {
                disk_dir: None,
                ..cfg.clone()
            };
            let ram = census_bfs_engine(&cas, &mem, &cas_alphabet(), &ram_cfg);
            if ram.truncated {
                // The in-RAM tier admits depth first, so it is held to the
                // cap and to repeating itself; `tests/census_scale.rs`
                // judges the disk tier's canonical admissions by the
                // reference census.
                let again = census_bfs_engine(&cas, &mem, &cas_alphabet(), &ram_cfg);
                let counts = |r: &CensusReport| {
                    (
                        r.distinct_shared,
                        r.work,
                        r.steps,
                        r.resolved_ops,
                        r.persists,
                    )
                };
                assert_eq!(counts(&again), counts(&ram), "{cfg:?}");
                assert_eq!((ext.work, ram.work), (max_states, max_states), "{cfg:?}");
                assert!(ext.truncated && again.truncated, "{cfg:?}");
                continue;
            }
            assert_eq!(ext.distinct_shared, ram.distinct_shared, "{cfg:?}");
            assert_eq!(ext.work, ram.work, "{cfg:?}");
            assert_eq!(ext.steps, ram.steps, "{cfg:?}");
            assert_eq!(ext.resolved_ops, ram.resolved_ops, "{cfg:?}");
            assert_eq!(ext.persists, ram.persists, "{cfg:?}");
            assert_eq!(ext.truncated, ram.truncated, "{cfg:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_engine_spills_and_cleans_up() {
        let dir = tmp_dir("spill");
        let cfg = BfsConfig {
            max_ops: 4,
            max_states: 200_000,
            disk_dir: Some(dir.clone()),
            ram_budget: Some(2048),
            ..Default::default()
        };
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        let spill = report.spill.expect("external run reports spill stats");
        assert!(
            spill.arena_segments_spilled >= 2,
            "tiny budget must force multi-segment spill: {spill:?}"
        );
        // Every shard merge writes at least one run, so only more runs
        // than merges shows a shard merging several.
        assert!(
            spill.sort_runs > spill.merge_passes,
            "tiny budget must force a multi-run external sort: {spill:?}"
        );
        assert!(spill.merge_passes >= 2, "{spill:?}");
        assert!(spill.bytes_spilled > 0);
        assert!(report.peak_resident_bytes > 0);
        // The run directory was removed; the parent only ever held it.
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files must be cleaned up on success"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// splitmix64: the tests' deterministic fingerprint source.
    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn word_wise_cap_matches_the_bit_by_bit_rule() {
        let mut seed = 3;
        // (bits, one set bit in `sparsity` on average): dense, sparse with
        // zero words, every bit set, and a tail word cut short.
        for (len, sparsity) in [(1000, 2), (1000, 90), (320, 1), (129, 3)] {
            let mut bitmap = Bitmap::new(len);
            for i in 0..len {
                if splitmix(&mut seed).is_multiple_of(sparsity) {
                    bitmap.set(i);
                }
            }
            let set: Vec<usize> = (0..len).filter(|&i| bitmap.get(i)).collect();
            // A cap that runs out between two set bits of one word.
            let mid = set.windows(2).position(|w| w[0] / 64 == w[1] / 64).unwrap() + 1;
            let n = set.len();
            for cap in [0, 1, mid, n / 2, n - 1, n, n + 1, n + 64] {
                let slots = Slots::new(cap);
                let mut reference = Bitmap {
                    bits: bitmap.bits.clone(),
                };
                for i in 0..len {
                    if reference.get(i) && !slots.reserve() {
                        reference.bits[i / 64] &= !(1 << (i % 64));
                    }
                }
                let mut capped = Bitmap {
                    bits: bitmap.bits.clone(),
                };
                capped.cap(&Slots::new(cap));
                assert_eq!(capped.bits, reference.bits, "{len} bits, cap {cap}");
                let kept: u32 = capped.bits.iter().map(|w| w.count_ones()).sum();
                assert_eq!(kept as usize, cap.min(n));
            }
        }
    }

    /// Every entry of a spill file of `N`-word entries.
    fn entries<const N: usize>(path: &Path) -> Vec<[Word; N]> {
        let mut r = WordReader::open(path).unwrap();
        std::iter::from_fn(|| next_entry(&mut r).unwrap()).collect()
    }

    /// The sharded pass against a one-file reference: several workers'
    /// candidates, repeating within and across blocks and lying on both
    /// sides of every shard boundary, merged against an old seen set on
    /// as many threads, admit exactly each new fingerprint's first
    /// candidate in sequence order, and the seen shards, read in order,
    /// are the sorted union of the old set and the candidates.
    #[test]
    fn sharded_pass_matches_a_one_file_merge() {
        let dir = tmp_dir("shards");
        let (cas, _) = build_world(|b| DetectableCas::new(b, 2, 0));
        let slots = Slots::new(usize::MAX);
        // A tiny chunk, so shards merge several runs.
        let (workers, chunk_entries) = (3, 5);
        let gens = Generations::new(&cas, &slots, &dir, chunk_entries, workers);
        gens.seed(None).unwrap();
        // A small pool, so candidates repeat: the last fingerprint below
        // each shard boundary and the first two at it (sharing `fp0`),
        // plus random ones.
        let mut rng = 7;
        let mut pool: Vec<(u64, u64)> = (0..SHARDS as u64)
            .flat_map(|s| {
                let edge = s << (64 - SHARDS.trailing_zeros());
                [(edge.wrapping_sub(1), 1), (edge, 1), (edge, 2)]
            })
            .collect();
        pool.extend((0..40).map(|_| (splitmix(&mut rng), splitmix(&mut rng) % 3)));
        let old: BTreeSet<[u64; 2]> = pool.iter().step_by(3).map(|&(a, b)| [a, b]).collect();
        for s in 0..SHARDS {
            let mut w = WordWriter::create(&gens.seen_path(s, 0)).unwrap();
            for e in old.iter().filter(|e| shard_of(e[0]) == s) {
                w.put_all(e).unwrap();
            }
            w.finish().unwrap();
        }
        // Blocks in order, each written by a random worker; the reference
        // numbers their candidates in sequence order.
        let mut files: Vec<Vec<WordWriter>> = (0..workers)
            .map(|w| {
                (0..SHARDS)
                    .map(|s| WordWriter::create(&gens.cand_path(w, s)).unwrap())
                    .collect()
            })
            .collect();
        let mut first: BTreeMap<[u64; 2], usize> = BTreeMap::new();
        let mut extents = Vec::new();
        let mut seq = 0;
        for block in 0..50 {
            let worker = (splitmix(&mut rng) % workers as u64) as usize;
            let len = (splitmix(&mut rng) % 12) as usize;
            for local in 0..len {
                let fp = pool[(splitmix(&mut rng) % pool.len() as u64) as usize];
                put_candidate(&mut files[worker], fp, block, local).unwrap();
                first.entry([fp.0, fp.1]).or_insert(seq);
                seq += 1;
            }
            extents.push(Extent {
                worker,
                len,
                cuts: Vec::new(),
            });
        }
        for f in files.into_iter().flatten() {
            f.finish().unwrap();
        }
        gens.lock().extents = extents;

        gens.begin_pass();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut chunk = Vec::with_capacity(chunk_entries);
                    gens.merge_shards(&mut chunk).unwrap();
                });
            }
        });

        let admitted: BTreeSet<usize> = first
            .iter()
            .filter(|(fp, _)| !old.contains(*fp))
            .map(|(_, &i)| i)
            .collect();
        let bits: BTreeSet<usize> = {
            let pass = gens.pass.read().unwrap();
            (0..seq)
                .filter(|&i| pass.bits[i / 64].load(Ordering::Relaxed) & 1 << (i % 64) != 0)
                .collect()
        };
        assert_eq!(bits, admitted);
        let union: BTreeSet<[u64; 2]> = old.iter().chain(first.keys()).copied().collect();
        let merged: Vec<[u64; 2]> = (0..SHARDS)
            .flat_map(|s| entries(&gens.seen_path(s, 1)))
            .collect();
        assert_eq!(merged, union.into_iter().collect::<Vec<_>>());
        let spill = gens.lock().spill;
        let fed = (0..SHARDS)
            .filter(|&s| first.keys().any(|fp| shard_of(fp[0]) == s))
            .count();
        assert_eq!(spill.merge_passes, fed as u64, "one merge per fed shard");
        assert!(spill.sort_runs > spill.merge_passes, "{spill:?}");

        // No cap: the second meet keeps every admission, and the peak
        // charges each worker's chunk and candidate writers.
        gens.end_pass();
        let st = gens.lock();
        assert!((0..seq).all(|i| st.admitted.get(i) == admitted.contains(&i)));
        let per_worker = chunk_entries * FP_ENTRY_WORDS * 8 + SHARDS * CAND_BUF_BYTES;
        assert!(st.transient_peak >= (workers * per_worker) as u64);
        drop(st);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A helper that fails between a generation's two meets — a spill I/O
    /// error in its shard merge panics — drops its worker, which aborts
    /// the barrier: worker 0 leaves the second meet without running its
    /// pass instead of waiting forever.
    #[test]
    fn a_helper_dropped_between_the_meets_releases_worker_0() {
        let dir = tmp_dir("meets");
        let (cas, _) = build_world(|b| DetectableCas::new(b, 2, 0));
        let slots = Slots::new(usize::MAX);
        let gens = Generations::new(&cas, &slots, &dir, 64, 2);
        let passes = AtomicUsize::new(0);
        let pass = || {
            passes.fetch_add(1, Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let _worker = gens.worker(1, 1);
                assert!(gens.barrier.wait(false, || unreachable!()));
                panic!("census spill I/O failed (test probe)");
            });
            let _worker = gens.worker(0, 1);
            assert!(gens.barrier.wait(true, pass), "first meet");
            assert!(!gens.barrier.wait(true, pass), "second meet");
            assert!(helper.join().is_err());
        });
        assert_eq!(passes.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocks_pack_consecutive_pieces_up_to_the_block_size() {
        let piece = |base, len| Piece {
            file: base % 2,
            offset: 0,
            base,
            len,
        };
        let b = BLOCK_RECORDS;
        let mut st = GenState::default();
        st.cut(vec![
            piece(0, b),
            piece(b, 3),
            piece(b + 3, b - 3),
            piece(2 * b, 1),
        ]);
        // A full piece is a block; two that fill one exactly share it; the
        // next starts a new one.
        assert_eq!(st.blocks, vec![0..1, 1..3, 3..4]);
        assert_eq!(st.extents.len(), 3);
        st.cut(Vec::new());
        assert!(st.blocks.is_empty() && st.extents.is_empty());
    }

    #[test]
    fn repeat_filter_rejects_an_exact_repeat() {
        let mut f = RepeatFilter::new(4);
        assert!(!f.repeats((8, 1)));
        assert!(f.repeats((8, 1)));
        assert!(f.repeats((8, 1)));
        assert_eq!(f.dropped, 2);
        // A new block starts with an empty filter.
        f.clear();
        assert!(!f.repeats((8, 1)));
        assert!(f.repeats((8, 1)));
        assert_eq!(f.dropped, 3);
    }

    #[test]
    fn repeat_filter_never_rejects_a_slot_collision() {
        let mut f = RepeatFilter::new(4);
        // An empty slot rejects nothing, the all-zero fingerprint included.
        assert!(!f.repeats((0, 0)));
        assert!(!f.repeats((8, 1)));
        // Same slot (8 % 4 == 12 % 4 == 0), different fingerprints: each
        // takes the slot over.
        assert!(!f.repeats((12, 1)));
        assert!(!f.repeats((12, 2)));
        // The evicted fingerprint passes again.
        assert!(!f.repeats((8, 1)));
        assert!(f.repeats((8, 1)));
        assert_eq!(f.dropped, 1);
    }

    /// Writes `words` to a fresh spill file, cuts it to `keep_bytes` bytes
    /// and opens it for reading.
    fn torn_file(tag: &str, words: &[Word], keep_bytes: u64) -> WordReader {
        let path = tmp_dir(tag).join("torn.words");
        let mut w = WordWriter::create(&path).unwrap();
        w.put_all(words).unwrap();
        w.finish().unwrap();
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(keep_bytes)
            .unwrap();
        let r = WordReader::open(&path).unwrap();
        let _ = fs::remove_dir_all(path.parent().unwrap());
        r
    }

    #[test]
    fn torn_fingerprint_entry_is_an_error_not_an_end() {
        let words = [1, 2, 3, 4, 5, 6];
        // The file ends after one whole entry: a clean end.
        let mut r = torn_file("fp-clean", &words, 24);
        assert_eq!(next_entry::<3>(&mut r).unwrap(), Some([1, 2, 3]));
        assert_eq!(next_entry::<3>(&mut r).unwrap(), None);
        // The file ends inside the second entry, on and off a word boundary.
        for keep in [32, 44, 47] {
            let mut r = torn_file("fp-torn", &words, keep);
            assert_eq!(next_entry::<3>(&mut r).unwrap(), Some([1, 2, 3]));
            let err = next_entry::<3>(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {keep}");
        }
    }

    #[test]
    fn torn_node_body_is_an_error_not_an_end() {
        // One record `[ops_used, handle, len, key...]` with a body longer
        // than one I/O chunk.
        let len = IO_CHUNK_WORDS + 36;
        let mut rec = vec![2, 7, len as Word];
        rec.extend((0..len as Word).map(|w| w * 3));
        let full = rec.len() as u64 * 8;
        let mut r = torn_file("node-whole", &rec, full);
        assert_eq!(next_entry(&mut r).unwrap(), Some([2, 7, len as Word]));
        let mut drv = Vec::new();
        read_body(&mut r, len, &mut drv).unwrap();
        assert_eq!(drv, rec[3..]);
        assert_eq!(next_entry::<3>(&mut r).unwrap(), None);
        // Cut right after the header, inside a word, and in the second chunk.
        for keep in [24, 24 + 8 * 5 + 3, full - 8] {
            let mut r = torn_file("node-torn", &rec, keep);
            assert_eq!(next_entry(&mut r).unwrap(), Some([2, 7, len as Word]));
            let err = read_body(&mut r, len, &mut drv).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {keep}");
        }
    }

    #[test]
    fn max_states_zero_reports_truncation() {
        let dir = tmp_dir("zero");
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let cfg = BfsConfig {
            max_ops: 2,
            max_states: 0,
            disk_dir: Some(dir.clone()),
            ram_budget: Some(4096),
            ..Default::default()
        };
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        assert!(report.truncated);
        assert_eq!(report.work, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
