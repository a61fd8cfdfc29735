//! The census's disk storage tier: BFS with a disk-resident frontier.
//!
//! The in-RAM tier of [`census_bfs_engine`](crate::census::census_bfs_engine)
//! holds three structures whose size tracks the reachable state space: the
//! arena of logical images, the visited-fingerprint set, and the frontier
//! of admitted-but-unexpanded nodes. At N = 7 on the standard CAS alphabet
//! those outgrow any sensible `max_states` budget long before the search
//! finishes. This tier moves all three to disk, behind the same worker
//! loop and the same expansion:
//!
//! * **images** live in a [`SpillableArena`] — sealed segments spill to
//!   files, only the active segment, a small hot-segment cache and the
//!   (hash → handle) index stay resident;
//! * **the frontier** is a sequence of *generation files*: flat records of
//!   `(ops_used, arena handle, encoded driver)`. Machines are rebuilt from
//!   their encodings via [`RecoverableObject::decode_op`] — which is why
//!   the engine picks this tier only for objects that are
//!   [`decodable`](RecoverableObject::decodable);
//! * **the visited set** is a sorted *seen file* of admitted configuration
//!   fingerprints, consulted by streamed sort-merge instead of hash lookup.
//!
//! # One generation
//!
//! 1. **Expand**: the worker loop streams generation `g`'s node file and
//!    expands each admitted record exactly like the in-RAM tier. A *repeat
//!    filter* (`SeenFile`) drops each successor that repeats a recent
//!    candidate at a budget no lower. Every other successor is a
//!    candidate: its fingerprint is appended — tagged with a generation
//!    sequence number — to a candidate file, and its record (budget,
//!    interned image handle, encoded driver) to generation `g + 1`'s node
//!    file.
//! 2. **Sort-merge**: sort the candidate fingerprints in RAM-budget-sized
//!    chunks into run files, k-way merge the runs, and walk the merge
//!    against the sorted seen file. Per fingerprint group, replay the
//!    candidates in sequence order with the in-RAM admission rule (exact:
//!    first unseen occurrence; dominance: each strictly-lower budget than
//!    the running minimum). Would-be admissions set bits in an in-RAM
//!    bitmap indexed by sequence number. The same walk writes the next
//!    seen file: the old entries below each group, then the group's
//!    minimum budget.
//! 3. **Cap**: scan the bitmap in sequence order, reserving one admission
//!    slot per would-be admission and clearing those past
//!    [`BfsConfig::max_states`]. Because sequence order *is* the canonical
//!    sequential BFS admission order, the tier admits exactly the nodes the
//!    one-worker in-RAM tier admits — in both exact and dominance modes,
//!    truncated or not — so every count in the report matches. The
//!    differential tests pin this. Unlike the in-RAM visited set, the seen
//!    file may keep a fingerprint whose admission the cap refused; that
//!    changes nothing, since once `Slots::reserve` fails every later call
//!    fails too.
//! 4. **Next**: generation `g + 1` is the node file step 1 wrote, read
//!    through the bitmap — `try_next` seeks past the records whose bit is
//!    clear, so no record is copied. Generation `g`'s files are deleted.
//!
//! The filter never changes an admission. Its slots hold only fingerprints
//! written as candidates, each at the lowest budget written since it took
//! the slot. The replay left that fingerprint's running minimum at or below
//! the slot's budget, or the cap refused it and so refuses everything after.
//! A repeat at a budget no lower is then never admitted: in exact mode it
//! is not a first occurrence, in dominance mode it is not strictly below
//! the minimum. Most repeats follow their twin closely, so a small table
//! catches most of them; it has `chunk_entries / 32` slots, 96 KiB at a
//! 16 MiB budget.
//!
//! Images are interned at expansion time, before admission is known, so
//! the arena may store images only capacity-rejected nodes reference —
//! bounded over-storage on truncated runs, spilled to disk anyway.
//!
//! Node identity is probabilistic (the same 128-bit fingerprints the
//! in-RAM tier uses; the arena dedups by a 128-bit image hash of the same
//! class). The Theorem 1 census count itself stays exact: shared keys are
//! compared verbatim, never hashed.
//!
//! The tier runs one worker whatever [`BfsConfig::parallelism`] says: the
//! canonical admission order that makes it bit-for-bit comparable against
//! the reference engines is a sequential notion. On the benchmark's
//! `census-spill` workload (N = 4, 16 MiB budget, 2-CPU Xeon host) a
//! 3.5–4.1 s run splits into 1.6–2.0 s of expansion, 1.0–1.1 s of
//! end-of-generation passes, 0.5–0.6 s of candidate encoding and writing
//! and 0.3–0.4 s of frontier reading and decoding.

use std::cell::{Cell, RefCell};
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use detectable::{OpSpec, RecoverableObject};
use nvm::{Memory, SimMemory, SpillConfig, SpillableArena, Word};

use crate::census::{
    Admission, BfsConfig, BfsNode, Census, CensusReport, Frontier, Images, Seeded, Slots,
};
use crate::driver::Driver;

/// Disk-tier counters for one census run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Arena segments written to files.
    pub arena_segments_spilled: u64,
    /// Whole-segment loads that missed the arena's hot cache.
    pub arena_segment_reads: u64,
    /// Sorted run files written across all generations.
    pub sort_runs: u64,
    /// Sort-merge passes executed (one per generation with candidates).
    pub merge_passes: u64,
    /// Frontier generations processed.
    pub generations: u64,
    /// Successors the repeat filter dropped before they were written.
    pub candidates_dropped: u64,
    /// Total bytes written to spill files (frontier, candidates, runs,
    /// seen files; arena segments are counted by the arena's own stats).
    pub bytes_spilled: u64,
}

/// RAM-budget-derived buffer sizes. The floors keep tiny budgets *legal*
/// rather than fast — the differential tests use them to force
/// multi-segment arena spill and multi-run external sorts on small worlds.
struct Knobs {
    seg_slots: usize,
    hot_segments: usize,
    chunk_entries: usize,
}

/// Bytes per candidate-fingerprint entry: `fp0, fp1, seqno, budget`.
const FP_ENTRY_WORDS: usize = 4;

fn knobs(stride: usize, ram_budget: Option<usize>) -> Knobs {
    let budget = ram_budget.unwrap_or(512 << 20);
    Knobs {
        // A quarter of the budget for the active segment (the hot cache
        // holds two more of the same size), a quarter for sort chunks; the
        // rest is headroom for the resident index, bitmaps and the repeat
        // filter (`chunk_entries / 32` slots of 24 bytes).
        seg_slots: (budget / 4 / (stride * 8)).clamp(8, 1 << 20),
        hot_segments: 2,
        chunk_entries: (budget / 4 / (FP_ENTRY_WORDS * 8)).clamp(64, 1 << 24),
    }
}

/// Words converted per `write_all` / `read_exact` through a stack buffer;
/// every fixed-size entry and most node records fit in one.
const IO_CHUNK_WORDS: usize = 64;

/// Buffered little-endian word writer that counts what it wrote.
struct WordWriter {
    w: BufWriter<File>,
    words: u64,
}

impl WordWriter {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(WordWriter {
            w: BufWriter::new(File::create(path)?),
            words: 0,
        })
    }

    fn put_all(&mut self, words: &[Word]) -> io::Result<()> {
        let mut buf = [0u8; IO_CHUNK_WORDS * 8];
        for chunk in words.chunks(IO_CHUNK_WORDS) {
            let bytes = &mut buf[..chunk.len() * 8];
            for (b, w) in bytes.chunks_exact_mut(8).zip(chunk) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            self.w.write_all(bytes)?;
        }
        self.words += words.len() as u64;
        Ok(())
    }

    /// Flushes and returns the bytes written.
    fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        Ok(self.words * 8)
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
    /// file, `UnexpectedEof` if the file ends inside `out`.
    fn get_into(&mut self, out: &mut [Word]) -> io::Result<bool> {
        if self.r.fill_buf()?.is_empty() {
            return Ok(out.is_empty());
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
}

/// Reads the next fixed-size entry; `None` at a clean end of file.
fn next_entry<const N: usize>(r: &mut WordReader) -> io::Result<Option<[Word; N]>> {
    let mut e = [0; N];
    Ok(r.get_into(&mut e)?.then_some(e))
}

/// Reads a node record's `len`-word driver body into `drv`, which the file
/// must hold in full: a record's header promises its body.
fn read_body(r: &mut WordReader, len: usize, drv: &mut Vec<Word>) -> io::Result<()> {
    drv.resize(len, 0);
    if r.get_into(drv)? {
        Ok(())
    } else {
        Err(io::ErrorKind::UnexpectedEof.into())
    }
}

/// Encodes one node record `[ops_used, handle, len, driver...]` into `rec`
/// (cleared first); a node file is these records back to back.
fn node_record<'r>(node: &BfsNode<u64>, rec: &'r mut Vec<Word>) -> &'r [Word] {
    rec.clear();
    rec.extend([node.ops_used as Word, node.state, 0]);
    assert!(
        node.driver.try_encode_frontier(rec),
        "crash-free census produced a non-frontier driver state"
    );
    rec[2] = (rec.len() - 3) as Word;
    rec
}

/// Removes the run directory on drop, so a panicking run does not leak
/// spill files. Success paths drop it too — cleanup is unconditional.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A candidate fingerprint entry `[fp0, fp1, seqno, budget]`, ordered by
/// `(fp0, fp1, seqno)` for the sort-merge. A seen-file entry is
/// `[fp0, fp1, budget]`, sorted by `(fp0, fp1)`.
type FpEntry = [u64; FP_ENTRY_WORDS];

fn fp_key(e: &FpEntry) -> (u64, u64, u64) {
    (e[0], e[1], e[2])
}

/// The old seen file, streamed into the next one as the merge passes
/// each fingerprint group.
struct SeenMerge {
    r: WordReader,
    cur: Option<[u64; 3]>,
    w: WordWriter,
}

impl SeenMerge {
    /// Copies the old entries below `fp` (all that remain if `None`), and
    /// takes `fp`'s own entry if it is next, returning its budget.
    fn upto(&mut self, fp: Option<(u64, u64)>) -> io::Result<Option<u64>> {
        while let Some(s) = self.cur {
            if fp.is_some_and(|fp| (s[0], s[1]) > fp) {
                break;
            }
            self.cur = next_entry(&mut self.r)?;
            if fp == Some((s[0], s[1])) {
                return Ok(Some(s[2]));
            }
            self.w.put_all(&s)?;
        }
        Ok(None)
    }
}

/// Admission bitmap over one generation's candidate sequence numbers.
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

    fn clear(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    fn get(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Monotone run-directory counter so concurrent censuses under one
/// `disk_dir` never collide.
static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Admission on disk: the generation frontier decides at generation end by
/// seen-file replay, and every successor is a candidate for it unless the
/// repeat filter proves the replay would reject it (see the
/// [module docs](self)).
struct SeenFile {
    /// Direct-mapped repeat filter, one `[fp0, fp1, budget + 1]` per slot;
    /// `0` in the last word marks an empty slot.
    filter: RefCell<Vec<[u64; 3]>>,
    dropped: Cell<u64>,
}

impl SeenFile {
    fn new(slots: usize) -> Self {
        SeenFile {
            filter: RefCell::new(vec![[0; 3]; slots.max(1)]),
            dropped: Cell::new(0),
        }
    }

    fn bytes(&self) -> usize {
        self.filter.borrow().len() * std::mem::size_of::<[u64; 3]>()
    }
}

impl Admission for SeenFile {
    /// Drops the successor if its slot holds the same fingerprint at a
    /// budget no higher; otherwise it takes the slot and becomes a
    /// candidate.
    fn admit(&self, _: &Slots, fp: (u64, u64), ops_used: usize) -> bool {
        let mut filter = self.filter.borrow_mut();
        let len = filter.len() as u64;
        let slot = &mut filter[(fp.0 % len) as usize];
        let budget = ops_used as u64 + 1;
        if slot[2] != 0 && slot[2] <= budget && (slot[0], slot[1]) == fp {
            self.dropped.set(self.dropped.get() + 1);
            return false;
        }
        *slot = [fp.0, fp.1, budget];
        true
    }

    /// The root is generation 0 by itself: replay against the empty seen
    /// file admits it, so only the cap remains.
    fn admit_root(&self, slots: &Slots, _: (u64, u64)) -> bool {
        slots.reserve()
    }
}

impl Images for SpillableArena {
    type Handle = u64;
    fn intern(&self, images: &[Word], hashes: &[(u64, u64)], out: &mut Vec<u64>) {
        self.intern128_batch(images, hashes, out);
    }
    fn read_into(&self, handle: u64, out: &mut Vec<Word>) {
        SpillableArena::read_into(self, handle, out);
    }
}

/// The disk tier of [`census_bfs_engine`](crate::census::census_bfs_engine):
/// the shared worker loop over a [`SpillableArena`], [`SeenFile`]
/// admission and the [`Generations`] frontier, in a per-run subdirectory
/// of `dir` that is removed on return.
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
    let seen = SeenFile::new(k.chunk_entries / 32);
    let census = Census::new(obj, alphabet, cfg, &arena, &seen);
    let root = census.root(mem);
    let mut gens = Generations {
        obj,
        slots: &census.slots,
        dir: &run_dir,
        dominance: cfg.dominance,
        chunk_entries: k.chunk_entries,
        gen: 0,
        cur: None,
        rec: Vec::new(),
        spill: SpillStats::default(),
        transient_peak: 0,
    };
    gens.seed(root).expect(SPILL_IO);
    let tally = census.work(mem.fork(), &mut gens);
    let arena_stats = arena.spill_stats();
    let spill = SpillStats {
        arena_segments_spilled: arena_stats.segments_spilled as u64,
        arena_segment_reads: arena_stats.segment_reads as u64,
        candidates_dropped: seen.dropped.get(),
        ..gens.spill
    };
    let resident = (arena.peak_resident_bytes() + seen.bytes()) as u64 + gens.transient_peak;
    census.report(mem, tally, None, resident, Some(spill))
}

const SPILL_IO: &str = "census spill I/O failed";

/// The generation being expanded: its node stream, read through its
/// admission bitmap, plus the next generation's candidate files.
struct Gen {
    nodes: WordReader,
    /// Which of `nodes`' records were admitted.
    admitted: Bitmap,
    /// Index of the next record in `nodes`.
    at: usize,
    /// Candidate fingerprints.
    fps: WordWriter,
    /// Candidate records: the next generation's node file.
    next: WordWriter,
    /// Candidates written so far (the next sequence number).
    seq: u64,
    expanded: bool,
}

/// The disk frontier: generation files, whose end-of-generation step runs
/// the sort-merge admission replay and the cap pass (see the
/// [module docs](self)).
struct Generations<'a> {
    obj: &'a dyn RecoverableObject,
    slots: &'a Slots,
    dir: &'a Path,
    dominance: bool,
    chunk_entries: usize,
    gen: u64,
    /// `None` once the search has drained.
    cur: Option<Gen>,
    /// Node-record scratch.
    rec: Vec<Word>,
    spill: SpillStats,
    /// Peak of the per-generation transient buffers (sort chunk, bitmap,
    /// merge cursors).
    transient_peak: u64,
}

impl Generations<'_> {
    fn gen_path(&self, g: u64) -> PathBuf {
        self.dir.join(format!("gen-{g}.nodes"))
    }

    /// Writes generation 0 (the admitted root, if any) and the seen file
    /// holding its fingerprint, and opens generation 0 for expansion.
    fn seed(&mut self, root: Option<Seeded<u64>>) -> io::Result<()> {
        let mut seen_w = WordWriter::create(&self.dir.join("seen.fps"))?;
        let mut gen_w = WordWriter::create(&self.gen_path(0))?;
        let mut admitted = Bitmap::new(usize::from(root.is_some()));
        if let Some((node, fp)) = root {
            gen_w.put_all(node_record(&node, &mut self.rec))?;
            seen_w.put_all(&[fp.0, fp.1, 0])?;
            admitted.set(0);
        }
        self.spill.bytes_spilled += seen_w.finish()? + gen_w.finish()?;
        self.cur = Some(self.open(0, admitted)?);
        Ok(())
    }

    fn open(&self, g: u64, admitted: Bitmap) -> io::Result<Gen> {
        Ok(Gen {
            nodes: WordReader::open(&self.gen_path(g))?,
            admitted,
            at: 0,
            fps: WordWriter::create(&self.dir.join("cand.fps"))?,
            next: WordWriter::create(&self.gen_path(g + 1))?,
            seq: 0,
            expanded: false,
        })
    }

    fn try_next(&mut self) -> io::Result<Option<BfsNode<u64>>> {
        while let Some(cur) = self.cur.as_mut() {
            while let Some([ops_used, handle, len]) = next_entry(&mut cur.nodes)? {
                cur.at += 1;
                if !cur.admitted.get(cur.at - 1) {
                    cur.nodes.skip(len as usize)?;
                    continue;
                }
                read_body(&mut cur.nodes, len as usize, &mut self.rec)?;
                if !cur.expanded {
                    cur.expanded = true;
                    self.spill.generations += 1;
                }
                let driver = Driver::decode_frontier(self.obj, self.obj.processes(), &self.rec)
                    .expect("decodable object failed to decode its own frontier encoding");
                return Ok(Some(BfsNode {
                    state: handle,
                    driver,
                    ops_used: ops_used as usize,
                }));
            }
            let done = self.cur.take().expect("checked above");
            self.cur = self.end_generation(done)?;
        }
        Ok(None)
    }

    fn try_push(&mut self, nodes: &mut Vec<BfsNode<u64>>, fps: &[(u64, u64)]) -> io::Result<()> {
        let cur = self.cur.as_mut().expect("push during an expansion");
        for (node, fp) in nodes.drain(..).zip(fps) {
            cur.fps
                .put_all(&[fp.0, fp.1, cur.seq, node.ops_used as Word])?;
            cur.next.put_all(node_record(&node, &mut self.rec))?;
            cur.seq += 1;
        }
        Ok(())
    }

    /// Sort-merges generation `done`'s candidates against the seen file
    /// while writing the next seen file, applies the cap, and opens the
    /// next generation through the resulting bitmap — `None` when there
    /// were no candidates.
    fn end_generation(&mut self, done: Gen) -> io::Result<Option<Gen>> {
        let dir = self.dir;
        let fps_path = dir.join("cand.fps");
        let seen_path = dir.join("seen.fps");
        let Gen { fps, next, seq, .. } = done;
        drop((done.nodes, done.admitted));
        self.spill.bytes_spilled += fps.finish()? + next.finish()?;
        fs::remove_file(self.gen_path(self.gen))?;
        let candidates = seq as usize;
        if candidates == 0 {
            fs::remove_file(&fps_path)?;
            fs::remove_file(self.gen_path(self.gen + 1))?;
            return Ok(None);
        }

        // ---- Pass 2a: sort candidate fingerprints into run files. ----
        let mut runs: Vec<PathBuf> = Vec::new();
        {
            let mut fps_r = WordReader::open(&fps_path)?;
            let mut chunk: Vec<FpEntry> = Vec::new();
            loop {
                chunk.clear();
                while chunk.len() < self.chunk_entries {
                    match next_entry(&mut fps_r)? {
                        Some(e) => chunk.push(e),
                        None => break,
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                chunk.sort_unstable_by_key(fp_key);
                let path = dir.join(format!("run-{}.fps", runs.len()));
                let mut w = WordWriter::create(&path)?;
                w.put_all(chunk.as_flattened())?;
                self.spill.bytes_spilled += w.finish()?;
                runs.push(path);
            }
        }
        self.spill.sort_runs += runs.len() as u64;
        fs::remove_file(&fps_path)?;

        // ---- Pass 2b: merge runs against the seen file, writing the ----
        // ---- next seen file as the walk passes each group.          ----
        self.spill.merge_passes += 1;
        let mut bitmap = Bitmap::new(candidates);
        let next_seen_path = dir.join("seen.fps.next");
        {
            let mut cursors: Vec<(WordReader, Option<FpEntry>)> = Vec::new();
            for p in &runs {
                let mut r = WordReader::open(p)?;
                let head = next_entry(&mut r)?;
                cursors.push((r, head));
            }
            let mut seen_r = WordReader::open(&seen_path)?;
            let mut seen = SeenMerge {
                cur: next_entry(&mut seen_r)?,
                r: seen_r,
                w: WordWriter::create(&next_seen_path)?,
            };
            // Per-fingerprint-group replay state: the group key and the
            // running minimum admitted budget (`None` ⇒ unseen so far).
            let mut group: Option<((u64, u64), Option<u64>)> = None;
            // Pop the globally smallest (fp0, fp1, seqno) entry each round.
            while let Some(best) = cursors
                .iter()
                .enumerate()
                .filter_map(|(i, (_, e))| e.map(|e| (fp_key(&e), i)))
                .min()
                .map(|(_, i)| i)
            {
                let entry = cursors[best].1.take().expect("cursor checked non-empty");
                cursors[best].1 = next_entry(&mut cursors[best].0)?;

                let fp = (entry[0], entry[1]);
                if group.map(|(g, _)| g) != Some(fp) {
                    // The closing group's running minimum is its entry in
                    // the next seen file.
                    if let Some((g, Some(min))) = group {
                        seen.w.put_all(&[g.0, g.1, min])?;
                    }
                    group = Some((fp, seen.upto(Some(fp))?));
                }
                let (_, running) = group.as_mut().expect("group just set");
                // Exact: only a never-seen fingerprint admits, once.
                // Dominance: a strictly lower budget than every prior
                // admission (including earlier in this generation).
                if running.is_none_or(|min| self.dominance && entry[3] < min) {
                    *running = Some(entry[3]);
                    bitmap.set(entry[2] as usize);
                }
            }
            if let Some((g, Some(min))) = group {
                seen.w.put_all(&[g.0, g.1, min])?;
            }
            seen.upto(None)?;
            self.spill.bytes_spilled += seen.w.finish()?;
        }
        for p in &runs {
            fs::remove_file(p)?;
        }
        fs::rename(&next_seen_path, &seen_path)?;

        // ---- Pass 2c: apply the admission cap in sequence order. ----
        // Sequence order is canonical sequential BFS admission order.
        for i in 0..candidates {
            if bitmap.get(i) && !self.slots.reserve() {
                bitmap.clear(i);
            }
        }

        self.transient_peak = self.transient_peak.max(
            (bitmap.bytes()
                + self.chunk_entries * FP_ENTRY_WORDS * 8
                + runs.len() * FP_ENTRY_WORDS * 8) as u64,
        );
        self.gen += 1;
        Ok(Some(self.open(self.gen, bitmap)?))
    }
}

impl Frontier<u64> for Generations<'_> {
    fn next(&mut self) -> Option<BfsNode<u64>> {
        self.try_next().expect(SPILL_IO)
    }
    fn push(&mut self, nodes: &mut Vec<BfsNode<u64>>, fps: &[(u64, u64)]) {
        self.try_push(nodes, fps).expect(SPILL_IO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{census_bfs_engine, BfsConfig};
    use crate::sim::build_world;
    use detectable::DetectableCas;

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
        for (max_ops, max_states, dominance) in [
            (4, 200_000, false),
            (4, 200_000, true),
            (4, 37, false),
            (4, 37, true),
            (3, 1, false),
        ] {
            let cfg = BfsConfig {
                max_ops,
                max_states,
                dominance,
                disk_dir: Some(dir.clone()),
                // Tiny: forces multi-segment arena spill and multi-run sorts.
                ram_budget: Some(4096),
                parallelism: 1,
            };
            let ext = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
            let ram = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    disk_dir: None,
                    ..cfg.clone()
                },
            );
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
        assert!(
            spill.sort_runs >= 2,
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

    #[test]
    fn repeat_filter_rejects_an_exact_repeat() {
        let slots = Slots::new(usize::MAX);
        let f = SeenFile::new(4);
        assert!(f.admit(&slots, (8, 1), 2));
        assert!(!f.admit(&slots, (8, 1), 2));
        assert!(!f.admit(&slots, (8, 1), 2));
        assert_eq!(f.dropped.get(), 2);
    }

    #[test]
    fn repeat_filter_passes_only_a_lower_budget() {
        let slots = Slots::new(usize::MAX);
        let f = SeenFile::new(4);
        assert!(f.admit(&slots, (8, 1), 3));
        assert!(!f.admit(&slots, (8, 1), 3), "equal budget");
        assert!(!f.admit(&slots, (8, 1), 4), "higher budget");
        assert!(f.admit(&slots, (8, 1), 1), "lower budget");
        // The slot now holds budget 1.
        assert!(!f.admit(&slots, (8, 1), 2));
        assert!(!f.admit(&slots, (8, 1), 1));
        assert!(f.admit(&slots, (8, 1), 0));
        assert_eq!(f.dropped.get(), 4);
    }

    #[test]
    fn repeat_filter_never_rejects_a_slot_collision() {
        let slots = Slots::new(usize::MAX);
        let f = SeenFile::new(4);
        // An empty slot rejects nothing, the all-zero fingerprint included.
        assert!(f.admit(&slots, (0, 0), 0));
        assert!(f.admit(&slots, (8, 1), 0));
        // Same slot (8 % 4 == 12 % 4 == 0), different fingerprints: each
        // takes the slot over, whatever its budget.
        assert!(f.admit(&slots, (12, 1), 5));
        assert!(f.admit(&slots, (12, 2), 5));
        // The evicted fingerprint passes again, even at a higher budget.
        assert!(f.admit(&slots, (8, 1), 5));
        assert!(!f.admit(&slots, (8, 1), 5));
        assert_eq!(f.dropped.get(), 1);
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
        let words = [1, 2, 3, 4, 5, 6, 7, 8];
        // The file ends after one whole entry: a clean end.
        let mut r = torn_file("fp-clean", &words, 32);
        assert_eq!(next_entry::<4>(&mut r).unwrap(), Some([1, 2, 3, 4]));
        assert_eq!(next_entry::<4>(&mut r).unwrap(), None);
        // The file ends inside the second entry, on and off a word boundary.
        for keep in [40, 52, 63] {
            let mut r = torn_file("fp-torn", &words, keep);
            assert_eq!(next_entry::<4>(&mut r).unwrap(), Some([1, 2, 3, 4]));
            let err = next_entry::<4>(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {keep}");
        }
    }

    #[test]
    fn torn_node_body_is_an_error_not_an_end() {
        // One record `[ops_used, handle, len, driver...]` with a body longer
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
