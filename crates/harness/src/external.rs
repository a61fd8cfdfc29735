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
//! 1. **Expand**: the worker loop streams generation `g`'s node records
//!    and expands each exactly like the in-RAM tier. Every successor is a
//!    candidate: its fingerprint is appended — tagged with a generation
//!    sequence number — to a candidate file, its payload (budget, interned
//!    image handle, encoded driver) to a parallel payload file.
//! 2. **Sort-merge**: sort the candidate fingerprints in RAM-budget-sized
//!    chunks into run files, k-way merge the runs, and walk the merge
//!    against the sorted seen file. Per fingerprint group, replay the
//!    candidates in sequence order with the in-RAM admission rule (exact:
//!    first unseen occurrence; dominance: each strictly-lower budget than
//!    the running minimum). Would-be admissions set bits in an in-RAM
//!    bitmap indexed by sequence number.
//! 3. **Cap**: scan the bitmap in sequence order, reserving one admission
//!    slot per would-be admission and clearing those past
//!    [`BfsConfig::max_states`]. Because sequence order *is* the canonical
//!    sequential BFS admission order, and a capacity rejection never
//!    updates the seen set (as in the in-RAM visited set), the tier admits
//!    exactly the nodes the one-worker in-RAM tier admits — in both exact
//!    and dominance modes, truncated or not — so every count in the report
//!    matches. The differential tests pin this.
//! 4. **Emit**: merge the admitted fingerprints into a new seen file and
//!    copy the admitted payload records into generation `g + 1`'s node
//!    file; delete generation `g`'s files.
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
//! The tier runs one worker whatever [`BfsConfig::parallelism`] says (the
//! canonical admission order that makes it bit-for-bit comparable against
//! the reference engines is a sequential notion, and the workloads it
//! unlocks are disk- not CPU-bound).

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
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
        // rest is headroom for the resident index and bitmaps.
        seg_slots: (budget / 4 / (stride * 8)).clamp(8, 1 << 20),
        hot_segments: 2,
        chunk_entries: (budget / 4 / (FP_ENTRY_WORDS * 8)).clamp(64, 1 << 24),
    }
}

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

    fn put(&mut self, word: Word) -> io::Result<()> {
        self.words += 1;
        self.w.write_all(&word.to_le_bytes())
    }

    fn put_all(&mut self, words: &[Word]) -> io::Result<()> {
        for &w in words {
            self.put(w)?;
        }
        Ok(())
    }

    /// Flushes and returns the bytes written.
    fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        Ok(self.words * 8)
    }
}

/// Buffered little-endian word reader; `get` returns `None` at EOF.
struct WordReader {
    r: BufReader<File>,
}

impl WordReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(WordReader {
            r: BufReader::new(File::open(path)?),
        })
    }

    fn get(&mut self) -> io::Result<Option<Word>> {
        let mut buf = [0u8; 8];
        let mut at = 0;
        while at < 8 {
            let n = self.r.read(&mut buf[at..])?;
            if n == 0 {
                if at == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn word in spill file",
                ));
            }
            at += n;
        }
        Ok(Some(Word::from_le_bytes(buf)))
    }

    /// Reads exactly one word, failing on EOF (for record interiors).
    fn need(&mut self) -> io::Result<Word> {
        self.get()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated record in spill file",
            )
        })
    }
}

/// Removes the run directory on drop, so a panicking run does not leak
/// spill files. Success paths drop it too — cleanup is unconditional.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One frontier node streamed off a generation file.
struct NodeRec {
    ops_used: usize,
    handle: u64,
    drv: Vec<Word>,
}

fn read_node(r: &mut WordReader) -> io::Result<Option<NodeRec>> {
    let Some(ops_used) = r.get()? else {
        return Ok(None);
    };
    let handle = r.need()?;
    let len = r.need()? as usize;
    let mut drv = Vec::with_capacity(len);
    for _ in 0..len {
        drv.push(r.need()?);
    }
    Ok(Some(NodeRec {
        ops_used: ops_used as usize,
        handle,
        drv,
    }))
}

fn write_node(w: &mut WordWriter, ops_used: usize, handle: u64, drv: &[Word]) -> io::Result<()> {
    w.put(ops_used as Word)?;
    w.put(handle)?;
    w.put(drv.len() as Word)?;
    w.put_all(drv)
}

/// A candidate fingerprint entry `[fp0, fp1, seqno, budget]`, ordered by
/// `(fp0, fp1, seqno)` for the sort-merge.
type FpEntry = [u64; FP_ENTRY_WORDS];

fn fp_key(e: &FpEntry) -> (u64, u64, u64) {
    (e[0], e[1], e[2])
}

fn read_fp(r: &mut WordReader) -> io::Result<Option<FpEntry>> {
    let Some(a) = r.get()? else { return Ok(None) };
    Ok(Some([a, r.need()?, r.need()?, r.need()?]))
}

/// A seen-file entry `[fp0, fp1, budget]`, sorted by `(fp0, fp1)`.
fn read_seen(r: &mut WordReader) -> io::Result<Option<[u64; 3]>> {
    let Some(a) = r.get()? else { return Ok(None) };
    Ok(Some([a, r.need()?, r.need()?]))
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

/// Admission on disk: every successor is a candidate, and the generation
/// frontier decides at generation end by seen-file replay.
struct SeenFile;

impl Admission for SeenFile {
    fn admit(&self, _: &Slots, _: (u64, u64), _: usize) -> bool {
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
            disk_dir: Some(run_dir.clone()),
        },
    );
    let census = Census::new(obj, alphabet, cfg, &arena, &SeenFile);
    let root = census.root(mem);
    let mut gens = Generations {
        obj,
        slots: &census.slots,
        dir: &run_dir,
        dominance: cfg.dominance,
        chunk_entries: k.chunk_entries,
        gen: 0,
        cur: None,
        drv: Vec::new(),
        spill: SpillStats::default(),
        transient_peak: 0,
    };
    gens.seed(root).expect(SPILL_IO);
    let tally = census.work(mem.fork(), &mut gens);
    let arena_stats = arena.spill_stats();
    let spill = SpillStats {
        arena_segments_spilled: arena_stats.segments_spilled as u64,
        arena_segment_reads: arena_stats.segment_reads as u64,
        ..gens.spill
    };
    let resident = arena.peak_resident_bytes() as u64 + gens.transient_peak;
    census.report(mem, tally, None, resident, Some(spill))
}

const SPILL_IO: &str = "census spill I/O failed";

/// The generation being expanded: its node stream plus the next
/// generation's candidate files.
struct Gen {
    nodes: WordReader,
    fps: WordWriter,
    pay: WordWriter,
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
    /// Driver-encoding scratch.
    drv: Vec<Word>,
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
        if let Some((node, fp)) = root {
            write_node(
                &mut gen_w,
                node.ops_used,
                node.state,
                encode(&node.driver, &mut self.drv),
            )?;
            seen_w.put_all(&[fp.0, fp.1, 0])?;
        }
        self.spill.bytes_spilled += seen_w.finish()? + gen_w.finish()?;
        self.cur = Some(self.open(0)?);
        Ok(())
    }

    fn open(&self, g: u64) -> io::Result<Gen> {
        Ok(Gen {
            nodes: WordReader::open(&self.gen_path(g))?,
            fps: WordWriter::create(&self.dir.join("cand.fps"))?,
            pay: WordWriter::create(&self.dir.join("cand.payload"))?,
            seq: 0,
            expanded: false,
        })
    }

    fn try_next(&mut self) -> io::Result<Option<BfsNode<u64>>> {
        loop {
            let Some(cur) = self.cur.as_mut() else {
                return Ok(None);
            };
            if let Some(rec) = read_node(&mut cur.nodes)? {
                if !cur.expanded {
                    cur.expanded = true;
                    self.spill.generations += 1;
                }
                let driver = Driver::decode_frontier(self.obj, self.obj.processes(), &rec.drv)
                    .expect("decodable object failed to decode its own frontier encoding");
                return Ok(Some(BfsNode {
                    state: rec.handle,
                    driver,
                    ops_used: rec.ops_used,
                }));
            }
            let done = self.cur.take().expect("checked above");
            self.cur = self.end_generation(done)?;
        }
    }

    fn try_push(&mut self, nodes: &mut Vec<BfsNode<u64>>, fps: &[(u64, u64)]) -> io::Result<()> {
        let cur = self.cur.as_mut().expect("push during an expansion");
        for (node, fp) in nodes.drain(..).zip(fps) {
            cur.fps
                .put_all(&[fp.0, fp.1, cur.seq, node.ops_used as Word])?;
            let drv = encode(&node.driver, &mut self.drv);
            write_node(&mut cur.pay, node.ops_used, node.state, drv)?;
            cur.seq += 1;
        }
        Ok(())
    }

    /// Sort-merges generation `done`'s candidates against the seen file,
    /// applies the cap, and emits the next generation — `None` when there
    /// were no candidates.
    fn end_generation(&mut self, done: Gen) -> io::Result<Option<Gen>> {
        let dir = self.dir;
        let fps_path = dir.join("cand.fps");
        let pay_path = dir.join("cand.payload");
        let seen_path = dir.join("seen.fps");
        self.spill.bytes_spilled += done.fps.finish()? + done.pay.finish()?;
        let candidates = done.seq as usize;
        if candidates == 0 {
            fs::remove_file(&fps_path)?;
            fs::remove_file(&pay_path)?;
            fs::remove_file(self.gen_path(self.gen))?;
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
                    match read_fp(&mut fps_r)? {
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
                for e in &chunk {
                    w.put_all(e)?;
                }
                self.spill.bytes_spilled += w.finish()?;
                runs.push(path);
            }
        }
        self.spill.sort_runs += runs.len() as u64;
        fs::remove_file(&fps_path)?;

        // ---- Pass 2b: merge runs against the seen file. ----
        self.spill.merge_passes += 1;
        let mut bitmap = Bitmap::new(candidates);
        let wouldbe_path = dir.join("wouldbe.fps");
        {
            let mut cursors: Vec<(WordReader, Option<FpEntry>)> = Vec::new();
            for p in &runs {
                let mut r = WordReader::open(p)?;
                let head = read_fp(&mut r)?;
                cursors.push((r, head));
            }
            let mut seen_r = WordReader::open(&seen_path)?;
            let mut seen_cur = read_seen(&mut seen_r)?;
            let mut wouldbe_w = WordWriter::create(&wouldbe_path)?;
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
                cursors[best].1 = read_fp(&mut cursors[best].0)?;

                let fp = (entry[0], entry[1]);
                if group.map(|(g, _)| g) != Some(fp) {
                    // New group: advance the sorted seen file to this
                    // fingerprint and pick up its admitted budget.
                    while let Some(s) = seen_cur {
                        if (s[0], s[1]) < fp {
                            seen_cur = read_seen(&mut seen_r)?;
                        } else {
                            break;
                        }
                    }
                    let prior = match seen_cur {
                        Some(s) if (s[0], s[1]) == fp => Some(s[2]),
                        _ => None,
                    };
                    group = Some((fp, prior));
                }
                let (_, running) = group.as_mut().expect("group just set");
                // Exact: only a never-seen fingerprint admits, once.
                // Dominance: a strictly lower budget than every prior
                // admission (including earlier in this generation).
                if running.is_none_or(|min| self.dominance && entry[3] < min) {
                    *running = Some(entry[3]);
                    bitmap.set(entry[2] as usize);
                    wouldbe_w.put_all(&entry)?;
                }
            }
            self.spill.bytes_spilled += wouldbe_w.finish()?;
        }
        for p in &runs {
            fs::remove_file(p)?;
        }

        // ---- Pass 2c: apply the admission cap in sequence order. ----
        // Sequence order is canonical sequential BFS admission order, and
        // a capacity rejection must not reach the seen file (the in-RAM
        // set is only updated after a slot is reserved).
        for i in 0..candidates {
            if bitmap.get(i) && !self.slots.reserve() {
                bitmap.clear(i);
            }
        }

        // ---- Pass 2d: fold admitted fingerprints into a new seen file. ----
        let new_seen_path = dir.join("seen.fps.next");
        {
            let mut old_r = WordReader::open(&seen_path)?;
            let mut wb_r = WordReader::open(&wouldbe_path)?;
            let mut out = WordWriter::create(&new_seen_path)?;
            let mut old_cur = read_seen(&mut old_r)?;
            // Reduce the would-be stream to one admitted entry per
            // fingerprint (the minimum admitted budget; entries within a
            // group arrive in seqno order with decreasing budgets).
            let next_admitted =
                |wb_r: &mut WordReader, bitmap: &Bitmap| -> io::Result<Option<[u64; 3]>> {
                    while let Some(e) = read_fp(wb_r)? {
                        if bitmap.get(e[2] as usize) {
                            return Ok(Some([e[0], e[1], e[3]]));
                        }
                    }
                    Ok(None)
                };
            let mut wb_cur = next_admitted(&mut wb_r, &bitmap)?;
            loop {
                let old_first = match (old_cur, wb_cur) {
                    (None, None) => break,
                    (Some(o), Some(w)) => (o[0], o[1]) < (w[0], w[1]),
                    (old, _) => old.is_some(),
                };
                if old_first {
                    out.put_all(&old_cur.expect("old entry first"))?;
                    old_cur = read_seen(&mut old_r)?;
                    continue;
                }
                let mut min = wb_cur.expect("would-be entry first");
                loop {
                    match next_admitted(&mut wb_r, &bitmap)? {
                        Some(nx) if (nx[0], nx[1]) == (min[0], min[1]) => {
                            min[2] = min[2].min(nx[2])
                        }
                        nx => {
                            wb_cur = nx;
                            break;
                        }
                    }
                }
                if let Some(o) = old_cur.filter(|o| (o[0], o[1]) == (min[0], min[1])) {
                    // Dominance re-admission: the new (lower) budget
                    // replaces the old entry.
                    min[2] = min[2].min(o[2]);
                    old_cur = read_seen(&mut old_r)?;
                }
                out.put_all(&min)?;
            }
            self.spill.bytes_spilled += out.finish()?;
        }
        fs::remove_file(&wouldbe_path)?;
        fs::rename(&new_seen_path, &seen_path)?;

        // ---- Pass 3: copy admitted payloads into generation g + 1. ----
        {
            let mut pay_r = WordReader::open(&pay_path)?;
            let mut next_w = WordWriter::create(&self.gen_path(self.gen + 1))?;
            let mut i = 0usize;
            while let Some(rec) = read_node(&mut pay_r)? {
                if bitmap.get(i) {
                    write_node(&mut next_w, rec.ops_used, rec.handle, &rec.drv)?;
                }
                i += 1;
            }
            self.spill.bytes_spilled += next_w.finish()?;
        }
        fs::remove_file(&pay_path)?;
        fs::remove_file(self.gen_path(self.gen))?;

        self.transient_peak = self.transient_peak.max(
            (bitmap.bytes()
                + self.chunk_entries * FP_ENTRY_WORDS * 8
                + runs.len() * FP_ENTRY_WORDS * 8) as u64,
        );
        self.gen += 1;
        Ok(Some(self.open(self.gen)?))
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

/// Encodes a crash-free frontier driver into `drv` (cleared first).
fn encode<'d>(driver: &Driver, drv: &'d mut Vec<Word>) -> &'d [Word] {
    drv.clear();
    assert!(
        driver.try_encode_frontier(drv),
        "crash-free census produced a non-frontier driver state"
    );
    drv
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
