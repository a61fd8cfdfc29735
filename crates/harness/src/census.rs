//! The reachable-configuration census — Theorem 1 as an experiment.
//!
//! Theorem 1: every obstruction-free detectable CAS implementation over a
//! domain of size ≥ N has at least `2^N − 1` reachable configurations, no
//! two of which are memory-equivalent (equal shared-memory contents). This
//! module measures reachable shared-memory configurations empirically:
//!
//! * [`census_drive_engine`] runs a prescribed operation sequence solo-op-by-op and
//!   counts distinct shared states — with [`gray_code_cas_ops`] it follows
//!   the constructive witness (flip one process's vector bit at a time, in
//!   Gray-code order, visiting all `2^N` vectors), demonstrating that
//!   Algorithm 2 indeed *realizes* the exponential configuration count that
//!   the theorem proves necessary;
//! * [`census_bfs_engine`] breadth-first-explores every reachable configuration of
//!   a small world (all interleavings of a bounded operation budget) and
//!   counts distinct shared states — the exhaustive version, good to N = 5
//!   exactly and N = 6 under dominance pruning on the standard 2-op CAS
//!   alphabet;
//! * running either against the **non-detectable** recoverable CAS baseline
//!   shows its configuration count stays at the domain size, isolating
//!   detectability as the cause of the space blow-up.
//!
//! # Engine
//!
//! The exhaustive census is a BFS over system configurations (memory
//! contents + driver volatile state + consumed operation budget), run by
//! one worker loop (`Census::work`): take a node, expand it, flush its
//! admitted successors to the frontier, mark it complete. Expansion is
//! checkpoint-based: a worker installs a node's image once onto its own
//! scratch [`fork`](SimMemory::fork), then enters every successor under a
//! [`checkpoint`](SimMemory::checkpoint) and leaves via
//! [`rollback`](SimMemory::rollback) — O(writes of one step) per
//! successor. The census is crash-free, so a configuration's memory half
//! is fully determined by its *logical* word image; nodes carry an 8-byte
//! handle into an image store that keeps each distinct image once, not a
//! per-node copy of the memory. Only the storage varies, in three roles
//! the loop is generic over:
//!
//! | role | in RAM | on disk ([`crate::external`]) |
//! |---|---|---|
//! | frontier | a FIFO for one worker; work-stealing deques ([`crate::sched`]) for more | generation files |
//! | admission | sharded fingerprint set, per successor | repeat filter per successor, seen-file sort-merge replay at generation end |
//! | image store | [`StateArena`] | [`nvm::SpillableArena`] |
//!
//! [`census_bfs_engine`] takes the disk tier when [`BfsConfig::disk_dir`]
//! is set and the object is [`decodable`](RecoverableObject::decodable);
//! the disk tier runs one worker. Both tiers share the admission cap
//! ([`BfsConfig::max_states`]: exactly that many nodes are admitted and
//! expanded, and hitting it sets [`CensusReport::truncated`]), the exact
//! shared-configuration count (logical shared-memory keys — the quantity
//! Theorem 1 bounds is never approximated) and the report. A worker
//! interns one expansion's admitted images in one batch: one lock
//! acquisition per shard per flush instead of one per successor.
//!
//! Per generated successor, a worker reads the logical image once into a
//! scratch buffer and hashes it in one pass that yields both lanes of
//! [`hash2`]; a second pass over the short driver key, seeded with those
//! lanes, gives the 128-bit fingerprint. It then probes the visited set
//! (the only lock on the path) and its **own** shared-configuration set
//! with a borrowed slice of the shared words, cloning the key only when it
//! is new to that worker; `Census::report` unions the worker sets. Maps
//! keyed by these already-mixed fingerprints use [`FoldBuildHasher`], one
//! multiply per word, rather than the standard library's SipHash.
//!
//! On runs that complete within `max_states`, the visited set, the
//! shared-configuration set and the expansion count are each determined by
//! the reachable state space alone, so **every parallelism level and both
//! tiers report identical counts**. When the cap truncates a parallel run,
//! *which* configurations won admission slots is scheduling-dependent
//! (one-worker runs stay deterministic: admission order is canonical BFS
//! order).
//!
//! # Dominance pruning
//!
//! Two frontier nodes that agree on memory and driver state but differ in
//! consumed operation budget have nested futures: everything reachable
//! from the higher-`ops_used` copy is reachable from the lower one
//! (invocations only *gain* legality as budget frees up; machine steps are
//! budget-blind). [`BfsConfig::dominance`] exploits this quotient: the
//! budget leaves the visited fingerprint, and a configuration is
//! (re-)expanded only when seen with a strictly lower `ops_used` than any
//! admission before it — so each configuration is expanded at most a
//! handful of times instead of once per distinct budget, cutting the
//! explored node count by up to the `max_ops` factor.
//!
//! The mode is **explicitly non-count-preserving**: `work` (expansions) and
//! the number of visited nodes shrink, and under parallelism the exact
//! expansion count depends on discovery order (a configuration found at
//! budget 3 then 2 is expanded twice; found at 2 first, once). What is
//! preserved — and pinned by differential tests against the exact engine —
//! is the **verdict**: on complete runs the set of *configurations*
//! expanded is exactly the reachable set, every configuration's final
//! expansion happens at its minimal reachable budget (which generates the
//! maximal successor set), and therefore `distinct_shared`, bound
//! satisfaction and truncation match the exact engine at every thread
//! level.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use detectable::{OpSpec, RecoverableObject};
use nvm::hash::{hash2, FoldBuildHasher, SEEDS};
use nvm::{CompactState, Memory, Pid, SimMemory, StateArena, Word};

use crate::driver::{Driver, RetryPolicy};
use crate::external::SpillStats;
use crate::sched::{resolve_parallelism, SchedStats, Scheduler, Worker};

/// Result of a census run.
#[derive(Clone, Debug)]
pub struct CensusReport {
    /// Distinct shared-memory configurations observed.
    pub distinct_shared: usize,
    /// The Theorem 1 lower bound `2^N − 1` for the world's process count.
    pub theorem_bound: u64,
    /// Operations completed (census_drive) or configurations expanded
    /// (census_bfs).
    pub work: usize,
    /// Scheduler actions driven: machine steps for the solo drive,
    /// successor generations (one invoke or step each) for the BFS.
    pub steps: u64,
    /// Operations that resolved (returned a response) during the run.
    pub resolved_ops: u64,
    /// Explicit persist instructions executed while driving.
    pub persists: u64,
    /// Whether a budget cut coverage short: the BFS ran out of
    /// [`BfsConfig::max_states`] admission slots with unexplored
    /// configurations remaining, or a solo drive's operation exhausted its
    /// step budget. A truncated census that misses the bound is a coverage
    /// artifact, not a refutation — see [`bound_failed`](Self::bound_failed).
    pub truncated: bool,
    /// Estimated peak resident bytes of the engine's own data structures
    /// (visited/shared sets, arena, frontier — not process RSS). In-RAM
    /// runs derive it from final set sizes (their sets only grow); the
    /// disk tier tracks its bounded buffers generation by generation; the
    /// solo drive reports its seen-set footprint.
    pub peak_resident_bytes: u64,
    /// Disk-tier counters when the BFS ran on disk; `None` otherwise.
    pub spill: Option<SpillStats>,
    /// Scheduler-action counters (steals, parks, per-worker expansions,
    /// intern-flush batches). All-zero for the solo drive, which neither
    /// schedules nor batch-interns.
    pub sched: SchedStats,
}

impl CensusReport {
    /// Whether the observed count meets the Theorem 1 bound.
    pub fn meets_bound(&self) -> bool {
        self.distinct_shared as u64 >= self.theorem_bound
    }

    /// Whether this run *conclusively* fails the Theorem 1 bound: the count
    /// falls short **and** coverage was complete. A truncated run below the
    /// bound is indeterminate (the missing configurations may simply not
    /// have been reached) and returns `false` here.
    pub fn bound_failed(&self) -> bool {
        !self.meets_bound() && !self.truncated
    }
}

/// Per-operation step budget for the solo drive. The paper's algorithms are
/// wait-free, so an honest implementation finishes in far fewer steps; an
/// operation still pending after this many is a model violation.
const SOLO_STEP_LIMIT: usize = 1_000_000;

/// Solo-drive census engine: runs `ops` one at a time (each to
/// completion, crash-free) and counts the distinct shared-memory
/// configurations observed after each operation (plus the initial one).
/// [`Scenario::census`](crate::Scenario::census) selects it for script
/// workloads; public for engine-level equivalence tests.
///
/// An operation that exhausts its step budget is a model violation
/// (wait-freedom says solo runs terminate): the engine `debug_assert`s,
/// stops driving — a half-executed operation would contribute a
/// partial-state configuration to the count — and reports the run as
/// [`truncated`](CensusReport::truncated).
pub fn census_drive_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    ops: &[(Pid, OpSpec)],
) -> CensusReport {
    let mut seen: HashSet<Vec<Word>> = HashSet::new();
    let mut driver = Driver::for_object(obj);
    let persists_before = mem.stats().persists;
    let mut completed = 0usize;
    let mut steps = 0u64;
    let mut truncated = false;
    seen.insert(mem.shared_key());
    for (pid, op) in ops {
        let (resp, used) = driver.try_run_solo_counted(obj, mem, pid.idx(), *op, SOLO_STEP_LIMIT);
        steps += used as u64;
        match resp {
            Some(_) => {
                completed += 1;
                seen.insert(mem.shared_key());
            }
            None => {
                debug_assert!(
                    false,
                    "census_drive: solo {op} by {pid} did not complete within \
                     {SOLO_STEP_LIMIT} steps (wait-freedom violated)"
                );
                truncated = true;
                break;
            }
        }
    }
    CensusReport {
        distinct_shared: seen.len(),
        theorem_bound: (1u64 << obj.processes()) - 1,
        work: completed,
        steps,
        resolved_ops: completed as u64,
        persists: mem.stats().persists - persists_before,
        truncated,
        peak_resident_bytes: set_bytes(seen.len(), mem.shared_key().len() * 8),
        spill: None,
        sched: SchedStats::default(),
    }
}

/// Estimated resident bytes of a hash set holding `len` entries of
/// `entry_bytes` payload each: payload plus ~32 bytes of table overhead
/// per entry (bucket word, hash, capacity headroom). All census peak
/// estimates are built from this — they account the engine's own data
/// structures, not allocator slack or process RSS.
fn set_bytes(len: usize, entry_bytes: usize) -> u64 {
    (len as u64) * (entry_bytes as u64 + 32)
}

/// The constructive Theorem 1 witness: a Gray-code walk over all `2^N`
/// toggle vectors. Step `k` has process `ctz(k)` perform one successful CAS,
/// flipping exactly its own vector bit.
///
/// Values alternate `0 → 1 → 0 → …` so each CAS's `old` argument matches the
/// current object value.
pub fn gray_code_cas_ops(n: u32) -> Vec<(Pid, OpSpec)> {
    let mut ops = Vec::new();
    let mut val = 0u32;
    for k in 1u64..(1 << n) {
        let p = k.trailing_zeros().min(n - 1);
        let new = 1 - val;
        ops.push((Pid::new(p), OpSpec::Cas { old: val, new }));
        val = new;
    }
    ops
}

/// Limits, parallelism and pruning for [`census_bfs_engine`].
#[derive(Clone, Debug)]
pub struct BfsConfig {
    /// Total operations any single execution path may start.
    pub max_ops: usize,
    /// Admission cap on the visited set: at most this many configurations
    /// are ever admitted for expansion, so peak memory is O(`max_states`)
    /// nodes (plus the per-successor shared keys they generate, bounded by
    /// the branching factor). Exactly `max_states` nodes are expanded when
    /// the cap binds, and the report is flagged
    /// [`truncated`](CensusReport::truncated).
    pub max_states: usize,
    /// Worker threads for in-RAM frontier expansion: `1` is a sequential
    /// FIFO search, `0` (the default) means the host's available
    /// parallelism ([`resolve_parallelism`]). The disk tier always runs one
    /// worker. Runs that complete within `max_states` report identical
    /// counts at every setting (see the [module docs](self) for the
    /// truncation caveat).
    pub parallelism: usize,
    /// ops_used-dominance pruning: expand only the lowest-remaining-budget
    /// copy of each configuration. **Non-count-preserving** — `work`
    /// shrinks and (under parallelism) becomes scheduling-dependent — but
    /// the verdict (`distinct_shared`, bound satisfaction, truncation) is
    /// provably identical to the exact engine on complete runs; see the
    /// [module docs](self). Off by default; the exact engine remains the
    /// reference.
    pub dominance: bool,
    /// Directory for the disk tier's spill files (arena segments, frontier
    /// generations, sort runs, the visited-fingerprint file). `Some` puts
    /// the census on disk when the object supports machine decoding
    /// ([`RecoverableObject::decodable`]) and keeps it in RAM otherwise;
    /// `None` (the default) keeps everything in RAM.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Soft RAM target in bytes for the disk tier's bounded buffers (arena
    /// segment + hot cache, sort chunks, admission bitmaps). `None` picks a
    /// default sized for the host; small values force multi-segment arena
    /// spill and multi-run external sorts (the differential tests use
    /// this). The in-RAM tier ignores it.
    pub ram_budget: Option<usize>,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig {
            max_ops: 6,
            max_states: 2_000_000,
            parallelism: 0,
            dominance: false,
            disk_dir: None,
            ram_budget: None,
        }
    }
}

/// One frontier entry: a handle to the node's logical memory image in the
/// tier's image store, the driver's volatile state, and the operation
/// budget consumed so far. Everything a worker needs to resume the
/// configuration, at 8 bytes plus the driver.
pub(crate) struct BfsNode<H> {
    pub(crate) state: H,
    pub(crate) driver: Driver,
    pub(crate) ops_used: usize,
}

/// An admitted root node and its configuration fingerprint.
pub(crate) type Seeded<H> = (BfsNode<H>, (u64, u64));

/// The memory component of the configuration fingerprint: both lanes of
/// [`hash2`] over the logical image, in one pass. Lane 0 doubles as the
/// in-RAM arena's routing/index hash and both lanes form the disk arena's
/// 128-bit key (pure functions of the image, as the arenas require), so a
/// generated successor reads its image for hashing exactly once.
fn image_hashes(image: &[Word]) -> (u64, u64) {
    hash2(SEEDS, image)
}

/// 128-bit fingerprint of a configuration: the *logical* memory image
/// (equal [`full_key`](SimMemory::full_key)s — not
/// [`state_words_into`](SimMemory::state_words_into), whose dirty-set and
/// crash-ordinal sensitivity would split states that behave identically
/// in a crash-free search), driver volatile state (machine encodings
/// included, history not: the census counts configurations, not paths),
/// and — unless dominance pruning quotients it away — the operation
/// budget. Collisions (vanishingly unlikely) could merge two distinct
/// configurations — the same trade-off the explorer's pruning memo makes,
/// bought because a 16-byte fingerprint keeps a multi-million-state
/// visited set in cache where exact full-memory keys thrash. The driver
/// key is hashed by [`hash2`] seeded with the two image lanes, so each
/// half chains its own independently seeded image hash (true 128-bit
/// resistance, not one 64-bit hash copied twice).
fn fingerprint_image(
    image_hashes: (u64, u64),
    driver: &Driver,
    ops_used: usize,
    dominance: bool,
    scratch: &mut Vec<Word>,
) -> (u64, u64) {
    scratch.clear();
    if !dominance {
        scratch.push(ops_used as Word);
    }
    driver.encode_key(scratch);
    hash2(image_hashes, scratch)
}

const SHARDS: usize = 64;

/// One visited-set shard: a plain fingerprint set in exact mode (the
/// budget is already folded into the fingerprint, so storing it again
/// would spend ~8 bytes per entry on a value no one reads — real money at
/// the 20M-entry default cap), a fingerprint → lowest-admitted-budget map
/// in dominance mode.
enum VisitedShard {
    Exact(HashSet<(u64, u64), FoldBuildHasher>),
    Dominance(HashMap<(u64, u64), u32, FoldBuildHasher>),
}

/// The admission cap, shared by both storage tiers: at most `cap`
/// configurations are ever admitted for expansion, and a
/// rejected-for-capacity admission marks the census truncated.
pub(crate) struct Slots {
    admitted: AtomicUsize,
    cap: usize,
    truncated: AtomicBool,
}

impl Slots {
    pub(crate) fn new(cap: usize) -> Self {
        Slots {
            admitted: AtomicUsize::new(0),
            cap,
            truncated: AtomicBool::new(false),
        }
    }

    /// Reserves one admission slot: a reservation CAS loop, so the cap is
    /// exact even under concurrent admission from every shard.
    pub(crate) fn reserve(&self) -> bool {
        loop {
            let c = self.admitted.load(Ordering::Relaxed);
            if c >= self.cap {
                self.truncated.store(true, Ordering::Relaxed);
                return false;
            }
            if self
                .admitted
                .compare_exchange(c, c + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// The in-RAM visited set: sharded configuration fingerprints. In
/// dominance mode each fingerprint carries the lowest `ops_used` admitted
/// so far and re-admits when seen with a strictly lower budget (consuming
/// a fresh slot — every expansion is bounded by the cap).
struct VisitedSet {
    shards: Vec<Mutex<VisitedShard>>,
}

impl VisitedSet {
    fn new(dominance: bool) -> Self {
        VisitedSet {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(if dominance {
                        VisitedShard::Dominance(HashMap::default())
                    } else {
                        VisitedShard::Exact(HashSet::default())
                    })
                })
                .collect(),
        }
    }
}

/// Admission role: decides which generated successors reach the frontier.
pub(crate) trait Admission {
    /// Whether the successor with fingerprint `fp` at budget `ops_used`
    /// goes to the frontier. A tier that admits later, in its frontier,
    /// returns `false` only for a successor it can already prove the
    /// frontier would reject (the disk tier's repeat filter), so a rejected
    /// successor is never staged, interned or encoded.
    fn admit(&self, slots: &Slots, fp: (u64, u64), ops_used: usize) -> bool;

    /// Admits the root configuration, a generation by itself.
    fn admit_root(&self, slots: &Slots, fp: (u64, u64)) -> bool {
        self.admit(slots, fp, 0)
    }
}

impl Admission for VisitedSet {
    /// Admits `key` at budget `ops_used` if it warrants an expansion
    /// (novel fingerprint, or — dominance mode — strictly lower budget
    /// than every prior admission) and a slot remains. A capacity
    /// rejection never updates the set.
    fn admit(&self, slots: &Slots, key: (u64, u64), ops_used: usize) -> bool {
        let mut shard = self.shards[(key.0 as usize) % SHARDS]
            .lock()
            .expect("visited shard poisoned");
        match &mut *shard {
            VisitedShard::Exact(set) => {
                if set.contains(&key) || !slots.reserve() {
                    return false;
                }
                set.insert(key);
                true
            }
            VisitedShard::Dominance(map) => match map.entry(key) {
                Entry::Occupied(mut e) => {
                    if (ops_used as u32) >= *e.get() || !slots.reserve() {
                        return false;
                    }
                    *e.get_mut() = ops_used as u32;
                    true
                }
                Entry::Vacant(v) => {
                    if !slots.reserve() {
                        return false;
                    }
                    v.insert(ops_used as u32);
                    true
                }
            },
        }
    }
}

/// Image-store role: where admitted successors' logical images live.
pub(crate) trait Images {
    /// What a frontier node carries instead of its image.
    type Handle: Copy;
    /// Interns `images` (stride-sized, back to back, with their two salted
    /// hashes from [`image_hashes`]), one handle per image into `out`.
    fn intern(&self, images: &[Word], hashes: &[(u64, u64)], out: &mut Vec<Self::Handle>);
    fn read_into(&self, handle: Self::Handle, out: &mut Vec<Word>);
}

impl Images for StateArena {
    type Handle = CompactState;
    fn intern(&self, images: &[Word], hashes: &[(u64, u64)], out: &mut Vec<CompactState>) {
        self.intern_batch(images, hashes.iter().map(|h| h.0), out);
    }
    fn read_into(&self, handle: CompactState, out: &mut Vec<Word>) {
        StateArena::read_into(self, handle, out);
    }
}

/// Frontier role: the admitted nodes not yet expanded.
pub(crate) trait Frontier<H> {
    /// The next node to expand; `None` once the search has drained.
    fn next(&mut self) -> Option<BfsNode<H>>;
    /// Takes one expansion's successors (drained from `nodes`) and their
    /// fingerprints, in generation order.
    fn push(&mut self, nodes: &mut Vec<BfsNode<H>>, fps: &[(u64, u64)]);
    /// Marks the node last returned by [`next`](Self::next) expanded.
    fn complete(&mut self) {}
}

/// One in-RAM worker: a plain FIFO keeps admission in canonical BFS order,
/// so truncated sequential runs stay deterministic (and, without
/// dominance, match the reference census's admissions exactly).
impl<H> Frontier<H> for VecDeque<BfsNode<H>> {
    fn next(&mut self) -> Option<BfsNode<H>> {
        self.pop_front()
    }
    fn push(&mut self, nodes: &mut Vec<BfsNode<H>>, _: &[(u64, u64)]) {
        self.extend(nodes.drain(..));
    }
}

/// Two or more in-RAM workers: the work-stealing deques.
impl<H> Frontier<H> for Worker<'_, BfsNode<H>> {
    fn next(&mut self) -> Option<BfsNode<H>> {
        Worker::next(self)
    }
    fn push(&mut self, nodes: &mut Vec<BfsNode<H>>, _: &[(u64, u64)]) {
        Worker::push(self, nodes);
    }
    fn complete(&mut self) {
        Worker::complete(self);
    }
}

/// The crash-free retry policy every census engine drives under.
const CENSUS_RETRY: RetryPolicy = RetryPolicy {
    retry_on_fail: false,
    max_retries: 0,
    reset_per_op: false,
};

/// Per-worker scratch buffers, reused across every successor.
#[derive(Default)]
struct Scratch {
    /// Logical image of the node being expanded.
    node_image: Vec<Word>,
    /// Logical image of the successor just generated.
    image: Vec<Word>,
    /// Driver-key encoding buffer for fingerprints.
    key: Vec<Word>,
    /// Shared-region words of the successor just generated.
    shared_key: Vec<Word>,
    /// This worker's exact shared-configuration keys (Theorem 1's
    /// memory-equivalence classes, never approximated by a hash). Worker
    /// sets are unioned in [`Census::report`]; a run ends with a handful of
    /// keys, so a private set costs nothing and needs no lock.
    shared: HashSet<Vec<Word>, FoldBuildHasher>,
}

/// A worker-local batch of one expansion's admitted successors: images
/// staged for one [`Images::intern`] call, with their hashes, the
/// non-image node halves and the fingerprints alongside in staging order.
struct Batch<I: Images> {
    images: Vec<Word>,
    hashes: Vec<(u64, u64)>,
    /// `(driver, ops_used)` per staged image, same order.
    meta: Vec<(Driver, u32)>,
    fps: Vec<(u64, u64)>,
    handles: Vec<I::Handle>,
    nodes: Vec<BfsNode<I::Handle>>,
}

impl<I: Images> Batch<I> {
    fn new() -> Self {
        Batch {
            images: Vec::new(),
            hashes: Vec::new(),
            meta: Vec::new(),
            fps: Vec::new(),
            handles: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Interns the staged images and hands the finished nodes to
    /// `frontier` in staging order, so the one-worker FIFO order is exactly
    /// the per-successor admission order. Returns whether anything was
    /// flushed (`flush_batches` counts non-empty flushes only).
    fn flush(&mut self, images: &I, frontier: &mut impl Frontier<I::Handle>) -> bool {
        if self.meta.is_empty() {
            return false;
        }
        images.intern(&self.images, &self.hashes, &mut self.handles);
        self.images.clear();
        self.hashes.clear();
        let staged = self.handles.iter().zip(self.meta.drain(..));
        self.nodes
            .extend(staged.map(|(&state, (driver, ops_used))| BfsNode {
                state,
                driver,
                ops_used: ops_used as usize,
            }));
        frontier.push(&mut self.nodes, &self.fps);
        self.fps.clear();
        true
    }
}

/// Per-worker tallies, summed into the report.
#[derive(Default)]
pub(crate) struct Tally {
    steps: u64,
    resolved: u64,
    persists: u64,
    expanded: u64,
    flushes: u64,
    /// The worker's shared-configuration set, from its [`Scratch`].
    shared: HashSet<Vec<Word>, FoldBuildHasher>,
}

impl Tally {
    fn add(self, o: Tally) -> Tally {
        let mut shared = self.shared;
        shared.extend(o.shared);
        Tally {
            steps: self.steps + o.steps,
            resolved: self.resolved + o.resolved,
            persists: self.persists + o.persists,
            expanded: self.expanded + o.expanded,
            flushes: self.flushes + o.flushes,
            shared,
        }
    }
}

/// Everything expansion needs, shared (immutably) across workers: the
/// world, the storage tier's image store and admission rule, and the
/// admission cap.
pub(crate) struct Census<'a, I, A> {
    obj: &'a dyn RecoverableObject,
    alphabet: &'a [OpSpec],
    cfg: &'a BfsConfig,
    images: &'a I,
    admission: &'a A,
    pub(crate) slots: Slots,
}

impl<'a, I: Images, A: Admission> Census<'a, I, A> {
    pub(crate) fn new(
        obj: &'a dyn RecoverableObject,
        alphabet: &'a [OpSpec],
        cfg: &'a BfsConfig,
        images: &'a I,
        admission: &'a A,
    ) -> Self {
        Census {
            obj,
            alphabet,
            cfg,
            images,
            admission,
            slots: Slots::new(cfg.max_states),
        }
    }

    /// Root admission: the initial configuration competes for an expansion
    /// slot like any other (its shared key is counted unconditionally, by
    /// [`report`](Self::report)). Returns the admitted root node and its
    /// fingerprint.
    pub(crate) fn root(&self, mem: &SimMemory) -> Option<Seeded<I::Handle>> {
        let driver = Driver::without_history(self.obj.processes());
        let mut image = Vec::new();
        mem.logical_words_into(&mut image);
        let hashes = image_hashes(&image);
        let fp = fingerprint_image(hashes, &driver, 0, self.cfg.dominance, &mut Vec::new());
        if !self.admission.admit_root(&self.slots, fp) {
            return None;
        }
        let mut handles = Vec::new();
        self.images.intern(&image, &[hashes], &mut handles);
        let node = BfsNode {
            state: handles[0],
            driver,
            ops_used: 0,
        };
        Some((node, fp))
    }

    /// Observes one generated successor: its shared key always (into the
    /// worker's own set, cloned only when new to it), and — if the
    /// admission role lets it through — stages its image, node halves and
    /// fingerprint in `batch` for the end-of-expansion flush. Admission
    /// order (the thing sequential determinism rests on) is decided here,
    /// per successor; only the interning is deferred.
    fn successor(
        &self,
        mem: &SimMemory,
        batch: &mut Batch<I>,
        scratch: &mut Scratch,
        driver: Driver,
        ops_used: usize,
    ) {
        mem.logical_words_into(&mut scratch.image);
        mem.layout()
            .shared_words_into(&scratch.image, &mut scratch.shared_key);
        if !scratch.shared.contains(scratch.shared_key.as_slice()) {
            scratch.shared.insert(scratch.shared_key.clone());
        }
        let hashes = image_hashes(&scratch.image);
        let fp = fingerprint_image(
            hashes,
            &driver,
            ops_used,
            self.cfg.dominance,
            &mut scratch.key,
        );
        if self.admission.admit(&self.slots, fp, ops_used) {
            batch.images.extend_from_slice(&scratch.image);
            batch.hashes.push(hashes);
            batch.meta.push((driver, ops_used as u32));
            batch.fps.push(fp);
        }
    }

    /// Expands one node on a scratch memory: install its image once, then
    /// enter every successor under a checkpoint and roll it back — O(writes
    /// of one step) per successor. Admitted successors are staged in
    /// `batch`; the caller flushes it ([`Batch::flush`]) after the
    /// expansion.
    fn expand(
        &self,
        mem: &SimMemory,
        node: &BfsNode<I::Handle>,
        batch: &mut Batch<I>,
        scratch: &mut Scratch,
        tally: &mut Tally,
    ) {
        self.images.read_into(node.state, &mut scratch.node_image);
        mem.load_words(&scratch.node_image);
        for i in 0..self.obj.processes() as usize {
            if node.driver.state(i).in_flight() {
                // Step the in-flight machine.
                let cp = mem.checkpoint();
                let mut driver = node.driver.clone();
                let outcome = driver.step(self.obj, mem, i, &CENSUS_RETRY);
                tally.steps += 1;
                tally.resolved += u64::from(outcome.resolved());
                self.successor(mem, batch, scratch, driver, node.ops_used);
                mem.rollback(cp);
            } else if node.ops_used < self.cfg.max_ops {
                for op in self.alphabet {
                    let cp = mem.checkpoint();
                    let mut driver = node.driver.clone();
                    driver.invoke(self.obj, mem, i, *op, &CENSUS_RETRY);
                    tally.steps += 1;
                    self.successor(mem, batch, scratch, driver, node.ops_used + 1);
                    mem.rollback(cp);
                }
            }
        }
    }

    /// The one census worker loop, on the worker's own memory `fork`: take
    /// a node, expand it, flush its admitted successors to the frontier,
    /// mark it complete. Successors are pushed before the node is released,
    /// so the work-stealing quiescence sweep never misses created work.
    pub(crate) fn work(&self, fork: SimMemory, frontier: &mut impl Frontier<I::Handle>) -> Tally {
        let mut scratch = Scratch::default();
        let mut batch = Batch::new();
        let mut tally = Tally::default();
        while let Some(node) = frontier.next() {
            self.expand(&fork, &node, &mut batch, &mut scratch, &mut tally);
            tally.expanded += 1;
            tally.flushes += u64::from(batch.flush(self.images, frontier));
            frontier.complete();
        }
        tally.persists = fork.stats().persists;
        tally.shared = scratch.shared;
        tally
    }

    /// Assembles the report. `sched` is `None` when one worker ran without
    /// a scheduler; `resident` is the tier's own peak estimate, to which
    /// the shared-configuration set is added here. The set is the union of
    /// the workers' sets plus the root's key, which `mem` (never mutated)
    /// still holds.
    pub(crate) fn report(
        self,
        mem: &SimMemory,
        tally: Tally,
        sched: Option<SchedStats>,
        resident: u64,
        spill: Option<SpillStats>,
    ) -> CensusReport {
        let mut sched = sched.unwrap_or_else(|| SchedStats {
            workers: 1,
            per_worker_expansions: vec![tally.expanded],
            ..SchedStats::default()
        });
        sched.flush_batches = tally.flushes;
        let mut shared_keys = tally.shared;
        shared_keys.insert(mem.shared_key());
        let shared = shared_keys.len();
        CensusReport {
            distinct_shared: shared,
            theorem_bound: (1u64 << self.obj.processes()) - 1,
            // Every admitted node is expanded exactly once before the
            // search drains, so admissions are the expansion count.
            work: self.slots.admitted.into_inner(),
            steps: tally.steps,
            resolved_ops: tally.resolved,
            persists: tally.persists,
            truncated: self.slots.truncated.into_inner(),
            peak_resident_bytes: resident + set_bytes(shared, mem.shared_key().len() * 8),
            spill,
            sched,
        }
    }
}

/// Exhaustive crash-free reachability engine: explores every interleaving of up to
/// `cfg.max_ops` operations drawn from `alphabet` (any process, any time)
/// and counts the distinct shared-memory configurations of all reachable
/// states. See the [module docs](self) for the storage tiers, the
/// work-stealing scheduler and dominance; `mem` itself is only read and
/// forked, never mutated.
///
/// # Panics
///
/// On the disk tier: if the object fails to decode one of its own machine
/// encodings (a codec bug — pinned by the decode round-trip tests), or on
/// spill-file I/O errors.
pub fn census_bfs_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    alphabet: &[OpSpec],
    cfg: &BfsConfig,
) -> CensusReport {
    if let (Some(dir), true) = (&cfg.disk_dir, obj.decodable()) {
        return crate::external::census_on_disk(obj, mem, alphabet, cfg, dir);
    }
    let arena = StateArena::new(mem.layout().total_words());
    let visited = VisitedSet::new(cfg.dominance);
    let census = Census::new(obj, alphabet, cfg, &arena, &visited);
    let root = census.root(mem).map(|(node, _)| node);
    let workers = resolve_parallelism(cfg.parallelism);
    let (tally, sched) = if workers == 1 {
        (
            census.work(mem.fork(), &mut VecDeque::from_iter(root)),
            None,
        )
    } else {
        let sched = Scheduler::new(workers);
        sched.seed(root);
        let tally = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    let (census, sched, fork) = (&census, &sched, mem.fork());
                    // The worker handle doubles as the panic guard: its
                    // drop (normal or unwinding) aborts the scheduler, so
                    // a panicking sibling can never leave the others
                    // parked while the scope waits to join.
                    s.spawn(move || census.work(fork, &mut sched.worker(id)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .fold(Tally::default(), Tally::add)
        });
        (tally, Some(sched.stats()))
    };
    // Peak estimate from final sizes: the arena and the visited set only
    // grow, and the frontier never holds more than the admitted nodes.
    let admitted = census.slots.admitted.load(Ordering::Relaxed);
    let node_bytes = std::mem::size_of::<BfsNode<CompactState>>() + obj.processes() as usize * 48;
    let resident =
        arena.stored_words() as u64 * 8 + set_bytes(admitted, 24) + (admitted * node_bytes) as u64;
    census.report(mem, tally, sched, resident, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build_world;
    use detectable::DetectableCas;

    fn cas_alphabet() -> [OpSpec; 2] {
        [
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
        ]
    }

    #[test]
    fn gray_code_covers_all_vectors() {
        for n in 1..=4u32 {
            let ops = gray_code_cas_ops(n);
            assert_eq!(ops.len(), (1 << n) - 1);
            // Simulate the flips abstractly.
            let mut vec = 0u64;
            let mut seen = std::collections::HashSet::new();
            seen.insert(vec);
            for (pid, _) in &ops {
                vec ^= 1 << pid.get();
                seen.insert(vec);
            }
            assert_eq!(seen.len(), 1 << n, "n={n}");
        }
    }

    #[test]
    fn witness_census_meets_theorem_bound() {
        for n in 1..=6u32 {
            let (cas, mem) = build_world(|b| DetectableCas::new(b, n, 0));
            let ops = gray_code_cas_ops(n);
            let report = census_drive_engine(&cas, &mem, &ops);
            assert!(
                report.meets_bound(),
                "n={n}: {} < {}",
                report.distinct_shared,
                report.theorem_bound
            );
            assert!(!report.truncated);
            assert_eq!(report.work, ops.len());
            assert_eq!(report.resolved_ops, ops.len() as u64);
            assert!(
                report.steps >= report.resolved_ops,
                "every op takes at least one step"
            );
            // Exactly 2^N: every vector appears with a value determined by
            // the walk, so the count equals the number of vectors.
            assert_eq!(report.distinct_shared as u64, 1u64 << n);
        }
    }

    #[test]
    fn bfs_census_small_n_meets_bound() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let cfg = BfsConfig {
            max_ops: 4,
            max_states: 200_000,
            ..Default::default()
        };
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        assert!(report.meets_bound(), "{report:?}");
        assert!(!report.truncated);
    }

    #[test]
    fn bfs_engine_leaves_the_input_memory_untouched() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let state = |mem: &SimMemory| {
            let mut out = Vec::new();
            mem.state_words_into(&mut out);
            out
        };
        let before = state(&mem);
        let _ = census_bfs_engine(&cas, &mem, &cas_alphabet(), &BfsConfig::default());
        assert_eq!(state(&mem), before);
    }

    #[test]
    fn max_states_one_expands_exactly_the_root() {
        // Regression: the old engine broke *before* expanding the popped
        // node, so `max_states: 1` expanded nothing yet counted one unit of
        // work. The cap now bounds admissions: the root is admitted, fully
        // expanded, and its successors are observed but not expanded. (The
        // reference census in `tests/census_scale.rs` pins the same.)
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let cfg = BfsConfig {
            max_ops: 4,
            max_states: 1,
            ..Default::default()
        };
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        assert_eq!(report.work, 1, "exactly max_states nodes expanded");
        assert!(report.truncated, "the cap must be reported");
        // The cap bounds expansions exactly at every setting, not one off.
        for max_states in [2, 3, 10] {
            let report = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    max_states,
                    ..cfg.clone()
                },
            );
            assert_eq!(report.work, max_states, "cap {max_states}");
            assert!(report.truncated);
        }
    }

    #[test]
    fn truncation_is_flagged_and_memory_bounded() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let cfg = BfsConfig {
            max_ops: 6,
            max_states: 100,
            ..Default::default()
        };
        let report = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        assert!(report.truncated);
        assert_eq!(report.work, 100, "admissions (hence expansions) are capped");
        // Below the bound *because* coverage was cut — not a refutation.
        assert!(!report.bound_failed());
        // A complete run of the same world is conclusive.
        let full = census_bfs_engine(
            &cas,
            &mem,
            &cas_alphabet(),
            &BfsConfig {
                max_ops: 6,
                ..Default::default()
            },
        );
        assert!(!full.truncated);
        assert!(full.meets_bound() && !full.bound_failed());
    }

    #[test]
    fn parallel_census_counts_are_deterministic() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let base = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            parallelism: 1,
            ..Default::default()
        };
        let seq = census_bfs_engine(&cas, &mem, &cas_alphabet(), &base);
        assert!(!seq.truncated);
        for parallelism in [2, 8] {
            let par = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    parallelism,
                    ..base.clone()
                },
            );
            assert_eq!(par.distinct_shared, seq.distinct_shared, "p={parallelism}");
            assert_eq!(par.work, seq.work, "p={parallelism}");
            assert_eq!(par.truncated, seq.truncated, "p={parallelism}");
            assert_eq!(par.steps, seq.steps, "p={parallelism}");
            assert_eq!(par.resolved_ops, seq.resolved_ops, "p={parallelism}");
            assert_eq!(par.persists, seq.persists, "p={parallelism}");
        }
    }

    #[test]
    fn dominance_preserves_the_verdict_but_not_the_work() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let exact_cfg = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            // Pinned: dominance-mode `work` varies with the worker count.
            parallelism: 1,
            ..Default::default()
        };
        let exact = census_bfs_engine(&cas, &mem, &cas_alphabet(), &exact_cfg);
        let dom = census_bfs_engine(
            &cas,
            &mem,
            &cas_alphabet(),
            &BfsConfig {
                dominance: true,
                ..exact_cfg
            },
        );
        assert!(!exact.truncated && !dom.truncated);
        assert_eq!(dom.distinct_shared, exact.distinct_shared);
        assert_eq!(dom.meets_bound(), exact.meets_bound());
        assert!(
            dom.work < exact.work,
            "dominance must actually prune ({} vs {})",
            dom.work,
            exact.work
        );
    }

    #[test]
    fn dominance_verdict_is_thread_invariant() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let base = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            dominance: true,
            parallelism: 1,
            ..Default::default()
        };
        let seq = census_bfs_engine(&cas, &mem, &cas_alphabet(), &base);
        for parallelism in [2, 8] {
            let par = census_bfs_engine(
                &cas,
                &mem,
                &cas_alphabet(),
                &BfsConfig {
                    parallelism,
                    ..base.clone()
                },
            );
            // The verdict is canonical; `work` is scheduling-dependent in
            // dominance mode and deliberately not compared.
            assert_eq!(par.distinct_shared, seq.distinct_shared, "p={parallelism}");
            assert_eq!(par.truncated, seq.truncated, "p={parallelism}");
        }
    }
}
