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
//! * [`census_bfs_engine`] explores every reachable configuration of
//!   a small world (all interleavings of a bounded operation budget) and
//!   counts distinct shared states — the exhaustive version, good to N = 5
//!   step by step and N = 8 with the private-step fold on the standard
//!   2-op CAS alphabet;
//! * running either against the **non-detectable** recoverable CAS baseline
//!   shows its configuration count stays at the domain size, isolating
//!   detectability as the cause of the space blow-up.
//!
//! # Engine
//!
//! The exhaustive census is a reachability search over system
//! configurations (memory contents + driver volatile state + consumed
//! operation budget) — breadth first on disk, depth first per worker in
//! RAM — run by one worker loop (`Census::work`): take a node, expand it,
//! flush its admitted successors to the frontier. Expansion is
//! checkpoint-based: a worker installs a node's image once onto its own
//! scratch [`fork`](SimMemory::fork), then enters every successor under a
//! [`checkpoint`](SimMemory::checkpoint) and leaves via
//! [`rollback`](SimMemory::rollback) — O(writes of one step) per
//! successor. The census is crash-free, so a configuration's memory half
//! is fully determined by its *logical* word image: a node carries that
//! image, not a copy of the memory with its cache and journal, and on both
//! tiers the image travels with the node — on disk, inline in its node
//! record. Only the storage varies, in two roles the loop is generic over:
//!
//! | role | in RAM | on disk ([`crate::external`]) |
//! |---|---|---|
//! | frontier | a LIFO stack per worker and a shared pool ([`crate::sched`]) | generation files cut into blocks that workers claim |
//! | admission | sharded fingerprint set, per successor | repeat filter per block, seen-file sort-merge replay at generation end |
//!
//! [`census_bfs_engine`] takes the disk tier when [`BfsConfig::disk_dir`]
//! is set and the object is [`decodable`](RecoverableObject::decodable).
//! Both tiers run [`resolve_parallelism`]`(`[`BfsConfig::parallelism`]`)`
//! workers, worker 0 on the calling thread. Both share the admission cap
//! ([`BfsConfig::max_states`]: exactly that many nodes are admitted and
//! expanded, and hitting it sets [`CensusReport::truncated`]), the exact
//! shared-configuration count (logical shared-memory keys — the quantity
//! Theorem 1 bounds is never approximated) and the report.
//!
//! A node's driver is only borrowed: a successor acts on a copy of the one
//! process that moves (`Driver::step_successor`,
//! `Driver::invoke_successor`), its driver key is spliced from the node's
//! per-process key segments (encoded once per node) around that process's
//! new segment, and only an admitted successor is staged for the frontier:
//! the in-RAM tier builds its [`Driver`] (`Driver::with_process`), the disk
//! tier keeps the spliced key words. Per generated successor, a worker
//! reads the logical image once into a scratch buffer and hashes it in one
//! pass that yields both lanes of [`hash2`] (an admitted successor's node
//! copies the buffer); a second
//! pass over the short driver key, seeded with those lanes, gives the
//! 128-bit fingerprint. It then probes the visited set
//! (the only lock on the path) and its **own** shared-configuration set
//! with a borrowed slice of the shared words, cloning the key only when it
//! is new to that worker; `Census::report` unions the worker sets. Maps
//! keyed by these already-mixed fingerprints use [`FoldBuildHasher`], one
//! multiply per word, rather than the standard library's SipHash.
//!
//! On runs that complete within `max_states`, the visited set, the
//! shared-configuration set and the expansion count are each determined by
//! the reachable state space alone, so **every parallelism level and both
//! tiers report identical counts**, folded or not. When the cap truncates
//! a run, *which* configurations won admission slots is
//! scheduling-dependent on the in-RAM tier at more than one worker; one
//! worker admits in a fixed depth-first order, so its truncated runs
//! repeat exactly, but that order is not breadth-first. The disk tier
//! admits in canonical BFS order at every worker count, so it is the tier
//! whose truncated runs match the reference census
//! (`tests/common/mod.rs`).
//!
//! # Private-step fold
//!
//! [`BfsConfig::fold_private`] gives the census the explorer's
//! partial-order reduction ([`Driver::step_merged`]): a successor that
//! steps a machine keeps stepping it while each further step touches only
//! the acting process's private cells, up to a fixed bound. The census is
//! crash-free, and the memory's ownership assertion guarantees that no
//! other process touches a process's private cells, so such a step
//! commutes with every other process's step and leaves the shared key
//! unchanged. Every shared configuration of the unfolded graph is
//! therefore the shared configuration of some folded node:
//! `distinct_shared`, bound satisfaction and, on complete runs, truncation
//! are preserved. `work` and `steps` are not — the folded graph has fewer
//! nodes and edges (647,456 → 29,668 expansions on the N = 4, 5-op CAS
//! world) — but they are still functions of the reachable folded space,
//! identical at every parallelism level and on both tiers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use detectable::{OpSpec, RecoverableObject};
use nvm::hash::{hash2, FoldBuildHasher, SEEDS};
use nvm::{Memory, Pid, SimMemory, Word};

use crate::driver::{Driver, Proc};
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
    /// (sets, frontier, images — not process RSS). In-RAM runs charge the
    /// sets at their final capacities (they only grow) and the frontier,
    /// each node with its image, at the stacks' and the pool's high-water
    /// marks; the disk tier, whose frontier and visited set live in files,
    /// tracks its bounded buffers generation by generation; the solo drive
    /// reports its seen set.
    pub peak_resident_bytes: u64,
    /// Disk-tier counters when the BFS ran on disk; `None` otherwise.
    pub spill: Option<SpillStats>,
    /// Worker counters (pool batches taken, waits, per-worker expansions,
    /// flushed successor batches). All-zero for the solo drive, which
    /// neither schedules nor batches.
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
        peak_resident_bytes: set_bytes(&seen, mem.shared_key().len() * 8),
        spill: None,
        sched: SchedStats::default(),
    }
}

/// Estimated bytes `set` allocates, its entries owning `heap` bytes each
/// outside the table: hashbrown keeps about 8 buckets per 7 slots of
/// capacity, each an entry plus one control byte. The in-RAM census
/// estimates are built from this: the engine's own data structures, not
/// allocator slack or process RSS.
fn set_bytes<T, S>(set: &HashSet<T, S>, heap: usize) -> u64 {
    let bucket = size_of::<T>() + 1;
    (set.capacity() * 8 / 7 * bucket + set.len() * heap) as u64
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

/// Limits, parallelism and reduction for [`census_bfs_engine`].
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
    /// Worker threads for frontier expansion on either tier: `1` is a
    /// sequential search, `0` (the default) means the host's available
    /// parallelism ([`resolve_parallelism`]). Runs that complete within
    /// `max_states` report identical counts at every setting; the disk
    /// tier's truncated runs do too (see the [module docs](self) for the
    /// in-RAM tier's truncation caveat).
    pub parallelism: usize,
    /// Fold each machine step's private-only continuation into it, as the
    /// explorer does ([`Driver::step_merged`]). **Non-count-preserving** —
    /// `work` and `steps` shrink — but `distinct_shared`, bound
    /// satisfaction and, on complete runs, truncation are those of the
    /// unfolded census; see the [module docs](self). Off by default; the
    /// unfolded census remains the reference.
    pub fold_private: bool,
    /// Directory for the disk tier's spill files (frontier generations,
    /// whose node records carry their images, candidate files, sort runs,
    /// the visited-fingerprint shards). `Some` puts
    /// the census on disk when the object supports machine decoding
    /// ([`RecoverableObject::decodable`]) and keeps it in RAM otherwise;
    /// `None` (the default) keeps everything in RAM.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Soft RAM target in bytes for the disk tier: it sizes only the
    /// workers' sort chunks and repeat filters. `None` picks 512 MiB; small
    /// values force multi-run external sorts (the differential tests use
    /// this). The in-RAM tier ignores it.
    pub ram_budget: Option<usize>,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig {
            max_ops: 6,
            max_states: 2_000_000,
            parallelism: 0,
            fold_private: false,
            disk_dir: None,
            ram_budget: None,
        }
    }
}

/// One frontier entry: the node's logical memory image, the driver's
/// volatile state, and the operation budget consumed so far — everything a
/// worker needs to resume the configuration (`D` is how a frontier
/// [stages](Frontier::stage) an admitted successor's driver).
pub(crate) struct BfsNode<D = Driver> {
    pub(crate) image: Box<[Word]>,
    pub(crate) driver: D,
    pub(crate) ops_used: usize,
}

/// An admitted root node and its configuration fingerprint.
pub(crate) type Seeded = (BfsNode, (u64, u64));

const SHARDS: usize = 64;

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
        let relaxed = Ordering::Relaxed;
        let next = |c| (c < self.cap).then_some(c + 1);
        let granted = self.admitted.fetch_update(relaxed, relaxed, next);
        if granted.is_err() {
            self.truncated.store(true, relaxed);
        }
        granted.is_ok()
    }
}

/// The in-RAM visited set: sharded configuration fingerprints (the
/// budget is part of the fingerprint).
struct VisitedSet {
    shards: Vec<Mutex<HashSet<(u64, u64), FoldBuildHasher>>>,
}

impl VisitedSet {
    fn new() -> Self {
        VisitedSet {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

/// Admission role: decides which generated successors reach the frontier.
pub(crate) trait Admission {
    /// Whether the successor with fingerprint `fp` goes to the frontier.
    /// A tier that admits later, in its frontier, lets every successor
    /// through (the frontier's [`repeats`](Frontier::repeats) has already
    /// dropped those it can prove it would reject).
    fn admit(&self, slots: &Slots, fp: (u64, u64)) -> bool;

    /// Admits the root configuration, a generation by itself.
    fn admit_root(&self, slots: &Slots, fp: (u64, u64)) -> bool {
        self.admit(slots, fp)
    }
}

impl Admission for VisitedSet {
    /// Admits `key` if it is novel and a slot remains. A capacity
    /// rejection never updates the set.
    fn admit(&self, slots: &Slots, key: (u64, u64)) -> bool {
        let mut set = self.shards[(key.0 as usize) % SHARDS]
            .lock()
            .expect("visited shard poisoned");
        if set.contains(&key) || !slots.reserve() {
            return false;
        }
        set.insert(key);
        true
    }
}

/// Frontier role: the admitted nodes not yet expanded.
pub(crate) trait Frontier {
    /// What an admitted successor's driver is kept as until it is pushed.
    type Staged;
    /// Stages the driver of an admitted successor: `parent` with process
    /// `i`'s slot replaced by `p`, whose driver key
    /// ([`Driver::encode_key`]) is `key`.
    fn stage(parent: &Driver, i: usize, p: Proc, key: &[Word]) -> Self::Staged;
    /// Whether the successor with fingerprint `fp` repeats one this
    /// frontier already holds, so that admission would reject it: it is
    /// dropped before it is admitted, staged or encoded. Only the disk
    /// tier's repeat filter ever says yes.
    fn repeats(&mut self, _fp: (u64, u64)) -> bool {
        false
    }
    /// The next node to expand; `None` once the search has drained.
    fn next(&mut self) -> Option<BfsNode>;
    /// Takes one expansion's successors (drained from `nodes`) and their
    /// fingerprints, in generation order.
    fn push(&mut self, nodes: &mut Vec<BfsNode<Self::Staged>>, fps: &[(u64, u64)]);
}

/// The in-RAM frontier, at every worker count: the worker's own stack
/// and the shared pool. A successor is staged as its driver, built here
/// and only here; the spliced `key` must be that driver's key.
impl Frontier for Worker<'_, BfsNode> {
    type Staged = Driver;
    fn stage(parent: &Driver, i: usize, p: Proc, key: &[Word]) -> Driver {
        let driver = parent.with_process(i, p);
        debug_assert_eq!(key, driver.key(), "spliced key is not the driver's");
        driver
    }
    fn next(&mut self) -> Option<BfsNode> {
        Worker::next(self)
    }
    fn push(&mut self, nodes: &mut Vec<BfsNode>, _: &[(u64, u64)]) {
        Worker::push(self, nodes);
    }
}

/// Per-worker scratch buffers, reused across every successor.
#[derive(Default)]
struct Scratch {
    /// Logical image of the successor just generated.
    image: Vec<Word>,
    /// The node's driver key, one [`Proc::encode_key`] segment per
    /// process, encoded once per expansion.
    segs: Vec<Word>,
    /// Process `i`'s segment is `segs[seg_bounds[i]..seg_bounds[i + 1]]`.
    seg_bounds: Vec<usize>,
    /// The successor's fingerprint key, spliced from `segs`.
    key: Vec<Word>,
    /// Shared-region words of the successor just generated.
    shared_key: Vec<Word>,
    /// This worker's exact shared-configuration keys (Theorem 1's
    /// memory-equivalence classes, never approximated by a hash). Worker
    /// sets are unioned in [`Census::report`]; a run ends with a handful of
    /// keys, so a private set costs nothing and needs no lock.
    shared: HashSet<Vec<Word>, FoldBuildHasher>,
}

/// A worker-local batch of one expansion's admitted successors: each
/// staged node with its fingerprint, in staging order.
struct Batch<D> {
    nodes: Vec<BfsNode<D>>,
    fps: Vec<(u64, u64)>,
}

impl<D> Batch<D> {
    fn new() -> Self {
        Batch {
            nodes: Vec::new(),
            fps: Vec::new(),
        }
    }

    /// Hands the staged nodes to `frontier` in staging order, the
    /// per-successor admission order. Returns whether anything was
    /// flushed (`flush_batches` counts non-empty flushes only).
    fn flush(&mut self, frontier: &mut impl Frontier<Staged = D>) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
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
/// world, the storage tier's admission rule, and the admission cap.
pub(crate) struct Census<'a, A> {
    obj: &'a dyn RecoverableObject,
    alphabet: &'a [OpSpec],
    cfg: &'a BfsConfig,
    admission: &'a A,
    pub(crate) slots: Slots,
}

impl<'a, A: Admission> Census<'a, A> {
    pub(crate) fn new(
        obj: &'a dyn RecoverableObject,
        alphabet: &'a [OpSpec],
        cfg: &'a BfsConfig,
        admission: &'a A,
    ) -> Self {
        Census {
            obj,
            alphabet,
            cfg,
            admission,
            slots: Slots::new(cfg.max_states),
        }
    }

    /// Root admission: the initial configuration competes for an expansion
    /// slot like any other (its shared key is counted unconditionally, by
    /// [`report`](Self::report)). Returns the admitted root node and its
    /// fingerprint.
    pub(crate) fn root(&self, mem: &SimMemory) -> Option<Seeded> {
        let driver = Driver::without_history(self.obj.processes());
        let mut image = Vec::new();
        mem.logical_words_into(&mut image);
        let mut key = Vec::new();
        Self::key_prefix(&mut key, 0);
        driver.encode_key(&mut key);
        let fp = hash2(hash2(SEEDS, &image), &key);
        if !self.admission.admit_root(&self.slots, fp) {
            return None;
        }
        let node = BfsNode {
            image: image.into(),
            driver,
            ops_used: 0,
        };
        Some((node, fp))
    }

    /// Starts a configuration's fingerprint key in `key`: the operation
    /// budget. The driver key
    /// ([`Driver::encode_key`]) follows, and [`hash2`] over the whole key,
    /// seeded with the two lanes of [`hash2`] over the logical image, gives
    /// the 128-bit fingerprint.
    ///
    /// The fingerprint covers the *logical* memory image (equal
    /// [`full_key`](SimMemory::full_key)s — not
    /// [`state_words_into`](SimMemory::state_words_into), whose dirty-set
    /// and crash-ordinal sensitivity would split states that behave
    /// identically in a crash-free search), driver volatile state (machine
    /// encodings included, history not: the census counts configurations,
    /// not paths) and the budget. Collisions (vanishingly unlikely) could
    /// merge two distinct configurations — the same trade-off the
    /// explorer's pruning memo makes, bought because a 16-byte fingerprint
    /// keeps a multi-million-state visited set in cache where exact
    /// full-memory keys thrash. Each half of the fingerprint chains its own
    /// independently seeded image hash (true 128-bit resistance, not one
    /// 64-bit hash copied twice).
    fn key_prefix(key: &mut Vec<Word>, ops_used: usize) {
        key.clear();
        key.push(ops_used as Word);
    }

    /// Observes one generated successor (`node` with process `i`'s slot
    /// replaced by `p`, its memory in `mem`): its shared key always (into
    /// the worker's own set, cloned only when new to it), and — if the
    /// admission role lets it through — stages its node (its image, its
    /// driver as [`Frontier::stage`] makes it, its budget) and fingerprint
    /// in `batch` for the end-of-expansion flush. Admission order (the
    /// thing sequential determinism rests on) is decided here, per
    /// successor; only the push is deferred.
    ///
    /// The fingerprint key is spliced from the node's segments in
    /// `scratch` with process `i`'s new segment in place of its old one,
    /// so only the machine that moved is encoded.
    #[allow(clippy::too_many_arguments)]
    fn successor<F: Frontier>(
        &self,
        mem: &SimMemory,
        frontier: &mut F,
        batch: &mut Batch<F::Staged>,
        scratch: &mut Scratch,
        node: &BfsNode,
        i: usize,
        p: Proc,
    ) {
        mem.logical_words_into(&mut scratch.image);
        mem.layout()
            .shared_words_into(&scratch.image, &mut scratch.shared_key);
        if !scratch.shared.contains(scratch.shared_key.as_slice()) {
            scratch.shared.insert(scratch.shared_key.clone());
        }
        let lanes = hash2(SEEDS, &scratch.image);
        // An invocation spends one operation of the budget; a step none.
        let ops_used = node.ops_used + usize::from(node.driver.state(i).is_idle());
        let key = &mut scratch.key;
        Self::key_prefix(key, ops_used);
        let driver_key = key.len();
        key.extend_from_slice(&scratch.segs[..scratch.seg_bounds[i]]);
        p.encode_key(key);
        key.extend_from_slice(&scratch.segs[scratch.seg_bounds[i + 1]..]);
        let fp = hash2(lanes, key);
        if !frontier.repeats(fp) && self.admission.admit(&self.slots, fp) {
            batch.nodes.push(BfsNode {
                image: scratch.image.as_slice().into(),
                driver: F::stage(&node.driver, i, p, &key[driver_key..]),
                ops_used,
            });
            batch.fps.push(fp);
        }
    }

    /// Expands one node on a scratch memory: install its image once, then
    /// enter every successor under a checkpoint and roll it back — O(writes
    /// of one step) per successor. A successor acts on a copy of one
    /// process's slot; the node's driver is only borrowed. Admitted
    /// successors are staged in `batch`; the caller flushes it
    /// ([`Batch::flush`]) after the expansion.
    fn expand<F: Frontier>(
        &self,
        mem: &SimMemory,
        node: &BfsNode,
        frontier: &mut F,
        batch: &mut Batch<F::Staged>,
        scratch: &mut Scratch,
        tally: &mut Tally,
    ) {
        mem.load_words(&node.image);
        let n = self.obj.processes() as usize;
        scratch.segs.clear();
        scratch.seg_bounds.clear();
        scratch.seg_bounds.push(0);
        for i in 0..n {
            node.driver.process(i).encode_key(&mut scratch.segs);
            scratch.seg_bounds.push(scratch.segs.len());
        }
        for i in 0..n {
            if node.driver.state(i).in_flight() {
                // Step the in-flight machine, folding its private-only
                // continuation if asked.
                let cp = mem.checkpoint();
                let (p, outcome) =
                    node.driver
                        .step_successor(self.obj, mem, i, self.cfg.fold_private);
                tally.steps += 1;
                tally.resolved += u64::from(outcome.resolved());
                self.successor(mem, frontier, batch, scratch, node, i, p);
                mem.rollback(cp);
            } else if node.ops_used < self.cfg.max_ops {
                for op in self.alphabet {
                    let cp = mem.checkpoint();
                    let p = node.driver.invoke_successor(self.obj, mem, i, *op);
                    tally.steps += 1;
                    self.successor(mem, frontier, batch, scratch, node, i, p);
                    mem.rollback(cp);
                }
            }
        }
    }

    /// The one census worker loop, on the worker's own memory `fork`: take
    /// a node, expand it, flush its admitted successors to the frontier.
    /// Successors are pushed before the next node is asked for, so a
    /// frontier that finds every worker asking holds the whole search.
    pub(crate) fn work<F: Frontier>(&self, fork: SimMemory, frontier: &mut F) -> Tally {
        let mut scratch = Scratch::default();
        let mut batch = Batch::new();
        let mut tally = Tally::default();
        while let Some(node) = frontier.next() {
            self.expand(&fork, &node, frontier, &mut batch, &mut scratch, &mut tally);
            tally.expanded += 1;
            tally.flushes += u64::from(batch.flush(frontier));
        }
        tally.persists = fork.stats().persists;
        tally.shared = scratch.shared;
        tally
    }

    /// Runs `workers` [`work`](Self::work) loops — worker 0 on the calling
    /// thread, the others on scoped threads — each on its own fork of `mem`
    /// with the frontier `frontier` makes for its worker id, and returns
    /// the summed tally and each worker's expansions. A worker's panic is
    /// re-raised once all are joined, so each frontier's drop must release
    /// siblings that wait on it.
    pub(crate) fn work_on_threads<F: Frontier>(
        &self,
        mem: &SimMemory,
        workers: usize,
        frontier: impl Fn(usize) -> F + Sync,
    ) -> (Tally, Vec<u64>)
    where
        Self: Sync,
    {
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers)
                .map(|id| {
                    let (frontier, fork) = (&frontier, mem.fork());
                    s.spawn(move || self.work(fork, &mut frontier(id)))
                })
                .collect();
            let first = self.work(mem.fork(), &mut frontier(0));
            let mut expansions = vec![first.expanded];
            let tally = helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .fold(first, |sum, t| {
                    expansions.push(t.expanded);
                    sum.add(t)
                });
            (tally, expansions)
        })
    }

    /// Assembles the report. `resident` is the tier's own peak estimate,
    /// to which the shared-configuration set is added here. The set is the
    /// union of the workers' sets plus the root's key, which `mem` (never
    /// mutated) still holds.
    pub(crate) fn report(
        self,
        mem: &SimMemory,
        tally: Tally,
        mut sched: SchedStats,
        resident: u64,
        spill: Option<SpillStats>,
    ) -> CensusReport {
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
            peak_resident_bytes: resident + set_bytes(&shared_keys, mem.shared_key().len() * 8),
            spill,
            sched,
        }
    }
}

/// Exhaustive crash-free reachability engine: explores every interleaving of up to
/// `cfg.max_ops` operations drawn from `alphabet` (any process, any time)
/// and counts the distinct shared-memory configurations of all reachable
/// states. See the [module docs](self) for the storage tiers, their
/// frontiers and the private-step fold; `mem` itself is only read and
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
    let visited = VisitedSet::new();
    let census = Census::new(obj, alphabet, cfg, &visited);
    let workers = resolve_parallelism(cfg.parallelism);
    let sched = Scheduler::new(workers);
    sched.seed(census.root(mem).map(|(node, _)| node));
    // The worker handle doubles as the panic guard: its drop (normal or
    // unwinding) marks the pool done, so a panicking sibling can never
    // leave the others waiting while the scope waits to join.
    let (tally, per_worker_expansions) = census.work_on_threads(mem, workers, |_| sched.worker());
    // Peak estimate: the visited set only grows, so its final capacity is
    // its peak; the frontier's is bounded by the stacks' and the pool's
    // high-water marks, each node with its image.
    let node_bytes = size_of::<BfsNode>() + obj.processes() as usize * 48;
    let image_bytes = mem.layout().total_words() * 8;
    let mut resident = (sched.peak_items() * (node_bytes + image_bytes)) as u64;
    for shard in &visited.shards {
        resident += set_bytes(&shard.lock().expect("visited shard poisoned"), 0);
    }
    let sched = SchedStats {
        per_worker_expansions,
        ..sched.stats()
    };
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

    /// Runs a complete 3-process CAS census at 1, 2 and 8 workers and
    /// asserts every count matches the sequential run's.
    fn assert_counts_are_thread_invariant(fold_private: bool) {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let base = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            parallelism: 1,
            fold_private,
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
            let tag = format!("fold={fold_private} p={parallelism}");
            assert_eq!(par.distinct_shared, seq.distinct_shared, "{tag}");
            assert_eq!(par.work, seq.work, "{tag}");
            assert_eq!(par.truncated, seq.truncated, "{tag}");
            assert_eq!(par.steps, seq.steps, "{tag}");
            assert_eq!(par.resolved_ops, seq.resolved_ops, "{tag}");
            assert_eq!(par.persists, seq.persists, "{tag}");
        }
    }

    #[test]
    fn parallel_census_counts_are_deterministic() {
        assert_counts_are_thread_invariant(false);
    }

    #[test]
    fn fold_counts_are_thread_invariant() {
        // Folding is count-preserving across worker counts: work and
        // steps match too, not only the verdict.
        assert_counts_are_thread_invariant(true);
    }

    #[test]
    fn fold_preserves_the_verdict_but_not_the_work() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let exact_cfg = BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            ..Default::default()
        };
        let exact = census_bfs_engine(&cas, &mem, &cas_alphabet(), &exact_cfg);
        let folded = census_bfs_engine(
            &cas,
            &mem,
            &cas_alphabet(),
            &BfsConfig {
                fold_private: true,
                ..exact_cfg
            },
        );
        assert!(!exact.truncated && !folded.truncated);
        assert_eq!(folded.distinct_shared, exact.distinct_shared);
        assert_eq!(folded.meets_bound(), exact.meets_bound());
        assert!(
            folded.work < exact.work && folded.steps < exact.steps,
            "the fold must actually reduce ({folded:?} vs {exact:?})"
        );
    }

    #[test]
    fn census_splices_keys_of_default_encoding_machines() {
        // The tagged CAS baseline's machines keep `Machine::encode_into`'s
        // default (appending a fresh `encode` vector), so the spliced-key
        // debug assertion in `successor` checks that path here; the counts
        // must not depend on the worker count.
        let (cas, mem) = build_world(|b| baselines::TaggedCas::new(b, 2));
        let base = BfsConfig {
            max_ops: 4,
            parallelism: 1,
            ..Default::default()
        };
        let seq = census_bfs_engine(&cas, &mem, &cas_alphabet(), &base);
        assert!(!seq.truncated);
        assert!(seq.steps > seq.work as u64 && seq.work > 100, "{seq:?}");
        let par = census_bfs_engine(
            &cas,
            &mem,
            &cas_alphabet(),
            &BfsConfig {
                parallelism: 2,
                ..base
            },
        );
        assert_eq!(
            (par.work, par.steps, par.distinct_shared),
            (seq.work, seq.steps, seq.distinct_shared)
        );
    }
}
