//! Exhaustive state-space exploration for small configurations.
//!
//! Enumerates **every** interleaving of step-machine actions and every crash
//! point (within a crash budget), checking each complete execution with the
//! durable-linearizability + detectability checker. This is how the
//! reproduction machine-verifies Lemmas 1 and 2 at small scale, and how the
//! Theorem 2 experiment automatically finds the adversarial execution of
//! Figure 2 against no-auxiliary-state candidates.
//!
//! Two sources of work are supported:
//!
//! * [`OpSource::PerProcess`] — each process has its own operation list; the
//!   explorer branches over *all* interleavings;
//! * [`OpSource::Script`] — one global sequence of operations executed one
//!   at a time (no concurrency), but with crashes allowed between any two
//!   primitive steps. The Figure 2 construction is essentially sequential,
//!   so this mode finds it cheaply.
//!
//! # Engine
//!
//! The explorer is an explicit work-stack depth-first search over
//! [`Driver`] system configurations, with five cost reducers layered on
//! the naive exponential tree:
//!
//! 1. **Undo-log branching** — child states are entered under a memory
//!    [`checkpoint`](SimMemory::checkpoint) and left via
//!    [`rollback`](SimMemory::rollback), so branch cost is O(writes along
//!    the edge) instead of O(memory size) full copies.
//! 2. **Partial-order reduction** — in full-interleaving mode, consecutive
//!    steps of one process that touch only its private cells are folded
//!    into a single scheduler action ([`Driver::step_merged`]).
//! 3. **State-hash pruning** — each node is fingerprinted by
//!    `(exact memory state, driver volatile state, workload positions,
//!    crash budget, history)`. When two prefixes converge to the same
//!    fingerprint (commuting steps do this constantly), the second is not
//!    re-explored: the memoized subtree **leaf count** is added instead, so
//!    reported totals are identical to the unpruned search while the work
//!    is often exponentially smaller. The history enters as its compiled
//!    checker records with endpoint *ranks* instead of event indices: every
//!    non-crash event is an interval endpoint, so an endpoint's rank is its
//!    event index minus the crashes before it
//!    (`History::records_into` yields them in the compile pass, with no
//!    map and no sort). The key's words —
//!    memory words from [`state_words_into`](SimMemory::state_words_into),
//!    length prefixes on every variable-length part — go into one
//!    per-worker scratch buffer and through one two-lane [`hash2`] pass.
//!    Keys are 128-bit hashes; a collision (vanishingly unlikely) could
//!    misattribute a subtree, the same trade-off the census fingerprints
//!    make.
//! 4. **Symmetry reduction** ([`ExploreConfig::symmetry`]) — machine-free
//!    nodes are fingerprinted by their **process-permutation orbit**
//!    (per-process signatures, relocated + object-rewritten memory,
//!    renamed history — see `Engine::canonical_key`), so only one
//!    member of each orbit is expanded; totals again stay identical.
//!    Requires [`RecoverableObject::permute_memory`] support (the CAS
//!    family; see that hook's equivariance contract for why the max
//!    register and register stay opaque).
//! 5. **Budgeted memo** ([`ExploreConfig::memo_budget`]) — the pruning
//!    memo evicts in generations once its resident-entry budget fills;
//!    evicted configurations re-explore on re-encounter, so unique-state
//!    blow-ups degrade to extra work instead of OOM and totals never
//!    depend on the budget.
//!
//! More than one worker ([`ExploreConfig::parallelism`]) runs the same
//! search several times over one shared memo (the "lazy SMP" scheme of
//! game-tree search). Worker 0 is the canonical sequential search on the
//! caller's memory, and its leaf count, truncation and violation are the
//! result. Each helper `h` runs the same engine from the root on its own
//! [`fork`](SimMemory::fork) of the memory, with every node's action list
//! rotated by `h`, so it reaches subtrees in a different order. A helper's
//! only effect is the memo entries it leaves: exact leaf counts of fully
//! explored, violation-free subtrees, which worker 0 then adds without
//! expanding them. Helpers have no leaf budget; they stop on a violation
//! or once worker 0 returns. Since a memo hit is the exact count of a clean
//! subtree and worker 0 walks canonical order, the outcome — `leaves`,
//! `truncated` and *which* violation — equals the sequential run's at every
//! parallelism, truncated runs included. When a violation is found,
//! `leaves` counts the executions up to its discovery. Only `unique_nodes`
//! and `memo_hits` (summed over workers) depend on thread count and timing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use detectable::{OpSpec, RecoverableObject};
use nvm::hash::{hash2, FoldBuildHasher, SEEDS};
use nvm::{CacheMode, Checkpoint, CrashPolicy, Pid, SimMemory, Word};

use crate::driver::{op_key, Driver, ProcState, RetryPolicy};
use crate::history::{Outcome, RankedRecord};
use crate::linearize::{check_execution, Violation};
use crate::sched::{resolve_parallelism, SchedStats};

/// Where operations come from (the engine's borrowed view; the owned
/// [`Workload`](crate::Workload) type resolves onto it).
#[derive(Copy, Clone, Debug)]
pub enum OpSource<'a> {
    /// `workload[p]` is the operation list of process `p`; all interleavings
    /// are explored.
    PerProcess(&'a [Vec<OpSpec>]),
    /// A single global sequence, executed one operation at a time.
    Script(&'a [(Pid, OpSpec)]),
}

/// Whether the explorer canonicalizes pruning fingerprints under
/// process-id permutation (symmetry reduction).
///
/// Reduction merges configurations that differ only by a renaming of
/// process ids — same multiset of per-process states, same memory up to
/// relocating each process's cells, same history up to renaming — so only
/// one member of each orbit is expanded while reported leaf/violation
/// totals stay identical to the unreduced search (orbit members have
/// isomorphic subtrees, and the memo accounts theirs by count). It
/// requires the object to support
/// [`permute_memory`](RecoverableObject::permute_memory) and a
/// process-uniform layout; where either is missing the explorer silently
/// falls back to the plain search.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SymmetryMode {
    /// Resolved by the caller's context: [`Scenario::explore`] turns this
    /// into `On` exactly when the resolved workload is provably symmetric
    /// (an alphabet-generated workload where at least two processes run
    /// identical operation lists); direct engine calls treat `Auto` as
    /// `Off`, since the engine cannot see workload provenance.
    ///
    /// [`Scenario::explore`]: crate::Scenario::explore
    #[default]
    Auto,
    /// Never canonicalize. The exact engine behavior of previous releases.
    Off,
    /// Canonicalize whenever the object and layout support it. Sound for
    /// *any* per-process workload (asymmetric lists simply produce trivial
    /// orbits); scripts never reduce (a script fixes the acting process of
    /// every step).
    On,
}

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum system-wide crashes per execution.
    pub max_crashes: usize,
    /// Re-invoke operations whose recovery said `fail` (bounded per process
    /// by `max_retries`).
    pub retry_on_fail: bool,
    /// Retry budget per process (prevents unbounded fail/retry chains when
    /// crashes keep arriving).
    pub max_retries: usize,
    /// Stop after this many complete executions (safety valve; reaching it
    /// is reported in the outcome).
    pub max_leaves: usize,
    /// Crash policy applied at each injected crash.
    pub crash_policy: CrashPolicy,
    /// Deduplicate converging prefixes through the state-hash memo. Leaf
    /// counts are unchanged by pruning; disable only to measure the win.
    pub prune: bool,
    /// Symmetry reduction of the pruning fingerprints (see
    /// [`SymmetryMode`]). Totals are identical at every setting.
    pub symmetry: SymmetryMode,
    /// Resident-entry budget for the pruning memo, `None` for unbounded.
    /// The memo evicts in generations (see the `Memo` internals): exceeding
    /// the budget drops the oldest generation, so a run whose unique-state
    /// count outgrows RAM degrades to re-exploring evicted states instead
    /// of aborting — totals stay exact, only `unique_nodes`/work grows.
    pub memo_budget: Option<usize>,
    /// Worker threads: `1` is the sequential search alone, `p > 1` adds
    /// `p - 1` helpers that warm the shared memo (see the [module
    /// docs](self)), and `0` (the default) means the host's available
    /// parallelism ([`resolve_parallelism`]). `leaves`, `truncated` and the
    /// violation are identical at every setting; `unique_nodes` and
    /// `memo_hits` are not.
    ///
    /// Counts above the host's cores only add duplicate helper walks: the
    /// helpers then share cores with the canonical search and re-expand
    /// subtrees it would reach anyway. On a 2-CPU host the committed
    /// `BENCH_explore.json` reads 3.64 s sequentially, 2.42 s at 2 workers,
    /// 3.30 s at 4 and 4.46 s at 8, while expanded nodes grow from 1.62M
    /// sequentially to 1.82M, 2.13M and 2.58M.
    pub parallelism: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_crashes: 1,
            retry_on_fail: true,
            max_retries: 2,
            max_leaves: 5_000_000,
            crash_policy: CrashPolicy::DropAll,
            prune: true,
            symmetry: SymmetryMode::Auto,
            // ~256 MB of memo at worst; large enough that every in-repo
            // exhaustive run fits, small enough that a state-space blow-up
            // degrades to re-exploration instead of OOM.
            memo_budget: Some(4_000_000),
            parallelism: 0,
        }
    }
}

/// The result of an exploration.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Complete executions checked (counted with multiplicity: a subtree
    /// skipped by the state-hash memo contributes its full leaf count;
    /// saturates at `usize::MAX` for astronomically large trees).
    pub leaves: usize,
    /// First violation found, in canonical depth-first order.
    pub violation: Option<Violation>,
    /// Whether coverage is incomplete: the leaf budget was exhausted, or
    /// an operation reached the per-operation step bound (a livelock).
    pub truncated: bool,
    /// Distinct system configurations actually expanded, summed over
    /// workers (a configuration that two workers both expand counts twice).
    pub unique_nodes: usize,
    /// Subtrees skipped because their root configuration was already
    /// explored (summed over workers; informational).
    pub memo_hits: usize,
    /// Whether symmetry reduction was actually active (requested *and*
    /// supported by the object, layout, and workload shape).
    pub symmetry: bool,
    /// Memo entries dropped from RAM by generation eviction under
    /// [`ExploreConfig::memo_budget`] (informational; eviction never
    /// changes totals, it only forces re-exploration).
    pub memo_evictions: usize,
    /// Worker counters of a parallel run: `workers` and
    /// `per_worker_expansions` (nodes each worker expanded, worker 0
    /// first). The steal, park and flush counters stay 0, since the
    /// explorer shares no work queue. All-zero for sequential
    /// runs, which start no helper.
    pub sched: SchedStats,
}

impl ExploreOutcome {
    /// Panics with the violation if one was found, and on truncation (test
    /// helper for fully exhaustive runs).
    pub fn assert_clean(&self) {
        self.assert_no_violation();
        assert!(
            !self.truncated,
            "exploration truncated at {} leaves",
            self.leaves
        );
    }

    /// Panics with the violation if one was found; tolerates truncation
    /// (test helper for *bounded*-exhaustive runs, where the DFS covers the
    /// first `max_leaves` executions systematically).
    pub fn assert_no_violation(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "exploration found a violation after {} leaves:\n{v}",
                self.leaves
            );
        }
    }
}

/// One system configuration in the search tree: driver (process states,
/// retries, history) plus workload positions and the crash budget used.
#[derive(Clone)]
struct Node {
    driver: Driver,
    next_op: Vec<usize>,
    script_pos: usize,
    crashes_used: usize,
}

impl Node {
    fn root(n: u32) -> Node {
        Node {
            driver: Driver::new(n),
            next_op: vec![0; n as usize],
            script_pos: 0,
            crashes_used: 0,
        }
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Action {
    Crash,
    Proc(usize),
}

/// Machine steps one operation (or one recovery) may take on an explored
/// path. The paper's operations finish in at most a few hundred steps
/// (773 for a contended N = 4 max-register `Read`); an operation still
/// pending after this many is a livelock, on which the depth-first walk —
/// one frame per action, one undo entry per write — would otherwise
/// descend until memory runs out. A walk that reaches the bound stops and
/// reports the exploration [`truncated`](ExploreOutcome::truncated).
const OP_STEP_LIMIT: u32 = 1 << 16;

/// The scheduler actions available from `node`, in canonical order.
fn actions(cfg: &ExploreConfig, source: OpSource<'_>, node: &Node) -> Vec<Action> {
    let mut out = Vec::new();
    if node.driver.any_in_flight() && node.crashes_used < cfg.max_crashes {
        out.push(Action::Crash);
    }
    match source {
        OpSource::PerProcess(w) => {
            // Process index addresses three parallel structures (driver
            // state, workload list, op cursor), so a plain index loop it is.
            #[allow(clippy::needless_range_loop)]
            for i in 0..node.driver.processes() {
                match node.driver.state(i) {
                    ProcState::Idle => {
                        if node.next_op[i] < w[i].len() {
                            out.push(Action::Proc(i));
                        }
                    }
                    ProcState::Done => {}
                    _ => out.push(Action::Proc(i)),
                }
            }
        }
        OpSource::Script(script) => {
            // One operation at a time: if some process is mid-operation (or
            // mid-recovery), only it may act; otherwise the script advances.
            if let Some(i) = (0..node.driver.processes()).find(|&i| !node.driver.state(i).is_idle())
            {
                out.push(Action::Proc(i));
            } else if node.script_pos < script.len() {
                out.push(Action::Proc(script[node.script_pos].0.idx()));
            }
        }
    }
    out
}

/// One shard of the budgeted memo: two hash-map generations plus an
/// eviction count. Inserts land in `cur`; when `cur` fills its per-shard
/// budget it becomes `prev` and the old `prev` generation is dropped
/// wholesale — O(1) amortized eviction with no per-entry bookkeeping, at
/// the cost of evicting in coarse batches (the classic two-generation
/// cache). Lookups consult both generations. The keys are already-mixed
/// fingerprints, so the maps hash them with one fold, not SipHash.
#[derive(Default)]
struct MemoShard {
    cur: HashMap<(u64, u64), u64, FoldBuildHasher>,
    prev: HashMap<(u64, u64), u64, FoldBuildHasher>,
    evicted: usize,
}

/// The visited-node memo: configuration fingerprint → exact subtree leaf
/// count, sharded so parallel workers share pruning knowledge with low
/// contention. Only violation-free, fully-counted subtrees are entered, so
/// concurrent duplicate computation is benign (both writers insert the same
/// value). A [`memo_budget`](ExploreConfig::memo_budget) caps resident
/// entries by generation eviction: evicted configurations are simply
/// re-explored on re-encounter, so totals never depend on the budget.
struct Memo {
    shards: Vec<Mutex<MemoShard>>,
    /// Per-generation entry cap per shard (`usize::MAX` when unbounded).
    /// Resident entries are bounded by `2 × cap × SHARDS ≈ budget`.
    shard_cap: usize,
}

impl Memo {
    const SHARDS: usize = 64;

    fn new(budget: Option<usize>) -> Self {
        Memo {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(MemoShard::default()))
                .collect(),
            shard_cap: budget.map_or(usize::MAX, |b| b.div_ceil(Self::SHARDS * 2).max(1)),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<MemoShard> {
        &self.shards[(key.0 as usize) % Self::SHARDS]
    }

    fn get(&self, key: (u64, u64)) -> Option<u64> {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        if let Some(&count) = shard.cur.get(&key) {
            return Some(count);
        }
        // Promote by *moving*: a hit from the old generation re-enters the
        // young one, so hot entries survive the next rotation (the standard
        // two-generation refinement). Removing it from `prev` keeps the
        // eviction count honest — a promoted entry is resident, not
        // dropped, when its old generation retires. Promotion may itself
        // rotate, which is fine: the value is already copied out.
        if let Some(count) = shard.prev.remove(&key) {
            self.insert_locked(&mut shard, key, count);
            return Some(count);
        }
        None
    }

    fn insert(&self, key: (u64, u64), count: u64) {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        self.insert_locked(&mut shard, key, count);
    }

    fn insert_locked(&self, shard: &mut MemoShard, key: (u64, u64), count: u64) {
        if shard.cur.len() >= self.shard_cap && !shard.cur.contains_key(&key) {
            let full = std::mem::take(&mut shard.cur);
            let dropped = std::mem::replace(&mut shard.prev, full);
            shard.evicted += dropped.len();
        }
        shard.cur.insert(key, count);
    }

    fn evictions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").evicted)
            .sum()
    }
}

/// State shared by all workers of one exploration: the memo they fill, and
/// the flag that stops the helpers once worker 0 returns.
struct Progress {
    abort: AtomicBool,
    memo: Memo,
}

/// Sets [`Progress::abort`] when worker 0 returns or unwinds, so the
/// helpers drain out and the scope can join them.
struct StopHelpers<'a>(&'a AtomicBool);

impl Drop for StopHelpers<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Canonical encoding of an operation outcome for visited-set keys.
fn outcome_key(o: &Outcome) -> (u8, u64) {
    match *o {
        Outcome::Completed(w) => (0, w),
        Outcome::RecoveredFail => (1, 0),
        Outcome::Pending => (2, 0),
        Outcome::Unresolved => (3, 0),
    }
}

/// Leading word of a memo key's pre-image: plain and orbit keys share the
/// memo and must never coincide structurally.
const PLAIN_KEY: Word = 0;
const ORBIT_KEY: Word = 1;

/// Appends `words` to `out` behind a length prefix, so variable-length
/// parts of a key's pre-image stay separable.
fn push_framed(out: &mut Vec<Word>, words: &[Word]) {
    out.push(words.len() as Word);
    out.extend_from_slice(words);
}

/// Appends the record count, then per record the (renamed) pid, op,
/// outcome and endpoint ranks.
fn push_records(out: &mut Vec<Word>, records: &[RankedRecord], pid_word: impl Fn(Pid) -> Word) {
    out.push(records.len() as Word);
    for r in records {
        let (tag, word) = outcome_key(&r.record.outcome);
        out.extend([
            pid_word(r.record.pid),
            op_key(&r.record.op),
            Word::from(tag),
            word,
            r.ranks[0],
            r.ranks[1],
        ]);
    }
}

/// Candidate orderings are capped: enumerating a huge tie class (only the
/// empty-history root of a wide symmetric workload produces one) would
/// cost more than the merges it wins. Falling back to the base ordering
/// merely *misses* merges — never fabricates one.
const MAX_ORBIT_CANDIDATES: usize = 24;

/// Fills `out` with every ordering obtained from `order` by permuting
/// within runs of equal signatures (`same_sig`), concatenated
/// (`order.len()` entries each); just `order` when the product of
/// tie-class factorials exceeds [`MAX_ORBIT_CANDIDATES`].
fn tie_candidates(order: &[usize], same_sig: impl Fn(usize, usize) -> bool, out: &mut Vec<usize>) {
    let n = order.len();
    let class_end = |start: usize| {
        let mut end = start + 1;
        while end < n && same_sig(order[end], order[start]) {
            end += 1;
        }
        end
    };
    out.clear();
    out.extend_from_slice(order);
    // Bound the total up front: the product of tie-class factorials must
    // fit the cap *before* any class is expanded, so a wide tie class (a
    // many-process empty-history root) costs nothing.
    let mut total = 1usize;
    let mut start = 0;
    while start < n {
        let end = class_end(start);
        for k in 2..=(end - start) {
            total = total.saturating_mul(k);
        }
        if total > MAX_ORBIT_CANDIDATES {
            return;
        }
        start = end;
    }
    let mut start = 0;
    while start < n {
        let end = class_end(start);
        if end - start >= 2 {
            // Each candidate's class slice is ascending (as in `order`:
            // the caller's stable sort keeps tied pids in index order), so
            // stepping through its lexicographic successors visits every
            // permutation once.
            debug_assert!(order[start..end].is_sorted());
            let before = out.len();
            for c in 0..before / n {
                let mut at = out.len();
                out.extend_from_within(c * n..(c + 1) * n);
                loop {
                    out.extend_from_within(at..at + n);
                    at += n;
                    if !next_permutation(&mut out[at + start..at + end]) {
                        out.truncate(at);
                        break;
                    }
                }
            }
            out.drain(..before);
        }
        start = end;
    }
}

/// Advances `items` to its next lexicographic permutation; false (and
/// `items` unspecified) after the last one.
fn next_permutation(items: &mut [usize]) -> bool {
    let Some(i) = (1..items.len()).rev().find(|&i| items[i - 1] < items[i]) else {
        return false;
    };
    let j = (i..items.len())
        .rev()
        .find(|&j| items[j] > items[i - 1])
        .expect("items[i] qualifies");
    items.swap(i - 1, j);
    items[i..].reverse();
    true
}

/// One DFS frame: a configuration, its remaining actions, and the memory
/// checkpoint that entering it opened.
struct Frame {
    node: Node,
    acts: Vec<Action>,
    next: usize,
    cp: Option<Checkpoint>,
    key: Option<(u64, u64)>,
    entry_leaves: usize,
}

/// One worker's depth-first search engine.
struct Engine<'a> {
    obj: &'a dyn RecoverableObject,
    cfg: &'a ExploreConfig,
    source: OpSource<'a>,
    retry: RetryPolicy,
    progress: &'a Progress,
    /// Worker id: 0 walks canonical order under the leaf budget; helper
    /// `id` rotates every action list by `id` and has no budget.
    id: usize,
    /// Whether canonical orbit fingerprints are in use (probed once by
    /// [`explore_engine`]; requires object + layout permutation support).
    sym: bool,
    stack: Vec<Frame>,
    /// Scratch for the memo keys: the pre-image words, the compiled
    /// records, and the per-process signatures (concatenated; process
    /// `i`'s is `sig_words[sig_bounds[i]..sig_bounds[i + 1]]`).
    key_words: Vec<Word>,
    records: Vec<RankedRecord>,
    sig_words: Vec<Word>,
    sig_bounds: Vec<usize>,
    /// Scratch for orbit canonicalization: the signature order, candidate
    /// orderings (concatenated), and the current and minimal permutations.
    order: Vec<usize>,
    candidates: Vec<usize>,
    perm: Vec<u32>,
    perm_min: Vec<u32>,
    sym_words: Vec<Word>,
    sym_words_min: Vec<Word>,
    sym_nvm: Vec<Word>,
    sym_nvm_min: Vec<Word>,
    leaves: usize,
    truncated: bool,
    violation: Option<Violation>,
    unique_nodes: usize,
    memo_hits: usize,
}

impl<'a> Engine<'a> {
    fn new(
        obj: &'a dyn RecoverableObject,
        cfg: &'a ExploreConfig,
        source: OpSource<'a>,
        progress: &'a Progress,
        id: usize,
        sym: bool,
    ) -> Self {
        Engine {
            obj,
            cfg,
            source,
            retry: RetryPolicy {
                retry_on_fail: cfg.retry_on_fail,
                max_retries: cfg.max_retries,
                reset_per_op: false,
            },
            progress,
            id,
            sym,
            stack: Vec::new(),
            key_words: Vec::new(),
            records: Vec::new(),
            sig_words: Vec::new(),
            sig_bounds: Vec::new(),
            order: Vec::new(),
            candidates: Vec::new(),
            perm: Vec::new(),
            perm_min: Vec::new(),
            sym_words: Vec::new(),
            sym_words_min: Vec::new(),
            sym_nvm: Vec::new(),
            sym_nvm_min: Vec::new(),
            leaves: 0,
            truncated: false,
            violation: None,
            unique_nodes: 0,
            memo_hits: 0,
        }
    }

    fn aborted(&self) -> bool {
        self.violation.is_some() || self.truncated || self.progress.abort.load(Ordering::Relaxed)
    }

    /// Explores the whole subtree rooted at `root` over `mem`, leaving the
    /// memory exactly as it was on entry.
    fn run(&mut self, mem: &SimMemory, root: Node) {
        let outer = mem.checkpoint();
        self.enter(mem, root, None);
        while !self.stack.is_empty() {
            if self.aborted() {
                break;
            }
            let top = self.stack.last_mut().expect("stack non-empty");
            if top.next < top.acts.len() {
                let action = top.acts[top.next];
                top.next += 1;
                let cp = mem.checkpoint();
                let mut child = top.node.clone();
                self.apply(mem, &mut child, action);
                self.enter(mem, child, Some(cp));
            } else {
                let frame = self.stack.pop().expect("stack non-empty");
                if let Some(key) = frame.key {
                    self.progress
                        .memo
                        .insert(key, (self.leaves - frame.entry_leaves) as u64);
                }
                if let Some(cp) = frame.cp {
                    mem.rollback(cp);
                }
            }
        }
        // Abort unwind: rewind the memory without memoizing partial counts.
        while let Some(frame) = self.stack.pop() {
            if let Some(cp) = frame.cp {
                mem.rollback(cp);
            }
        }
        mem.rollback(outer);
    }

    /// Processes a freshly reached configuration: memo lookup, leaf check,
    /// or push as a new DFS frame.
    fn enter(&mut self, mem: &SimMemory, node: Node, cp: Option<Checkpoint>) {
        if self.aborted() {
            if let Some(cp) = cp {
                mem.rollback(cp);
            }
            return;
        }
        let key = self.cfg.prune.then(|| {
            if self.sym && !node.driver.any_in_flight() {
                // Machine-free boundary configurations canonicalize under
                // pid permutation; in-flight machines may hold
                // pid-dependent volatile state the object hook cannot
                // rename, so those nodes keep the plain fingerprint.
                self.canonical_key(mem, &node)
            } else {
                self.node_key(mem, &node)
            }
        });
        // Worker 0 always expands the root (the one node entered without a
        // checkpoint): a helper that finishes a small tree before worker 0
        // starts would otherwise leave worker 0 with a root memo hit and
        // no expansion at all. Its children still hit the helper's memo.
        let root_of_worker_0 = self.id == 0 && cp.is_none();
        if let Some(k) = key.filter(|_| !root_of_worker_0) {
            if let Some(count) = self.progress.memo.get(k) {
                self.memo_hits += 1;
                self.count_leaves(count as usize);
                if let Some(cp) = cp {
                    mem.rollback(cp);
                }
                return;
            }
        }
        self.unique_nodes += 1;
        let mut acts = actions(self.cfg, self.source, &node);
        if acts.is_empty() {
            self.count_leaves(1);
            self.check_leaf(&node);
            // Violating configurations must never enter the memo: a memo
            // hit skips check_leaf, which would let a converging prefix
            // silently count a violating leaf as checked — and let a
            // helper hide the violation from worker 0.
            if self.violation.is_none() {
                if let Some(k) = key {
                    self.progress.memo.insert(k, 1);
                }
            }
            if let Some(cp) = cp {
                mem.rollback(cp);
            }
            return;
        }
        let turn = self.id % acts.len();
        acts.rotate_left(turn);
        self.stack.push(Frame {
            node,
            acts,
            next: 0,
            cp,
            key,
            entry_leaves: self.leaves,
        });
    }

    /// Adds `n` leaves (saturating: memoized counts of astronomically
    /// large subtrees must not wrap) and trips worker 0's leaf budget.
    /// `usize::MAX` means unbounded: saturation there is not exhaustion.
    fn count_leaves(&mut self, n: usize) {
        self.leaves = self.leaves.saturating_add(n);
        let budget = self.cfg.max_leaves;
        if self.id == 0 && budget != usize::MAX && self.leaves >= budget {
            self.truncated = true;
        }
    }

    /// The full durable-linearizability + detectability check of one
    /// complete execution (relaxed for non-detectable objects — see
    /// [`check_execution`]).
    fn check_leaf(&mut self, node: &Node) {
        if let Err(v) = check_execution(self.obj, node.driver.history()) {
            self.violation = Some(v);
        }
    }

    /// Compiles the node's history into `self.records` — exactly the
    /// records the leaf check will consume, plus their endpoint ranks.
    fn compile_records(&mut self, node: &Node) {
        node.driver
            .history()
            .records_into(!self.obj.detectable(), &mut self.records);
    }

    /// 128-bit fingerprint of a configuration: exact memory state, driver
    /// volatile state, workload positions, crash budget, and the
    /// *canonicalized* history, written as words into one scratch buffer
    /// and hashed in one [`hash2`] pass.
    ///
    /// The leaf check is path-sensitive, so two nodes are interchangeable
    /// only when their recorded pasts agree **as far as the checker can
    /// tell**. The checker consumes only the compiled [`OpRecord`]s — per
    /// operation: process, op, outcome, and the relative order of interval
    /// endpoints — never the raw event sequence (crashes are dropped by the
    /// compilation; their effects live entirely in the memory/driver
    /// state). Hashing that canonical structure instead of the event list
    /// soundly merges prefixes that differ only in the order of commuting
    /// events (two adjacent invocations by different processes, two
    /// adjacent returns, a crash's position between resolved operations),
    /// which is where most of the interleaving explosion lives.
    ///
    /// [`OpRecord`]: crate::history::OpRecord
    fn node_key(&mut self, mem: &SimMemory, node: &Node) -> (u64, u64) {
        self.compile_records(node);
        let w = &mut self.key_words;
        w.clear();
        w.push(PLAIN_KEY);
        mem.state_words_into(w);
        let len_at = w.len();
        w.push(0);
        node.driver.encode_key(w);
        w[len_at] = (w.len() - len_at - 1) as Word;
        w.push(node.next_op.len() as Word);
        w.extend(node.next_op.iter().map(|&k| k as Word));
        w.push(node.script_pos as Word);
        w.push(node.crashes_used as Word);
        push_records(w, &self.records, |pid| pid.idx() as Word);
        hash2(SEEDS, w)
    }

    /// 128-bit fingerprint of a machine-free configuration's **symmetry
    /// orbit**: the canonical representative under process-id permutation.
    ///
    /// Two configurations related by a permutation π applied consistently
    /// everywhere — per-process driver state, retry counts, remaining
    /// workload, private memory (relocated), pid-dependent shared encodings
    /// (rewritten by [`RecoverableObject::permute_memory`]), and the
    /// history (pids renamed) — have isomorphic futures: π is a bijection
    /// between their subtrees' executions, and the checker is
    /// pid-oblivious (specs never consult process ids), so leaf counts and
    /// violation-freeness coincide. Mapping every orbit member to one
    /// canonical key lets the pruning memo expand a single member and
    /// account the rest by count, with totals identical to the unreduced
    /// search.
    ///
    /// Canonicalization: sort processes by a pid-independent signature
    /// (life-cycle stage, retries, remaining operations, history
    /// projection with global interval ranks); processes tying on the
    /// signature can differ only in pid-dependent memory encodings, so the
    /// tie-break enumerates their permutations (capped — missing a merge
    /// is sound, a wrong merge is not) and takes the lexicographically
    /// minimal canonical memory. In shared-cache mode the `(NVM, logical)`
    /// word pair is canonicalized — together they determine dirty values
    /// and the dirty set, everything a future crash or persist can see.
    fn canonical_key(&mut self, mem: &SimMemory, node: &Node) -> (u64, u64) {
        let n = node.driver.processes();
        self.compile_records(node);

        // Pid-independent per-process signatures.
        let sig = &mut self.sig_words;
        sig.clear();
        self.sig_bounds.clear();
        self.sig_bounds.push(0);
        for i in 0..n {
            match node.driver.state(i) {
                ProcState::Idle => sig.push(0),
                ProcState::Done => sig.push(1),
                ProcState::NeedRecovery { op } => {
                    sig.push(2);
                    sig.push(op_key(op));
                }
                ProcState::Running { .. } | ProcState::Recovering { .. } => {
                    unreachable!("canonical keys are computed for machine-free nodes only")
                }
            }
            sig.push(node.driver.retries(i) as Word);
            if let OpSource::PerProcess(w) = self.source {
                let remaining = &w[i][node.next_op[i]..];
                sig.push(remaining.len() as Word);
                sig.extend(remaining.iter().map(op_key));
            }
            for r in self.records.iter().filter(|r| r.record.pid.idx() == i) {
                let (tag, word) = outcome_key(&r.record.outcome);
                sig.extend([
                    op_key(&r.record.op),
                    Word::from(tag),
                    word,
                    r.ranks[0],
                    r.ranks[1],
                ]);
            }
            self.sig_bounds.push(sig.len());
        }
        let (sig_words, bounds) = (&self.sig_words, &self.sig_bounds);
        let sig_of = |i: usize| &sig_words[bounds[i]..bounds[i + 1]];

        // Stable sort fixes the canonical slot of every distinct
        // signature; tie classes (identical signatures — necessarily
        // history-free, since interval ranks are globally unique) get
        // their orderings enumerated below.
        let order = &mut self.order;
        order.clear();
        order.extend(0..n);
        order.sort_by(|&a, &b| sig_of(a).cmp(sig_of(b)));
        tie_candidates(order, |a, b| sig_of(a) == sig_of(b), &mut self.candidates);

        let shared_cache = mem.mode() == CacheMode::SharedCache;
        let (perm, perm_min) = (&mut self.perm, &mut self.perm_min);
        perm.resize(n, 0);
        perm_min.resize(n, 0);
        let mut have_min = false;
        for candidate in self.candidates.chunks(n) {
            for (slot, &old) in candidate.iter().enumerate() {
                perm[old] = slot as u32;
            }
            let ok = mem.logical_words_permuted(perm, true, &mut self.sym_words)
                && self.obj.permute_memory(&mut self.sym_words, perm);
            debug_assert!(ok, "support was probed before the search started");
            if shared_cache {
                let ok = mem.logical_words_permuted(perm, false, &mut self.sym_nvm)
                    && self.obj.permute_memory(&mut self.sym_nvm, perm);
                debug_assert!(ok, "support was probed before the search started");
            }
            if !have_min
                || (self.sym_words.as_slice(), self.sym_nvm.as_slice())
                    < (self.sym_words_min.as_slice(), self.sym_nvm_min.as_slice())
            {
                have_min = true;
                std::mem::swap(&mut self.sym_words, &mut self.sym_words_min);
                std::mem::swap(&mut self.sym_nvm, &mut self.sym_nvm_min);
                perm_min.copy_from_slice(perm);
            }
        }

        let w = &mut self.key_words;
        w.clear();
        w.push(ORBIT_KEY);
        w.push(node.crashes_used as Word);
        for &i in order.iter() {
            push_framed(w, sig_of(i));
        }
        push_framed(w, &self.sym_words_min);
        if shared_cache {
            push_framed(w, &self.sym_nvm_min);
        }
        push_records(w, &self.records, |pid| Word::from(perm_min[pid.idx()]));
        hash2(SEEDS, w)
    }

    /// Executes one scheduler action, mutating `node` and the memory.
    fn apply(&mut self, mem: &SimMemory, node: &mut Node, action: Action) {
        // In full-interleaving mode, private-only step runs merge into one
        // action (partial-order reduction); scripted explorations keep
        // crash granularity at single primitives.
        let merge = matches!(self.source, OpSource::PerProcess(_));
        match action {
            Action::Crash => {
                node.crashes_used += 1;
                node.driver.crash(mem, self.cfg.crash_policy);
            }
            Action::Proc(i) => {
                if node.driver.state(i).is_idle() {
                    let op = match self.source {
                        OpSource::PerProcess(w) => {
                            let op = w[i][node.next_op[i]];
                            node.next_op[i] += 1;
                            op
                        }
                        OpSource::Script(script) => {
                            let (_, op) = script[node.script_pos];
                            node.script_pos += 1;
                            op
                        }
                    };
                    node.driver.invoke(self.obj, mem, i, op, &self.retry);
                } else {
                    if merge {
                        node.driver.step_merged(self.obj, mem, i, &self.retry);
                    } else {
                        node.driver.step(self.obj, mem, i, &self.retry);
                    }
                    if node.driver.op_steps(i) >= OP_STEP_LIMIT {
                        // A livelock: stop the walk, as the leaf budget
                        // does, before its depth exhausts memory.
                        self.truncated = true;
                    }
                }
            }
        }
    }
}

/// Exhaustively explores executions of `obj` and checks every complete one.
///
/// The memory must be freshly initialized; it is left in its starting state
/// on return. See the [module docs](self) for the engine design and why
/// parallel runs report the sequential outcome.
pub fn explore_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    source: OpSource<'_>,
    cfg: &ExploreConfig,
) -> ExploreOutcome {
    let root = Node::root(obj.processes());
    let progress = Progress {
        abort: AtomicBool::new(false),
        memo: Memo::new(cfg.memo_budget),
    };
    let sym = symmetry_supported(obj, mem, source, cfg);
    let workers = resolve_parallelism(cfg.parallelism);
    let (engine, per_worker) = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|id| {
                let (progress, root, fork) = (&progress, root.clone(), mem.fork());
                s.spawn(move || {
                    let mut helper = Engine::new(obj, cfg, source, progress, id, sym);
                    helper.run(&fork, root);
                    (helper.unique_nodes, helper.memo_hits)
                })
            })
            .collect();
        let mut engine = Engine::new(obj, cfg, source, &progress, 0, sym);
        {
            let _stop = StopHelpers(&progress.abort);
            engine.run(mem, root);
        }
        // (expanded nodes, memo hits) per worker, worker 0 first.
        let per_worker: Vec<(usize, usize)> =
            std::iter::once((engine.unique_nodes, engine.memo_hits))
                .chain(
                    helpers
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
                )
                .collect();
        (engine, per_worker)
    });
    // A sequential run starts no helper and reports no worker counters.
    let sched = if workers == 1 {
        SchedStats::default()
    } else {
        SchedStats {
            workers: workers as u64,
            per_worker_expansions: per_worker.iter().map(|&(nodes, _)| nodes as u64).collect(),
            ..SchedStats::default()
        }
    };
    ExploreOutcome {
        leaves: engine.leaves.min(cfg.max_leaves),
        violation: engine.violation,
        truncated: engine.truncated,
        unique_nodes: per_worker.iter().map(|&(nodes, _)| nodes).sum(),
        memo_hits: per_worker.iter().map(|&(_, hits)| hits).sum(),
        symmetry: sym,
        memo_evictions: progress.memo.evictions(),
        sched,
    }
}

/// Whether symmetry reduction is both requested and available: pruning on,
/// `SymmetryMode::On` (the `Auto` default resolves at the [`Scenario`]
/// layer; at the engine it means off), a per-process source with ≥ 2
/// processes, and an object + layout that support permutation — probed
/// with the identity, which every supporting implementation accepts.
///
/// [`Scenario`]: crate::Scenario
fn symmetry_supported(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    source: OpSource<'_>,
    cfg: &ExploreConfig,
) -> bool {
    if !cfg.prune
        || cfg.symmetry != SymmetryMode::On
        || !matches!(source, OpSource::PerProcess(_))
        || obj.processes() < 2
    {
        return false;
    }
    // RandomSubset draws per-cell survival along the cache's index-order
    // iteration, so which dirty cells persist is not equivariant under
    // relocation — the same scan-order hazard that keeps the max register
    // opaque. DropAll / PersistAll treat every cell uniformly and are fine.
    if mem.mode() == CacheMode::SharedCache
        && matches!(cfg.crash_policy, CrashPolicy::RandomSubset(_))
    {
        return false;
    }
    let identity: Vec<u32> = (0..obj.processes()).collect();
    let mut scratch = Vec::new();
    mem.logical_words_permuted(&identity, true, &mut scratch)
        && obj.permute_memory(&mut scratch, &identity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build_world;
    use detectable::{DetectableCas, DetectableRegister, MaxRegister};

    #[test]
    fn script_register_with_one_crash_is_clean() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let p = Pid::new(0);
        let q = Pid::new(1);
        let script = [
            (p, OpSpec::Write(1)),
            (q, OpSpec::Read),
            (q, OpSpec::Write(2)),
            (p, OpSpec::Write(1)),
            (q, OpSpec::Read),
        ];
        let out = explore_engine(
            &reg,
            &mem,
            OpSource::Script(&script),
            &ExploreConfig::default(),
        );
        out.assert_clean();
        assert!(
            out.leaves > 10,
            "expected many crash positions, got {}",
            out.leaves
        );
    }

    #[test]
    fn script_cas_with_one_crash_is_clean() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let p = Pid::new(0);
        let q = Pid::new(1);
        let script = [
            (p, OpSpec::Cas { old: 0, new: 1 }),
            (q, OpSpec::Cas { old: 1, new: 0 }),
            (p, OpSpec::Cas { old: 0, new: 1 }),
            (q, OpSpec::Read),
        ];
        let out = explore_engine(
            &cas,
            &mem,
            OpSource::Script(&script),
            &ExploreConfig::default(),
        );
        out.assert_clean();
    }

    #[test]
    fn concurrent_writes_all_interleavings_crash_free() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let w = vec![vec![OpSpec::Write(1), OpSpec::Read], vec![OpSpec::Write(2)]];
        let cfg = ExploreConfig {
            max_crashes: 0,
            ..Default::default()
        };
        let out = explore_engine(&reg, &mem, OpSource::PerProcess(&w), &cfg);
        out.assert_clean();
        assert!(out.leaves > 100);
    }

    #[test]
    fn concurrent_cas_all_interleavings_one_crash() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let w = vec![
            vec![OpSpec::Cas { old: 0, new: 1 }],
            vec![OpSpec::Cas { old: 0, new: 2 }],
        ];
        let out = explore_engine(
            &cas,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig::default(),
        );
        out.assert_clean();
    }

    #[test]
    fn max_register_explorations_are_clean() {
        let (mr, mem) = build_world(|b| MaxRegister::new(b, 2));
        let w = vec![
            vec![OpSpec::WriteMax(2), OpSpec::Read],
            vec![OpSpec::WriteMax(1)],
        ];
        let out = explore_engine(
            &mr,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig::default(),
        );
        out.assert_clean();
    }

    #[test]
    fn leaf_budget_truncates() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let w = vec![vec![OpSpec::Write(1)], vec![OpSpec::Write(2)]];
        let cfg = ExploreConfig {
            max_leaves: 5,
            max_crashes: 0,
            parallelism: 1,
            ..Default::default()
        };
        let out = explore_engine(&reg, &mem, OpSource::PerProcess(&w), &cfg);
        assert!(out.truncated);
        assert_eq!(out.leaves, 5);
    }

    #[test]
    fn memory_is_restored_after_exploration() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let before = mem.shared_key();
        let w = vec![vec![OpSpec::Write(9)], vec![]];
        let cfg = ExploreConfig {
            max_crashes: 0,
            ..Default::default()
        };
        let _ = explore_engine(&reg, &mem, OpSource::PerProcess(&w), &cfg);
        assert_eq!(mem.shared_key(), before);
    }

    #[test]
    fn pruning_preserves_leaf_counts() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let w = vec![
            vec![OpSpec::Cas { old: 0, new: 1 }],
            vec![OpSpec::Cas { old: 0, new: 2 }],
        ];
        let pruned = explore_engine(
            &cas,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig {
                prune: true,
                parallelism: 1,
                ..Default::default()
            },
        );
        let unpruned = explore_engine(
            &cas,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig {
                prune: false,
                parallelism: 1,
                ..Default::default()
            },
        );
        pruned.assert_clean();
        unpruned.assert_clean();
        assert_eq!(pruned.leaves, unpruned.leaves);
        assert!(
            pruned.unique_nodes < unpruned.unique_nodes,
            "pruning expanded {} nodes vs {} unpruned",
            pruned.unique_nodes,
            unpruned.unique_nodes
        );
        assert!(pruned.memo_hits > 0);
    }

    #[test]
    fn parallel_exploration_matches_sequential() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let w = vec![vec![OpSpec::Write(1), OpSpec::Read], vec![OpSpec::Write(2)]];
        let base = ExploreConfig {
            parallelism: 1,
            ..Default::default()
        };
        let seq = explore_engine(&reg, &mem, OpSource::PerProcess(&w), &base);
        for parallelism in [2, 4, 7] {
            let par = explore_engine(
                &reg,
                &mem,
                OpSource::PerProcess(&w),
                &ExploreConfig {
                    parallelism,
                    ..base.clone()
                },
            );
            assert_eq!(par.leaves, seq.leaves, "parallelism {parallelism}");
            assert_eq!(par.truncated, seq.truncated);
            assert!(par.violation.is_none());
        }
    }

    #[test]
    fn per_worker_expansions_count_nodes_not_jobs() {
        // One CAS with up to two crashes, on worker 0 plus one helper.
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 1, 0));
        let w = vec![vec![OpSpec::Cas { old: 0, new: 1 }]];
        let cfg = ExploreConfig {
            max_crashes: 2,
            parallelism: 2,
            ..Default::default()
        };
        let out = explore_engine(&cas, &mem, OpSource::PerProcess(&w), &cfg);
        out.assert_clean();
        let per_worker = &out.sched.per_worker_expansions;
        assert_eq!(out.sched.workers, 2);
        assert_eq!(per_worker.len(), 2, "one entry per worker");
        assert!(per_worker[0] > 0, "worker 0 expands at least the root");
        assert_eq!(per_worker.iter().sum::<u64>(), out.unique_nodes as u64);
    }

    #[test]
    fn parallel_runs_match_sequential_even_when_truncated() {
        // Memo hits are exact counts of clean subtrees and worker 0 walks
        // canonical order, so a leaf budget cuts every parallel run where
        // it cuts the sequential one: same leaves, truncation and
        // violation, on a clean register and on a deprived one.
        use crate::aux_state::theorem2_script;
        use detectable::ObjectKind;
        let lists = vec![vec![OpSpec::Write(1), OpSpec::Read], vec![OpSpec::Write(2)]];
        let script = theorem2_script(ObjectKind::Register);
        // The script's operations as per-process lists: the violation then
        // sits behind clean executions that helpers can memoize.
        let mut split = vec![Vec::new(); 2];
        for &(pid, op) in &script {
            split[pid.idx()].push(op);
        }
        let worlds = [
            (false, OpSource::PerProcess(&lists)),
            (true, OpSource::Script(&script)),
            (true, OpSource::PerProcess(&split)),
        ];
        let run = |deprived: bool, source: OpSource<'_>, max_leaves: usize, parallelism: usize| {
            let cfg = ExploreConfig {
                max_leaves,
                parallelism,
                ..Default::default()
            };
            let out = if deprived {
                let (reg, mem) = build_world(|b| {
                    baselines::WithoutPrepare::new(DetectableRegister::new(b, 2, 0))
                });
                explore_engine(&reg, &mem, source, &cfg)
            } else {
                let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
                explore_engine(&reg, &mem, source, &cfg)
            };
            (out.leaves, out.truncated, out.violation.map(|v| v.rendered))
        };
        for (world, &(deprived, source)) in worlds.iter().enumerate() {
            for max_leaves in [1, 7, 50, 333, 1000, 5000, usize::MAX] {
                let seq = run(deprived, source, max_leaves, 1);
                for parallelism in [2, 3, 4, 8] {
                    for _ in 0..5 {
                        assert_eq!(
                            run(deprived, source, max_leaves, parallelism),
                            seq,
                            "world {world}, max_leaves {max_leaves}, parallelism {parallelism}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_exploration_finds_the_same_violation() {
        // A deprived register violates Theorem 2; every parallelism level
        // must find a violation (the canonical-first one).
        use crate::aux_state::theorem2_script;
        use detectable::ObjectKind;
        let script = theorem2_script(ObjectKind::Register);
        let render = |parallelism: usize| {
            let (reg, mem) =
                build_world(|b| baselines::WithoutPrepare::new(DetectableRegister::new(b, 2, 0)));
            let cfg = ExploreConfig {
                parallelism,
                ..Default::default()
            };
            let out = explore_engine(&reg, &mem, OpSource::Script(&script), &cfg);
            out.violation
                .expect("Theorem 2 predicts a violation")
                .rendered
        };
        let sequential = render(1);
        assert_eq!(render(2), sequential);
        assert_eq!(render(5), sequential);
    }

    #[test]
    fn symmetry_reduction_preserves_totals_and_shrinks_the_search() {
        // Three identical processes: the orbit of "who acts first" merges.
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let w = vec![
            vec![OpSpec::Cas { old: 0, new: 1 }],
            vec![OpSpec::Cas { old: 0, new: 1 }],
            vec![OpSpec::Cas { old: 0, new: 1 }],
        ];
        let base = ExploreConfig {
            max_crashes: 1,
            max_retries: 1,
            max_leaves: usize::MAX,
            parallelism: 1,
            ..Default::default()
        };
        let plain = explore_engine(&cas, &mem, OpSource::PerProcess(&w), &base);
        let reduced = explore_engine(
            &cas,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig {
                symmetry: SymmetryMode::On,
                ..base
            },
        );
        plain.assert_clean();
        reduced.assert_clean();
        assert!(!plain.symmetry, "engine-level Auto means off");
        assert!(reduced.symmetry, "CAS + uniform layout support reduction");
        assert_eq!(reduced.leaves, plain.leaves, "totals are invariant");
        assert!(
            reduced.unique_nodes < plain.unique_nodes,
            "reduction expanded {} nodes vs {} plain",
            reduced.unique_nodes,
            plain.unique_nodes
        );
    }

    #[test]
    fn symmetry_reduction_composed_object_with_crashes() {
        use detectable::DetectableCounter;
        let (ctr, mem) = build_world(|b| DetectableCounter::new(b, 3));
        let w = vec![vec![OpSpec::Inc], vec![OpSpec::Inc], vec![OpSpec::Inc]];
        let base = ExploreConfig {
            max_crashes: 1,
            max_retries: 1,
            max_leaves: usize::MAX,
            parallelism: 1,
            ..Default::default()
        };
        let plain = explore_engine(&ctr, &mem, OpSource::PerProcess(&w), &base);
        let reduced = explore_engine(
            &ctr,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig {
                symmetry: SymmetryMode::On,
                ..base
            },
        );
        plain.assert_clean();
        reduced.assert_clean();
        assert!(reduced.symmetry);
        assert_eq!(reduced.leaves, plain.leaves);
        assert!(reduced.unique_nodes < plain.unique_nodes);
    }

    #[test]
    fn symmetry_never_activates_for_scripts_or_unsupported_objects() {
        let script = [(Pid::new(0), OpSpec::Write(1)), (Pid::new(1), OpSpec::Read)];
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let cfg = ExploreConfig {
            symmetry: SymmetryMode::On,
            max_leaves: usize::MAX,
            ..Default::default()
        };
        let out = explore_engine(&reg, &mem, OpSource::Script(&script), &cfg);
        out.assert_clean();
        assert!(!out.symmetry, "scripts pin the acting process");

        // The queue's arena encodes allocating pids in shared node indices;
        // it declares itself opaque and the engine falls back.
        let (q, mem) = build_world(|b| detectable::DetectableQueue::new(b, 2, 16));
        let w = vec![vec![OpSpec::Enq(1)], vec![OpSpec::Enq(1)]];
        let out = explore_engine(&q, &mem, OpSource::PerProcess(&w), &cfg);
        out.assert_clean();
        assert!(
            !out.symmetry,
            "unsupported objects fall back to plain search"
        );
    }

    #[test]
    fn memo_budget_eviction_preserves_exact_totals() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let w = vec![
            vec![
                OpSpec::Cas { old: 0, new: 1 },
                OpSpec::Cas { old: 1, new: 2 },
            ],
            vec![OpSpec::Cas { old: 0, new: 2 }, OpSpec::Read],
        ];
        let unbounded = explore_engine(
            &cas,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig {
                memo_budget: None,
                parallelism: 1,
                ..Default::default()
            },
        );
        assert_eq!(unbounded.memo_evictions, 0);
        // A budget far below the unique-node count forces eviction cycles;
        // evicted states are re-explored, totals must not move.
        let tiny = explore_engine(
            &cas,
            &mem,
            OpSource::PerProcess(&w),
            &ExploreConfig {
                memo_budget: Some(128),
                parallelism: 1,
                ..Default::default()
            },
        );
        unbounded.assert_clean();
        tiny.assert_clean();
        assert!(
            tiny.memo_evictions > 0,
            "budget of 128 over {} unique nodes must evict",
            unbounded.unique_nodes
        );
        assert_eq!(tiny.leaves, unbounded.leaves);
        assert!(
            tiny.unique_nodes >= unbounded.unique_nodes,
            "eviction can only add re-exploration"
        );
    }

    #[test]
    fn parallel_symmetric_exploration_matches_sequential() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        let w = vec![
            vec![OpSpec::Cas { old: 0, new: 1 }],
            vec![OpSpec::Cas { old: 0, new: 1 }],
            vec![OpSpec::Cas { old: 0, new: 1 }],
        ];
        let base = ExploreConfig {
            symmetry: SymmetryMode::On,
            max_crashes: 1,
            max_retries: 1,
            max_leaves: usize::MAX,
            parallelism: 1,
            ..Default::default()
        };
        let seq = explore_engine(&cas, &mem, OpSource::PerProcess(&w), &base);
        for parallelism in [2, 4] {
            let par = explore_engine(
                &cas,
                &mem,
                OpSource::PerProcess(&w),
                &ExploreConfig {
                    parallelism,
                    ..base.clone()
                },
            );
            assert_eq!(par.leaves, seq.leaves, "parallelism {parallelism}");
            assert!(par.violation.is_none());
        }
    }

    #[test]
    fn tie_candidates_enumerate_each_class_permutation_once() {
        let mut out = Vec::new();
        let sorted_distinct = |out: &[usize], n: usize| {
            let mut c: Vec<&[usize]> = out.chunks(n).collect();
            c.sort();
            c.dedup();
            c.len()
        };
        // One class of three: 3! orderings.
        tie_candidates(&[0, 1, 2], |_, _| true, &mut out);
        assert_eq!((out.len() / 3, sorted_distinct(&out, 3)), (6, 6));
        // Classes {0, 2} and {1, 3} (equal parity) around the singleton
        // 4: 2! × 2! orderings, the singleton's slot fixed.
        let order = [0, 2, 4, 1, 3];
        tie_candidates(&order, |a, b| a % 2 == b % 2 && a != 4 && b != 4, &mut out);
        assert_eq!((out.len() / 5, sorted_distinct(&out, 5)), (4, 4));
        assert!(out.chunks(5).all(|c| c[2] == 4));
        // 5! = 120 exceeds the cap: the base ordering alone.
        tie_candidates(&[0, 1, 2, 3, 4], |_, _| true, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn script_mode_counts_match_with_and_without_pruning() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let script = [
            (Pid::new(0), OpSpec::Write(1)),
            (Pid::new(1), OpSpec::Read),
            (Pid::new(0), OpSpec::Write(2)),
        ];
        let a = explore_engine(
            &reg,
            &mem,
            OpSource::Script(&script),
            &ExploreConfig {
                max_crashes: 2,
                ..Default::default()
            },
        );
        let b = explore_engine(
            &reg,
            &mem,
            OpSource::Script(&script),
            &ExploreConfig {
                max_crashes: 2,
                prune: false,
                ..Default::default()
            },
        );
        a.assert_clean();
        b.assert_clean();
        assert_eq!(a.leaves, b.leaves);
    }
}
