//! Memory back-ends: deterministic simulation and real atomics.
//!
//! The [`Memory`] trait is the only interface algorithms use to touch NVM.
//! Each call is one *primitive operation* in the sense of the paper's model —
//! the unit of atomicity, and the granularity at which crashes are injected.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::layout::{Layout, Loc};
use crate::mapped::AnonWords;
use crate::stats::Stats;
use crate::word::{Pid, Word};

/// Atomic primitive operations on non-volatile memory.
///
/// `pid` identifies the executing process; the simulated back-end uses it to
/// enforce private-region ownership and to attribute operation counts.
pub trait Memory {
    /// Atomically reads the word at `loc`.
    fn read(&self, pid: Pid, loc: Loc) -> Word;

    /// Atomically writes `val` to `loc`.
    fn write(&self, pid: Pid, loc: Loc, val: Word);

    /// Atomically compares-and-swaps `loc` from `old` to `new`; returns
    /// whether the swap happened.
    fn cas(&self, pid: Pid, loc: Loc, old: Word, new: Word) -> bool;

    /// Explicitly persists the cell at `loc` (shared-cache model). A no-op in
    /// the private-cache model and on real atomics, where every primitive is
    /// applied directly to NVM.
    fn persist(&self, pid: Pid, loc: Loc);

    /// The layout this memory was built from.
    fn layout(&self) -> &Layout;
}

/// Which persistence model the simulated memory follows (paper Sections 2, 6).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// The paper's presentation model: primitives are applied directly to
    /// NVM; nothing is lost on a crash except process-local state.
    #[default]
    PrivateCache,
    /// The realistic model of Izraelevitz et al.: primitives are applied to a
    /// volatile cache; dirty cells survive a crash only if persisted
    /// explicitly (or written back by the crash policy).
    SharedCache,
}

/// What happens to dirty (unpersisted) cache cells at a crash.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CrashPolicy {
    /// Adversarial: every dirty cell is lost. The default for testing.
    DropAll,
    /// Benign: every dirty cell is written back (equivalent to the
    /// private-cache model).
    PersistAll,
    /// Each dirty cell is independently persisted or dropped, decided by a
    /// deterministic PRNG seeded with the given seed and the crash ordinal.
    RandomSubset(u64),
}

/// A lightweight undo-log mark produced by [`SimMemory::checkpoint`].
///
/// Checkpoints are strictly nested (LIFO): roll back the most recent one
/// first. [`SimMemory::rollback`] asserts the discipline.
#[derive(Debug)]
#[must_use = "a checkpoint keeps the undo journal alive until rolled back or discarded"]
pub struct Checkpoint {
    mark: usize,
    depth: usize,
}

/// One reversible mutation in the undo journal.
#[derive(Debug)]
enum UndoEntry {
    /// `nvm[idx]` held `old` before the mutation.
    Nvm { idx: u32, old: Word },
    /// The cache entry for `idx` was `old` (`None` = absent) before.
    Cache { idx: u32, old: Option<Word> },
    /// The crash counter held `old` before.
    Crashes { old: u64 },
}

/// Deterministic single-threaded simulated NVM.
///
/// Supports both cache modes, system-wide crashes, two ways to copy and
/// rewind state — a full [`fork`](Self::fork) and LIFO
/// [`checkpoint`](Self::checkpoint) / [`rollback`](Self::rollback) — plus
/// shared-state keys (used by the Theorem 1 census) and per-process
/// operation statistics.
///
/// # Example
///
/// ```
/// use nvm::{CacheMode, CrashPolicy, LayoutBuilder, Memory, Pid, SimMemory};
/// let mut b = LayoutBuilder::new();
/// let x = b.shared("X", 1, 64);
/// let mem = SimMemory::with_mode(b.finish(), CacheMode::SharedCache);
/// let p = Pid::new(0);
///
/// mem.write(p, x, 7);          // lands in the volatile cache
/// mem.crash(CrashPolicy::DropAll);
/// assert_eq!(mem.read(p, x), 0); // lost: never persisted
///
/// mem.write(p, x, 7);
/// mem.persist(p, x);           // explicit persist survives the crash
/// mem.crash(CrashPolicy::DropAll);
/// assert_eq!(mem.read(p, x), 7);
/// ```
#[derive(Debug)]
pub struct SimMemory {
    layout: Arc<Layout>,
    nvm: RefCell<Vec<Word>>,
    cache: RefCell<BTreeMap<u32, Word>>,
    mode: CacheMode,
    stats: RefCell<Stats>,
    crashes: RefCell<u64>,
    touched_shared: Cell<bool>,
    journal: RefCell<Vec<UndoEntry>>,
    journal_depth: Cell<usize>,
}

impl SimMemory {
    /// Creates a zero-initialized memory in the private-cache model.
    pub fn new(layout: Layout) -> Self {
        Self::with_mode(layout, CacheMode::PrivateCache)
    }

    /// Creates a zero-initialized memory in the given cache mode.
    pub fn with_mode(layout: Layout, mode: CacheMode) -> Self {
        let words = layout.total_words();
        SimMemory {
            layout: Arc::new(layout),
            nvm: RefCell::new(vec![0; words]),
            cache: RefCell::new(BTreeMap::new()),
            mode,
            stats: RefCell::new(Stats::default()),
            crashes: RefCell::new(0),
            touched_shared: Cell::new(false),
            journal: RefCell::new(Vec::new()),
            journal_depth: Cell::new(0),
        }
    }

    /// An independent copy of this memory's current logical state (layout
    /// shared, NVM/cache/crash-counter cloned, statistics and journal
    /// fresh). The parallel explorer gives each worker thread its own fork.
    pub fn fork(&self) -> SimMemory {
        SimMemory {
            layout: Arc::clone(&self.layout),
            nvm: RefCell::new(self.nvm.borrow().clone()),
            cache: RefCell::new(self.cache.borrow().clone()),
            mode: self.mode,
            stats: RefCell::new(Stats::default()),
            crashes: RefCell::new(*self.crashes.borrow()),
            touched_shared: Cell::new(false),
            journal: RefCell::new(Vec::new()),
            journal_depth: Cell::new(0),
        }
    }

    /// Clears the shared-access flag (see [`shared_touched`]).
    ///
    /// [`shared_touched`]: Self::shared_touched
    pub fn reset_shared_touch(&self) {
        self.touched_shared.set(false);
    }

    /// Whether any primitive has touched a **shared** cell since the last
    /// [`reset_shared_touch`](Self::reset_shared_touch). The exhaustive
    /// explorer uses this for partial-order reduction: steps that only touch
    /// a process's private cells commute with every other process's actions.
    pub fn shared_touched(&self) -> bool {
        self.touched_shared.get()
    }

    fn note_touch(&self, loc: Loc) {
        if self.layout.is_shared(loc) {
            self.touched_shared.set(true);
        }
    }

    /// The cache mode this memory simulates.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    fn check_access(&self, pid: Pid, loc: Loc) {
        if let Some(owner) = self.layout.owner_of(loc) {
            assert_eq!(
                owner, pid,
                "model violation: {pid} accessed private cell {loc} owned by {owner}"
            );
        }
        assert!(
            loc.index() < self.layout.total_words(),
            "access outside layout: {loc}"
        );
    }

    /// The current logical value of `loc` (cache overlay over NVM), without
    /// ownership checks or statistics. For harness/checker use.
    pub fn peek(&self, loc: Loc) -> Word {
        if let Some(&w) = self.cache.borrow().get(&(loc.index() as u32)) {
            return w;
        }
        self.nvm.borrow()[loc.index()]
    }

    /// Directly sets the logical value of `loc`, bypassing the model (used by
    /// tests to fabricate states). In shared-cache mode the value is written
    /// through to NVM.
    pub fn poke(&self, loc: Loc, val: Word) {
        self.log_cache(loc.index());
        self.log_nvm(loc.index());
        self.cache.borrow_mut().remove(&(loc.index() as u32));
        self.nvm.borrow_mut()[loc.index()] = val;
    }

    /// Simulates a system-wide crash: dirty cache cells are persisted or
    /// dropped per `policy`, then the cache is cleared. Local (volatile)
    /// state of processes is *not* this type's concern — the driver drops the
    /// in-flight step machines.
    pub fn crash(&self, policy: CrashPolicy) {
        let journaling = self.journaling();
        let mut cache = self.cache.borrow_mut();
        let mut nvm = self.nvm.borrow_mut();
        let ordinal = {
            let mut c = self.crashes.borrow_mut();
            if journaling {
                self.journal
                    .borrow_mut()
                    .push(UndoEntry::Crashes { old: *c });
            }
            *c += 1;
            *c
        };
        let mut write_back = |journal: &RefCell<Vec<UndoEntry>>, i: u32, w: Word| {
            if journaling {
                journal.borrow_mut().push(UndoEntry::Nvm {
                    idx: i,
                    old: nvm[i as usize],
                });
            }
            nvm[i as usize] = w;
        };
        match policy {
            CrashPolicy::DropAll => {}
            CrashPolicy::PersistAll => {
                for (&i, &w) in cache.iter() {
                    write_back(&self.journal, i, w);
                }
            }
            CrashPolicy::RandomSubset(seed) => {
                let mut state = seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (&i, &w) in cache.iter() {
                    // xorshift64*
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state & 1 == 1 {
                        write_back(&self.journal, i, w);
                    }
                }
            }
        }
        if journaling {
            let mut journal = self.journal.borrow_mut();
            for (&i, &w) in cache.iter() {
                journal.push(UndoEntry::Cache {
                    idx: i,
                    old: Some(w),
                });
            }
        }
        cache.clear();
        self.stats.borrow_mut().crashes += 1;
    }

    /// Number of crashes simulated so far.
    pub fn crash_count(&self) -> u64 {
        *self.crashes.borrow()
    }

    // ── undo-log journaling ──────────────────────────────────────────────

    fn journaling(&self) -> bool {
        self.journal_depth.get() > 0
    }

    fn log_nvm(&self, idx: usize) {
        if self.journaling() {
            self.journal.borrow_mut().push(UndoEntry::Nvm {
                idx: idx as u32,
                old: self.nvm.borrow()[idx],
            });
        }
    }

    fn log_cache(&self, idx: usize) {
        if self.journaling() {
            self.journal.borrow_mut().push(UndoEntry::Cache {
                idx: idx as u32,
                old: self.cache.borrow().get(&(idx as u32)).copied(),
            });
        }
    }

    /// Opens an undo-log checkpoint: every subsequent mutation (including
    /// crashes and [`load_words`](Self::load_words)) is journaled until the
    /// matching [`rollback`](Self::rollback). Cost: O(1) now, O(writes since
    /// the checkpoint) to roll back — the cheap branch primitive for
    /// state-space search, where a full [`fork`](Self::fork) would copy the
    /// whole memory.
    ///
    /// Checkpoints nest LIFO; each must be rolled back (or leaked — see
    /// [`discard`](Self::discard)) in reverse order of creation.
    pub fn checkpoint(&self) -> Checkpoint {
        let depth = self.journal_depth.get() + 1;
        self.journal_depth.set(depth);
        self.stats.borrow_mut().checkpoints += 1;
        Checkpoint {
            mark: self.journal.borrow().len(),
            depth,
        }
    }

    /// Rewinds every mutation journaled since `cp` was taken, consuming it.
    /// Statistics are not rewound.
    ///
    /// # Panics
    ///
    /// Panics if `cp` is not the innermost live checkpoint (LIFO violation).
    pub fn rollback(&self, cp: Checkpoint) {
        assert_eq!(
            cp.depth,
            self.journal_depth.get(),
            "checkpoint rollback out of LIFO order"
        );
        let mut journal = self.journal.borrow_mut();
        let mut nvm = self.nvm.borrow_mut();
        let mut cache = self.cache.borrow_mut();
        while journal.len() > cp.mark {
            match journal.pop().expect("journal length checked") {
                UndoEntry::Nvm { idx, old } => nvm[idx as usize] = old,
                UndoEntry::Cache { idx, old } => match old {
                    Some(w) => {
                        cache.insert(idx, w);
                    }
                    None => {
                        cache.remove(&idx);
                    }
                },
                UndoEntry::Crashes { old } => *self.crashes.borrow_mut() = old,
            }
        }
        self.journal_depth.set(cp.depth - 1);
        self.stats.borrow_mut().rollbacks += 1;
    }

    /// Closes `cp` without rewinding: the mutations made since it stand,
    /// and its journal entries are absorbed by the enclosing checkpoint (or
    /// dropped if it was outermost).
    ///
    /// # Panics
    ///
    /// Panics if `cp` is not the innermost live checkpoint.
    pub fn discard(&self, cp: Checkpoint) {
        assert_eq!(
            cp.depth,
            self.journal_depth.get(),
            "checkpoint discard out of LIFO order"
        );
        self.journal_depth.set(cp.depth - 1);
        if cp.depth == 1 {
            self.journal.borrow_mut().clear();
        }
    }

    /// Appends the complete simulated state to `out` as exact words: the
    /// NVM contents, the dirty-cache overlay as a count followed by
    /// `(index, value)` pairs (dirtiness included — two states with equal
    /// logical values but different unpersisted sets behave differently at
    /// the next crash), and the crash ordinal (which seeds
    /// [`CrashPolicy::RandomSubset`]). For a fixed layout the encoding is
    /// injective: two `SimMemory` states append equal words exactly when
    /// they are indistinguishable to every future primitive, crash, and
    /// persist. The exhaustive explorer builds its memo key on it.
    pub fn state_words_into(&self, out: &mut Vec<Word>) {
        out.extend_from_slice(&self.nvm.borrow());
        let cache = self.cache.borrow();
        out.push(cache.len() as Word);
        for (&i, &w) in cache.iter() {
            out.extend([Word::from(i), w]);
        }
        out.push(*self.crashes.borrow());
    }

    /// Fills `out` (cleared first) with the logical contents of all NVM —
    /// the allocation-free [`full_key`](Self::full_key), for hot loops that
    /// read the image into a reusable scratch buffer (the census reads one
    /// per generated successor).
    pub fn logical_words_into(&self, out: &mut Vec<Word>) {
        out.clear();
        out.extend_from_slice(&self.nvm.borrow());
        for (&i, &w) in self.cache.borrow().iter() {
            out[i as usize] = w;
        }
    }

    /// Installs `words` as the memory's logical contents: NVM takes the
    /// image verbatim and the cache is cleared (every cell persisted). The
    /// crash ordinal is untouched.
    ///
    /// This is the restore half of the census arena: for **crash-free**
    /// continuations a state is fully determined by its logical words
    /// (equal [`full_key`](Self::full_key)s behave identically under every
    /// future primitive), so a search node can be reconstituted from the
    /// interned image alone. Searches that inject crashes must copy the
    /// whole state ([`fork`](Self::fork), or a checkpoint) — dirtiness is
    /// behavior there, and this method erases it.
    ///
    /// Under an open [`checkpoint`](Self::checkpoint) every overwritten word
    /// and every cleared cache cell is journaled, so `rollback` restores
    /// the previous state, dirtiness included.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not span the layout exactly.
    pub fn load_words(&self, words: &[Word]) {
        assert_eq!(
            words.len(),
            self.layout.total_words(),
            "logical image width != layout words"
        );
        let mut nvm = self.nvm.borrow_mut();
        let mut cache = self.cache.borrow_mut();
        if self.journaling() {
            let mut journal = self.journal.borrow_mut();
            journal.extend(
                nvm.iter()
                    .enumerate()
                    .map(|(i, &old)| UndoEntry::Nvm { idx: i as u32, old }),
            );
            journal.extend(
                cache
                    .iter()
                    .map(|(&idx, &w)| UndoEntry::Cache { idx, old: Some(w) }),
            );
        }
        nvm.copy_from_slice(words);
        cache.clear();
    }

    /// Fills `out` with this memory's word contents under the process-id
    /// permutation `perm` (`perm[p]` is the new identity of process `p`):
    /// private cells are relocated wholesale along the layout's
    /// [`private_slots`](Layout::private_slots) correspondence, shared cells
    /// are copied verbatim. With `overlay` the *logical* values are taken
    /// (cache overlay applied); without it the raw NVM contents, so
    /// shared-cache explorers can canonicalize the `(NVM, logical)` pair
    /// that determines all future behavior.
    ///
    /// This is the layout-generic half of orbit canonicalization for
    /// symmetry-reduced search: pid-dependent encodings *inside* words
    /// (packed per-process bit vectors, stored process ids) are the
    /// object's business — see `RecoverableObject::permute_memory` in the
    /// `detectable` crate, which rewrites them in the filled buffer.
    ///
    /// Returns `false` (leaving `out` unspecified) when the layout has no
    /// private-cell correspondence or `perm`'s length disagrees with it.
    pub fn logical_words_permuted(&self, perm: &[u32], overlay: bool, out: &mut Vec<Word>) -> bool {
        let Some(slots) = self.layout.private_slots() else {
            return false;
        };
        if slots.len() != perm.len() {
            return false;
        }
        debug_assert!(
            {
                let mut seen = vec![false; perm.len()];
                perm.iter().all(|&q| {
                    (q as usize) < seen.len() && !std::mem::replace(&mut seen[q as usize], true)
                })
            },
            "perm is not a permutation: {perm:?}"
        );
        let nvm = self.nvm.borrow();
        let cache = self.cache.borrow();
        out.clear();
        out.extend_from_slice(&nvm);
        if overlay {
            for (&i, &w) in cache.iter() {
                out[i as usize] = w;
            }
        }
        if perm.iter().enumerate().all(|(p, &q)| p as u32 == q) {
            return true; // identity: nothing moves
        }
        let source = |i: u32| {
            let cached = if overlay { cache.get(&i) } else { None };
            cached.copied().unwrap_or(nvm[i as usize])
        };
        for (p, &q) in perm.iter().enumerate() {
            for (&src, &dst) in slots[p].iter().zip(&slots[q as usize]) {
                out[dst as usize] = source(src);
            }
        }
        true
    }

    /// Exact logical shared-memory contents, usable as a census key.
    /// Builds the shared slice directly (cache overlay applied per cell)
    /// instead of materializing the full logical word vector — this runs
    /// once per generated successor on the census hot path.
    pub fn shared_key(&self) -> Vec<Word> {
        let nvm = self.nvm.borrow();
        let cache = self.cache.borrow();
        if cache.is_empty() {
            (0..nvm.len())
                .filter(|&i| self.layout.is_shared(Loc(i as u32)))
                .map(|i| nvm[i])
                .collect()
        } else {
            (0..nvm.len())
                .filter(|&i| self.layout.is_shared(Loc(i as u32)))
                .map(|i| cache.get(&(i as u32)).copied().unwrap_or(nvm[i]))
                .collect()
        }
    }

    /// Exact logical contents of *all* NVM (shared and private), usable as a
    /// full-configuration key in state-space searches.
    pub fn full_key(&self) -> Vec<Word> {
        let mut words = Vec::new();
        self.logical_words_into(&mut words);
        words
    }

    /// A copy of the operation statistics.
    pub fn stats(&self) -> Stats {
        self.stats.borrow().clone()
    }
}

impl Memory for SimMemory {
    fn read(&self, pid: Pid, loc: Loc) -> Word {
        self.check_access(pid, loc);
        self.note_touch(loc);
        self.stats.borrow_mut().record_read(pid);
        self.peek(loc)
    }

    fn write(&self, pid: Pid, loc: Loc, val: Word) {
        self.check_access(pid, loc);
        self.note_touch(loc);
        self.stats.borrow_mut().record_write(pid);
        match self.mode {
            CacheMode::PrivateCache => {
                self.log_nvm(loc.index());
                self.nvm.borrow_mut()[loc.index()] = val;
            }
            CacheMode::SharedCache => {
                self.log_cache(loc.index());
                self.cache.borrow_mut().insert(loc.index() as u32, val);
            }
        }
    }

    fn cas(&self, pid: Pid, loc: Loc, old: Word, new: Word) -> bool {
        self.check_access(pid, loc);
        self.note_touch(loc);
        let cur = self.peek(loc);
        let ok = cur == old;
        self.stats.borrow_mut().record_cas(pid, ok);
        if ok {
            match self.mode {
                CacheMode::PrivateCache => {
                    self.log_nvm(loc.index());
                    self.nvm.borrow_mut()[loc.index()] = new;
                }
                CacheMode::SharedCache => {
                    self.log_cache(loc.index());
                    self.cache.borrow_mut().insert(loc.index() as u32, new);
                }
            }
        }
        ok
    }

    fn persist(&self, pid: Pid, loc: Loc) {
        self.check_access(pid, loc);
        self.note_touch(loc);
        self.stats.borrow_mut().record_persist(pid);
        if self.mode == CacheMode::SharedCache {
            self.log_cache(loc.index());
            if let Some(w) = self.cache.borrow_mut().remove(&(loc.index() as u32)) {
                self.log_nvm(loc.index());
                self.nvm.borrow_mut()[loc.index()] = w;
            }
        }
    }

    fn layout(&self) -> &Layout {
        &self.layout
    }
}

/// `AtomicU64`-backed memory for multi-threaded benchmarks and stress tests.
///
/// All operations use sequentially consistent ordering, matching the model's
/// assumption that primitives are atomic and totally ordered. `persist` is a
/// no-op: real CPUs persist through cache flushes this harness does not model
/// at benchmark fidelity.
#[derive(Debug)]
pub struct AtomicMemory {
    layout: Arc<Layout>,
    words: AnonWords,
}

impl AtomicMemory {
    /// Creates a zero-initialized atomic memory (an anonymous mapping, see
    /// `AnonWords` in [`crate::mapped`]).
    pub fn new(layout: Layout) -> Self {
        AtomicMemory {
            words: AnonWords::new(layout.total_words()),
            layout: Arc::new(layout),
        }
    }

    /// The current value of `loc` (for assertions in tests).
    pub fn peek(&self, loc: Loc) -> Word {
        self.words[loc.index()].load(Ordering::SeqCst)
    }
}

impl Memory for AtomicMemory {
    fn read(&self, _pid: Pid, loc: Loc) -> Word {
        self.words[loc.index()].load(Ordering::SeqCst)
    }

    fn write(&self, _pid: Pid, loc: Loc, val: Word) {
        self.words[loc.index()].store(val, Ordering::SeqCst);
    }

    fn cas(&self, _pid: Pid, loc: Loc, old: Word, new: Word) -> bool {
        self.words[loc.index()]
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn persist(&self, _pid: Pid, _loc: Loc) {}

    fn layout(&self) -> &Layout {
        &self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;

    fn mem(mode: CacheMode) -> (SimMemory, Loc, Loc) {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 2, 64);
        let r = b.private_array("RD", 2, 1, 64);
        (SimMemory::with_mode(b.finish(), mode), x, r)
    }

    #[test]
    fn read_write_roundtrip() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        m.write(p, x, 11);
        assert_eq!(m.read(p, x), 11);
        assert_eq!(m.read(p, x.at(1)), 0);
    }

    #[test]
    fn cas_semantics() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        assert!(m.cas(p, x, 0, 5));
        assert!(!m.cas(p, x, 0, 6));
        assert_eq!(m.read(p, x), 5);
        assert!(m.cas(p, x, 5, 6));
        assert_eq!(m.read(p, x), 6);
    }

    #[test]
    fn private_cache_survives_crash() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        m.write(p, x, 9);
        m.crash(CrashPolicy::DropAll);
        assert_eq!(m.read(p, x), 9);
    }

    #[test]
    fn shared_cache_drops_unpersisted() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 9);
        assert_eq!(m.read(p, x), 9); // visible before the crash
        m.crash(CrashPolicy::DropAll);
        assert_eq!(m.read(p, x), 0);
    }

    #[test]
    fn shared_cache_persist_survives() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 9);
        m.persist(p, x);
        m.crash(CrashPolicy::DropAll);
        assert_eq!(m.read(p, x), 9);
    }

    #[test]
    fn shared_cache_persist_all_policy() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 9);
        m.crash(CrashPolicy::PersistAll);
        assert_eq!(m.read(p, x), 9);
    }

    #[test]
    fn shared_cache_cas_applies_to_cache() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        assert!(m.cas(p, x, 0, 3));
        assert_eq!(m.read(p, x), 3);
        m.crash(CrashPolicy::DropAll);
        // The CAS result was never persisted.
        assert_eq!(m.read(p, x), 0);
    }

    #[test]
    fn random_subset_policy_is_deterministic() {
        let run = |seed| {
            let (m, x, _) = mem(CacheMode::SharedCache);
            let p = Pid::new(0);
            m.write(p, x, 1);
            m.write(p, x.at(1), 2);
            m.crash(CrashPolicy::RandomSubset(seed));
            (m.read(p, x), m.read(p, x.at(1)))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "model violation")]
    fn ownership_is_enforced() {
        let (m, _, rd) = mem(CacheMode::PrivateCache);
        // p1 touches p0's private cell.
        m.read(Pid::new(1), rd);
    }

    #[test]
    fn ownership_allows_owner() {
        let (m, _, rd) = mem(CacheMode::PrivateCache);
        m.write(Pid::new(1), rd.at(1), 3);
        assert_eq!(m.read(Pid::new(1), rd.at(1)), 3);
    }

    #[test]
    fn fingerprint_ignores_private_cells() {
        let (m, _x, rd) = mem(CacheMode::PrivateCache);
        let f0 = m.shared_key();
        m.write(Pid::new(0), rd, 55);
        assert_eq!(m.shared_key(), f0);
        m.write(Pid::new(0), Loc(0), 1);
        assert_ne!(m.shared_key(), f0);
    }

    #[test]
    fn shared_key_reflects_cache_overlay() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 77); // dirty, not persisted
        assert_eq!(m.shared_key()[0], 77);
    }

    #[test]
    fn stats_accounting() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        m.write(p, x, 1);
        let _ = m.read(p, x);
        let _ = m.cas(p, x, 1, 2);
        let _ = m.cas(p, x, 1, 3);
        m.persist(p, x);
        let s = m.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failures, 1);
        assert_eq!(s.persists, 1);
    }

    #[test]
    fn atomic_memory_matches_semantics() {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 1, 64);
        let m = AtomicMemory::new(b.finish());
        let p = Pid::new(0);
        m.write(p, x, 4);
        assert_eq!(m.read(p, x), 4);
        assert!(m.cas(p, x, 4, 5));
        assert!(!m.cas(p, x, 4, 6));
        assert_eq!(m.peek(x), 5);
        m.persist(p, x); // no-op, must not panic
    }

    #[test]
    fn atomic_memory_starts_zeroed_at_any_size() {
        for words in [1, 512, 1 << 20] {
            let mut b = LayoutBuilder::new();
            let x = b.shared("X", words, 64);
            let m = AtomicMemory::new(b.finish());
            assert_eq!(m.peek(x), 0);
            assert_eq!(m.peek(x.at(words as usize - 1)), 0);
            m.write(Pid::new(0), x.at(words as usize - 1), 7);
            assert_eq!(m.peek(x.at(words as usize - 1)), 7);
        }
        // An empty layout maps no words but must still build and drop.
        drop(AtomicMemory::new(LayoutBuilder::new().finish()));
    }

    #[test]
    fn checkpoint_rollback_roundtrip_private_cache() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        m.write(p, x, 1);
        let before = state_words(&m);
        let cp = m.checkpoint();
        m.write(p, x, 2);
        assert!(m.cas(p, x, 2, 3));
        m.write(p, x.at(1), 9);
        m.rollback(cp);
        assert_eq!(state_words(&m), before);
        assert_eq!(m.read(p, x), 1);
        assert_eq!(m.read(p, x.at(1)), 0);
    }

    #[test]
    fn checkpoint_rollback_covers_crash_and_persist() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 1);
        m.persist(p, x);
        m.write(p, x.at(1), 2); // dirty
        let before = state_words(&m);
        let cp = m.checkpoint();
        m.write(p, x, 7);
        m.persist(p, x);
        m.crash(CrashPolicy::DropAll);
        m.write(p, x.at(1), 8);
        m.crash(CrashPolicy::PersistAll);
        m.rollback(cp);
        assert_eq!(state_words(&m), before);
        assert_eq!(m.crash_count(), 0);
        assert_eq!(m.read(p, x.at(1)), 2); // dirty value restored to cache
        m.crash(CrashPolicy::DropAll);
        assert_eq!(m.read(p, x.at(1)), 0); // and it is genuinely dirty again
    }

    #[test]
    fn nested_checkpoints_rollback_in_lifo_order() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        let outer = m.checkpoint();
        m.write(p, x, 1);
        let inner = m.checkpoint();
        m.write(p, x, 2);
        m.rollback(inner);
        assert_eq!(m.read(p, x), 1);
        m.rollback(outer);
        assert_eq!(m.read(p, x), 0);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_rollback_panics() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let outer = m.checkpoint();
        let _inner = m.checkpoint();
        m.write(Pid::new(0), x, 1);
        m.rollback(outer);
    }

    #[test]
    fn discard_keeps_mutations_and_feeds_outer_checkpoint() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let p = Pid::new(0);
        let outer = m.checkpoint();
        let inner = m.checkpoint();
        m.write(p, x, 5);
        m.discard(inner);
        assert_eq!(m.read(p, x), 5);
        m.rollback(outer); // the discarded branch's writes still rewind
        assert_eq!(m.read(p, x), 0);
    }

    fn state_words(m: &SimMemory) -> Vec<Word> {
        let mut out = Vec::new();
        m.state_words_into(&mut out);
        out
    }

    #[test]
    fn state_words_distinguish_dirtiness_and_crash_ordinal() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 5);
        let dirty = state_words(&m);
        m.persist(p, x);
        let clean = state_words(&m);
        // Same logical value, different persistence state.
        assert_ne!(dirty, clean);
        m.crash(CrashPolicy::DropAll);
        // Same logical value and empty cache, but the crash ordinal moved.
        assert_ne!(state_words(&m), clean);
    }

    #[test]
    fn full_key_ignores_dirtiness_and_crash_ordinal() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 5);
        let dirty = m.full_key();
        m.persist(p, x);
        // Same logical value, different persistence state: equal.
        assert_eq!(m.full_key(), dirty);
        m.crash(CrashPolicy::PersistAll);
        // Crash ordinal moved, logical contents did not.
        assert_eq!(m.full_key(), dirty);
        m.write(p, x, 6);
        assert_ne!(m.full_key(), dirty);
        // Equal logical contents reached through different dirty/clean
        // representations give equal keys.
        let (m2, x2, _) = mem(CacheMode::SharedCache);
        m2.write(p, x2, 6);
        m2.crash(CrashPolicy::PersistAll);
        assert_eq!(m2.full_key(), m.full_key());
    }

    #[test]
    fn shared_key_skips_private_cells_and_applies_overlay() {
        let (m, x, rd) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 3); // dirty shared cell
        m.write(p, x.at(1), 4);
        m.persist(p, x.at(1));
        m.write(p, rd, 9); // private: must not appear
        let key = m.shared_key();
        assert_eq!(key, vec![3, 4]);
        // The direct builder agrees with extracting from the full logical
        // vector.
        let mut extracted = Vec::new();
        m.layout.shared_words_into(&m.full_key(), &mut extracted);
        assert_eq!(key, extracted);
    }

    #[test]
    fn state_words_equal_for_equal_states() {
        let run = || {
            let (m, x, _) = mem(CacheMode::SharedCache);
            let p = Pid::new(0);
            m.write(p, x, 3);
            m.persist(p, x);
            m.write(p, x.at(1), 4);
            state_words(&m)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fork_is_independent() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 1);
        m.persist(p, x);
        m.write(p, x.at(1), 2); // dirty
        let f = m.fork();
        assert_eq!(state_words(&f), state_words(&m));
        f.write(p, x, 9);
        assert_eq!(m.read(p, x), 1);
        assert_ne!(state_words(&f), state_words(&m));
        // Stats start fresh in the fork.
        assert_eq!(f.stats().writes, 1);
    }

    #[test]
    fn logical_words_permuted_relocates_private_slices() {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 1, 64);
        let rd = b.private_array("RD", 3, 2, 64);
        let m = SimMemory::new(b.finish());
        m.write(Pid::new(0), x, 99);
        for p in 0..3u32 {
            m.write(Pid::new(p), rd.at(p as usize * 2), u64::from(10 * p));
            m.write(
                Pid::new(p),
                rd.at(p as usize * 2 + 1),
                u64::from(10 * p + 1),
            );
        }
        let mut out = Vec::new();
        // Rotate 0→1→2→0.
        assert!(m.logical_words_permuted(&[1, 2, 0], true, &mut out));
        assert_eq!(out[x.index()], 99, "shared cells stay put");
        // p2's new slice (index 2) holds old p1's data.
        assert_eq!(&out[rd.at(4).index()..=rd.at(5).index()], &[10, 11]);
        // p0's new slice holds old p2's data.
        assert_eq!(&out[rd.at(0).index()..=rd.at(1).index()], &[20, 21]);

        // Identity permutation reproduces full_key.
        assert!(m.logical_words_permuted(&[0, 1, 2], true, &mut out));
        assert_eq!(out, m.full_key());

        // Wrong arity is rejected.
        assert!(!m.logical_words_permuted(&[1, 0], true, &mut out));
    }

    #[test]
    fn logical_words_permuted_overlay_flag_selects_nvm_or_logical() {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 1, 64);
        let _rd = b.private_array("RD", 2, 1, 64);
        let m = SimMemory::with_mode(b.finish(), CacheMode::SharedCache);
        m.write(Pid::new(0), x, 7); // dirty: in cache, not NVM
        let mut out = Vec::new();
        assert!(m.logical_words_permuted(&[0, 1], true, &mut out));
        assert_eq!(out[x.index()], 7);
        assert!(m.logical_words_permuted(&[0, 1], false, &mut out));
        assert_eq!(out[x.index()], 0, "raw NVM ignores the dirty overlay");
    }

    #[test]
    fn checkpoint_stats_are_counted() {
        let (m, x, _) = mem(CacheMode::PrivateCache);
        let cp = m.checkpoint();
        m.write(Pid::new(0), x, 1);
        m.rollback(cp);
        let s = m.stats();
        assert_eq!((s.checkpoints, s.rollbacks), (1, 1));
    }

    #[test]
    fn load_words_installs_a_clean_logical_image() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 5); // dirty
        let mut image = Vec::new();
        m.logical_words_into(&mut image);
        assert_eq!(image, m.full_key(), "scratch read matches full_key");

        let (m2, x2, _) = mem(CacheMode::SharedCache);
        m2.load_words(&image);
        assert_eq!(m2.full_key(), image);
        // The image is installed persisted: a crash loses nothing.
        m2.crash(CrashPolicy::DropAll);
        assert_eq!(m2.read(p, x2), 5);
    }

    #[test]
    fn load_words_under_checkpoint_rolls_back() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x.at(1), 3);
        m.persist(p, x.at(1));
        m.write(p, x, 1); // dirty
        let before = state_words(&m);
        let cp = m.checkpoint();
        m.load_words(&vec![9; m.layout.total_words()]);
        assert_eq!(m.read(p, x), 9);
        m.write(p, x, 4); // dirty again on top of the loaded image
        m.crash(CrashPolicy::DropAll);
        m.rollback(cp);
        assert_eq!(state_words(&m), before, "dirtiness restored too");
        m.crash(CrashPolicy::DropAll);
        assert_eq!((m.read(p, x), m.read(p, x.at(1))), (0, 3));
    }

    #[test]
    #[should_panic(expected = "layout words")]
    fn load_words_rejects_wrong_width() {
        let (m, _, _) = mem(CacheMode::PrivateCache);
        m.load_words(&[1]);
    }

    #[test]
    fn poke_bypasses_cache() {
        let (m, x, _) = mem(CacheMode::SharedCache);
        let p = Pid::new(0);
        m.write(p, x, 9); // dirty
        m.poke(x, 2);
        assert_eq!(m.read(p, x), 2);
        m.crash(CrashPolicy::DropAll);
        assert_eq!(m.read(p, x), 2); // poke wrote through
    }
}
