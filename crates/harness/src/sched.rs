//! Work-stealing scheduler of the parallel census BFS: per-worker deques
//! in the Chase-Lev discipline, randomized stealing, exponential backoff,
//! parking, and sharded pending-count termination detection. The census
//! is its only user; the explorer parallelizes without it (its helpers
//! share a memo, not a queue — see [`explore`](mod@crate::explore)). This
//! module also holds [`SchedStats`], the worker counters every engine
//! reports, and [`resolve_parallelism`].
//!
//! # Deque discipline
//!
//! Each worker owns one deque. The owner pushes and pops at the **back**
//! (LIFO, so a worker chases its own most recent successors while they are
//! cache-hot); idle workers steal a chunk from a victim's **front** — the
//! oldest entries, the ones the owner is furthest from touching. That is
//! the Chase-Lev owner-bottom/stealer-top split; the classic algorithm
//! makes the owner's end lock-free with raw atomics, which `harness`
//! forbids (`#![forbid(unsafe_code)]`), so each deque is a `Mutex<VecDeque>`
//! instead. The discipline — not the memory-ordering trick — is what kills
//! the old shared-frontier bottleneck: an owner's push/pop takes its own
//! almost-always-uncontended lock, and cross-worker traffic (the only
//! contended path) happens exactly at steals, which are rare once every
//! worker has work.
//!
//! # Termination detection
//!
//! A global pending count would put every push and pop on one contended
//! cache line, so completion is tracked **sharded**: worker `w` increments
//! `created[w]` for every task it enqueues (seeds included) and
//! `finished[w]` after fully processing one. Quiescence is detected by a
//! two-pass sweep that reads **all `finished` counters first, then all
//! `created`** (both `SeqCst`). If `Σfinished` (read earlier) equals
//! `Σcreated` (read later), then at the moment the finished sweep completed
//! every task ever created had finished: `created` is monotone, so
//! `Σcreated(t₁) ≤ Σcreated(t₂) = Σfinished(t₁) ≤ Σcreated(t₁)` forces
//! equality at `t₁`. New tasks are only created by a task still being
//! processed (a worker pushes successors **before** calling
//! `Worker::complete`) or by pre-spawn seeding, so a quiescent system
//! stays quiescent — the sweep can never report termination while work is
//! in flight.
//!
//! # Idling: backoff, then park
//!
//! A worker that finds its own deque empty and every victim empty spins a
//! few exponentially growing rounds (cheap, keeps latency low when a
//! sibling is about to publish successors) and then parks on a condvar.
//! Parks are rare and pushes are not, so a push only touches the park lock
//! when someone may be asleep. Every push bumps a `signal` epoch, then
//! reads a `sleepers` count and notifies under the park lock only if it is
//! nonzero. A parker snapshots the epoch before its last steal sweep; under
//! the park lock it increments `sleepers`, then rechecks the epoch and
//! refuses to sleep if it moved. Both sides write, then read the other's
//! variable, all `SeqCst` (Dekker's pattern), so at least one sees the
//! other: the parker sees the new epoch and stays up, or the pusher sees
//! the sleeper and takes the lock, which the parker holds until it is
//! waiting, so the notify cannot be lost. The wait also carries a short
//! timeout as a liveness backstop, so the final "everyone go home"
//! transition needs no dedicated broadcaster: a parked worker wakes within
//! a millisecond of quiescence at worst and observes it in its own sweep.
//!
//! # Panic propagation
//!
//! Every `Worker` is a drop guard: leaving the worker loop — normally or
//! by unwinding — flips a shared `aborted` flag and wakes all sleepers.
//! After a normal exit this is a no-op in effect (a worker only returns
//! once the system is quiescent, when every sibling is exiting anyway);
//! after a panic it unblocks the siblings so `thread::scope` can join
//! everyone and propagate the original panic instead of hanging.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Worker counters for one parallel run, reported through
/// [`RunStats`](crate::RunStats) into every `--json` stream. The census's
/// scheduler fills every field; the explorer, which runs no scheduler,
/// fills only `workers` and `per_worker_expansions`. All zeros (with an
/// empty per-worker vector) for sequential explorations and for engines
/// that report no workers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker threads the scheduler ran.
    pub workers: u64,
    /// Successful steals: an idle worker took a chunk from a victim.
    pub steals: u64,
    /// Full victim sweeps that found every deque empty.
    pub steal_failures: u64,
    /// Times a worker parked on the idle condvar.
    pub parks: u64,
    /// Staged intern batches flushed to the state arena (census engines;
    /// the explorer does not intern).
    pub flush_batches: u64,
    /// Nodes expanded by each worker, indexed by worker id. A census task
    /// is one node. The explorer counts every node each worker's
    /// depth-first search expanded, worker 0 (the canonical search) first;
    /// the sum is its `unique_nodes`.
    pub per_worker_expansions: Vec<u64>,
}

impl SchedStats {
    /// Folds `other` into `self` for sweep aggregation: counters sum,
    /// `workers` takes the max (cells run one scheduler at a time), and
    /// the per-worker vector sums element-wise.
    pub fn accumulate(&mut self, other: &SchedStats) {
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        self.steal_failures += other.steal_failures;
        self.parks += other.parks;
        self.flush_batches += other.flush_batches;
        if self.per_worker_expansions.len() < other.per_worker_expansions.len() {
            self.per_worker_expansions
                .resize(other.per_worker_expansions.len(), 0);
        }
        for (mine, theirs) in self
            .per_worker_expansions
            .iter_mut()
            .zip(&other.per_worker_expansions)
        {
            *mine += theirs;
        }
    }
}

/// Resolves a requested worker-thread count: `0` — the [`BfsConfig`](crate::BfsConfig) and
/// [`ExploreConfig`](crate::ExploreConfig) default — means "use the host", i.e.
/// `std::thread::available_parallelism()` (falling back to 1 when the host
/// cannot report it). Any explicit nonzero request is honored as given.
pub fn resolve_parallelism(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// A worker-indexed `AtomicU64` padded to its own cache line so the
/// created/finished counters (bumped on every task) never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// Per-worker chunk cap on one steal: enough to amortize the victim lock,
/// small enough that a thief never starves the owner it robbed.
const STEAL_MAX: usize = 16;

/// Failed full-victim sweeps before a worker parks. Each sweep is followed
/// by an exponentially growing spin, so this bounds the busy-wait window.
const SPIN_SWEEPS: u32 = 6;

/// Park timeout: the liveness backstop for the final quiescence wakeup.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// The shared work-stealing state: one deque per worker plus termination
/// counters and the idle/abort machinery. See the [module docs](self).
pub(crate) struct Scheduler<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    created: Vec<PaddedCounter>,
    finished: Vec<PaddedCounter>,
    expansions: Vec<PaddedCounter>,
    steals: AtomicU64,
    steal_failures: AtomicU64,
    parks: AtomicU64,
    /// Epoch bumped on every push; parkers recheck it before sleeping.
    signal: AtomicU64,
    /// Workers inside [`Worker::park`]: a push notifies only when nonzero.
    sleepers: AtomicU64,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    aborted: AtomicBool,
}

impl<T> Scheduler<T> {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a scheduler needs at least one worker");
        Scheduler {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            created: (0..workers).map(|_| PaddedCounter::default()).collect(),
            finished: (0..workers).map(|_| PaddedCounter::default()).collect(),
            expansions: (0..workers).map(|_| PaddedCounter::default()).collect(),
            steals: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            signal: AtomicU64::new(0),
            sleepers: AtomicU64::new(0),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Distributes initial tasks round-robin before any worker starts (no
    /// signal needed: workers have not begun sleeping yet).
    pub(crate) fn seed(&self, items: impl IntoIterator<Item = T>) {
        let workers = self.deques.len();
        for (k, item) in items.into_iter().enumerate() {
            let w = k % workers;
            self.created[w].0.fetch_add(1, Ordering::SeqCst);
            self.deques[w]
                .lock()
                .expect("scheduler deque poisoned")
                .push_back(item);
        }
    }

    /// The handle worker `id` drives its loop through. Each id must be
    /// handed to exactly one thread.
    pub(crate) fn worker(&self, id: usize) -> Worker<'_, T> {
        assert!(id < self.deques.len(), "worker id out of range");
        Worker {
            sched: self,
            id,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((id as u64 + 1) << 32 | 0xDEAD_BEEF),
        }
    }

    /// Whether every created task has finished. Reads all `finished`
    /// counters strictly before all `created` counters — see the
    /// [module docs](self) for why that order makes the sweep sound.
    fn quiescent(&self) -> bool {
        let finished: u64 = self
            .finished
            .iter()
            .map(|c| c.0.load(Ordering::SeqCst))
            .sum();
        let created: u64 = self
            .created
            .iter()
            .map(|c| c.0.load(Ordering::SeqCst))
            .sum();
        finished == created
    }

    /// Flags the run dead and wakes every sleeper. Idempotent; all
    /// subsequent [`Worker::next`] calls return `None`.
    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        let _guard = self.park_lock.lock().expect("park lock poisoned");
        self.park_cv.notify_all();
    }

    /// Snapshot of the run's scheduler counters (call after the worker
    /// scope has joined). `flush_batches` is left to the census, which
    /// counts its flushes per worker.
    pub(crate) fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.deques.len() as u64,
            steals: self.steals.load(Ordering::Relaxed),
            steal_failures: self.steal_failures.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            flush_batches: 0,
            per_worker_expansions: self
                .expansions
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// One worker's handle: its deque id, its victim-selection RNG, and — by
/// owning a `Drop` that aborts the scheduler — the panic guard for the
/// whole run (see the [module docs](self)).
pub(crate) struct Worker<'a, T> {
    sched: &'a Scheduler<T>,
    id: usize,
    rng: u64,
}

impl<T> Drop for Worker<'_, T> {
    fn drop(&mut self) {
        self.sched.abort();
    }
}

impl<T> Worker<'_, T> {
    /// Enqueues this worker's freshly created tasks (drained from `out`).
    /// Must run **before** [`complete`](Self::complete) releases the task
    /// that created them, or the quiescence sweep could terminate early.
    pub(crate) fn push(&self, out: &mut Vec<T>) {
        if out.is_empty() {
            return;
        }
        self.sched.created[self.id]
            .0
            .fetch_add(out.len() as u64, Ordering::SeqCst);
        {
            let mut q = self.sched.deques[self.id]
                .lock()
                .expect("scheduler deque poisoned");
            q.extend(out.drain(..));
        }
        // Publish after the work is visible; a parker that snapshotted the
        // epoch before this bump rechecks it after announcing itself in
        // `sleepers`, so either it stays up or this read sees it.
        self.sched.signal.fetch_add(1, Ordering::SeqCst);
        if self.sched.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sched.park_lock.lock().expect("park lock poisoned");
            self.sched.park_cv.notify_all();
        }
    }

    /// Marks one task fully processed (successors already pushed) and
    /// tallies it for this worker's expansion count.
    pub(crate) fn complete(&self) {
        self.sched.expansions[self.id]
            .0
            .fetch_add(1, Ordering::Relaxed);
        self.sched.finished[self.id]
            .0
            .fetch_add(1, Ordering::SeqCst);
    }

    /// The worker loop's source of work: own deque first (back — LIFO),
    /// then randomized stealing with backoff and parking. Returns `None`
    /// only when the run is quiescent or aborted.
    pub(crate) fn next(&mut self) -> Option<T> {
        if self.sched.aborted.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(task) = self.pop_local() {
            return Some(task);
        }
        // Idle: sweep victims with exponential backoff, then park. The own
        // deque needs no re-check here — only its owner pushes to it, so it
        // cannot gain work while the owner idles (stolen work is handed
        // back through `steal` re-homing, which returns a task directly).
        let mut sweeps = 0u32;
        loop {
            if self.sched.aborted.load(Ordering::SeqCst) {
                return None;
            }
            // Snapshot the push epoch *before* the sweep: a push that
            // lands mid-sweep moves it, and the park recheck sees that.
            let epoch = self.sched.signal.load(Ordering::SeqCst);
            if let Some(task) = self.steal() {
                return Some(task);
            }
            self.sched.steal_failures.fetch_add(1, Ordering::Relaxed);
            if self.sched.quiescent() {
                return None;
            }
            sweeps += 1;
            if sweeps <= SPIN_SWEEPS {
                for _ in 0..(1u32 << sweeps.min(10)) {
                    std::hint::spin_loop();
                }
            } else {
                self.park(epoch);
                sweeps = 0;
            }
        }
    }

    fn pop_local(&self) -> Option<T> {
        self.sched.deques[self.id]
            .lock()
            .expect("scheduler deque poisoned")
            .pop_back()
    }

    /// One randomized full sweep over the victims: takes up to half of the
    /// first non-empty deque's **front** (capped at [`STEAL_MAX`]), keeps
    /// the oldest entry to run now, and re-homes the rest to its own deque.
    fn steal(&mut self) -> Option<T> {
        let workers = self.sched.deques.len();
        if workers <= 1 {
            return None;
        }
        let start = (self.next_rand() as usize) % workers;
        for k in 0..workers {
            let victim = (start + k) % workers;
            if victim == self.id {
                continue;
            }
            let mut stolen: Vec<T> = {
                let mut q = self.sched.deques[victim]
                    .lock()
                    .expect("scheduler deque poisoned");
                let take = q.len().div_ceil(2).min(STEAL_MAX);
                q.drain(..take).collect()
            };
            if stolen.is_empty() {
                continue;
            }
            self.sched.steals.fetch_add(1, Ordering::Relaxed);
            let task = stolen.remove(0);
            if !stolen.is_empty() {
                let mut q = self.sched.deques[self.id]
                    .lock()
                    .expect("scheduler deque poisoned");
                q.extend(stolen);
                // Re-homed tasks are existing work (created counters
                // already account for them), but siblings parked on an
                // empty system should hear that this deque has depth now.
                drop(q);
                self.sched.signal.fetch_add(1, Ordering::SeqCst);
            }
            return Some(task);
        }
        None
    }

    /// Parks until a push bumps the signal epoch past `epoch`, the run
    /// aborts, or the timeout backstop fires. `sleepers` is raised before
    /// the epoch recheck, under the park lock, so the wakeup cannot be lost
    /// (see the [module docs](self)).
    fn park(&self, epoch: u64) {
        self.sched.parks.fetch_add(1, Ordering::Relaxed);
        let guard = self.sched.park_lock.lock().expect("park lock poisoned");
        self.sched.sleepers.fetch_add(1, Ordering::SeqCst);
        if !(self.sched.aborted.load(Ordering::SeqCst)
            || self.sched.signal.load(Ordering::SeqCst) != epoch
            || self.sched.quiescent())
        {
            let _ = self
                .sched
                .park_cv
                .wait_timeout(guard, PARK_TIMEOUT)
                .expect("park lock poisoned");
        }
        self.sched.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// xorshift64*: cheap, per-worker-seeded victim randomization.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A synthetic divide-and-conquer load: task `(depth, id)` spawns two
    /// children until `depth` hits zero. Checks that every task is
    /// processed exactly once at several worker counts.
    fn run_tree(workers: usize, depth: u32) -> (usize, SchedStats) {
        let sched: Scheduler<(u32, u64)> = Scheduler::new(workers);
        sched.seed([(depth, 1u64)]);
        let processed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for id in 0..workers {
                let sched = &sched;
                let processed = &processed;
                s.spawn(move || {
                    let mut worker = sched.worker(id);
                    let mut out = Vec::new();
                    while let Some((d, node)) = worker.next() {
                        processed.fetch_add(1, Ordering::Relaxed);
                        if d > 0 {
                            out.push((d - 1, node * 2));
                            out.push((d - 1, node * 2 + 1));
                        }
                        worker.push(&mut out);
                        worker.complete();
                    }
                });
            }
        });
        (processed.load(Ordering::Relaxed), sched.stats())
    }

    #[test]
    fn every_task_processed_exactly_once_at_every_worker_count() {
        for workers in [1, 2, 4, 8] {
            let (processed, stats) = run_tree(workers, 10);
            assert_eq!(processed, (1 << 11) - 1, "workers={workers}");
            assert_eq!(stats.workers, workers as u64);
            assert_eq!(
                stats.per_worker_expansions.iter().sum::<u64>(),
                (1 << 11) - 1,
                "per-worker tallies must sum to the total"
            );
        }
    }

    #[test]
    fn multi_worker_runs_record_scheduling_activity() {
        // A second worker starts with an empty deque: before it can ever
        // terminate it must either steal successfully or complete at least
        // one full failed sweep — deterministically nonzero activity.
        let (_, stats) = run_tree(2, 12);
        assert!(
            stats.steals + stats.steal_failures > 0,
            "an empty-deque worker must have swept at least once: {stats:?}"
        );
    }

    #[test]
    fn bursty_load_parks_and_runs_every_task_once() {
        // Rounds of a narrow chain (one task at a time, each sleeping so the
        // idle workers exhaust their spin sweeps and park) that fans out
        // wide (waking the sleepers through the push gate) and narrows back
        // to the next round's chain.
        const WORKERS: usize = 4;
        const ROUNDS: usize = 5;
        const CHAIN: usize = 8;
        const WIDE: usize = 64;
        const PER_ROUND: usize = CHAIN + WIDE;
        // A task is its index in 0..ROUNDS * PER_ROUND: chain links first
        // in each round, then the wide tasks.
        let runs: Vec<AtomicUsize> = (0..ROUNDS * PER_ROUND)
            .map(|_| AtomicUsize::new(0))
            .collect();
        let sched: Scheduler<usize> = Scheduler::new(WORKERS);
        sched.seed([0]);
        std::thread::scope(|s| {
            for id in 0..WORKERS {
                let (sched, runs) = (&sched, &runs);
                s.spawn(move || {
                    let mut worker = sched.worker(id);
                    let mut out = Vec::new();
                    while let Some(task) = worker.next() {
                        runs[task].fetch_add(1, Ordering::Relaxed);
                        let (round, at) = (task / PER_ROUND, task % PER_ROUND);
                        if at < CHAIN - 1 {
                            std::thread::sleep(Duration::from_micros(300));
                            out.push(task + 1);
                        } else if at == CHAIN - 1 {
                            out.extend(task + 1..task + 1 + WIDE);
                        } else if at == CHAIN && round + 1 < ROUNDS {
                            out.push((round + 1) * PER_ROUND);
                        }
                        worker.push(&mut out);
                        worker.complete();
                    }
                });
            }
        });
        for (task, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "task {task}");
        }
        let stats = sched.stats();
        assert!(stats.parks > 0, "the chains must force parks: {stats:?}");
        assert_eq!(
            stats.per_worker_expansions.iter().sum::<u64>(),
            (ROUNDS * PER_ROUND) as u64
        );
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let (processed, _) = {
            let sched: Scheduler<u32> = Scheduler::new(3);
            sched.seed([]);
            let processed = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for id in 0..3 {
                    let sched = &sched;
                    let processed = &processed;
                    s.spawn(move || {
                        let mut worker = sched.worker(id);
                        while worker.next().is_some() {
                            processed.fetch_add(1, Ordering::Relaxed);
                            worker.complete();
                        }
                    });
                }
            });
            (processed.load(Ordering::Relaxed), ())
        };
        assert_eq!(processed, 0);
    }

    #[test]
    fn a_panicking_worker_aborts_the_siblings() {
        let sched: Scheduler<u64> = Scheduler::new(2);
        sched.seed(0..64u64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                for id in 0..2 {
                    let sched = &sched;
                    s.spawn(move || {
                        let mut worker = sched.worker(id);
                        while let Some(task) = worker.next() {
                            assert!(task != 7, "injected worker panic");
                            worker.complete();
                        }
                    });
                }
            });
        }));
        assert!(result.is_err(), "the scope must propagate the panic");
    }
}
