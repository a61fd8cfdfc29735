//! The in-RAM census frontier: one LIFO stack per worker and one shared
//! pool. The census is its only user; the explorer parallelizes without
//! it (its helpers share a memo, not a queue — see
//! [`explore`](mod@crate::explore)), and the census's disk tier keeps its
//! own generation files. This module also holds [`SchedStats`], the
//! worker counters every engine reports, and [`resolve_parallelism`].
//!
//! # Stacks and the pool
//!
//! Each worker owns a plain `Vec` and pushes and pops at its back, with no
//! lock: a worker chases its own most recent successors depth first, so
//! its stack holds about one node's successors per level of the search,
//! not a breadth-first generation. A worker whose stack is empty takes up
//! to 16 nodes (`BATCH`) from the pool, a `Mutex`-guarded `Vec` with a
//! `Condvar`, or else counts itself idle and waits there. While a worker
//! waits, the `hungry` count is above zero; a busy worker that sees that
//! after a push, and finds the pool empty, moves the oldest half of its
//! stack (at most `BATCH` nodes, the ones it is furthest from touching)
//! into the pool and wakes a waiter. So the pool never holds more than
//! one batch beyond the seed. One worker never shares and touches the
//! pool only to take the root and to finish.
//!
//! # Termination
//!
//! A worker counts itself idle only under the pool lock, with its stack
//! and the pool both empty, and only between expansions (the census asks
//! for its next node after it has pushed the last one's successors). So
//! when the idle count reaches the worker count, no node is held
//! anywhere and none is being expanded: the last worker to go idle marks
//! the pool done and wakes everyone.
//!
//! # Panic propagation
//!
//! Every `Worker` is a drop guard: leaving the worker loop — normally or
//! by unwinding — marks the pool done and wakes every waiter. After a
//! normal exit this changes nothing (a worker only returns once the pool
//! is done); after a panic it releases the waiting siblings, which could
//! otherwise never see every worker idle, so `thread::scope` can join
//! everyone and propagate the original panic instead of hanging.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Worker counters for one parallel run, reported through
/// [`RunStats`](crate::RunStats) into every `--json` stream. The in-RAM
/// census fills every field; its disk tier and the explorer, which run no
/// pool, fill `workers` and `per_worker_expansions` (and the disk tier
/// `flush_batches`). All zeros (with an empty per-worker vector) for
/// sequential explorations and for engines that report no workers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker threads the run used.
    pub workers: u64,
    /// Batches taken from the shared pool by a worker whose own stack was
    /// empty (the root's included).
    pub steals: u64,
    /// Times a worker found its own stack and the pool both empty. Every
    /// worker does at least once, on its way out.
    pub steal_failures: u64,
    /// Times a worker waited on the pool's condvar.
    pub parks: u64,
    /// Non-empty batches of admitted successors flushed to the frontier
    /// (census engines; the explorer stages no batches).
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

/// Most nodes moved between a stack and the pool at once: enough to
/// amortize the pool lock, few enough that sharing never empties a stack.
const BATCH: usize = 16;

/// The shared pool, under the scheduler's one lock.
struct Pool<T> {
    items: Vec<T>,
    /// Workers whose stack and the pool were empty at their last look.
    idle: usize,
    /// Set once every worker is idle, or a worker left its loop early.
    done: bool,
    /// The most items the pool ever held.
    peak: usize,
}

/// The pool, its condvar and the counters every worker shares. See the
/// [module docs](self).
pub(crate) struct Scheduler<T> {
    workers: usize,
    pool: Mutex<Pool<T>>,
    wake: Condvar,
    /// Workers waiting on `wake`: a busy worker shares only while nonzero.
    /// A hint that publishes nothing (the items move under the lock), so
    /// `Relaxed`; a stale read only moves a share to a later push.
    hungry: AtomicUsize,
    /// Sum of the workers' stack high-water marks, added as each leaves.
    stack_peaks: AtomicUsize,
    steals: AtomicU64,
    steal_failures: AtomicU64,
    parks: AtomicU64,
}

impl<T> Scheduler<T> {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a scheduler needs at least one worker");
        Scheduler {
            workers,
            pool: Mutex::new(Pool {
                items: Vec::new(),
                idle: 0,
                done: false,
                peak: 0,
            }),
            wake: Condvar::new(),
            hungry: AtomicUsize::new(0),
            stack_peaks: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Puts the initial tasks in the pool before any worker starts.
    pub(crate) fn seed(&self, items: impl IntoIterator<Item = T>) {
        let mut pool = self.lock();
        pool.items.extend(items);
        pool.peak = pool.peak.max(pool.items.len());
    }

    /// A handle for one worker thread; make exactly as many as `workers`.
    pub(crate) fn worker(&self) -> Worker<'_, T> {
        Worker {
            sched: self,
            stack: Vec::new(),
            peak: 0,
        }
    }

    /// The pool, even after a worker panicked: the pool's own code never
    /// panics while holding the lock, so its contents stay consistent.
    fn lock(&self) -> MutexGuard<'_, Pool<T>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The most tasks the run held at once, bounded above: the sum of each
    /// worker's stack high-water mark and the pool's (call after the
    /// worker scope has joined).
    pub(crate) fn peak_items(&self) -> usize {
        self.stack_peaks.load(Ordering::Relaxed) + self.lock().peak
    }

    /// Snapshot of the run's pool counters (call after the worker scope
    /// has joined). `flush_batches` and `per_worker_expansions` are left
    /// to the census, which counts both per worker.
    pub(crate) fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.workers as u64,
            steals: self.steals.load(Ordering::Relaxed),
            steal_failures: self.steal_failures.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            ..SchedStats::default()
        }
    }
}

/// One worker's handle: its private stack and, by owning a `Drop` that
/// marks the pool done, the panic guard for the whole run (see the
/// [module docs](self)).
pub(crate) struct Worker<'a, T> {
    sched: &'a Scheduler<T>,
    stack: Vec<T>,
    /// The most items `stack` ever held.
    peak: usize,
}

impl<T> Drop for Worker<'_, T> {
    fn drop(&mut self) {
        let sched = self.sched;
        sched.stack_peaks.fetch_add(self.peak, Ordering::Relaxed);
        sched.lock().done = true;
        sched.wake.notify_all();
    }
}

impl<T> Worker<'_, T> {
    /// Pushes one expansion's successors (drained from `out`), reversed so
    /// that they pop in generation order, then shares with the pool if a
    /// sibling waits there and the pool is empty.
    pub(crate) fn push(&mut self, out: &mut Vec<T>) {
        self.stack.extend(out.drain(..).rev());
        self.peak = self.peak.max(self.stack.len());
        if self.sched.hungry.load(Ordering::Relaxed) > 0 && self.stack.len() > 1 {
            let mut pool = self.sched.lock();
            // Items already in the pool are on their way to a waiter.
            if pool.items.is_empty() {
                let share = (self.stack.len() / 2).min(BATCH);
                pool.items.extend(self.stack.drain(..share));
                pool.peak = pool.peak.max(pool.items.len());
                self.sched.wake.notify_one();
            }
        }
    }

    /// The next task: the top of the own stack, else a batch from the
    /// pool, else a wait there. Returns `None` once the pool is done.
    pub(crate) fn next(&mut self) -> Option<T> {
        if let Some(task) = self.stack.pop() {
            return Some(task);
        }
        let sched = self.sched;
        let mut pool = sched.lock();
        let mut idle = false;
        loop {
            if pool.done {
                return None;
            }
            if !pool.items.is_empty() {
                let at = pool.items.len().saturating_sub(BATCH);
                self.stack.extend(pool.items.drain(at..));
                pool.idle -= usize::from(idle);
                drop(pool);
                sched.steals.fetch_add(1, Ordering::Relaxed);
                self.peak = self.peak.max(self.stack.len());
                return self.stack.pop();
            }
            if !idle {
                idle = true;
                pool.idle += 1;
                sched.steal_failures.fetch_add(1, Ordering::Relaxed);
                if pool.idle == sched.workers {
                    pool.done = true;
                    sched.wake.notify_all();
                    return None;
                }
            }
            sched.parks.fetch_add(1, Ordering::Relaxed);
            sched.hungry.fetch_add(1, Ordering::Relaxed);
            pool = sched
                .wake
                .wait(pool)
                .unwrap_or_else(PoisonError::into_inner);
            sched.hungry.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `workers` threads over `seed`, each task expanded by `expand`
    /// into its children (pushed in the order given), and returns every
    /// task in the order it was taken, per worker, with the run's stats.
    fn run<T: Send + Copy>(
        workers: usize,
        seed: impl IntoIterator<Item = T>,
        expand: impl Fn(T, &mut Vec<T>) + Sync,
    ) -> (Vec<Vec<T>>, SchedStats, usize) {
        let sched: Scheduler<T> = Scheduler::new(workers);
        sched.seed(seed);
        let visits = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (sched, expand) = (&sched, &expand);
                    s.spawn(move || {
                        let mut worker = sched.worker();
                        let (mut out, mut seen) = (Vec::new(), Vec::new());
                        while let Some(task) = worker.next() {
                            seen.push(task);
                            expand(task, &mut out);
                            worker.push(&mut out);
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (visits, sched.stats(), sched.peak_items())
    }

    /// A synthetic divide-and-conquer load: task `(depth, id)` spawns two
    /// children, `2·id` then `2·id + 1`, until `depth` hits zero.
    fn run_tree(workers: usize, depth: u32) -> (Vec<Vec<(u32, u64)>>, SchedStats, usize) {
        run(workers, [(depth, 1u64)], |(d, node), out| {
            if d > 0 {
                out.push((d - 1, node * 2));
                out.push((d - 1, node * 2 + 1));
            }
        })
    }

    #[test]
    fn every_task_processed_exactly_once_at_every_worker_count() {
        for workers in [1, 2, 4, 8] {
            let (visits, stats, _) = run_tree(workers, 10);
            let mut ids: Vec<u64> = visits.iter().flatten().map(|&(_, id)| id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (1..1 << 11).collect::<Vec<u64>>(), "workers={workers}");
            assert_eq!(stats.workers, workers as u64);
            assert!(
                stats.steal_failures >= workers as u64,
                "every worker finds both empty on its way out: {stats:?}"
            );
        }
    }

    #[test]
    fn one_worker_visits_in_depth_first_preorder() {
        fn preorder(d: u32, id: u64, out: &mut Vec<(u32, u64)>) {
            out.push((d, id));
            if d > 0 {
                preorder(d - 1, id * 2, out);
                preorder(d - 1, id * 2 + 1, out);
            }
        }
        let mut expected = Vec::new();
        preorder(8, 1, &mut expected);
        let (visits, stats, _) = run_tree(1, 8);
        assert_eq!(visits, vec![expected]);
        // The root is the one batch taken; the exit is the one failure.
        assert_eq!((stats.steals, stats.steal_failures, stats.parks), (1, 1, 0));
    }

    #[test]
    fn stacks_stay_far_below_the_task_count() {
        // 2^15 − 1 tasks; a depth-first stack holds one pending sibling per
        // level, where a FIFO would hold a whole level (2^14).
        for workers in [1, 2, 4] {
            let (_, _, peak) = run_tree(workers, 14);
            assert!(
                peak <= workers * (BATCH + 16) + BATCH,
                "workers={workers}: {peak} tasks held at once"
            );
        }
    }

    #[test]
    fn multi_worker_runs_record_scheduling_activity() {
        // The second worker finds its stack and the pool empty at least
        // once, whether it ever takes a batch or not.
        let (_, stats, _) = run_tree(2, 12);
        assert!(stats.steal_failures >= 2, "{stats:?}");
        assert!(
            stats.steals >= 1,
            "the root is taken from the pool: {stats:?}"
        );
    }

    #[test]
    fn bursty_load_parks_and_runs_every_task_once() {
        // Rounds of a narrow chain (one task at a time, each sleeping so
        // the idle workers wait on the pool) that fans out wide (shared
        // with the waiters) and narrows back to the next round's chain.
        const WORKERS: usize = 4;
        const ROUNDS: usize = 5;
        const CHAIN: usize = 8;
        const WIDE: usize = 64;
        const PER_ROUND: usize = CHAIN + WIDE;
        // A task is its index in 0..ROUNDS * PER_ROUND: chain links first
        // in each round, then the wide tasks.
        let (visits, stats, _) = run(WORKERS, [0usize], |task, out| {
            let (round, at) = (task / PER_ROUND, task % PER_ROUND);
            if at < CHAIN - 1 {
                std::thread::sleep(std::time::Duration::from_micros(300));
                out.push(task + 1);
            } else if at == CHAIN - 1 {
                out.extend(task + 1..task + 1 + WIDE);
            } else if at == CHAIN && round + 1 < ROUNDS {
                out.push((round + 1) * PER_ROUND);
            }
        });
        let mut tasks: Vec<usize> = visits.into_iter().flatten().collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..ROUNDS * PER_ROUND).collect::<Vec<_>>());
        assert!(stats.parks > 0, "the chains must force waits: {stats:?}");
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let (visits, stats, _) = run(3, [] as [u32; 0], |_, _| {});
        assert!(visits.iter().all(Vec::is_empty));
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn a_panicking_worker_aborts_the_siblings() {
        let result = std::panic::catch_unwind(|| {
            run(2, 0..64u64, |task, _| {
                assert!(task != 7, "injected worker panic")
            })
        });
        assert!(result.is_err(), "the scope must propagate the panic");
    }
}
