//! Differential pin of the census's private-step fold
//! (`BfsConfig::fold_private`) against the unfolded census, across every
//! object kind, both storage tiers and one and two workers — plus the
//! fold's bound: a machine that spins on its own cells forever must not
//! hang either search.
//!
//! The fold preserves `distinct_shared` and the Theorem 1 verdict; it
//! shrinks `work` and `steps` on every kind whose machines take private
//! steps. The folded counts are still functions of the reachable folded
//! space alone, so they must not depend on the worker count or the tier.

use detectable::{
    DetectableCas, DetectableCounter, DetectableFaa, DetectableQueue, DetectableRegister,
    DetectableSwap, DetectableTas, MaxRegister, ObjectKind, OpSpec, RecoverableObject,
};
use harness::{
    build_world, census_bfs_engine, default_alphabet, explore_engine, BfsConfig, CensusReport,
    ExploreConfig, OpSource,
};
use nvm::{Loc, Machine, Memory, Pid, Poll, SimMemory, Word, RESP_FAIL};

/// Debug builds run worlds up to 3 processes, release up to 4 — the
/// contract of the other scale-sensitive integration tests.
fn max_n() -> u32 {
    if cfg!(debug_assertions) {
        3
    } else {
        4
    }
}

/// One world per object kind at `n` processes, sized as the disk-tier
/// differential sizes them (the queue's 16-node arena holds a 3-op budget).
fn worlds(n: u32) -> Vec<(ObjectKind, Box<dyn RecoverableObject>, SimMemory)> {
    let mut out: Vec<(ObjectKind, Box<dyn RecoverableObject>, SimMemory)> = Vec::new();
    macro_rules! world {
        ($kind:expr, $ctor:expr) => {{
            let (obj, mem) = build_world($ctor);
            out.push(($kind, Box::new(obj), mem));
        }};
    }
    world!(ObjectKind::Cas, |b| DetectableCas::new(b, n, 0));
    world!(ObjectKind::Register, |b| DetectableRegister::new(b, n, 0));
    world!(ObjectKind::MaxRegister, |b| MaxRegister::new(b, n));
    world!(ObjectKind::Counter, |b| DetectableCounter::new(b, n));
    world!(ObjectKind::Faa, |b| DetectableFaa::new(b, n));
    world!(ObjectKind::Swap, |b| DetectableSwap::new(b, n));
    world!(ObjectKind::Tas, |b| DetectableTas::new(b, n));
    world!(ObjectKind::Queue, |b| DetectableQueue::new(b, n, 16));
    out
}

fn spill_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("census-fold-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).expect("spill dir");
    d
}

/// `(work, steps, truncated)`: what the fold changes but scheduling and
/// storage must not.
fn counts(r: &CensusReport) -> (usize, u64, bool) {
    (r.work, r.steps, r.truncated)
}

#[test]
fn folded_census_matches_unfolded_on_every_kind() {
    let dir = spill_dir("diff");
    for n in 1..=max_n() {
        for (kind, obj, mem) in worlds(n) {
            let alphabet = default_alphabet(kind);
            let cfg = |fold_private: bool, parallelism: usize, disk: bool| BfsConfig {
                max_ops: 3,
                max_states: 2_000_000,
                parallelism,
                fold_private,
                disk_dir: disk.then(|| dir.clone()),
                ram_budget: disk.then_some(1 << 20),
            };
            let tag = format!("{kind:?} n={n}");
            let unfolded = census_bfs_engine(&*obj, &mem, &alphabet, &cfg(false, 1, false));
            assert!(!unfolded.truncated, "{tag}: the reference must complete");
            let folded = census_bfs_engine(&*obj, &mem, &alphabet, &cfg(true, 1, false));
            assert_eq!(folded.distinct_shared, unfolded.distinct_shared, "{tag}");
            assert_eq!(folded.meets_bound(), unfolded.meets_bound(), "{tag}");
            assert!(!folded.truncated, "{tag}");
            // Every kind's machines take private-only steps, so the fold
            // shrinks every world, a lone process's included.
            assert!(
                folded.work < unfolded.work && folded.steps < unfolded.steps,
                "{tag}: the fold must reduce: {:?} vs {:?}",
                counts(&folded),
                counts(&unfolded)
            );
            for (parallelism, disk) in [(2, false), (1, true), (2, true)] {
                let other =
                    census_bfs_engine(&*obj, &mem, &alphabet, &cfg(true, parallelism, disk));
                let tag = format!("{tag} workers={parallelism} disk={disk}");
                assert_eq!(counts(&other), counts(&folded), "{tag}");
                assert_eq!(other.distinct_shared, folded.distinct_shared, "{tag}");
                assert_eq!(other.spill.is_some(), disk, "{tag}: wrong tier");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ───────────────── the fold's bound: a private-only livelock ─────────────────

/// A machine that never returns and never touches shared memory: each step
/// writes the next value of a counter into its process's private cell, so
/// every folded step reaches a new configuration.
#[derive(Clone)]
struct PrivateSpin {
    pid: Pid,
    cell: Loc,
    count: Word,
}

impl Machine for PrivateSpin {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        self.count += 1;
        mem.write(self.pid, self.cell, self.count);
        Poll::Pending
    }
    fn pid(&self) -> Pid {
        self.pid
    }
    fn label(&self) -> &'static str {
        "private-spin"
    }
    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }
    fn encode(&self) -> Vec<Word> {
        vec![self.count]
    }
}

/// A recovery that answers `fail` at once.
#[derive(Clone)]
struct Fail(Pid);

impl Machine for Fail {
    fn step(&mut self, _mem: &dyn Memory) -> Poll {
        Poll::Ready(RESP_FAIL)
    }
    fn pid(&self) -> Pid {
        self.0
    }
    fn label(&self) -> &'static str {
        "fail"
    }
    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }
    fn encode(&self) -> Vec<Word> {
        Vec::new()
    }
}

/// One process whose every operation spins on its private cell.
struct SpinObject {
    cell: Loc,
}

impl RecoverableObject for SpinObject {
    fn prepare(&self, _mem: &dyn Memory, _pid: Pid, _op: &OpSpec) {}
    fn invoke(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(PrivateSpin {
            pid,
            cell: self.cell,
            count: 0,
        })
    }
    fn recover(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(Fail(pid))
    }
    fn processes(&self) -> u32 {
        1
    }
    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }
    fn detectable(&self) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "private-spin"
    }
}

fn spin_world() -> (SpinObject, SimMemory) {
    build_world(|b| {
        b.shared("X", 1, 64);
        SpinObject {
            cell: b.private(Pid::new(0), "spin", 1, 64),
        }
    })
}

/// Without a bound, the first folded step of a `PrivateSpin` never
/// returns, and both searches hang. With it, each search takes one bounded
/// action per node: the explorer's crash-first depth-first walk counts one
/// leaf per level until its leaf budget stops it, and the census admits new
/// configurations until its cap does. Without crashes the walk has no
/// leaves to count, so the leaf budget cannot stop it; the per-operation
/// step bound does.
#[test]
fn a_private_only_livelock_hangs_neither_search() {
    let (obj, mem) = spin_world();
    let workload = vec![vec![OpSpec::Read]];
    let explored = explore_engine(
        &obj,
        &mem,
        OpSource::PerProcess(&workload),
        &ExploreConfig {
            max_crashes: 1,
            retry_on_fail: false,
            max_leaves: 8,
            parallelism: 1,
            ..Default::default()
        },
    );
    assert!(explored.truncated, "{explored:?}");
    assert_eq!(explored.leaves, 8);
    assert!(explored.violation.is_none(), "{explored:?}");

    let crash_free = explore_engine(
        &obj,
        &mem,
        OpSource::PerProcess(&workload),
        &ExploreConfig {
            max_crashes: 0,
            parallelism: 1,
            ..Default::default()
        },
    );
    assert!(crash_free.truncated, "{crash_free:?}");
    assert_eq!(crash_free.leaves, 0, "no execution completes");
    assert!(crash_free.violation.is_none(), "{crash_free:?}");

    let census = census_bfs_engine(
        &obj,
        &mem,
        &[OpSpec::Read],
        &BfsConfig {
            max_ops: 1,
            max_states: 50,
            parallelism: 1,
            fold_private: true,
            ..Default::default()
        },
    );
    assert!(census.truncated, "{census:?}");
    assert_eq!(census.work, 50);
    assert_eq!(census.distinct_shared, 1);
}
