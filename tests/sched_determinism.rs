//! Property pins for the parallel engines: on randomized configurations
//! over every object kind, the census (per-worker stacks and a shared
//! pool) and the explorer must report identical totals at every
//! worker-thread level — scheduling may only change *who* expands a node,
//! never *what* the run observes. Plus the explorer's worker-panic regression: a worker that
//! unwinds must propagate out of the engine instead of leaving its
//! siblings running forever.

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use harness::{build_world, BfsConfig, ExploreConfig, Scenario, SymmetryMode, Verdict, Workload};
use nvm::{Machine, Memory, Pid, Poll, Word};
use proptest::prelude::*;

const ALL_KINDS: [ObjectKind; 8] = [
    ObjectKind::Register,
    ObjectKind::Cas,
    ObjectKind::MaxRegister,
    ObjectKind::Counter,
    ObjectKind::Faa,
    ObjectKind::Swap,
    ObjectKind::Tas,
    ObjectKind::Queue,
];

const THREAD_LEVELS: [usize; 4] = [1, 2, 4, 8];

fn arb_kind() -> impl Strategy<Value = ObjectKind> {
    (0usize..ALL_KINDS.len()).prop_map(|i| ALL_KINDS[i])
}

/// One randomized census/explore world: an object kind, a world size and
/// an op budget small enough that every run completes in debug mode.
#[derive(Debug, Clone)]
struct World {
    kind: ObjectKind,
    processes: u32,
    max_ops: usize,
}

fn arb_world() -> impl Strategy<Value = World> {
    (arb_kind(), 2u32..=3, 2usize..=3).prop_map(|(kind, processes, max_ops)| World {
        kind,
        processes,
        // 3-process censuses at 3 ops blow past the debug-mode budget;
        // shrink the wider worlds to the 2-op alphabet walk.
        max_ops: if processes == 3 { 2 } else { max_ops },
    })
}

fn census_at(w: &World, parallelism: usize, fold_private: bool) -> Verdict {
    Scenario::object(w.kind)
        .processes(w.processes)
        .workload(Workload::mixed(w.max_ops))
        .census(&BfsConfig {
            max_ops: w.max_ops,
            max_states: 2_000_000,
            parallelism,
            fold_private,
            ..Default::default()
        })
}

fn explore_at(w: &World, parallelism: usize) -> Verdict {
    Scenario::object(w.kind)
        .processes(w.processes)
        .workload(Workload::mixed(w.max_ops.min(2)))
        .explore(&ExploreConfig {
            parallelism,
            ..Default::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exact census counts are bit-identical at every thread level: the
    /// visited set, the shared-configuration set and the per-expansion
    /// work tallies are set unions over the same reachable space, so
    /// scheduling cannot move any of them.
    #[test]
    fn census_counts_are_thread_level_invariant(w in arb_world()) {
        let seq = census_at(&w, 1, false);
        prop_assert!(!seq.stats.truncated, "{w:?}: the pin needs a complete run");
        for threads in THREAD_LEVELS {
            let par = census_at(&w, threads, false);
            let tag = format!("{w:?} threads={threads}");
            prop_assert!(
                par.stats.distinct_configs == seq.stats.distinct_configs,
                "{tag}: distinct configs {} vs {}",
                par.stats.distinct_configs,
                seq.stats.distinct_configs
            );
            prop_assert!(
                par.stats.executions == seq.stats.executions,
                "{tag}: work {} vs {}",
                par.stats.executions,
                seq.stats.executions
            );
            prop_assert!(par.stats.steps == seq.stats.steps, "{tag}: steps");
            prop_assert!(
                par.stats.resolved_ops == seq.stats.resolved_ops,
                "{tag}: resolved_ops"
            );
            prop_assert!(par.stats.persists == seq.stats.persists, "{tag}: persists");
            prop_assert!(par.stats.truncated == seq.stats.truncated, "{tag}: truncated");
            prop_assert!(par.bound_met == seq.bound_met, "{tag}: bound_met");
            prop_assert!(
                par.stats.sched.workers == threads as u64,
                "{tag}: worker count must surface in the stats"
            );
        }
    }

    /// Folded censuses count the folded space, which is as canonical as
    /// the unfolded one: work, steps and distinct configurations are
    /// bit-identical at every thread level there too.
    #[test]
    fn fold_counts_are_thread_level_invariant(w in arb_world()) {
        let seq = census_at(&w, 1, true);
        prop_assert!(!seq.stats.truncated, "{w:?}: the pin needs a complete run");
        for threads in [2, 8] {
            let par = census_at(&w, threads, true);
            let tag = format!("{w:?} threads={threads}");
            prop_assert!(
                par.stats.distinct_configs == seq.stats.distinct_configs,
                "{tag}: distinct configs {} vs {}",
                par.stats.distinct_configs,
                seq.stats.distinct_configs
            );
            prop_assert!(
                par.stats.executions == seq.stats.executions,
                "{tag}: work {} vs {}",
                par.stats.executions,
                seq.stats.executions
            );
            prop_assert!(par.stats.steps == seq.stats.steps, "{tag}: steps");
            prop_assert!(par.stats.truncated == seq.stats.truncated, "{tag}: truncated");
            prop_assert!(par.bound_met == seq.bound_met, "{tag}: bound_met");
        }
    }

    /// Explorer totals — leaves, truncation, violation found or not — are
    /// identical at every thread level: worker 0 walks canonical order, and
    /// the helpers only hand it exact counts of clean subtrees.
    #[test]
    fn explore_totals_are_thread_level_invariant(w in arb_world()) {
        let seq = explore_at(&w, 1);
        for threads in THREAD_LEVELS {
            let par = explore_at(&w, threads);
            let tag = format!("{w:?} threads={threads}");
            prop_assert!(
                par.stats.executions == seq.stats.executions,
                "{tag}: leaves {} vs {}",
                par.stats.executions,
                seq.stats.executions
            );
            // `unique_nodes` (distinct_configs) is deliberately not
            // compared: it sums every worker's expansions, which depend on
            // timing, so it is not part of the determinism contract — only
            // leaves, truncation and the violation are.
            prop_assert!(par.stats.truncated == seq.stats.truncated, "{tag}: truncated");
            prop_assert!(par.passed == seq.passed, "{tag}: passed");
            prop_assert!(par.violation == seq.violation, "{tag}: violation");
        }
    }
}

/// With two or more workers, every worker records scheduling activity
/// before terminating: a batch taken from the pool, or at minimum one look
/// that found its stack and the pool both empty, which every worker makes
/// on its way out. (Batches taken by the second worker need real cores to
/// be deterministic; CI asserts per-worker expansions on the bench
/// stream.)
#[test]
fn multi_worker_census_records_scheduling_activity() {
    let v = census_at(
        &World {
            kind: ObjectKind::Cas,
            processes: 2,
            max_ops: 3,
        },
        2,
        false,
    );
    let s = &v.stats.sched;
    assert_eq!(s.workers, 2);
    assert_eq!(s.per_worker_expansions.len(), 2);
    assert_eq!(
        s.per_worker_expansions.iter().sum::<u64>(),
        v.stats.executions,
        "every expansion is attributed to exactly one worker"
    );
    assert!(
        s.steals + s.steal_failures > 0,
        "a worker cannot terminate without looking in the pool: {s:?}"
    );
    assert!(s.flush_batches > 0, "batched flushes must be exercised");
}

// ───────────────── explorer worker panic propagation ─────────────────

/// A machine that survives three steps and then panics, a few levels
/// below the root, where every explorer worker reaches it.
struct StepBomb {
    pid: Pid,
    steps: u32,
}

impl Machine for StepBomb {
    fn step(&mut self, _mem: &dyn Memory) -> Poll {
        self.steps += 1;
        if self.steps > 3 {
            panic!("object invariant violated (test probe)");
        }
        Poll::Pending
    }
    fn pid(&self) -> Pid {
        self.pid
    }
    fn label(&self) -> &'static str {
        "step-bomb"
    }
    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(StepBomb {
            pid: self.pid,
            steps: self.steps,
        })
    }
    fn encode(&self) -> Vec<Word> {
        Vec::new()
    }
}

struct BombObject;

impl RecoverableObject for BombObject {
    fn prepare(&self, _mem: &dyn Memory, _pid: Pid, _op: &OpSpec) {}
    fn invoke(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(StepBomb { pid, steps: 0 })
    }
    fn recover(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(StepBomb { pid, steps: 0 })
    }
    fn processes(&self) -> u32 {
        2
    }
    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }
    fn name(&self) -> &'static str {
        "bombed-register"
    }
}

/// A worker that panics mid-exploration must propagate the panic out of
/// `explore_engine` — not leave its siblings running forever (the
/// regression this pins is a hang, which fails as a suite timeout).
/// `thread::scope` may rewrap the payload, so no message is pinned.
#[test]
#[should_panic]
fn parallel_explore_propagates_a_worker_panic_instead_of_hanging() {
    let (_, mem) = build_world(|b| {
        b.shared("X", 1, 64);
        BombObject
    });
    let _ = Scenario::custom(|b| {
        b.shared("X", 1, 64);
        Box::new(BombObject)
    })
    .workload(Workload::per_process(vec![
        vec![OpSpec::Read, OpSpec::Read],
        vec![OpSpec::Read, OpSpec::Read],
    ]))
    .explore(&ExploreConfig {
        max_crashes: 0,
        symmetry: SymmetryMode::Off,
        parallelism: 2,
        ..Default::default()
    });
    drop(mem);
}
