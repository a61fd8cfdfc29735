//! Integration: census limit/truncation semantics, the parallel
//! arena/work-stealing engine, and dominance pruning — the cap expands
//! exactly `max_states` nodes, truncation is visible end to end (report,
//! `Verdict`, JSON), exact-engine runs count identically at every thread
//! level, the arena engine agrees with the reference census defined here,
//! and the dominance-pruned mode reproduces the exact verdict (while
//! legitimately shrinking the raw work counts — the non-count-preserving
//! contract, pinned below).

use std::collections::{HashSet, VecDeque};

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use harness::{
    build_world, census_bfs_engine, BfsConfig, CensusReport, Driver, RetryPolicy, RunStats,
    Scenario, Verdict, Workload,
};
use nvm::{Machine, Memory, Pid, Poll, SimMemory, Word};

fn cas_alphabet() -> Vec<OpSpec> {
    vec![
        OpSpec::Cas { old: 0, new: 1 },
        OpSpec::Cas { old: 1, new: 0 },
    ]
}

fn cas_census(n: u32, cfg: &BfsConfig) -> Verdict {
    Scenario::object(ObjectKind::Cas)
        .processes(n)
        .workload(Workload::round_robin(cas_alphabet(), cfg.max_ops))
        .census(cfg)
}

// ───────────────── cap and truncation semantics ─────────────────

#[test]
fn truncated_census_is_flagged_end_to_end() {
    let cfg = BfsConfig {
        max_ops: 6,
        max_states: 50,
        // Sequential: which configurations win the 50 admission slots —
        // and hence whether the truncated run already meets the bound —
        // is scheduling-dependent under parallelism.
        parallelism: 1,
        ..Default::default()
    };
    let v = cas_census(3, &cfg);
    assert!(v.stats.truncated, "the cap must surface in RunStats");
    assert_eq!(
        v.stats.executions, 50,
        "exactly max_states configurations expanded"
    );
    // A truncated miss is inconclusive, not a refutation: the verdict fails
    // but says why, distinguishing it from a complete census below bound.
    assert_eq!(v.bound_met, Some(false));
    assert!(!v.passed);
    assert!(
        v.violation
            .as_deref()
            .is_some_and(|m| m.contains("truncated")),
        "violation must name the truncation: {:?}",
        v.violation
    );
    // The machine-readable stream carries the flag too.
    assert!(v.to_json().contains("\"truncated\":true"));

    // The same world, uncapped: complete, conclusive, and bound-meeting.
    let full = cas_census(
        3,
        &BfsConfig {
            max_ops: 6,
            ..Default::default()
        },
    );
    assert!(!full.stats.truncated);
    assert_eq!(full.bound_met, Some(true));
    assert!(full.to_json().contains("\"truncated\":false"));
}

#[test]
fn complete_census_is_never_flagged_truncated() {
    let v = cas_census(2, &BfsConfig::default());
    assert!(!v.stats.truncated);
    v.assert_complete();
}

// ───────────────── parallel determinism ─────────────────

#[test]
fn parallel_census_reports_identical_counts() {
    // The N = 3 alphabet census at every thread level: counts are set
    // unions, so visitation order — the only thing parallelism changes —
    // cannot move them.
    let base = BfsConfig {
        max_ops: 4,
        max_states: 2_000_000,
        ..Default::default()
    };
    let seq = cas_census(3, &base);
    assert!(
        !seq.stats.truncated,
        "the determinism claim needs a complete run"
    );
    for parallelism in [2, 8] {
        let par = cas_census(
            3,
            &BfsConfig {
                parallelism,
                ..base.clone()
            },
        );
        assert_eq!(
            par.stats.distinct_configs, seq.stats.distinct_configs,
            "distinct_shared at parallelism {parallelism}"
        );
        assert_eq!(
            par.stats.executions, seq.stats.executions,
            "work at parallelism {parallelism}"
        );
        assert_eq!(par.stats.truncated, seq.stats.truncated);
        assert_eq!(par.bound_met, seq.bound_met);
    }
}

// ───────────────── cross-engine agreement ─────────────────

/// The counts both census implementations report, compared whole.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    distinct_shared: u64,
    work: u64,
    truncated: bool,
    steps: u64,
    resolved_ops: u64,
    persists: u64,
}

impl From<&CensusReport> for Counts {
    fn from(r: &CensusReport) -> Self {
        Counts {
            distinct_shared: r.distinct_shared as u64,
            work: r.work as u64,
            truncated: r.truncated,
            steps: r.steps,
            resolved_ops: r.resolved_ops,
            persists: r.persists,
        }
    }
}

impl From<&RunStats> for Counts {
    fn from(s: &RunStats) -> Self {
        Counts {
            distinct_shared: s.distinct_configs,
            work: s.executions,
            truncated: s.truncated,
            steps: s.steps,
            resolved_ops: s.resolved_ops,
            persists: s.persists,
        }
    }
}

/// The reference census, kept independent of the engine it checks: exact
/// node keys (operation budget, driver key, full logical memory — no
/// fingerprints), a plain FIFO (no arena, no batching), and a
/// [`SimMemory::fork`] of its own for every frontier node: each successor
/// is generated on a fresh fork of its parent. A fork is a full copy,
/// dirty cache cells and crash ordinal included, so shared-cache worlds
/// compare correctly, and its counters start at zero, so `persists` is the
/// sum over the forks. The cap means what it means for
/// `census_bfs_engine`: `max_states` bounds admissions, every admitted
/// node is expanded, and a refused admission marks the run truncated.
/// `parallelism` and `dominance` are ignored: the reference is sequential
/// and exact.
fn reference_census(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    alphabet: &[OpSpec],
    cfg: &BfsConfig,
) -> Counts {
    const RETRY: RetryPolicy = RetryPolicy {
        retry_on_fail: false,
        max_retries: 0,
        reset_per_op: false,
    };
    let key = |mem: &SimMemory, driver: &Driver, ops_used: usize| {
        let mut key = vec![ops_used as Word];
        driver.encode_key(&mut key);
        key.extend(mem.full_key());
        key
    };
    let root = Driver::without_history(obj.processes());
    let mut shared = HashSet::from([mem.shared_key()]);
    let mut visited = HashSet::new();
    let mut queue = VecDeque::new();
    let mut counts = Counts {
        distinct_shared: 0,
        work: 0,
        truncated: cfg.max_states == 0,
        steps: 0,
        resolved_ops: 0,
        persists: 0,
    };
    if cfg.max_states > 0 {
        visited.insert(key(mem, &root, 0));
        queue.push_back((mem.fork(), root, 0));
    }
    while let Some((node_mem, node_driver, ops_used)) = queue.pop_front() {
        counts.work += 1;
        for i in 0..obj.processes() as usize {
            let successors: Vec<(SimMemory, Driver, usize)> = if node_driver.state(i).in_flight() {
                let (fork, mut driver) = (node_mem.fork(), node_driver.clone());
                let outcome = driver.step(obj, &fork, i, &RETRY);
                counts.resolved_ops += u64::from(outcome.resolved());
                vec![(fork, driver, ops_used)]
            } else if ops_used < cfg.max_ops {
                alphabet
                    .iter()
                    .map(|op| {
                        let (fork, mut driver) = (node_mem.fork(), node_driver.clone());
                        driver.invoke(obj, &fork, i, *op, &RETRY);
                        (fork, driver, ops_used + 1)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            for (fork, driver, ops_used) in successors {
                counts.steps += 1;
                counts.persists += fork.stats().persists;
                shared.insert(fork.shared_key());
                let k = key(&fork, &driver, ops_used);
                if visited.contains(&k) {
                    continue;
                }
                if visited.len() >= cfg.max_states {
                    counts.truncated = true;
                } else {
                    visited.insert(k);
                    queue.push_back((fork, driver, ops_used));
                }
            }
        }
    }
    counts.distinct_shared = shared.len() as u64;
    counts
}

#[test]
fn reference_census_cap_of_one_expands_exactly_the_root() {
    use detectable::DetectableCas;
    let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
    let cfg = BfsConfig {
        max_ops: 4,
        max_states: 1,
        ..Default::default()
    };
    let reference = reference_census(&cas, &mem, &cas_alphabet(), &cfg);
    assert_eq!(reference.work, 1, "exactly max_states nodes expanded");
    assert!(reference.truncated, "the cap must be reported");
}

/// The engine and the reference agree on every count, complete or
/// truncated: sequentially both admit in canonical BFS order.
#[test]
fn fork_engine_matches_reference_census_at_every_cap() {
    use detectable::DetectableCas;
    let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
    for (max_ops, max_states) in [(2, 200_000), (4, 200_000), (4, 37), (3, 1)] {
        let cfg = BfsConfig {
            max_ops,
            max_states,
            parallelism: 1,
            ..Default::default()
        };
        let engine = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
        let reference = reference_census(&cas, &mem, &cas_alphabet(), &cfg);
        assert_eq!(Counts::from(&engine), reference, "{cfg:?}");
    }
}

#[test]
fn fork_engine_counts_match_snapshot_reference_on_small_worlds() {
    use detectable::DetectableCas;
    for (n, max_ops) in [(1u32, 2usize), (2, 4), (3, 3)] {
        let cfg = BfsConfig {
            max_ops,
            max_states: 2_000_000,
            ..Default::default()
        };
        let (cas, mem) = build_world(|b| DetectableCas::new(b, n, 0));
        let reference = reference_census(&cas, &mem, &cas_alphabet(), &cfg);
        let fork = cas_census(n, &cfg);
        assert_eq!(
            Counts::from(&fork.stats),
            reference,
            "n={n} max_ops={max_ops}"
        );
    }
}

#[test]
fn fork_engine_matches_snapshot_reference_in_shared_cache_mode() {
    // Shared-cache worlds are where the engines could drift apart: mid-
    // operation states carry dirty (unpersisted) cells, so a fingerprint
    // keyed on dirtiness — rather than on logical contents like the
    // reference census's full keys — would split states the reference
    // merges and skew the work count.
    use detectable::DetectableCas;
    use harness::build_world_mode;
    use nvm::CacheMode;
    let cfg = BfsConfig {
        max_ops: 4,
        max_states: 2_000_000,
        ..Default::default()
    };
    let (cas, mem) = build_world_mode(CacheMode::SharedCache, |b| DetectableCas::new(b, 2, 0));
    let reference = reference_census(&cas, &mem, &cas_alphabet(), &cfg);
    let fork = Scenario::object(ObjectKind::Cas)
        .memory(CacheMode::SharedCache)
        .workload(Workload::round_robin(cas_alphabet(), cfg.max_ops))
        .census(&cfg);
    assert_eq!(Counts::from(&fork.stats), reference);
}

// ───────────────── dominance pruning (non-count-preserving) ─────────────────

/// Satellite: the dominance-pruned engine reproduces the exact engine's
/// *verdict* — distinct configurations, bound satisfaction, truncation —
/// across every object kind at N ≤ 3, over each kind's standard search
/// alphabet. Work counts are deliberately not compared (see the pinned
/// divergence test below).
#[test]
fn dominance_verdict_matches_exact_across_all_kinds() {
    let kinds = [
        ObjectKind::Register,
        ObjectKind::Cas,
        ObjectKind::MaxRegister,
        ObjectKind::Counter,
        ObjectKind::Faa,
        ObjectKind::Swap,
        ObjectKind::Tas,
        ObjectKind::Queue,
    ];
    for kind in kinds {
        for n in 1..=3u32 {
            let scenario = || {
                Scenario::object(kind)
                    .processes(n)
                    .workload(Workload::mixed(3))
            };
            let exact_cfg = BfsConfig {
                max_ops: 3,
                max_states: 2_000_000,
                ..Default::default()
            };
            let exact = scenario().census(&exact_cfg);
            let dom = scenario().census(&BfsConfig {
                dominance: true,
                ..exact_cfg
            });
            assert!(!exact.stats.truncated, "{kind:?} n={n} must complete");
            assert_eq!(
                dom.stats.distinct_configs, exact.stats.distinct_configs,
                "{kind:?} n={n}: dominance changed the configuration count"
            );
            assert_eq!(dom.stats.truncated, exact.stats.truncated, "{kind:?} n={n}");
            assert_eq!(dom.bound_met, exact.bound_met, "{kind:?} n={n}");
            assert_eq!(dom.passed, exact.passed, "{kind:?} n={n}");
            assert!(
                dom.stats.executions <= exact.stats.executions,
                "{kind:?} n={n}: pruning can only shrink the expansion count"
            );
        }
    }
}

/// The non-count-preserving contract, pinned: on the 2-process CAS world
/// with a 4-op budget the exact engine expands 1486 configurations and the
/// dominance engine 894 — the budget dimension is quotiented away — while
/// both observe the same 4 distinct shared configurations. These numbers
/// are stable (sequential admission is canonical BFS order in both modes);
/// if an engine change moves them, this test is the prompt to re-derive
/// why.
#[test]
fn dominance_work_divergence_is_pinned() {
    let cfg = BfsConfig {
        max_ops: 4,
        max_states: 2_000_000,
        // Pinned sequentially: dominance-mode `work` is scheduling-
        // dependent, and the Scenario layer resolves the 0 default to the
        // host's parallelism.
        parallelism: 1,
        ..Default::default()
    };
    let exact = cas_census(2, &cfg);
    let dom = cas_census(
        2,
        &BfsConfig {
            dominance: true,
            ..cfg
        },
    );
    assert_eq!(exact.stats.executions, 1486, "exact expansion count");
    assert_eq!(dom.stats.executions, 894, "dominance expansion count");
    assert_eq!(exact.stats.distinct_configs, 4);
    assert_eq!(dom.stats.distinct_configs, 4);
    assert_eq!(exact.bound_met, Some(true));
    assert_eq!(dom.bound_met, Some(true));
}

// ───────────────── census work stats (RunStats population) ─────────────────

/// Satellite: census verdicts populate `RunStats.steps`, `persists` and
/// `resolved_ops` (they serialized as 0 before, misleading in the
/// committed bench table) — for both the BFS and the solo-drive engines,
/// end to end into the JSON stream.
#[test]
fn census_verdicts_populate_work_stats() {
    let bfs = cas_census(
        2,
        &BfsConfig {
            max_ops: 4,
            max_states: 2_000_000,
            ..Default::default()
        },
    );
    assert_eq!(bfs.stats.steps, 2898, "successor generations");
    assert_eq!(bfs.stats.resolved_ops, 852, "operations that returned");
    assert_eq!(bfs.stats.persists, 3506, "persist primitives driven");
    assert!(!bfs.to_json().contains("\"steps\":0"));

    let drive = Scenario::object(ObjectKind::Cas)
        .processes(2)
        .workload(Workload::script(harness::gray_code_cas_ops(2)))
        .census(&BfsConfig::default());
    assert_eq!(drive.stats.resolved_ops, 3, "the 2^2 − 1 Gray-code ops");
    assert!(
        drive.stats.steps >= drive.stats.resolved_ops,
        "each op takes at least one machine step"
    );
    assert!(drive.stats.persists > 0, "Algorithm 2 persists its RD bits");
}

// ───────────────── release-only scale pins (exact N = 4, dominance N = 4) ─────────────────

/// The E12 scale pin, release builds only (the debug tier-1 run skips it):
/// the exact engine reproduces the canonical N = 4 numbers — 647 456
/// expansions, 16 distinct configurations — at every thread level, and the
/// dominance engine reproduces the verdict with fewer expansions. This is
/// the acceptance gate for engine rewrites: counts may never move.
#[cfg(not(debug_assertions))]
#[test]
fn n4_census_counts_are_pinned_at_every_thread_level() {
    let base = BfsConfig {
        max_ops: 5,
        max_states: 20_000_000,
        ..Default::default()
    };
    for parallelism in [1usize, 2, 4] {
        let v = cas_census(
            4,
            &BfsConfig {
                parallelism,
                ..base.clone()
            },
        );
        assert_eq!(v.stats.executions, 647_456, "threads={parallelism}");
        assert_eq!(v.stats.distinct_configs, 16, "threads={parallelism}");
        assert!(!v.stats.truncated);
        assert_eq!(v.bound_met, Some(true));
    }
    let dom = cas_census(
        4,
        &BfsConfig {
            dominance: true,
            // Sequential: the pinned dominance expansion count is only
            // canonical under FIFO admission order.
            parallelism: 1,
            ..base
        },
    );
    assert_eq!(dom.stats.executions, 554_244, "dominance N=4 expansions");
    assert_eq!(dom.stats.distinct_configs, 16);
    assert_eq!(dom.bound_met, Some(true));
}

// ───────────────── worker panic propagation ─────────────────

/// A machine that panics when stepped: the adversarial probe for the
/// parallel census's abort path.
struct PanicMachine(Pid);

impl Machine for PanicMachine {
    fn step(&mut self, _mem: &dyn Memory) -> Poll {
        panic!("object invariant violated (test probe)");
    }
    fn pid(&self) -> Pid {
        self.0
    }
    fn label(&self) -> &'static str {
        "panic"
    }
    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(PanicMachine(self.0))
    }
    fn encode(&self) -> Vec<Word> {
        Vec::new()
    }
}

struct PanicObject;

impl RecoverableObject for PanicObject {
    fn prepare(&self, _mem: &dyn Memory, _pid: Pid, _op: &OpSpec) {}
    fn invoke(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(PanicMachine(pid))
    }
    fn recover(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(PanicMachine(pid))
    }
    fn processes(&self) -> u32 {
        2
    }
    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }
    fn name(&self) -> &'static str {
        "panicking-register"
    }
}

/// A worker that panics mid-expansion must propagate the panic out of the
/// engine — not leave its siblings asleep on the frontier condvar forever
/// (a worker that unwinds never releases its pending node, so without the
/// abort guard the pending count would never reach zero and the run would
/// hang until a CI timeout). `thread::scope` rewraps the payload ("a
/// scoped thread panicked"), so no message is pinned here — the regression
/// this guards against is a hang, which fails as a suite timeout.
#[test]
#[should_panic]
fn parallel_census_propagates_a_worker_panic_instead_of_hanging() {
    let (_, mem) = build_world(|b| {
        b.shared("X", 1, 64);
        PanicObject
    });
    let _ = census_bfs_engine(
        &PanicObject,
        &mem,
        &[OpSpec::Read],
        &BfsConfig {
            max_ops: 2,
            parallelism: 2,
            ..Default::default()
        },
    );
}

// ───────────────── solo-drive incompletion ─────────────────

/// A machine that never finishes: the adversarial probe for the solo
/// drive's step budget (wait-freedom violated by construction).
struct StallMachine(Pid);

impl Machine for StallMachine {
    fn step(&mut self, _mem: &dyn Memory) -> Poll {
        Poll::Pending
    }
    fn pid(&self) -> Pid {
        self.0
    }
    fn label(&self) -> &'static str {
        "stall"
    }
    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(StallMachine(self.0))
    }
    fn encode(&self) -> Vec<Word> {
        Vec::new()
    }
}

struct StallObject;

impl RecoverableObject for StallObject {
    fn prepare(&self, _mem: &dyn Memory, _pid: Pid, _op: &OpSpec) {}
    fn invoke(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(StallMachine(pid))
    }
    fn recover(&self, pid: Pid, _op: &OpSpec) -> Box<dyn Machine> {
        Box::new(StallMachine(pid))
    }
    fn processes(&self) -> u32 {
        1
    }
    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }
    fn name(&self) -> &'static str {
        "stalling-register"
    }
}

#[test]
fn try_run_solo_reports_incompletion_instead_of_panicking() {
    let (_, mem) = build_world(|b| {
        b.shared("X", 1, 64);
        StallObject
    });
    let mut driver = Driver::for_object(&StallObject);
    assert_eq!(
        driver.try_run_solo(&StallObject, &mem, 0, OpSpec::Read, 100),
        None
    );
    // The operation is left in flight — the state is partial, not a
    // configuration.
    assert!(driver.state(0).in_flight());
}

#[test]
#[should_panic(expected = "did not complete")]
fn run_solo_still_panics_on_incompletion() {
    let (_, mem) = build_world(|b| {
        b.shared("X", 1, 64);
        StallObject
    });
    let mut driver = Driver::for_object(&StallObject);
    let _ = driver.run_solo(&StallObject, &mem, 0, OpSpec::Read, 100);
}

/// In debug builds the census drive asserts on a stalled operation (a
/// wait-freedom violation is a bug in the object under test, loudly so).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "did not complete")]
fn census_drive_debug_asserts_on_a_stalled_operation() {
    let v = Scenario::custom(|b| {
        b.shared("X", 1, 64);
        Box::new(StallObject)
    })
    .processes(1)
    .workload(Workload::script(vec![(Pid::new(0), OpSpec::Read)]))
    .census(&BfsConfig::default());
    let _ = v;
}

/// In release builds the same stall is surfaced as truncation: the partial
/// state is not counted and the report says coverage was cut.
#[cfg(not(debug_assertions))]
#[test]
fn census_drive_flags_a_stalled_operation_as_truncated() {
    let v = Scenario::custom(|b| {
        b.shared("X", 1, 64);
        Box::new(StallObject)
    })
    .processes(1)
    .workload(Workload::script(vec![(Pid::new(0), OpSpec::Read)]))
    .census(&BfsConfig::default());
    assert!(v.stats.truncated);
    assert_eq!(
        v.stats.executions, 0,
        "the stalled op is not counted as work"
    );
}
