//! Integration: census limit/truncation semantics, the parallel in-RAM
//! engine, and the private-step fold — the cap expands
//! exactly `max_states` nodes, truncation is visible end to end (report,
//! `Verdict`, JSON), runs count identically at every thread level, the
//! in-RAM engine agrees with the reference census defined here, and the
//! fold's work counts (non-count-preserving, but canonical) are pinned
//! below; `tests/census_fold.rs` pins its verdict on every kind.

mod common;

use common::{reference_census, spill_dir, Counts};
use detectable::{ObjectKind, OpSpec, RecoverableObject};
use harness::{build_world, census_bfs_engine, BfsConfig, Driver, Scenario, Verdict, Workload};
use nvm::{Machine, Memory, Pid, Poll, Word};

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

/// The reference judges both tiers, unfolded and folded. Complete cells:
/// the in-RAM engine at one worker and the disk tier at 1, 2 and 4
/// workers all match it on every count. Truncated cells: the disk tier,
/// which admits in canonical BFS order like the reference, still matches
/// it at every worker count; the in-RAM tier admits depth first, so it is
/// held to the cap and to repeating itself exactly.
#[test]
fn fork_engine_matches_reference_census_at_every_cap() {
    use detectable::DetectableCas;
    let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
    let dir = spill_dir("scale-ref");
    for fold_private in [false, true] {
        for (max_ops, max_states) in [(2, 200_000), (4, 200_000), (4, 37), (3, 1)] {
            let cfg = BfsConfig {
                max_ops,
                max_states,
                fold_private,
                parallelism: 1,
                ..Default::default()
            };
            let reference = reference_census(&cas, &mem, &cas_alphabet(), &cfg);
            let engine = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
            if reference.truncated {
                assert_eq!(engine.work, max_states, "{cfg:?}");
                assert!(engine.truncated, "{cfg:?}");
                let again = census_bfs_engine(&cas, &mem, &cas_alphabet(), &cfg);
                assert_eq!(Counts::from(&again), Counts::from(&engine), "{cfg:?}");
            } else {
                assert_eq!(Counts::from(&engine), reference, "{cfg:?}");
            }
            for parallelism in [1, 2, 4] {
                let disk_cfg = BfsConfig {
                    parallelism,
                    disk_dir: Some(dir.clone()),
                    // Tiny: forces multi-run sorts.
                    ram_budget: Some(4096),
                    ..cfg.clone()
                };
                let disk = census_bfs_engine(&cas, &mem, &cas_alphabet(), &disk_cfg);
                assert_eq!(Counts::from(&disk), reference, "{disk_cfg:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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

// ───────────────── the private-step fold (non-count-preserving) ─────────────────

/// The non-count-preserving contract, pinned: on the 2-process CAS world
/// with a 4-op budget the unfolded engine expands 1486 configurations and
/// the folded engine 364 — private-only steps join the step before
/// them — while both observe the same 4 distinct shared configurations.
/// Both counts are canonical (the same at every thread level); if an
/// engine change moves them, this test is the prompt to re-derive why.
#[test]
fn fold_work_divergence_is_pinned() {
    let cfg = BfsConfig {
        max_ops: 4,
        max_states: 2_000_000,
        ..Default::default()
    };
    let exact = cas_census(2, &cfg);
    let folded = cas_census(
        2,
        &BfsConfig {
            fold_private: true,
            ..cfg
        },
    );
    assert_eq!(exact.stats.executions, 1486, "unfolded expansion count");
    assert_eq!(folded.stats.executions, 364, "folded expansion count");
    assert_eq!(exact.stats.distinct_configs, 4);
    assert_eq!(folded.stats.distinct_configs, 4);
    assert_eq!(exact.bound_met, Some(true));
    assert_eq!(folded.bound_met, Some(true));
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

// ───────────────── release-only scale pins (N = 4, unfolded and folded) ─────────────────

/// The E12 scale pin, release builds only (the debug tier-1 run skips it):
/// the unfolded engine reproduces the canonical N = 4 numbers — 647 456
/// expansions, 16 distinct configurations — and the folded engine the
/// same verdict in 29 668 expansions, each at every thread level. This is
/// the acceptance gate for engine rewrites: counts may never move.
#[cfg(not(debug_assertions))]
#[test]
fn n4_census_counts_are_pinned_at_every_thread_level() {
    let base = BfsConfig {
        max_ops: 5,
        max_states: 20_000_000,
        ..Default::default()
    };
    for (fold_private, work) in [(false, 647_456), (true, 29_668)] {
        for parallelism in [1usize, 2, 4] {
            let v = cas_census(
                4,
                &BfsConfig {
                    parallelism,
                    fold_private,
                    ..base.clone()
                },
            );
            let tag = format!("fold={fold_private} threads={parallelism}");
            assert_eq!(v.stats.executions, work, "{tag}");
            assert_eq!(v.stats.distinct_configs, 16, "{tag}");
            assert!(!v.stats.truncated, "{tag}");
            assert_eq!(v.bound_met, Some(true), "{tag}");
        }
    }
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
