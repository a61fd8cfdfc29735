//! Differential pin of the census's disk tier against its in-RAM tier and
//! the reference census, across every object kind.
//!
//! With `disk_dir` set and a decodable object, [`census_bfs_engine`]
//! replaces the resident visited set and frontier (whose nodes own their
//! images) with sorted spill files and generation files whose node records
//! carry their images. Complete runs count the same
//! on both tiers; truncated disk runs admit in canonical BFS order at
//! every worker count, as the reference census (`tests/common/mod.rs`)
//! does. These tests *pin* both empirically on all eight object kinds, at
//! 1, 2 and 4 workers, unfolded and with the private-step fold, complete
//! and truncated, with the RAM budget forced tiny enough that every run
//! actually spills (multi-run external sorts) — a disk tier that silently
//! kept everything resident would prove nothing.

mod common;

use common::{reference_census, spill_dir, Counts};
use detectable::{
    DetectableCas, DetectableCounter, DetectableFaa, DetectableQueue, DetectableRegister,
    DetectableSwap, DetectableTas, MaxRegister, ObjectKind, OpSpec, RecoverableObject,
};
use harness::{
    build_world, census_bfs_engine, default_alphabet, BfsConfig, Scenario, SpillStats, Workload,
};
use nvm::{Machine, Memory, Pid, Poll, SimMemory, Word};

/// Debug builds explore 3-process worlds, release 4 — same contract the
/// other scale-sensitive integration tests use.
fn world_n() -> u32 {
    if cfg!(debug_assertions) {
        3
    } else {
        4
    }
}

/// Builds one world per object kind at `n` processes.
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

/// The pin: for each kind and each (mode, cap) cell, the disk tier at 1, 2
/// and 4 workers reports the counts of its judge, and its spill counters
/// do not depend on the worker count. A complete cell's judge is the
/// one-worker in-RAM tier. A truncated cell's is the reference census:
/// the in-RAM tier admits depth first, so there it is held to the cap
/// and to repeating itself exactly.
#[test]
fn external_engine_matches_in_ram_on_every_kind() {
    let n = world_n();
    let dir = spill_dir("diff");
    for (kind, obj, mem) in worlds(n) {
        assert!(obj.decodable(), "{kind:?} must support machine decoding");
        let alphabet = default_alphabet(kind);
        for (fold_private, max_states) in
            [(false, 300_000), (true, 300_000), (false, 61), (true, 61)]
        {
            let cfg = BfsConfig {
                max_ops: 3,
                max_states,
                fold_private,
                disk_dir: Some(dir.clone()),
                // Tiny on purpose: forces multi-run sorts on every kind
                // (asserted below).
                ram_budget: Some(8 * 1024),
                parallelism: 1,
            };
            let ram_cfg = BfsConfig {
                disk_dir: None,
                ..cfg.clone()
            };
            let ram = census_bfs_engine(&*obj, &mem, &alphabet, &ram_cfg);
            let judge = if ram.truncated {
                assert_eq!(ram.work, max_states, "{kind:?} fold={fold_private}");
                let again = census_bfs_engine(&*obj, &mem, &alphabet, &ram_cfg);
                assert_eq!(Counts::from(&again), Counts::from(&ram), "{kind:?}");
                reference_census(&*obj, &mem, &alphabet, &cfg)
            } else {
                Counts::from(&ram)
            };
            let mut one_worker: Option<SpillStats> = None;
            for parallelism in [1, 2, 4] {
                let ext = census_bfs_engine(
                    &*obj,
                    &mem,
                    &alphabet,
                    &BfsConfig {
                        parallelism,
                        ..cfg.clone()
                    },
                );
                let tag = format!("{kind:?} fold={fold_private} cap={max_states} p={parallelism}");
                assert_eq!(Counts::from(&ext), judge, "{tag}");
                assert_eq!(ext.truncated, ram.truncated, "{tag}");
                assert_eq!(ext.theorem_bound, ram.theorem_bound, "{tag}");
                assert_eq!(ext.sched.workers, parallelism as u64, "{tag}");
                assert_eq!(
                    ext.sched.per_worker_expansions.iter().sum::<u64>(),
                    ext.work as u64,
                    "{tag}"
                );
                let spill = ext.spill.expect("external runs report spill stats");
                assert!(spill.bytes_spilled > 0, "{tag}: no bytes spilled");
                if max_states > 1_000 {
                    // The uncapped cells are big enough that the tiny budget
                    // must force real external behavior, not a resident run
                    // that happens to have files open. Every shard merge
                    // writes at least one run: only more runs than merges
                    // shows a shard merging several.
                    assert!(
                        spill.sort_runs > spill.merge_passes,
                        "{tag}: no shard merged two runs: {spill:?}"
                    );
                    assert!(
                        spill.candidates_dropped > 0,
                        "{tag}: the repeat filter dropped nothing: {spill:?}"
                    );
                }
                // No spill counter may depend on the workers.
                let first = *one_worker.get_or_insert(spill);
                assert_eq!(spill, first, "{tag}: spill counters moved with the workers");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Scenario::census` runs on the disk tier when `disk_dir`
/// is set and the object is decodable, and the verdict surfaces the new
/// observability fields (peak resident bytes, spilled bytes) end to end,
/// JSON included.
#[test]
fn scenario_routes_disk_dir_to_the_external_engine() {
    let dir = spill_dir("scenario");
    let cfg = BfsConfig {
        max_ops: 3,
        max_states: 300_000,
        disk_dir: Some(dir.clone()),
        ram_budget: Some(8 * 1024),
        parallelism: 1,
        ..Default::default()
    };
    let disk = Scenario::object(ObjectKind::Cas)
        .processes(world_n())
        .workload(Workload::round_robin(default_alphabet(ObjectKind::Cas), 4))
        .census(&cfg);
    let ram = Scenario::object(ObjectKind::Cas)
        .processes(world_n())
        .workload(Workload::round_robin(default_alphabet(ObjectKind::Cas), 4))
        .census(&BfsConfig {
            disk_dir: None,
            ..cfg
        });
    assert!(disk.stats.spilled_bytes > 0, "external engine must be used");
    assert_eq!(ram.stats.spilled_bytes, 0, "in-RAM engine spills nothing");
    assert_eq!(disk.stats.distinct_configs, ram.stats.distinct_configs);
    assert_eq!(disk.stats.executions, ram.stats.executions);
    assert_eq!(disk.stats.steps, ram.stats.steps);
    assert_eq!(disk.stats.truncated, ram.stats.truncated);
    assert!(disk.stats.peak_resident_bytes > 0);
    assert!(ram.stats.peak_resident_bytes > 0);
    for v in [&disk, &ram] {
        let json = v.to_json();
        assert!(json.contains("\"peak_resident_bytes\":"));
        assert!(json.contains("\"spilled_bytes\":"));
    }
    // All spill files live in a per-run subdirectory that is removed when
    // the census returns.
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill directory must be left empty"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk tier honors the admission cap bit-for-bit: a deliberately
/// small `--ram-budget` N = world_n() run under a tight cap truncates at
/// exactly the cap with the same canonical admissions as the in-RAM engine
/// (`work` equality above), and its peak resident estimate stays far below
/// what the resident engine holds.
#[test]
fn external_peak_resident_tracks_the_budget_not_the_space() {
    let dir = spill_dir("peak");
    let (cas, mem) = build_world(|b| DetectableCas::new(b, world_n(), 0));
    let alphabet = default_alphabet(ObjectKind::Cas);
    let cfg = BfsConfig {
        max_ops: if cfg!(debug_assertions) { 3 } else { 4 },
        max_states: 2_000_000,
        disk_dir: Some(dir.clone()),
        ram_budget: Some(64 * 1024),
        parallelism: 1,
        ..Default::default()
    };
    let ext = census_bfs_engine(&cas, &mem, &alphabet, &cfg);
    let ram = census_bfs_engine(
        &cas,
        &mem,
        &alphabet,
        &BfsConfig {
            disk_dir: None,
            ..cfg
        },
    );
    assert_eq!(ext.distinct_shared, ram.distinct_shared);
    assert_eq!(ext.work, ram.work);
    // The disk tier keeps its visited set, frontier and images on disk:
    // its peak must undercut the in-RAM engine, whose visited set holds a
    // fingerprint per admitted node.
    assert!(
        ext.peak_resident_bytes < ram.peak_resident_bytes,
        "external {} vs in-RAM {}",
        ext.peak_resident_bytes,
        ram.peak_resident_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk tier needs machines it can rebuild from their encodings: an
/// object without decoding support ([`RecoverableObject::decodable`] is
/// `false` by default) runs in RAM even with `disk_dir` set, counts
/// unchanged and the spill directory untouched.
#[test]
fn non_decodable_objects_stay_in_ram_with_a_disk_dir() {
    let dir = spill_dir("fallback");
    let n = world_n();
    let scenario =
        || Scenario::custom(move |b| Box::new(baselines::NonDetectableCas::new(b, n))).processes(n);
    let cfg = BfsConfig {
        max_ops: 3,
        max_states: 300_000,
        disk_dir: Some(dir.clone()),
        parallelism: 1,
        ..Default::default()
    };
    let disk = scenario().census(&cfg);
    let ram = scenario().census(&BfsConfig {
        disk_dir: None,
        ..cfg
    });
    assert_eq!(
        disk.stats.spilled_bytes, 0,
        "the disk tier must not be used"
    );
    assert_eq!(disk.stats.distinct_configs, ram.stats.distinct_configs);
    assert_eq!(disk.stats.executions, ram.stats.executions);
    assert_eq!(disk.stats.steps, ram.stats.steps);
    assert_eq!(disk.stats.truncated, ram.stats.truncated);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill directory must be left empty"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A machine that panics when stepped: the probe for the disk tier's
/// barrier abort.
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

/// A decodable object whose invoked operations panic on their first
/// step, so the disk tier runs it and the panic strikes in generation 1.
struct DecodablePanicObject;

impl RecoverableObject for DecodablePanicObject {
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
    fn decodable(&self) -> bool {
        true
    }
    fn decode_op(&self, pid: Pid, _op: &OpSpec, _words: &[Word]) -> Option<Box<dyn Machine>> {
        Some(Box::new(PanicMachine(pid)))
    }
    fn name(&self) -> &'static str {
        "panicking-register"
    }
}

/// A worker that panics mid-expansion must propagate the panic out of the
/// disk tier, not leave the other workers blocked at the generation
/// barrier (each worker's drop aborts it). The worker that panics may be
/// the calling thread's worker 0 or a helper, so both counts run; the
/// regression this guards against is a hang, which fails as a suite
/// timeout.
#[test]
fn disk_census_propagates_a_worker_panic_instead_of_hanging() {
    let dir = spill_dir("panic");
    for parallelism in [2, 4] {
        let (_, mem) = build_world(|b| {
            b.shared("X", 1, 64);
            DecodablePanicObject
        });
        let cfg = BfsConfig {
            max_ops: 2,
            parallelism,
            disk_dir: Some(dir.clone()),
            ram_budget: Some(8 * 1024),
            ..Default::default()
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            census_bfs_engine(&DecodablePanicObject, &mem, &[OpSpec::Read], &cfg)
        }));
        assert!(run.is_err(), "p={parallelism}: the probe's panic was lost");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a panicking run must still remove its spill files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
