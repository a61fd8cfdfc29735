//! Integration: real-process SIGKILL/recover cycles for every paper
//! object over the crash fabric (one worker process per paper process) —
//! per-process subset kills, full-system kills in the shared-cache model,
//! and kills landing *inside recovery itself* — plus the nondetectable
//! negative controls.
//!
//! This test re-execs itself as the crash worker (the parent spawns
//! `current_exe()` with `PC_WORKER` set), so it cannot run under the
//! default libtest harness — libtest's `main` would swallow the worker
//! mode. `Cargo.toml` declares it `harness = false` and `main` calls
//! [`maybe_run_worker`] before anything else.

use baselines::{NonDetectableCas, NonDetectableRegister};
use detectable::{ObjectKind, RecoverableObject};
use harness::process_crash::{
    default_factory, kind_name, maybe_run_worker, run_cycle, CrashCycleConfig,
};
use nvm::{CacheMode, LayoutBuilder};

/// Same universe as the soak binary: the eight paper objects by kind
/// name, plus the two nondetectable baselines.
fn factory(
    name: &str,
    b: &mut LayoutBuilder,
    n: u32,
    qcap: u32,
) -> Option<Box<dyn RecoverableObject>> {
    match name {
        "nondetectable-register" => Some(Box::new(NonDetectableRegister::new(b, n))),
        "nondetectable-cas" => Some(Box::new(NonDetectableCas::new(b, n))),
        _ => default_factory(name, b, n, qcap),
    }
}

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

fn config(object: &str, kind: ObjectKind, cache: CacheMode, seed: u64) -> CrashCycleConfig {
    let mut cfg = CrashCycleConfig::new(kind);
    cfg.object = object.to_string();
    cfg.ops_per_proc = 400;
    cfg.queue_capacity = (cfg.procs as usize * cfg.ops_per_proc + 1) as u32;
    cfg.cache_mode = cache;
    if cache == CacheMode::SharedCache {
        // A shared-cache crash loses the one cache every process shares:
        // the whole system dies.
        cfg.kill_subset = cfg.procs;
    }
    cfg.seed = seed;
    cfg.kill_window_us = 2_000;
    cfg.dir = std::env::temp_dir().join(format!(
        "process-crash-test-{}-{object}-{seed}",
        std::process::id()
    ));
    cfg
}

/// Asserts one cycle's report is clean for a detectable object: nothing
/// unresolved, every in-flight operation covered by a definite verdict,
/// and the stitched history linearizable.
fn assert_clean(r: &harness::process_crash::CycleReport, object: &str, cycle: u64) {
    assert_eq!(
        r.recovered_unresolved, 0,
        "{object} cycle {cycle}: recovery left ops unresolved"
    );
    assert_eq!(
        r.recovered_ok + r.recovered_failed,
        r.in_flight,
        "{object} cycle {cycle}: recovery verdicts must cover in-flight ops"
    );
    assert!(
        r.check_ok,
        "{object} cycle {cycle}: {}",
        r.violation.as_deref().unwrap_or("(unrendered)")
    );
}

/// Every detectable kind survives real SIGKILLs (one victim per cycle in
/// the private-cache model, every worker in the shared-cache model): no
/// in-flight operation is lost, every recovery verdict is definite, and the stitched
/// pre-crash + recovery history passes the windowed durable-linearizability
/// check.
fn detectable_kinds_survive_sigkill(cache: CacheMode) {
    let mut kills = 0u64;
    for (k, kind) in ALL_KINDS.into_iter().enumerate() {
        let object = kind_name(kind);
        let cfg = config(object, kind, cache, 11 + k as u64);
        for cycle in 0..3 {
            let r = run_cycle(&cfg, factory, cycle)
                .unwrap_or_else(|e| panic!("{object} cycle {cycle}: {e}"));
            kills += r.worker_kills as u64;
            assert_clean(&r, object, cycle);
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
    // The kill window is sized so most cycles die mid-run; a kill-free
    // pass would prove nothing about recovery.
    assert!(
        kills > 0,
        "no cycle was SIGKILLed; kill window too generous"
    );
}

/// Kill-during-recovery regression: with `recovery_kills = k`, recovery
/// runs in its own child and the parent SIGKILLs it mid-recovery up to k
/// nested times; every re-entry must converge idempotently — same clean
/// verdicts, same passing check — and each landed recovery kill must be
/// followed by exactly one re-entry. Runs for all 8 kinds in the given
/// cache mode (in the shared-cache model every recovery kill also wipes
/// the shared overlay, like any other crash).
fn recovery_survives_nested_kills(cache: CacheMode, k: u32) {
    let mut recovery_kills = 0u64;
    for (i, kind) in ALL_KINDS.into_iter().enumerate() {
        let object = kind_name(kind);
        let mut cfg = config(object, kind, cache, 300 + 31 * k as u64 + i as u64);
        cfg.recovery_kills = k;
        for cycle in 0..2 {
            let r = run_cycle(&cfg, factory, cycle)
                .unwrap_or_else(|e| panic!("{object} k={k} cycle {cycle}: {e}"));
            assert_clean(&r, object, cycle);
            assert_eq!(
                r.recovery_reentries, r.recovery_kills,
                "{object} k={k} cycle {cycle}: every landed recovery kill must be \
                 followed by exactly one re-entry"
            );
            assert!(
                r.recovery_kills <= k as usize * r.in_flight.max(1),
                "{object} k={k} cycle {cycle}: more recovery kills than planned"
            );
            recovery_kills += r.recovery_kills as u64;
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
    // Across 16 cycles some kill must land mid-op, arming a recoverer the
    // parent then kills — otherwise this test never exercised re-entry.
    assert!(
        recovery_kills > 0,
        "k={k}: no SIGKILL ever landed inside recovery; pacing too short"
    );
}

/// Subset death: a randomized 2-of-3 subset dies mid-traffic, survivors keep
/// running and re-barrier, each dead process recovers in its own child
/// (one nested recovery kill), and the stitched history still checks.
fn fabric_subset_kills_survive(k: u32) {
    let mut kills = 0u64;
    let mut survivor_ops = 0u64;
    for (i, kind) in ALL_KINDS.into_iter().enumerate() {
        let object = kind_name(kind);
        let mut cfg = config(object, kind, CacheMode::PrivateCache, 500 + i as u64);
        cfg.kill_subset = 2;
        cfg.recovery_kills = k;
        for cycle in 0..2 {
            let r = run_cycle(&cfg, factory, cycle)
                .unwrap_or_else(|e| panic!("{object} fabric cycle {cycle}: {e}"));
            kills += r.worker_kills as u64;
            survivor_ops += r.survivor_ops as u64;
            assert_clean(&r, object, cycle);
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
    assert!(kills > 0, "fabric: no worker was ever SIGKILLed");
    assert!(
        survivor_ops > 0,
        "fabric: survivors never completed an operation after a peer died"
    );
}

/// `run_cycle` rejects configurations it cannot model with an error (not
/// a panic), before spawning anything.
fn fabric_rejects_invalid_configs() {
    let base = config("register", ObjectKind::Register, CacheMode::PrivateCache, 1);
    type Break = fn(&mut CrashCycleConfig);
    let cases: [(&str, Break); 7] = [
        ("kill_subset > procs", |c| c.kill_subset = c.procs + 1),
        ("kill_subset == 0", |c| c.kill_subset = 0),
        ("zero ops", |c| c.ops_per_proc = 0),
        // 5 procs × 16-op barrier = 80 > the 64-op checker window.
        ("window overflow", |c| c.procs = 5),
        ("zero procs", |c| c.procs = 0),
        ("shared cache with a subset kill", |c| {
            c.cache_mode = CacheMode::SharedCache;
            c.kill_subset = c.procs - 1;
        }),
        ("procs_as_processes = false", |c| {
            c.procs_as_processes = false
        }),
    ];
    for (what, break_it) in cases {
        let mut cfg = base.clone();
        break_it(&mut cfg);
        let err = run_cycle(&cfg, factory, 0).expect_err(what);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{what}: {err}"
        );
        assert!(cfg.validate().is_err(), "{what}: validate must agree");
    }
    assert!(base.validate().is_ok());
    // 4 procs × 16-op barrier = 64 fills the checker window exactly.
    let four = CrashCycleConfig {
        procs: 4,
        ..base.clone()
    };
    assert!(
        four.validate().is_ok(),
        "procs = 4 is the largest valid count"
    );
    let _ = std::fs::remove_dir_all(&base.dir);
}

/// The nondetectable baselines are the negative control: their recovery
/// disclaims every interrupted operation, so with enough kills the
/// stitched-history check must eventually catch a disclaimed operation
/// that really linearized. Detection needs a kill to land mid-op, so we
/// iterate cycles (fresh seeds each round) until the lie surfaces. Runs
/// with `kill_subset` of the 3 processes dying: all of them (a full-system
/// crash) or a subset, where even only the dead ones' lies are caught.
fn nondetectable_baselines_get_caught(kill_subset: u32) {
    let mut caught = 0u64;
    'outer: for round in 0..40u64 {
        for (object, kind) in [
            ("nondetectable-register", ObjectKind::Register),
            ("nondetectable-cas", ObjectKind::Cas),
        ] {
            let mut cfg = config(object, kind, CacheMode::PrivateCache, 100 + round);
            cfg.ops_per_proc = 700;
            cfg.queue_capacity = (cfg.procs as usize * cfg.ops_per_proc + 1) as u32;
            cfg.kill_subset = kill_subset;
            cfg.recovery_kills = u32::from(kill_subset < cfg.procs);
            let r = run_cycle(&cfg, factory, round)
                .unwrap_or_else(|e| panic!("{object} round {round}: {e}"));
            let _ = std::fs::remove_dir_all(&cfg.dir);
            if !r.check_ok {
                caught += 1;
            }
            if caught > 0 {
                break 'outer;
            }
        }
    }
    assert!(
        caught > 0,
        "negative control (kill_subset={kill_subset}) never failed a check in 40 rounds — \
         the checker would not catch a lying recovery"
    );
}

fn main() {
    // Worker mode first: when the parent re-execs this binary with
    // PC_WORKER set, this call never returns.
    maybe_run_worker(factory);

    println!("running process_crash: detectable kinds, private cache");
    detectable_kinds_survive_sigkill(CacheMode::PrivateCache);
    println!("running process_crash: detectable kinds, shared cache");
    detectable_kinds_survive_sigkill(CacheMode::SharedCache);
    for (cache, tag) in [
        (CacheMode::PrivateCache, "private"),
        (CacheMode::SharedCache, "shared"),
    ] {
        for k in [1u32, 2] {
            println!("running process_crash: kill-during-recovery, {tag} cache, k={k}");
            recovery_survives_nested_kills(cache, k);
        }
    }
    println!("running process_crash: 2-of-3 subset kills");
    fabric_subset_kills_survive(1);
    println!("running process_crash: config validation");
    fabric_rejects_invalid_configs();
    println!("running process_crash: nondetectable negative control (full-system kill)");
    nondetectable_baselines_get_caught(3);
    println!("running process_crash: nondetectable negative control (2-of-3 subset)");
    nondetectable_baselines_get_caught(2);
    println!("process_crash: ok");
}
