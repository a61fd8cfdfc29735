//! Integration: engine-level equivalence. The `Scenario` runners are thin
//! lowerings onto the public engines (`sim_engine`, `explore_engine`,
//! `census_drive_engine`, `census_bfs_engine`, `witness_search`); these
//! tests pin that the lowering adds nothing — byte-identical histories on
//! fixed seeds for the simulator, equal counts everywhere else. (They
//! started life as deprecation-shim coverage; the shims are gone, the
//! equivalence contract remains.)

use detectable::{DetectableCas, DetectableRegister, ObjectKind, OpSpec};
use harness::{
    build_world, census_bfs_engine, census_drive_engine, default_alphabet, explore_engine,
    gray_code_cas_ops, mixed_op, sim_engine, witness_search, BfsConfig, CrashModel, ExploreConfig,
    OpSource, Scenario, SimConfig, Workload,
};
use nvm::Pid;

/// Materializes the per-process plan the way `Scenario::simulate` does.
fn mixed_plan(kind: ObjectKind, processes: u32, ops: usize) -> Vec<Vec<OpSpec>> {
    (0..processes)
        .map(|p| (0..ops).map(|i| mixed_op(kind, Pid::new(p), i)).collect())
        .collect()
}

#[test]
fn sim_engine_histories_are_byte_identical_to_scenario_simulate() {
    for seed in [0u64, 7, 42, 1_000, 65_535] {
        let cfg = SimConfig {
            seed,
            ops_per_process: 3,
            crash_prob: 0.07,
            ..Default::default()
        };

        // Engine path: hand-built world + explicit plan.
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 3, 0));
        let old = sim_engine(&reg, &mem, &cfg, &mixed_plan(ObjectKind::Register, 3, 3));

        // Scenario path: the same experiment through the front door.
        let new = Scenario::object(ObjectKind::Register)
            .processes(3)
            .workload(Workload::mixed(3))
            .simulate_report(&cfg);

        assert_eq!(
            old.history.to_string(),
            new.history.to_string(),
            "seed {seed}: histories must be byte-identical"
        );
        assert_eq!(old.crashes, new.crashes);
        assert_eq!(old.resolved_ops, new.resolved_ops);
        assert_eq!(old.steps, new.steps);
    }
}

#[test]
fn sim_engine_matches_scenario_under_crash_model_override() {
    let cfg = SimConfig {
        seed: 99,
        ops_per_process: 2,
        crash_prob: 0.1,
        max_retries: 2,
        ..Default::default()
    };
    let (cas, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
    let old = sim_engine(&cas, &mem, &cfg, &mixed_plan(ObjectKind::Cas, 3, 2));
    let new = Scenario::object(ObjectKind::Cas)
        .processes(3)
        .workload(Workload::mixed(2))
        .faults(CrashModel::storms(0.1).retries(2))
        .simulate_report(&SimConfig {
            seed: 99,
            ..Default::default()
        });
    assert_eq!(old.history.to_string(), new.history.to_string());
}

#[test]
fn census_drive_engine_counts_match_scenario_census() {
    for n in 1..=6u32 {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, n, 0));
        let ops = gray_code_cas_ops(n);
        let old = census_drive_engine(&cas, &mem, &ops);

        let new = Scenario::object(ObjectKind::Cas)
            .processes(n)
            .workload(Workload::script(ops))
            .census(&BfsConfig::default());

        assert_eq!(old.distinct_shared as u64, new.stats.distinct_configs);
        assert_eq!(old.theorem_bound, new.stats.theorem_bound);
        assert_eq!(old.meets_bound(), new.bound_met.expect("detectable CAS"));
    }
}

#[test]
fn census_bfs_engine_counts_match_scenario_census() {
    let alphabet = [
        OpSpec::Cas { old: 0, new: 1 },
        OpSpec::Cas { old: 1, new: 0 },
    ];
    let cfg = BfsConfig {
        max_ops: 4,
        max_states: 200_000,
        ..Default::default()
    };
    let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
    let old = census_bfs_engine(&cas, &mem, &alphabet, &cfg);

    let new = Scenario::object(ObjectKind::Cas)
        .workload(Workload::round_robin(alphabet.to_vec(), 4))
        .census(&cfg);

    assert_eq!(old.distinct_shared as u64, new.stats.distinct_configs);
    assert_eq!(old.work as u64, new.stats.executions);
}

#[test]
fn explore_engine_matches_scenario_explore() {
    let script = [
        (Pid::new(0), OpSpec::Write(1)),
        (Pid::new(1), OpSpec::Read),
        (Pid::new(1), OpSpec::Write(2)),
    ];
    // Pinned: `unique_nodes` varies with the worker count.
    let cfg = ExploreConfig {
        parallelism: 1,
        ..Default::default()
    };
    let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
    let old = explore_engine(&reg, &mem, OpSource::Script(&script), &cfg);

    let new = Scenario::object(ObjectKind::Register)
        .workload(Workload::script(script.to_vec()))
        .explore(&cfg);

    assert_eq!(old.leaves as u64, new.stats.executions);
    assert_eq!(old.unique_nodes as u64, new.stats.distinct_configs);
    assert!(old.violation.is_none() && new.passed);
}

#[test]
fn witness_search_matches_scenario_perturb() {
    for kind in [
        ObjectKind::Register,
        ObjectKind::Cas,
        ObjectKind::MaxRegister,
    ] {
        let old = witness_search(kind, &default_alphabet(kind), 3, 3);
        let new = Scenario::object(kind).perturb();
        assert_eq!(
            old.is_some(),
            new.bound_met.expect("perturb sets bound_met")
        );
        assert_eq!(old, new.witness, "{kind:?}: identical first witness");
    }
}
