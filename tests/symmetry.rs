//! Property-based tests for the symmetry-reduced, memory-bounded explorer:
//! on randomized symmetric configurations, orbit canonicalization and memo
//! eviction must both be *invisible* in the reported totals — same leaf
//! counts, same truncation, no violations either way.

use detectable::{ObjectKind, OpSpec};
use harness::{explore_engine, ExploreConfig, OpSource, Scenario, SymmetryMode, Workload};
use proptest::prelude::*;

/// Per-kind symmetric operation alphabets (only kinds whose implementations
/// support `permute_memory` — the CAS family).
fn alphabet(kind: ObjectKind) -> Vec<OpSpec> {
    match kind {
        ObjectKind::Cas => vec![
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
            OpSpec::Read,
        ],
        ObjectKind::Counter => vec![OpSpec::Inc, OpSpec::Read],
        ObjectKind::Faa => vec![OpSpec::Faa(1), OpSpec::Read],
        ObjectKind::Swap => vec![OpSpec::Swap(1), OpSpec::Read],
        ObjectKind::Tas => vec![OpSpec::TestAndSet, OpSpec::Reset, OpSpec::Read],
        other => panic!("no symmetric alphabet for {other:?}"),
    }
}

fn arb_kind() -> impl Strategy<Value = ObjectKind> {
    prop_oneof![
        Just(ObjectKind::Cas),
        Just(ObjectKind::Counter),
        Just(ObjectKind::Faa),
        Just(ObjectKind::Swap),
        Just(ObjectKind::Tas),
    ]
}

/// One symmetric configuration: every process runs the same op list.
#[derive(Debug, Clone)]
struct SymConfig {
    kind: ObjectKind,
    processes: u32,
    ops: Vec<OpSpec>,
    max_crashes: usize,
}

fn arb_sym_config() -> impl Strategy<Value = SymConfig> {
    (
        arb_kind(),
        2u32..=3,
        prop::collection::vec(0usize..8, 1..3),
        0usize..=1,
    )
        .prop_map(|(kind, processes, picks, max_crashes)| {
            let alpha = alphabet(kind);
            // 3-process trees with 2 ops each blow past the test budget;
            // keep the wider world to single-op lists.
            let len = if processes == 3 { 1 } else { picks.len() };
            let ops = picks[..len]
                .iter()
                .map(|&i| alpha[i % alpha.len()])
                .collect();
            SymConfig {
                kind,
                processes,
                ops,
                max_crashes,
            }
        })
}

fn explore(cfg: &SymConfig, explore_cfg: &ExploreConfig) -> harness::ExploreOutcome {
    let (obj, mem) = Scenario::object(cfg.kind).processes(cfg.processes).build();
    let w: Vec<Vec<OpSpec>> = vec![cfg.ops.clone(); cfg.processes as usize];
    explore_engine(&*obj, &mem, OpSource::PerProcess(&w), explore_cfg)
}

fn bounded(
    symmetry: SymmetryMode,
    memo_budget: Option<usize>,
    max_crashes: usize,
) -> ExploreConfig {
    ExploreConfig {
        max_crashes,
        max_retries: 1,
        // Large enough that most sampled trees complete, small enough to
        // bound the worst case; sequential truncation covers the canonical
        // first `max_leaves` executions either way, so totals stay
        // comparable even when the cap bites.
        max_leaves: 200_000,
        symmetry,
        memo_budget,
        // Pinned: `unique_nodes` and truncated totals vary with the
        // worker count.
        parallelism: 1,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn symmetry_reduced_totals_equal_unreduced(cfg in arb_sym_config()) {
        let plain = explore(&cfg, &bounded(SymmetryMode::Off, None, cfg.max_crashes));
        let reduced = explore(&cfg, &bounded(SymmetryMode::On, None, cfg.max_crashes));
        prop_assert!(reduced.symmetry, "the CAS family supports reduction: {cfg:?}");
        prop_assert!(plain.violation.is_none() && reduced.violation.is_none());
        prop_assert!(plain.leaves == reduced.leaves, "leaves diverged: {cfg:?}");
        prop_assert!(plain.truncated == reduced.truncated, "truncation diverged: {cfg:?}");
        prop_assert!(
            reduced.unique_nodes <= plain.unique_nodes,
            "reduction never expands more: {cfg:?}"
        );
    }

    #[test]
    fn tiny_memo_budget_still_reports_exact_totals(cfg in arb_sym_config()) {
        let unbounded = explore(&cfg, &bounded(SymmetryMode::On, None, cfg.max_crashes));
        // A budget of 64 entries is far below these trees' unique-node
        // counts: generations rotate constantly, evicted states re-explore.
        let tiny = explore(&cfg, &bounded(SymmetryMode::On, Some(64), cfg.max_crashes));
        prop_assert!(unbounded.violation.is_none() && tiny.violation.is_none());
        prop_assert!(unbounded.leaves == tiny.leaves, "leaves diverged: {cfg:?}");
        prop_assert!(unbounded.truncated == tiny.truncated, "truncation diverged: {cfg:?}");
        prop_assert!(
            tiny.unique_nodes >= unbounded.unique_nodes,
            "eviction can only re-explore: {cfg:?}"
        );
    }
}

/// Deterministic companion: the eviction path demonstrably engages on a
/// tree big enough to overflow a 64-entry budget (the property above only
/// checks totals, which must hide eviction entirely).
#[test]
fn eviction_engages_and_stays_invisible_end_to_end() {
    let cfg = SymConfig {
        kind: ObjectKind::Cas,
        processes: 2,
        ops: vec![
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
        ],
        max_crashes: 1,
    };
    let unbounded = explore(&cfg, &bounded(SymmetryMode::On, None, 1));
    let tiny = explore(&cfg, &bounded(SymmetryMode::On, Some(64), 1));
    assert!(tiny.memo_evictions > 0, "64 entries must overflow");
    assert_eq!(unbounded.leaves, tiny.leaves);
    assert_eq!(unbounded.memo_evictions, 0);
}

/// `Scenario`-level auto gating: a seeded `Workload::random` over a
/// symmetric alphabet auto-enables reduction exactly when two processes
/// draw identical lists, and the verdict totals never depend on it.
#[test]
fn scenario_auto_symmetry_is_total_preserving_across_seeds() {
    for seed in 0..6 {
        let base = Scenario::object(ObjectKind::Counter)
            .processes(3)
            .workload(Workload::random(vec![OpSpec::Inc, OpSpec::Read], 1))
            .workload_seed(seed);
        let auto = base.clone().explore(&ExploreConfig::default());
        let off = base.explore(&ExploreConfig {
            symmetry: SymmetryMode::Off,
            ..Default::default()
        });
        auto.assert_passed();
        off.assert_passed();
        assert_eq!(
            auto.stats.executions, off.stats.executions,
            "seed {seed}: totals are symmetry-invariant"
        );
    }
}

/// Sequential explorer counts, pinned. `leaves` is fixed by the tree, but
/// `unique_nodes` and `memo_hits` depend on exactly which configurations
/// the memo key merges, so any change to the fingerprint's pre-image (the
/// memory words, driver key, positions, crash count, ranked records, or
/// the orbit canonicalization) moves them. The unbounded memo keeps the
/// counts independent of how keys spread over memo shards.
#[test]
fn sequential_explorer_counts_are_pinned() {
    use baselines::{NonDetectableCas, NonDetectableRegister};
    use nvm::{CacheMode, CrashPolicy, Pid};

    let cas = |old, new| OpSpec::Cas { old, new };
    let cfg = |symmetry, max_crashes| ExploreConfig {
        max_crashes,
        max_retries: 1,
        max_leaves: usize::MAX,
        symmetry,
        memo_budget: None,
        parallelism: 1,
        ..Default::default()
    };
    let per_process = |scenario: Scenario, lists: Vec<Vec<OpSpec>>, cfg: ExploreConfig| {
        let (obj, mem) = scenario.build();
        explore_engine(&*obj, &mem, OpSource::PerProcess(&lists), &cfg)
    };
    let script = |scenario: Scenario, script: Vec<(Pid, OpSpec)>, cfg: ExploreConfig| {
        let (obj, mem) = scenario.build();
        explore_engine(&*obj, &mem, OpSource::Script(&script), &cfg)
    };
    let p = Pid::new;
    let cas3 = || Scenario::object(ObjectKind::Cas).processes(3);
    let shared_cas2 = || {
        Scenario::object(ObjectKind::Cas)
            .processes(2)
            .memory(CacheMode::SharedCache)
    };
    let cas2_lists = || vec![vec![cas(0, 1), cas(1, 0)]; 2];

    let runs: Vec<(&str, harness::ExploreOutcome, [usize; 3])> = vec![
        (
            "cas 3x1, symmetry off",
            per_process(cas3(), vec![vec![cas(0, 1)]; 3], cfg(SymmetryMode::Off, 1)),
            [62_854_434, 35_083, 14_439],
        ),
        (
            "cas 3x1, symmetry on",
            per_process(cas3(), vec![vec![cas(0, 1)]; 3], cfg(SymmetryMode::On, 1)),
            [62_854_434, 6_537, 3_245],
        ),
        (
            "counter 3x1, symmetry on",
            per_process(
                Scenario::object(ObjectKind::Counter).processes(3),
                vec![vec![OpSpec::Inc]; 3],
                cfg(SymmetryMode::On, 1),
            ),
            [807_627_771_306, 30_258, 31_307],
        ),
        (
            "shared-cache cas 2x2, symmetry off",
            per_process(shared_cas2(), cas2_lists(), cfg(SymmetryMode::Off, 1)),
            [220_048, 10_113, 3_762],
        ),
        (
            "shared-cache cas 2x2, symmetry on",
            per_process(shared_cas2(), cas2_lists(), cfg(SymmetryMode::On, 1)),
            [220_048, 5_109, 1_972],
        ),
        (
            "shared-cache cas 2x2, random-subset crashes",
            per_process(
                shared_cas2(),
                cas2_lists(),
                ExploreConfig {
                    crash_policy: CrashPolicy::RandomSubset(7),
                    ..cfg(SymmetryMode::Off, 1)
                },
            ),
            [220_048, 10_113, 3_762],
        ),
        (
            "max register 2x2 (opaque to symmetry)",
            per_process(
                Scenario::object(ObjectKind::MaxRegister),
                vec![
                    vec![OpSpec::WriteMax(2), OpSpec::Read],
                    vec![OpSpec::WriteMax(1)],
                ],
                cfg(SymmetryMode::On, 1),
            ),
            [21_759, 579, 397],
        ),
        (
            "register script, two crashes",
            script(
                Scenario::object(ObjectKind::Register),
                vec![
                    (p(0), OpSpec::Write(1)),
                    (p(1), OpSpec::Read),
                    (p(1), OpSpec::Write(2)),
                    (p(0), OpSpec::Write(1)),
                    (p(1), OpSpec::Read),
                ],
                cfg(SymmetryMode::Off, 2),
            ),
            [1_077, 1_103, 266],
        ),
        (
            "non-detectable register script (relaxed records)",
            script(
                Scenario::custom(|b| Box::new(NonDetectableRegister::new(b, 2))),
                vec![
                    (p(0), OpSpec::Write(1)),
                    (p(1), OpSpec::Read),
                    (p(0), OpSpec::Write(2)),
                    (p(1), OpSpec::Read),
                ],
                cfg(SymmetryMode::Off, 2),
            ),
            [19, 119, 0],
        ),
        (
            "non-detectable cas 2x2 (relaxed records)",
            per_process(
                Scenario::custom(|b| Box::new(NonDetectableCas::new(b, 2))),
                vec![vec![cas(0, 1), OpSpec::Read], vec![cas(0, 2), OpSpec::Read]],
                cfg(SymmetryMode::Off, 1),
            ),
            [2_150, 3_291, 264],
        ),
    ];
    let got: Vec<(&str, [usize; 3])> = runs
        .iter()
        .map(|(name, out, _)| {
            assert!(out.violation.is_none() && !out.truncated, "{name}");
            (*name, [out.leaves, out.unique_nodes, out.memo_hits])
        })
        .collect();
    let pinned: Vec<(&str, [usize; 3])> = runs.iter().map(|(name, _, pin)| (*name, *pin)).collect();
    assert_eq!(
        got, pinned,
        "[leaves, unique_nodes, memo_hits] per exploration"
    );
}
