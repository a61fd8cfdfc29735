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
