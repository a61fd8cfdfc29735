//! Property-based tests (proptest) over the whole stack: arbitrary seeds,
//! crash rates, workloads and process counts must never produce a history
//! the checker rejects; the checker itself must accept everything the
//! sequential specification generates and reject mutations of it.

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use harness::{
    build_world_mode, check_history, spec_apply, spec_init, CrashModel, Event, History, Scenario,
    SimConfig, Workload,
};
use nvm::{CacheMode, CrashPolicy, Pid, ACK};
use proptest::prelude::*;

// ───────────────────────── simulator properties ─────────────────────────

/// Materializes a closure workload into explicit per-process lists for the
/// declarative `Workload` type.
fn lists(n: u32, ops: usize, f: impl Fn(Pid, usize) -> OpSpec) -> Workload {
    Workload::per_process(
        (0..n)
            .map(|p| (0..ops).map(|i| f(Pid::new(p), i)).collect())
            .collect(),
    )
}

/// The exact simulated state (NVM, dirty overlay, crash ordinal).
fn state_words(mem: &nvm::SimMemory) -> Vec<nvm::Word> {
    let mut out = Vec::new();
    mem.state_words_into(&mut out);
    out
}

fn register_workload(choices: Vec<u8>) -> impl Fn(Pid, usize) -> OpSpec {
    move |pid: Pid, i: usize| {
        let c = choices[(pid.idx() * 7 + i) % choices.len()];
        match c % 3 {
            0 => OpSpec::Read,
            _ => OpSpec::Write(u32::from(c % 5)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn register_histories_always_linearize(
        seed in 0u64..10_000,
        crash in 0u32..15,
        n in 2u32..5,
        choices in prop::collection::vec(0u8..=255, 4..16),
    ) {
        let verdict = Scenario::object(ObjectKind::Register)
            .processes(n)
            .workload(lists(n, 2, register_workload(choices)))
            .faults(CrashModel::storms(f64::from(crash) / 100.0))
            .simulate(&SimConfig {
                seed,
                ..Default::default()
            });
        prop_assert!(verdict.passed, "{:?}", verdict.violation);
    }

    #[test]
    fn cas_histories_always_linearize(
        seed in 0u64..10_000,
        crash in 0u32..15,
        domain in 2u32..5,
    ) {
        let verdict = Scenario::object(ObjectKind::Cas)
            .processes(3)
            .workload(lists(3, 3, move |pid, i| OpSpec::Cas {
                old: i as u32 % domain,
                new: (pid.get() + i as u32 + 1) % domain,
            }))
            .faults(CrashModel::storms(f64::from(crash) / 100.0))
            .simulate(&SimConfig {
                seed,
                ..Default::default()
            });
        prop_assert!(verdict.passed, "{:?}", verdict.violation);
    }

    #[test]
    fn shared_cache_histories_always_linearize(
        seed in 0u64..5_000,
        policy_seed in 0u64..1_000,
    ) {
        let verdict = Scenario::object(ObjectKind::Cas)
            .processes(2)
            .memory(CacheMode::SharedCache)
            .workload(Workload::from_fn(
                |pid, i| OpSpec::Cas {
                    old: i as u32 % 3,
                    new: (pid.get() + i as u32 + 1) % 3,
                },
                3,
            ))
            .faults(CrashModel::storms(0.06).policy(CrashPolicy::RandomSubset(policy_seed)))
            .simulate(&SimConfig {
                seed,
                ..Default::default()
            });
        prop_assert!(verdict.passed, "{:?}", verdict.violation);
    }

    #[test]
    fn counter_final_value_counts_confirmed_incs(
        seed in 0u64..5_000,
        crash in 0u32..12,
    ) {
        // Object-specific end-to-end invariant, independent of the checker:
        // the final counter value equals the number of Inc operations whose
        // outcome was confirmed (returned or recovered as ack).
        let (ctr, mem) = build_world_mode(CacheMode::PrivateCache, |b| {
            detectable::DetectableCounter::new(b, 3)
        });
        let cfg = SimConfig {
            seed,
            ops_per_process: 3,
            crash_prob: f64::from(crash) / 100.0,
            retry_on_fail: false, // abandoned fails stay unapplied
            ..Default::default()
        };
        // Engine-level call: this property needs the built world afterwards
        // (`peek_value`), which the Scenario runners encapsulate.
        let plan = vec![vec![OpSpec::Inc; 3]; 3];
        let report = harness::sim_engine(&ctr, &mem, &cfg, &plan);
        let confirmed = report
            .history
            .to_records()
            .iter()
            .filter(|r| matches!(r.outcome, harness::Outcome::Completed(w) if w == ACK))
            .count();
        prop_assert_eq!(ctr.peek_value(&mem) as usize, confirmed);
    }
}

// ───────────────────────── checker properties ─────────────────────────

fn arb_op(kind: ObjectKind) -> impl Strategy<Value = OpSpec> {
    match kind {
        ObjectKind::Register => {
            prop_oneof![Just(OpSpec::Read), (0u32..4).prop_map(OpSpec::Write),].boxed()
        }
        ObjectKind::Queue => {
            prop_oneof![Just(OpSpec::Deq), (0u32..4).prop_map(OpSpec::Enq),].boxed()
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checker_accepts_all_sequential_spec_runs(
        kind_sel in 0u8..2,
        ops in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        let kind = if kind_sel == 0 { ObjectKind::Register } else { ObjectKind::Queue };
        // Build a sequential history straight from the spec.
        let mut h = History::new();
        let mut st = spec_init(kind);
        for (i, raw) in ops.iter().enumerate() {
            let op = match kind {
                ObjectKind::Register => {
                    if raw % 3 == 0 { OpSpec::Read } else { OpSpec::Write(u32::from(raw % 4)) }
                }
                _ => {
                    if raw % 2 == 0 { OpSpec::Deq } else { OpSpec::Enq(u32::from(raw % 4)) }
                }
            };
            let pid = Pid::new((i % 3) as u32);
            let (next, resp) = spec_apply(kind, &st, &op).expect("op in interface");
            st = next;
            h.push(Event::Invoke { pid, op });
            h.push(Event::Return { pid, resp });
        }
        prop_assert!(check_history(kind, &h).is_ok());
    }

    #[test]
    fn checker_rejects_mutated_reads(
        writes in prop::collection::vec(1u32..6, 1..5),
    ) {
        // Sequential writes then a read reporting a value never written.
        let mut h = History::new();
        let p = Pid::new(0);
        for w in &writes {
            h.push(Event::Invoke { pid: p, op: OpSpec::Write(*w) });
            h.push(Event::Return { pid: p, resp: ACK });
        }
        h.push(Event::Invoke { pid: p, op: OpSpec::Read });
        h.push(Event::Return { pid: p, resp: 99 }); // 99 ∉ domain of writes
        prop_assert!(check_history(ObjectKind::Register, &h).is_err());
    }

    #[test]
    fn checker_order_insensitive_to_concurrent_pairs(
        a in 1u32..5,
        b in 5u32..9,
    ) {
        // Two overlapping writes then a read of either value must pass.
        for seen in [a, b] {
            let mut h = History::new();
            h.push(Event::Invoke { pid: Pid::new(0), op: OpSpec::Write(a) });
            h.push(Event::Invoke { pid: Pid::new(1), op: OpSpec::Write(b) });
            h.push(Event::Return { pid: Pid::new(0), resp: ACK });
            h.push(Event::Return { pid: Pid::new(1), resp: ACK });
            h.push(Event::Invoke { pid: Pid::new(2), op: OpSpec::Read });
            h.push(Event::Return { pid: Pid::new(2), resp: u64::from(seen) });
            prop_assert!(check_history(ObjectKind::Register, &h).is_ok());
        }
    }

    #[test]
    fn arb_op_strategies_are_well_formed(op in arb_op(ObjectKind::Register)) {
        // Sanity: generated ops stay within the register interface.
        prop_assert!(matches!(op, OpSpec::Read | OpSpec::Write(_)));
    }
}

// ───────────────────────── substrate properties ─────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn field_pack_unpack_roundtrip(
        shift in 0u32..32,
        width in 1u32..32,
        value in any::<u64>(),
    ) {
        prop_assume!(shift + width <= 64);
        let f = nvm::Field::new(shift, width);
        let v = value & f.max();
        prop_assert_eq!(f.get(f.set(0, v)), v);
        // Setting never disturbs other bits.
        let other = nvm::Field::new(0, 64);
        let w = f.set(u64::MAX, v);
        prop_assert_eq!(other.get(w) | (f.max() << shift), u64::MAX);
    }

    #[test]
    fn snapshot_restore_is_identity(
        writes in prop::collection::vec((0usize..8, any::<u64>()), 0..20),
    ) {
        let mut b = nvm::LayoutBuilder::new();
        let base = b.shared("cells", 8, 64);
        let mem = nvm::SimMemory::new(b.finish());
        let p = Pid::new(0);
        for (i, w) in &writes {
            nvm::Memory::write(&mem, p, base.at(*i), *w);
        }
        let snap = mem.snapshot();
        let key = mem.shared_key();
        for (i, w) in &writes {
            nvm::Memory::write(&mem, p, base.at(*i), w.wrapping_add(1));
        }
        mem.restore(&snap);
        prop_assert_eq!(mem.shared_key(), key);
    }

    #[test]
    fn checkpoint_rollback_matches_full_snapshot(
        mode_sel in 0u8..2,
        prefix in prop::collection::vec((0usize..8, any::<u64>()), 0..8),
        ops in prop::collection::vec((0u8..8, 0usize..8, any::<u64>()), 1..24),
    ) {
        // The undo-log checkpoint must rewind *exactly* to the state a full
        // MemSnapshot captured, whatever mix of writes, CASes, persists,
        // pokes, and crashes (all three policies) happened in between.
        let mode = if mode_sel == 0 { CacheMode::PrivateCache } else { CacheMode::SharedCache };
        let mut b = nvm::LayoutBuilder::new();
        let base = b.shared("cells", 8, 64);
        let mem = nvm::SimMemory::with_mode(b.finish(), mode);
        let p = Pid::new(0);
        for (i, w) in &prefix {
            nvm::Memory::write(&mem, p, base.at(*i), *w);
        }
        let snap = mem.snapshot();
        let words = state_words(&mem);
        let cp = mem.checkpoint();
        for (kind, i, w) in &ops {
            let loc = base.at(*i);
            match kind % 6 {
                0 => nvm::Memory::write(&mem, p, loc, *w),
                1 => { let _ = nvm::Memory::cas(&mem, p, loc, mem.peek(loc), *w); }
                2 => nvm::Memory::persist(&mem, p, loc),
                3 => mem.poke(loc, *w),
                4 => mem.crash(if w % 2 == 0 { CrashPolicy::DropAll } else { CrashPolicy::PersistAll }),
                _ => mem.crash(CrashPolicy::RandomSubset(*w)),
            }
        }
        mem.rollback(cp);
        prop_assert_eq!(mem.snapshot(), snap);
        prop_assert_eq!(state_words(&mem), words);
    }

    #[test]
    fn random_subset_crashes_replay_identically_after_rollback(
        policy_seed in any::<u64>(),
        writes in prop::collection::vec((0usize..8, any::<u64>()), 1..10),
    ) {
        // RandomSubset is seeded by (seed, crash ordinal). Rolling back a
        // crash rewinds the ordinal too, so replaying the crash persists
        // exactly the same dirty subset — the determinism the explorer's
        // branch-and-rewind search depends on in the shared-cache model.
        let world = || {
            let mut b = nvm::LayoutBuilder::new();
            let base = b.shared("cells", 8, 64);
            let mem = nvm::SimMemory::with_mode(b.finish(), CacheMode::SharedCache);
            for (i, w) in &writes {
                nvm::Memory::write(&mem, Pid::new(0), base.at(*i), *w);
            }
            mem
        };
        let rewound = world();
        let cp = rewound.checkpoint();
        rewound.crash(CrashPolicy::RandomSubset(policy_seed));
        rewound.rollback(cp);
        rewound.crash(CrashPolicy::RandomSubset(policy_seed));

        let direct = world();
        direct.crash(CrashPolicy::RandomSubset(policy_seed));

        prop_assert_eq!(rewound.shared_key(), direct.shared_key());
        prop_assert_eq!(state_words(&rewound), state_words(&direct));
    }

    #[test]
    fn gray_code_ops_always_apply_cleanly(n in 1u32..11) {
        let (cas, mem) = build_world_mode(CacheMode::PrivateCache, |b| {
            detectable::DetectableCas::new(b, n, 0)
        });
        for (pid, op) in harness::gray_code_cas_ops(n) {
            cas.prepare(&mem, pid, &op);
            let mut m = cas.invoke(pid, &op);
            let resp = nvm::run_to_completion(&mut *m, &mem, 10_000).unwrap();
            prop_assert_eq!(resp, nvm::TRUE);
        }
    }
}
