//! Integration: randomized crash storms across every object, both cache
//! modes, with full durable-linearizability + detectability checking —
//! batched through the `Scenario`/`Sweep` front door.

use detectable::{ObjectKind, OpSpec};
use harness::{CrashModel, Scenario, SimConfig, Sweep, Workload};
use nvm::{CacheMode, CrashPolicy, Pid};

/// The storm suite's historical op mix — tighter value domains than the
/// soak's `Workload::mixed` (register writes over %5, CAS over %3, FAA
/// deltas in {1,2}), so ABA patterns and CAS contention stay as hot as in
/// the seed suite.
fn storm_ops(kind: ObjectKind) -> fn(Pid, usize) -> OpSpec {
    match kind {
        ObjectKind::Register => |pid, i| {
            if (pid.idx() + i).is_multiple_of(3) {
                OpSpec::Read
            } else {
                OpSpec::Write((pid.idx() * 10 + i) as u32 % 5)
            }
        },
        ObjectKind::Cas => |pid, i| OpSpec::Cas {
            old: i as u32 % 3,
            new: (pid.get() + i as u32 + 1) % 3,
        },
        ObjectKind::MaxRegister => |pid, i| {
            if (pid.idx() + i).is_multiple_of(3) {
                OpSpec::Read
            } else {
                OpSpec::WriteMax((pid.idx() * 2 + i) as u32 % 7)
            }
        },
        ObjectKind::Faa => |pid, i| {
            if (pid.idx() + i).is_multiple_of(4) {
                OpSpec::Read
            } else {
                OpSpec::Faa(1 + pid.get() % 2)
            }
        },
        // The remaining kinds always matched the canonical mix.
        ObjectKind::Counter => |pid, i| harness::mixed_op(ObjectKind::Counter, pid, i),
        ObjectKind::Swap => |pid, i| harness::mixed_op(ObjectKind::Swap, pid, i),
        ObjectKind::Tas => |pid, i| harness::mixed_op(ObjectKind::Tas, pid, i),
        ObjectKind::Queue => |pid, i| harness::mixed_op(ObjectKind::Queue, pid, i),
    }
}

/// Sweeps `scenario` (implementing `kind` for `processes` processes)
/// across a seed range under a crash storm, three storm operations per
/// process, and asserts every history checked clean.
fn storm_kind(
    seeds: std::ops::Range<u64>,
    mode: CacheMode,
    crash_prob: f64,
    scenario: Scenario,
    kind: ObjectKind,
    processes: u32,
) {
    let op = storm_ops(kind);
    let lists = (0..processes)
        .map(|p| (0..3).map(|i| op(Pid::new(p), i)).collect())
        .collect();
    Sweep::new(
        scenario
            .memory(mode)
            .workload(Workload::per_process(lists))
            .faults(CrashModel::storms(crash_prob)),
    )
    .seeds(seeds)
    .parallelism(4)
    .simulate(&SimConfig::default())
    .assert_all_passed();
}

macro_rules! storm_tests {
    ($($name:ident => $kind:expr, $n:expr),+ $(,)?) => {
        $(
            mod $name {
                use super::*;

                #[test]
                fn private_cache_no_crashes() {
                    storm_kind(0..40, CacheMode::PrivateCache, 0.0, Scenario::object($kind).processes($n), $kind, $n);
                }

                #[test]
                fn private_cache_moderate_crashes() {
                    storm_kind(0..40, CacheMode::PrivateCache, 0.04, Scenario::object($kind).processes($n), $kind, $n);
                }

                #[test]
                fn private_cache_heavy_crashes() {
                    storm_kind(0..25, CacheMode::PrivateCache, 0.12, Scenario::object($kind).processes($n), $kind, $n);
                }

                #[test]
                fn shared_cache_adversarial_line_loss() {
                    storm_kind(0..40, CacheMode::SharedCache, 0.05, Scenario::object($kind).processes($n), $kind, $n);
                }
            }
        )+
    };
}

storm_tests! {
    register => ObjectKind::Register, 3,
    cas => ObjectKind::Cas, 3,
    max_register => ObjectKind::MaxRegister, 3,
    counter => ObjectKind::Counter, 3,
    faa => ObjectKind::Faa, 3,
    swap => ObjectKind::Swap, 3,
    tas => ObjectKind::Tas, 3,
    queue => ObjectKind::Queue, 3,
}

mod baselines_storms {
    use super::*;
    use baselines::{TaggedCas, TaggedRegister};

    #[test]
    fn tagged_register_survives_storms() {
        storm_kind(
            0..40,
            CacheMode::PrivateCache,
            0.06,
            Scenario::custom(|b| Box::new(TaggedRegister::new(b, 3))),
            ObjectKind::Register,
            3,
        );
        storm_kind(
            0..25,
            CacheMode::SharedCache,
            0.05,
            Scenario::custom(|b| Box::new(TaggedRegister::new(b, 3))),
            ObjectKind::Register,
            3,
        );
    }

    #[test]
    fn tagged_cas_survives_storms() {
        storm_kind(
            0..40,
            CacheMode::PrivateCache,
            0.06,
            Scenario::custom(|b| Box::new(TaggedCas::new(b, 3))),
            ObjectKind::Cas,
            3,
        );
        storm_kind(
            0..25,
            CacheMode::SharedCache,
            0.05,
            Scenario::custom(|b| Box::new(TaggedCas::new(b, 3))),
            ObjectKind::Cas,
            3,
        );
    }

    #[test]
    fn random_subset_line_loss_policy() {
        // Not just DropAll: arbitrary subsets of dirty lines may persist.
        // The policy seed varies per cell, so each seed gets its own
        // scenario rather than a shared sweep axis.
        for seed in 0..30u64 {
            Scenario::object(ObjectKind::Register)
                .processes(3)
                .memory(CacheMode::SharedCache)
                .workload(Workload::mixed(3))
                .faults(CrashModel::storms(0.06).policy(CrashPolicy::RandomSubset(seed * 31 + 7)))
                .simulate(&SimConfig {
                    seed,
                    ..Default::default()
                })
                .assert_passed();
        }
    }
}

mod scale {
    use super::*;

    #[test]
    fn five_processes_register() {
        storm_kind(
            0..15,
            CacheMode::PrivateCache,
            0.05,
            Scenario::object(ObjectKind::Register).processes(5),
            ObjectKind::Register,
            5,
        );
    }

    #[test]
    fn five_processes_cas() {
        storm_kind(
            0..15,
            CacheMode::PrivateCache,
            0.05,
            Scenario::object(ObjectKind::Cas).processes(5),
            ObjectKind::Cas,
            5,
        );
    }

    #[test]
    fn two_process_queue_heavy() {
        storm_kind(
            0..30,
            CacheMode::PrivateCache,
            0.10,
            Scenario::object(ObjectKind::Queue).processes(2),
            ObjectKind::Queue,
            2,
        );
    }

    #[test]
    fn one_sweep_many_objects() {
        // The whole object zoo as one multi-axis sweep.
        Sweep::new(
            Scenario::object(ObjectKind::Register)
                .processes(3)
                .workload(Workload::mixed(3)),
        )
        .objects(&[
            ObjectKind::Register,
            ObjectKind::Cas,
            ObjectKind::Counter,
            ObjectKind::Queue,
        ])
        .crash_probs(&[0.0, 0.06])
        .seeds(0..10)
        .parallelism(8)
        .simulate(&SimConfig::default())
        .assert_all_passed();
    }
}
