//! Declarative workload descriptions for the [`Scenario`](crate::Scenario)
//! API.
//!
//! Every execution strategy in this crate ultimately needs to know *which
//! operations each process performs*. Before the `Scenario` redesign each
//! entry point invented its own answer — `run_sim` took an ad-hoc
//! `FnMut(Pid, usize) -> OpSpec` closure, the explorer took borrowed
//! per-process slices or a global script, the census took an operation
//! alphabet. [`Workload`] unifies them: one owned, cloneable, thread-safe
//! description that each terminal runner lowers to the representation its
//! engine wants via [`Workload::resolve`].

use detectable::{ObjectKind, OpSpec};
use nvm::Pid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What operations the processes of a [`Scenario`](crate::Scenario) perform.
///
/// Construct with the associated functions ([`Workload::per_process`],
/// [`Workload::script`], [`Workload::round_robin`], [`Workload::random`],
/// [`Workload::mixed`]); the variants are public so runners and tests can
/// match on them.
#[derive(Clone, Debug)]
pub enum Workload {
    /// `ops[p]` is the exact operation list of process `p`. Execution
    /// strategies that branch (the explorer) consider all interleavings;
    /// randomized ones schedule the lists concurrently.
    PerProcess(Vec<Vec<OpSpec>>),
    /// One global sequence executed one operation at a time (no concurrency
    /// between operations). The Theorem 2 / Figure 2 constructions and the
    /// Gray-code census walk are scripts.
    Script(Vec<(Pid, OpSpec)>),
    /// Each process performs `ops_per_process` operations drawn round-robin
    /// from `alphabet`, staggered by process index so concurrent processes
    /// start on different operations.
    RoundRobin {
        /// The operations cycled through.
        alphabet: Vec<OpSpec>,
        /// Operations per process.
        ops_per_process: usize,
    },
    /// Each process performs `ops_per_process` operations drawn uniformly at
    /// random from `alphabet`. Draws are seeded: the simulation runner
    /// seeds them from its run seed, the exploration/census runners from
    /// [`Scenario::workload_seed`](crate::Scenario::workload_seed) — equal
    /// seeds give equal draws.
    Random {
        /// The operations drawn from.
        alphabet: Vec<OpSpec>,
        /// Operations per process.
        ops_per_process: usize,
    },
    /// The canonical mixed read/update workload for the scenario's object
    /// kind (the mix the crash-storm soaks have always used), resolved via
    /// [`mixed_op`].
    Mixed {
        /// Operations per process.
        ops_per_process: usize,
    },
}

/// A [`Workload`] lowered to the concrete representation the engines run:
/// either per-process operation lists or a global script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolvedWorkload {
    /// Per-process operation lists.
    PerProcess(Vec<Vec<OpSpec>>),
    /// A global one-operation-at-a-time script.
    Script(Vec<(Pid, OpSpec)>),
}

impl Workload {
    /// Explicit per-process operation lists.
    pub fn per_process(ops: Vec<Vec<OpSpec>>) -> Workload {
        Workload::PerProcess(ops)
    }

    /// A global one-operation-at-a-time script.
    pub fn script(ops: Vec<(Pid, OpSpec)>) -> Workload {
        Workload::Script(ops)
    }

    /// Round-robin draws from an operation alphabet.
    pub fn round_robin(alphabet: Vec<OpSpec>, ops_per_process: usize) -> Workload {
        Workload::RoundRobin {
            alphabet,
            ops_per_process,
        }
    }

    /// Seeded uniform draws from an operation alphabet.
    pub fn random(alphabet: Vec<OpSpec>, ops_per_process: usize) -> Workload {
        Workload::Random {
            alphabet,
            ops_per_process,
        }
    }

    /// The canonical mixed workload for the scenario's object kind.
    pub fn mixed(ops_per_process: usize) -> Workload {
        Workload::Mixed { ops_per_process }
    }

    /// Lowers the workload for a world of `processes` processes implementing
    /// `kind`. `seed` feeds [`Workload::Random`] draws only; every other
    /// variant resolves identically for all seeds.
    pub fn resolve(&self, kind: ObjectKind, processes: u32, seed: u64) -> ResolvedWorkload {
        let n = processes as usize;
        match self {
            Workload::PerProcess(ops) => {
                assert!(
                    ops.len() <= n,
                    "workload lists {} processes but the world has {n}",
                    ops.len()
                );
                let mut lists = ops.clone();
                lists.resize(n, Vec::new());
                ResolvedWorkload::PerProcess(lists)
            }
            Workload::Script(ops) => {
                for (pid, op) in ops {
                    assert!(
                        pid.idx() < n,
                        "script workload references {pid} (op {op}) but the world has only \
                         {n} processes (pids are 0-based: valid pids are p0..p{})",
                        n.saturating_sub(1)
                    );
                }
                ResolvedWorkload::Script(ops.clone())
            }
            Workload::RoundRobin {
                alphabet,
                ops_per_process,
            } => {
                assert!(!alphabet.is_empty(), "round-robin alphabet is empty");
                ResolvedWorkload::PerProcess(
                    (0..n)
                        .map(|p| {
                            (0..*ops_per_process)
                                .map(|i| alphabet[(p + i) % alphabet.len()])
                                .collect()
                        })
                        .collect(),
                )
            }
            Workload::Random {
                alphabet,
                ops_per_process,
            } => {
                assert!(!alphabet.is_empty(), "random alphabet is empty");
                // One stream per process, derived from the run seed, so a
                // process's script is independent of the process count.
                ResolvedWorkload::PerProcess(
                    (0..n)
                        .map(|p| {
                            let mut rng = StdRng::seed_from_u64(
                                seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            );
                            (0..*ops_per_process)
                                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                                .collect()
                        })
                        .collect(),
                )
            }
            Workload::Mixed { ops_per_process } => ResolvedWorkload::PerProcess(
                (0..n)
                    .map(|p| {
                        (0..*ops_per_process)
                            .map(|i| mixed_op(kind, Pid::new(p as u32), i))
                            .collect()
                    })
                    .collect(),
            ),
        }
    }

    /// Whether this workload *family* is process-symmetric by construction
    /// — generated from an operation alphabet the same way for every
    /// process ([`round_robin`](Workload::round_robin),
    /// [`random`](Workload::random), [`mixed`](Workload::mixed)) rather
    /// than hand-assigned per process or scripted. Used by
    /// [`Scenario::explore`](crate::Scenario::explore) to resolve
    /// [`SymmetryMode::Auto`](crate::explore::SymmetryMode): reduction is
    /// auto-enabled only for these families, and only when the *resolved*
    /// lists actually contain an orbit
    /// ([`ResolvedWorkload::symmetric`]).
    pub fn alphabet_generated(&self) -> bool {
        matches!(
            self,
            Workload::RoundRobin { .. } | Workload::Random { .. } | Workload::Mixed { .. }
        )
    }

    /// The operation alphabet this workload implies for alphabet-driven
    /// runners (the BFS census and the perturbation search): explicit for
    /// the alphabet variants, the distinct operations in appearance order
    /// for list variants, and the standard per-kind search alphabet
    /// otherwise. **May be empty** when a list variant contains no
    /// operations at all — alphabet-driven runners reject that as a
    /// configuration error rather than censusing a zero-op world.
    pub fn alphabet(&self, kind: ObjectKind) -> Vec<OpSpec> {
        match self {
            Workload::RoundRobin { alphabet, .. } | Workload::Random { alphabet, .. } => {
                alphabet.clone()
            }
            Workload::PerProcess(ops) => {
                let mut seen = Vec::new();
                for op in ops.iter().flatten() {
                    if !seen.contains(op) {
                        seen.push(*op);
                    }
                }
                seen
            }
            Workload::Script(ops) => {
                let mut seen = Vec::new();
                for (_, op) in ops {
                    if !seen.contains(op) {
                        seen.push(*op);
                    }
                }
                seen
            }
            Workload::Mixed { .. } => crate::perturb::default_alphabet(kind),
        }
    }
}

impl ResolvedWorkload {
    /// The symmetry witness: whether some two processes run *identical*
    /// operation lists, i.e. the configuration has at least one nontrivial
    /// process-id orbit for the explorer's symmetry reduction to merge.
    /// Always `false` for scripts (a script pins the acting process of
    /// every step, so renaming changes the execution).
    pub fn symmetric(&self) -> bool {
        match self {
            ResolvedWorkload::Script(_) => false,
            ResolvedWorkload::PerProcess(lists) => lists
                .iter()
                .enumerate()
                .any(|(i, a)| lists[..i].iter().any(|b| a == b)),
        }
    }

    /// Per-process operation lists — projecting a script onto each process's
    /// subsequence (randomized schedulers preserve per-process order only).
    pub fn into_per_process(self, processes: u32) -> Vec<Vec<OpSpec>> {
        match self {
            ResolvedWorkload::PerProcess(lists) => lists,
            ResolvedWorkload::Script(ops) => {
                let mut lists = vec![Vec::new(); processes as usize];
                for (pid, op) in ops {
                    lists[pid.idx()].push(op);
                }
                lists
            }
        }
    }
}

/// The canonical mixed read/update operation mix per object kind — the mix
/// the crash-storm soak has always used (reads interleaved with updates
/// whose arguments vary by process and position).
pub fn mixed_op(kind: ObjectKind, pid: Pid, i: usize) -> OpSpec {
    match kind {
        ObjectKind::Register => {
            if (pid.idx() + i).is_multiple_of(3) {
                OpSpec::Read
            } else {
                OpSpec::Write((pid.idx() * 10 + i) as u32 % 7)
            }
        }
        ObjectKind::Cas => OpSpec::Cas {
            old: (i as u32) % 4,
            new: (pid.get() + i as u32 + 1) % 4,
        },
        ObjectKind::MaxRegister => {
            if (pid.idx() + i).is_multiple_of(3) {
                OpSpec::Read
            } else {
                OpSpec::WriteMax((pid.idx() * 3 + i) as u32 % 9)
            }
        }
        ObjectKind::Counter => {
            if (pid.idx() + i).is_multiple_of(4) {
                OpSpec::Read
            } else {
                OpSpec::Inc
            }
        }
        ObjectKind::Faa => {
            if (pid.idx() + i).is_multiple_of(4) {
                OpSpec::Read
            } else {
                OpSpec::Faa(1 + (pid.get() % 3))
            }
        }
        ObjectKind::Swap => {
            if (pid.idx() + i).is_multiple_of(3) {
                OpSpec::Read
            } else {
                OpSpec::Swap((pid.idx() * 7 + i) as u32 % 5)
            }
        }
        ObjectKind::Tas => match (pid.idx() + i) % 3 {
            0 => OpSpec::TestAndSet,
            1 => OpSpec::Reset,
            _ => OpSpec::Read,
        },
        ObjectKind::Queue => {
            if (pid.idx() + i).is_multiple_of(2) {
                OpSpec::Enq((pid.idx() * 100 + i) as u32)
            } else {
                OpSpec::Deq
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_staggers_by_process() {
        let w = Workload::round_robin(vec![OpSpec::Read, OpSpec::Inc], 3);
        let ResolvedWorkload::PerProcess(lists) = w.resolve(ObjectKind::Counter, 2, 0) else {
            panic!("round robin resolves per process");
        };
        assert_eq!(lists[0], vec![OpSpec::Read, OpSpec::Inc, OpSpec::Read]);
        assert_eq!(lists[1], vec![OpSpec::Inc, OpSpec::Read, OpSpec::Inc]);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let w = Workload::random(vec![OpSpec::Read, OpSpec::Inc], 8);
        let a = w.resolve(ObjectKind::Counter, 3, 42);
        let b = w.resolve(ObjectKind::Counter, 3, 42);
        let c = w.resolve(ObjectKind::Counter, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should draw differently");
    }

    #[test]
    fn script_projects_per_process_subsequences() {
        let w = Workload::script(vec![
            (Pid::new(0), OpSpec::Write(1)),
            (Pid::new(1), OpSpec::Read),
            (Pid::new(0), OpSpec::Write(2)),
        ]);
        let lists = w.resolve(ObjectKind::Register, 2, 0).into_per_process(2);
        assert_eq!(lists[0], vec![OpSpec::Write(1), OpSpec::Write(2)]);
        assert_eq!(lists[1], vec![OpSpec::Read]);
    }

    #[test]
    fn alphabet_from_lists_dedups_in_order() {
        let w = Workload::per_process(vec![
            vec![OpSpec::Write(1), OpSpec::Read],
            vec![OpSpec::Write(1), OpSpec::Write(2)],
        ]);
        assert_eq!(
            w.alphabet(ObjectKind::Register),
            vec![OpSpec::Write(1), OpSpec::Read, OpSpec::Write(2)]
        );
    }

    #[test]
    fn mixed_covers_every_kind() {
        for kind in [
            ObjectKind::Register,
            ObjectKind::Cas,
            ObjectKind::MaxRegister,
            ObjectKind::Counter,
            ObjectKind::Faa,
            ObjectKind::Swap,
            ObjectKind::Tas,
            ObjectKind::Queue,
        ] {
            let w = Workload::mixed(4);
            let lists = w.resolve(kind, 3, 0).into_per_process(3);
            assert_eq!(lists.len(), 3);
            assert!(lists.iter().all(|l| l.len() == 4));
        }
    }

    #[test]
    fn per_process_pads_missing_processes() {
        let w = Workload::per_process(vec![vec![OpSpec::Inc]]);
        let lists = w.resolve(ObjectKind::Counter, 3, 0).into_per_process(3);
        assert_eq!(lists.len(), 3);
        assert!(lists[1].is_empty() && lists[2].is_empty());
    }

    #[test]
    #[should_panic(
        expected = "script workload references p2 (op Write(9)) but the world has only 2 processes"
    )]
    fn script_with_out_of_range_pid_is_rejected_at_resolve() {
        // Regression: this used to slip through resolve and blow up later
        // as a bare index-out-of-bounds in `into_per_process`.
        let w = Workload::script(vec![
            (Pid::new(0), OpSpec::Write(1)),
            (Pid::new(2), OpSpec::Write(9)),
        ]);
        let _ = w.resolve(ObjectKind::Register, 2, 0);
    }

    #[test]
    fn symmetry_witness_requires_two_equal_lists() {
        let kind = ObjectKind::Counter;
        // Alphabet of one op: every process gets the same list.
        let sym = Workload::round_robin(vec![OpSpec::Inc], 2).resolve(kind, 3, 0);
        assert!(sym.symmetric());
        // Two-op alphabet, 2 processes: the stagger makes all lists differ.
        let asym = Workload::round_robin(vec![OpSpec::Inc, OpSpec::Read], 2).resolve(kind, 2, 0);
        assert!(!asym.symmetric());
        // …but with 3 processes, p0 and p2 coincide.
        let wrap = Workload::round_robin(vec![OpSpec::Inc, OpSpec::Read], 2).resolve(kind, 3, 0);
        assert!(wrap.symmetric());
        // Scripts never witness symmetry.
        let script = Workload::script(vec![(Pid::new(0), OpSpec::Inc)]).resolve(kind, 2, 0);
        assert!(!script.symmetric());
        // Family gate: only alphabet-generated workloads auto-enable.
        assert!(Workload::mixed(2).alphabet_generated());
        assert!(Workload::random(vec![OpSpec::Inc], 2).alphabet_generated());
        assert!(
            !Workload::per_process(vec![vec![OpSpec::Inc], vec![OpSpec::Inc]]).alphabet_generated()
        );
        assert!(!Workload::script(Vec::new()).alphabet_generated());
    }
}
