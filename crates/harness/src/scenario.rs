//! The `Scenario` front door: one composable description of a
//! paper-style experiment, many execution strategies.
//!
//! Every experiment in the reproduction has the same shape — *pick a
//! detectable object, a workload, and a fault model, then run it under some
//! scheduler*. Historically each scheduler was its own free function with
//! its own configuration struct (`run_sim`, `explore`, `census_drive`,
//! `census_bfs`, `find_doubly_perturbing_witness`); [`Scenario`] replaces
//! the five entry points with one builder that lowers onto the shared
//! [`Driver`](crate::Driver) engine:
//!
//! ```
//! use harness::{CrashModel, Scenario, Workload};
//! use detectable::ObjectKind;
//!
//! let verdict = Scenario::object(ObjectKind::Cas)
//!     .processes(3)
//!     .workload(Workload::mixed(3))
//!     .faults(CrashModel::storms(0.05))
//!     .simulate(&harness::SimConfig {
//!         seed: 7,
//!         ..Default::default()
//!     });
//! verdict.assert_passed();
//! ```
//!
//! Terminal runners — [`simulate`](Scenario::simulate) (randomized
//! crash-storm simulation), [`explore`](Scenario::explore) (exhaustive
//! interleaving + crash-point search), [`census`](Scenario::census)
//! (Theorem 1 configuration counting), [`perturb`](Scenario::perturb)
//! (Definition 3 witness search) and [`space`](Scenario::space) (NVM bit
//! accounting) — all return the same [`Verdict`], so results from different
//! strategies aggregate uniformly.
//!
//! [`Sweep`] is the batch layer on top: it fans a scenario across seed
//! ranges, object kinds and crash probabilities on `std::thread` workers
//! and aggregates the per-cell verdicts into one deterministic
//! [`SweepReport`] — cell order is construction order (object axis outer,
//! seeds inner) regardless of the worker count, so the aggregate table of a
//! 1000-seed crash-storm sweep is byte-identical whether it ran on one
//! thread or eight.

use std::ops::Range;
use std::sync::Arc;

/// A user factory building the scenario's object into a layout.
type ObjectFactory = Arc<dyn Fn(&mut LayoutBuilder) -> Box<dyn RecoverableObject> + Send + Sync>;

use detectable::{
    DetectableCas, DetectableCounter, DetectableFaa, DetectableQueue, DetectableRegister,
    DetectableSwap, DetectableTas, MaxRegister, ObjectKind, RecoverableObject,
};
use nvm::{CacheMode, CrashPolicy, LayoutBuilder, SimMemory};

use crate::census::{census_bfs_engine, census_drive_engine, BfsConfig};
use crate::explore::{explore_engine, ExploreConfig, OpSource, SymmetryMode};
use crate::linearize::check_execution;
use crate::perturb::{validate_witness_on_impl, witness_search, PerturbWitness};
use crate::sched::SchedStats;
use crate::sim::{sim_engine, SimConfig, SimReport};
use crate::workload::{ResolvedWorkload, Workload};

/// How (and whether) crashes strike, and what the caller does about `fail`
/// verdicts — the scenario-level fault model shared by the randomized
/// simulator (which uses [`crash_prob`](CrashModel::crash_prob)) and the
/// exhaustive explorer (which uses [`max_crashes`](CrashModel::max_crashes)).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CrashModel {
    /// Probability that a randomized scheduler step is a system-wide crash.
    pub crash_prob: f64,
    /// Maximum system-wide crashes per explored execution.
    pub max_crashes: usize,
    /// What happens to dirty cache lines at a crash.
    pub policy: CrashPolicy,
    /// Re-invoke operations whose recovery verdict was `fail`.
    pub retry_on_fail: bool,
    /// Fail-retry budget (per operation in simulation, per process in
    /// exploration — mirroring the engines' historical budgets).
    pub max_retries: usize,
}

impl CrashModel {
    /// No crashes at all.
    pub fn none() -> CrashModel {
        CrashModel {
            crash_prob: 0.0,
            max_crashes: 0,
            policy: CrashPolicy::DropAll,
            retry_on_fail: true,
            max_retries: 3,
        }
    }

    /// Randomized crash storms: each scheduler step crashes the system with
    /// probability `crash_prob` (adversarial `DropAll` line loss, retry on
    /// fail with a budget of 3 — the soak defaults).
    pub fn storms(crash_prob: f64) -> CrashModel {
        CrashModel {
            crash_prob,
            max_crashes: 1,
            ..CrashModel::none()
        }
    }

    /// Exhaustive crash placement: up to `max_crashes` crashes anywhere
    /// (the explorer defaults: retry on fail, per-process budget of 2).
    pub fn exhaustive(max_crashes: usize) -> CrashModel {
        CrashModel {
            crash_prob: 0.0,
            max_crashes,
            max_retries: 2,
            ..CrashModel::none()
        }
    }

    /// Replaces the crash-time cache-line policy.
    pub fn policy(mut self, policy: CrashPolicy) -> CrashModel {
        self.policy = policy;
        self
    }

    /// Replaces the fail-retry budget.
    pub fn retries(mut self, max_retries: usize) -> CrashModel {
        self.max_retries = max_retries;
        self
    }

    /// Disables re-invocation after `fail` verdicts.
    pub fn no_retry(mut self) -> CrashModel {
        self.retry_on_fail = false;
        self
    }

    /// Replaces the per-step crash probability.
    pub fn prob(mut self, crash_prob: f64) -> CrashModel {
        self.crash_prob = crash_prob;
        self
    }
}

/// How the scenario obtains its object: a paper-default implementation per
/// [`ObjectKind`], or an arbitrary user factory.
#[derive(Clone)]
enum ObjectSpec {
    Kind(ObjectKind),
    Custom(ObjectFactory),
}

/// Builds the paper's default implementation of `kind` for `n` processes
/// into `b` (Algorithm 1 for registers, Algorithm 2 for CAS, Algorithm 3 for
/// max registers, the composed objects otherwise). `queue_capacity` only
/// affects [`ObjectKind::Queue`].
///
/// This is the same constructor mapping [`Scenario`] uses internally; it is
/// public so out-of-process runners (the crash subsystem's worker re-exec,
/// the soak binary) can rebuild the identical world from an [`ObjectKind`]
/// alone.
pub fn build_kind(
    kind: ObjectKind,
    b: &mut LayoutBuilder,
    n: u32,
    queue_capacity: u32,
) -> Box<dyn RecoverableObject> {
    match kind {
        ObjectKind::Register => Box::new(DetectableRegister::new(b, n, 0)),
        ObjectKind::Cas => Box::new(DetectableCas::new(b, n, 0)),
        ObjectKind::MaxRegister => Box::new(MaxRegister::new(b, n)),
        ObjectKind::Counter => Box::new(DetectableCounter::new(b, n)),
        ObjectKind::Faa => Box::new(DetectableFaa::new(b, n)),
        ObjectKind::Swap => Box::new(DetectableSwap::new(b, n)),
        ObjectKind::Tas => Box::new(DetectableTas::new(b, n)),
        ObjectKind::Queue => Box::new(DetectableQueue::new(b, n, queue_capacity)),
    }
}

/// A composable experiment description: object + memory model + workload +
/// fault model, executable under any of the terminal runners. See the
/// [module docs](self) for an overview and `EXPERIMENTS.md` for one
/// scenario per paper experiment.
#[derive(Clone)]
pub struct Scenario {
    object: ObjectSpec,
    processes: u32,
    queue_capacity: u32,
    memory: Option<CacheMode>,
    faults: Option<CrashModel>,
    workload: Option<Workload>,
    workload_seed: u64,
    label: Option<String>,
}

impl Scenario {
    /// A scenario over the paper's default implementation of `kind`
    /// (Algorithm 1 for registers, Algorithm 2 for CAS, Algorithm 3 for max
    /// registers, the composed objects otherwise), with 2 processes.
    pub fn object(kind: ObjectKind) -> Scenario {
        Scenario {
            object: ObjectSpec::Kind(kind),
            processes: 2,
            queue_capacity: 128,
            memory: None,
            faults: None,
            workload: None,
            workload_seed: 0,
            label: None,
        }
    }

    /// A scenario over a custom [`RecoverableObject`] built by `factory`
    /// (baselines, adversarial wrappers, adapters…). The factory must build
    /// an object for at least [`processes`](Scenario::processes) processes.
    pub fn custom(
        factory: impl Fn(&mut LayoutBuilder) -> Box<dyn RecoverableObject> + Send + Sync + 'static,
    ) -> Scenario {
        Scenario {
            object: ObjectSpec::Custom(Arc::new(factory)),
            processes: 2,
            queue_capacity: 128,
            memory: None,
            faults: None,
            workload: None,
            workload_seed: 0,
            label: None,
        }
    }

    /// Sets the process count (kind-built objects only; custom factories fix
    /// their own count). Default: 2.
    pub fn processes(mut self, n: u32) -> Scenario {
        self.processes = n;
        self
    }

    /// Sets the queue capacity used when building [`ObjectKind::Queue`]
    /// worlds. Default: 128.
    pub fn queue_capacity(mut self, capacity: u32) -> Scenario {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the persistence model the simulated memory follows. Default:
    /// the runner config's mode for [`simulate`](Scenario::simulate),
    /// [`CacheMode::PrivateCache`] elsewhere.
    pub fn memory(mut self, mode: CacheMode) -> Scenario {
        self.memory = Some(mode);
        self
    }

    /// Sets the fault model. When set it overrides the crash-related fields
    /// of the runner configs; when unset the runner configs apply untouched.
    pub fn faults(mut self, faults: CrashModel) -> Scenario {
        self.faults = Some(faults);
        self
    }

    /// Sets the workload. Default: [`Workload::mixed`] over the runner's
    /// operation count.
    pub fn workload(mut self, workload: Workload) -> Scenario {
        self.workload = Some(workload);
        self
    }

    /// Sets the seed used to resolve [`Workload::Random`] draws for the
    /// non-simulation runners ([`explore`](Scenario::explore),
    /// [`census`](Scenario::census)) and for [`Sweep`] seed axes on those
    /// runners. [`simulate`](Scenario::simulate) resolves with its own run
    /// seed instead, so equal simulation seeds always give equal draws.
    /// Default: 0. No effect on deterministic workload variants.
    pub fn workload_seed(mut self, seed: u64) -> Scenario {
        self.workload_seed = seed;
        self
    }

    /// Overrides the object name reported in verdicts and sweep tables
    /// (useful for distinguishing baseline variants).
    pub fn label(mut self, label: impl Into<String>) -> Scenario {
        self.label = Some(label.into());
        self
    }

    /// Builds the scenario's `(object, memory)` world, honoring the
    /// scenario memory mode (private-cache if unset). For bespoke
    /// measurement loops that want the scenario vocabulary but their own
    /// driver schedule.
    pub fn build(&self) -> (Box<dyn RecoverableObject>, SimMemory) {
        let (obj, mem, _, _) = self.construct(self.memory.unwrap_or_default());
        (obj, mem)
    }

    fn make(&self, b: &mut LayoutBuilder) -> Box<dyn RecoverableObject> {
        match &self.object {
            ObjectSpec::Custom(f) => f(b),
            ObjectSpec::Kind(kind) => build_kind(*kind, b, self.processes, self.queue_capacity),
        }
    }

    /// Builds object + memory and captures the layout's logical bit counts.
    fn construct(&self, mode: CacheMode) -> (Box<dyn RecoverableObject>, SimMemory, u64, u64) {
        let mut b = LayoutBuilder::new();
        let obj = self.make(&mut b);
        let layout = b.finish();
        let (shared_bits, private_bits) = (layout.shared_bits(), layout.private_bits());
        (
            obj,
            SimMemory::with_mode(layout, mode),
            shared_bits,
            private_bits,
        )
    }

    fn display_name(&self, obj: &dyn RecoverableObject) -> String {
        self.label.clone().unwrap_or_else(|| obj.name().to_string())
    }

    fn workload_or_default(&self, ops_per_process: usize) -> Workload {
        self.workload
            .clone()
            .unwrap_or(Workload::Mixed { ops_per_process })
    }

    /// The runner-effective simulation config: scenario faults and memory
    /// mode override the corresponding config fields when set.
    fn effective_sim(&self, cfg: &SimConfig) -> SimConfig {
        let mut eff = cfg.clone();
        if let Some(f) = self.faults {
            eff.crash_prob = f.crash_prob;
            eff.crash_policy = f.policy;
            eff.retry_on_fail = f.retry_on_fail;
            eff.max_retries = f.max_retries;
        }
        if let Some(m) = self.memory {
            eff.cache_mode = m;
        }
        eff
    }

    /// The runner-effective exploration config (same precedence rule).
    fn effective_explore(&self, cfg: &ExploreConfig) -> ExploreConfig {
        let mut eff = cfg.clone();
        if let Some(f) = self.faults {
            eff.max_crashes = f.max_crashes;
            eff.crash_policy = f.policy;
            eff.retry_on_fail = f.retry_on_fail;
            eff.max_retries = f.max_retries;
        }
        eff
    }

    /// Runs the seeded randomized crash-injection simulator and checks the
    /// recorded history, returning the raw [`SimReport`] alongside nothing —
    /// use this when the history itself is needed (equivalence tests,
    /// debugging); [`simulate`](Scenario::simulate) wraps it.
    pub fn simulate_report(&self, cfg: &SimConfig) -> SimReport {
        let eff = self.effective_sim(cfg);
        let (obj, mem, _, _) = self.construct(eff.cache_mode);
        let plan = self
            .workload_or_default(eff.ops_per_process)
            .resolve(obj.kind(), obj.processes(), eff.seed)
            .into_per_process(obj.processes());
        sim_engine(&*obj, &mem, &eff, &plan)
    }

    /// Runs one seeded randomized simulation with crash injection (the old
    /// `run_sim` strategy) and checks the recorded history for durable
    /// linearizability + detectability.
    ///
    /// Scenario precedence: [`faults`](Scenario::faults) overrides the
    /// crash/retry fields of `cfg`, [`memory`](Scenario::memory) overrides
    /// `cfg.cache_mode`; `cfg.seed` and (for the default workload)
    /// `cfg.ops_per_process` always apply. A
    /// [`Workload::Script`] runs as per-process subsequences here — only
    /// the randomized scheduler decides inter-process order.
    pub fn simulate(&self, cfg: &SimConfig) -> Verdict {
        let eff = self.effective_sim(cfg);
        let (obj, mem, shared_bits, private_bits) = self.construct(eff.cache_mode);
        let plan = self
            .workload_or_default(eff.ops_per_process)
            .resolve(obj.kind(), obj.processes(), eff.seed)
            .into_per_process(obj.processes());
        let report = sim_engine(&*obj, &mem, &eff, &plan);
        let violation = check_execution(&*obj, &report.history).err();
        Verdict {
            object: self.display_name(&*obj),
            kind: obj.kind(),
            mode: RunMode::Simulate,
            detectable: obj.detectable(),
            passed: violation.is_none(),
            linearizable: Some(violation.is_none()),
            bound_met: None,
            violation: violation.map(|v| v.to_string()),
            witness: None,
            stats: RunStats {
                executions: 1,
                resolved_ops: report.resolved_ops as u64,
                crashes: report.crashes,
                recovered_ok: report.recovered_ok,
                recovered_failed: report.recovered_failed,
                steps: report.steps as u64,
                persists: mem.stats().persists,
                shared_bits,
                private_bits,
                ..RunStats::default()
            },
        }
    }

    /// Exhaustively explores every interleaving and crash placement of the
    /// workload (the old `explore` strategy), checking each complete
    /// execution.
    ///
    /// [`faults`](Scenario::faults) overrides the crash/retry fields of
    /// `cfg`; `cfg.max_leaves`, `cfg.prune` and `cfg.parallelism` always
    /// apply. A `cfg.symmetry` of [`SymmetryMode::Auto`] (the default)
    /// resolves here: symmetry reduction is enabled exactly when the
    /// workload is an alphabet-generated family
    /// ([`Workload::alphabet_generated`]) whose resolved lists contain a
    /// nontrivial process orbit ([`ResolvedWorkload::symmetric`]) — the
    /// engine still falls back silently if the object or layout cannot
    /// express permutation.
    pub fn explore(&self, cfg: &ExploreConfig) -> Verdict {
        let mut eff = self.effective_explore(cfg);
        let (obj, mem, shared_bits, private_bits) = self.construct(self.memory.unwrap_or_default());
        let workload = self.workload_or_default(2);
        let resolved = workload.resolve(obj.kind(), obj.processes(), self.workload_seed);
        if eff.symmetry == SymmetryMode::Auto {
            eff.symmetry = if workload.alphabet_generated() && resolved.symmetric() {
                SymmetryMode::On
            } else {
                SymmetryMode::Off
            };
        }
        let out = match &resolved {
            ResolvedWorkload::PerProcess(lists) => {
                explore_engine(&*obj, &mem, OpSource::PerProcess(lists), &eff)
            }
            ResolvedWorkload::Script(ops) => {
                explore_engine(&*obj, &mem, OpSource::Script(ops), &eff)
            }
        };
        Verdict {
            object: self.display_name(&*obj),
            kind: obj.kind(),
            mode: RunMode::Explore,
            detectable: obj.detectable(),
            passed: out.violation.is_none(),
            linearizable: Some(out.violation.is_none()),
            bound_met: None,
            violation: out.violation.map(|v| v.to_string()),
            witness: None,
            stats: RunStats {
                executions: out.leaves as u64,
                distinct_configs: out.unique_nodes as u64,
                truncated: out.truncated,
                shared_bits,
                private_bits,
                sched: out.sched,
                ..RunStats::default()
            },
        }
    }

    /// A failed verdict for an unrunnable scenario description: `passed`
    /// false with the problem rendered into [`Verdict::violation`], so
    /// sweeps and tables surface the misconfiguration instead of silently
    /// reporting a degenerate run (or panicking mid-engine).
    fn config_error(
        &self,
        obj: &dyn RecoverableObject,
        mode: RunMode,
        message: String,
        shared_bits: u64,
        private_bits: u64,
    ) -> Verdict {
        Verdict {
            object: self.display_name(obj),
            kind: obj.kind(),
            mode,
            detectable: obj.detectable(),
            passed: false,
            linearizable: None,
            bound_met: None,
            violation: Some(message),
            witness: None,
            stats: RunStats {
                shared_bits,
                private_bits,
                ..RunStats::default()
            },
        }
    }

    /// Counts reachable shared-memory configurations (the Theorem 1
    /// experiment): a [`Workload::Script`] is solo-driven operation by
    /// operation (the old `census_drive`, e.g. over
    /// [`gray_code_cas_ops`](crate::census::gray_code_cas_ops)); any other
    /// workload breadth-first-explores every interleaving of its operation
    /// alphabet under `cfg` (the old `census_bfs`).
    ///
    /// [`Verdict::bound_met`] reports the `2^N − 1` lower bound for
    /// detectable CAS scenarios — the kind Theorem 1 speaks about — and is
    /// `None` otherwise. A census whose coverage was truncated (the
    /// [`BfsConfig::max_states`] cap, or a stalled solo drive) sets
    /// [`RunStats::truncated`]; when such a run also misses the bound the
    /// verdict fails but [`Verdict::violation`] says the miss is a coverage
    /// artifact, distinguishing it from a conclusive bound failure
    /// (`truncated == false`).
    pub fn census(&self, cfg: &BfsConfig) -> Verdict {
        let (obj, mem, shared_bits, private_bits) = self.construct(self.memory.unwrap_or_default());
        let workload = self.workload_or_default(2);
        let report = match workload.resolve(obj.kind(), obj.processes(), self.workload_seed) {
            ResolvedWorkload::Script(ops) if ops.is_empty() => {
                return self.config_error(
                    &*obj,
                    RunMode::Census,
                    "configuration error: the script workload is empty — a census needs at \
                     least one operation to drive"
                        .into(),
                    shared_bits,
                    private_bits,
                );
            }
            ResolvedWorkload::Script(ops) => census_drive_engine(&*obj, &mem, &ops),
            ResolvedWorkload::PerProcess(_) => {
                let alphabet = workload.alphabet(obj.kind());
                if alphabet.is_empty() {
                    return self.config_error(
                        &*obj,
                        RunMode::Census,
                        "configuration error: the workload resolves to an empty operation \
                         alphabet — the BFS census would count a zero-op world; give the \
                         workload at least one operation"
                            .into(),
                        shared_bits,
                        private_bits,
                    );
                }
                census_bfs_engine(&*obj, &mem, &alphabet, cfg)
            }
        };
        let bound_met =
            (obj.detectable() && obj.kind() == ObjectKind::Cas).then(|| report.meets_bound());
        let violation = (bound_met == Some(false)).then(|| {
            if report.truncated {
                format!(
                    "census truncated after {} expansions with {} of {} configurations \
                     observed — inconclusive, raise max_states",
                    report.work, report.distinct_shared, report.theorem_bound
                )
            } else {
                format!(
                    "complete census observed {} configurations, below the Theorem 1 \
                     bound of {}",
                    report.distinct_shared, report.theorem_bound
                )
            }
        });
        Verdict {
            object: self.display_name(&*obj),
            kind: obj.kind(),
            mode: RunMode::Census,
            detectable: obj.detectable(),
            passed: bound_met.unwrap_or(true),
            linearizable: None,
            bound_met,
            violation,
            witness: None,
            stats: RunStats {
                executions: report.work as u64,
                resolved_ops: report.resolved_ops,
                steps: report.steps,
                persists: report.persists,
                distinct_configs: report.distinct_shared as u64,
                theorem_bound: report.theorem_bound,
                truncated: report.truncated,
                shared_bits,
                private_bits,
                peak_resident_bytes: report.peak_resident_bytes,
                spilled_bytes: report.spill.map_or(0, |s| s.bytes_spilled),
                sched: report.sched,
                ..RunStats::default()
            },
        }
    }

    /// Searches bounded sequential histories for a doubly-perturbing
    /// witness (Definition 3; history bounds 3/3 as in the lemma proofs)
    /// and, when one is found, validates it against the real implementation
    /// through the driver. See [`perturb_with`](Scenario::perturb_with) for
    /// custom bounds.
    pub fn perturb(&self) -> Verdict {
        self.perturb_with(3, 3)
    }

    /// [`perturb`](Scenario::perturb) with explicit history bounds: `H1` up
    /// to `max_h1` operations, the p-free extension up to `max_ext`. The
    /// search alphabet is the workload's
    /// ([`Workload::alphabet`]) — the standard per-kind alphabet unless the
    /// workload pins one.
    ///
    /// `passed` means the spec-level result is implementation-consistent: a
    /// found witness revalidates on the built object (scenarios with ≥ 2
    /// processes), and "no witness" is itself a valid outcome (Lemma 4).
    pub fn perturb_with(&self, max_h1: usize, max_ext: usize) -> Verdict {
        let (obj, mem, shared_bits, private_bits) = self.construct(self.memory.unwrap_or_default());
        let alphabet = self
            .workload
            .as_ref()
            .map(|w| w.alphabet(obj.kind()))
            .unwrap_or_else(|| crate::perturb::default_alphabet(obj.kind()));
        if alphabet.is_empty() {
            return self.config_error(
                &*obj,
                RunMode::Perturb,
                "configuration error: the workload resolves to an empty operation alphabet \
                 — the witness search has nothing to perturb with; give the workload at \
                 least one operation"
                    .into(),
                shared_bits,
                private_bits,
            );
        }
        let witness = witness_search(obj.kind(), &alphabet, max_h1, max_ext);
        let passed = match &witness {
            Some(w) if obj.processes() >= 2 => validate_witness_on_impl(w, &*obj, &mem),
            _ => true,
        };
        Verdict {
            object: self.display_name(&*obj),
            kind: obj.kind(),
            mode: RunMode::Perturb,
            detectable: obj.detectable(),
            passed,
            linearizable: None,
            bound_met: Some(witness.is_some()),
            violation: None,
            witness,
            stats: RunStats {
                shared_bits,
                private_bits,
                ..RunStats::default()
            },
        }
    }

    /// Reports the scenario's logical NVM footprint from the layout
    /// allocator (the space-accounting experiment) without running
    /// anything.
    pub fn space(&self) -> Verdict {
        let (obj, _, shared_bits, private_bits) = self.construct(CacheMode::PrivateCache);
        Verdict {
            object: self.display_name(&*obj),
            kind: obj.kind(),
            mode: RunMode::Space,
            detectable: obj.detectable(),
            passed: true,
            linearizable: None,
            bound_met: None,
            violation: None,
            witness: None,
            stats: RunStats {
                shared_bits,
                private_bits,
                ..RunStats::default()
            },
        }
    }
}

/// Which terminal runner produced a [`Verdict`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Seeded randomized simulation with crash injection.
    Simulate,
    /// Exhaustive interleaving + crash-point exploration.
    Explore,
    /// Reachable-configuration census (Theorem 1).
    Census,
    /// Doubly-perturbing witness search (Definition 3).
    Perturb,
    /// Layout space accounting.
    Space,
}

impl RunMode {
    /// Lower-case tag for tables and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            RunMode::Simulate => "simulate",
            RunMode::Explore => "explore",
            RunMode::Census => "census",
            RunMode::Perturb => "perturb",
            RunMode::Space => "space",
        }
    }
}

/// Counters common to every terminal runner; fields a runner does not
/// measure stay zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Complete executions examined (histories for `simulate`, leaves for
    /// `explore`, ops/configurations processed for `census`).
    pub executions: u64,
    /// Operations that resolved (returned or reached a recovery verdict).
    pub resolved_ops: u64,
    /// System-wide crashes injected.
    pub crashes: u64,
    /// Recovery verdicts that reported a response — the interrupted
    /// operation *did* linearize before the crash (simulate runs).
    pub recovered_ok: u64,
    /// Recovery verdicts that reported `fail` — never linearized
    /// (simulate runs).
    pub recovered_failed: u64,
    /// In-flight operations recovery could not resolve within its step
    /// budget (process-crash runs; zero for every detectable object).
    pub recovered_unresolved: u64,
    /// Scheduler steps consumed.
    pub steps: u64,
    /// Explicit persist instructions executed.
    pub persists: u64,
    /// Distinct configurations (census: shared-memory classes; explore:
    /// unique nodes expanded).
    pub distinct_configs: u64,
    /// The Theorem 1 lower bound `2^N − 1` for the world's process count
    /// (census runs).
    pub theorem_bound: u64,
    /// Whether a budget truncated coverage.
    pub truncated: bool,
    /// Logical shared NVM bits allocated by the layout.
    pub shared_bits: u64,
    /// Logical private NVM bits allocated by the layout.
    pub private_bits: u64,
    /// Estimated peak resident bytes of the runner's data structures
    /// (census engines report it; other runners leave it zero). See
    /// [`CensusReport::peak_resident_bytes`](crate::CensusReport).
    pub peak_resident_bytes: u64,
    /// Bytes the external-memory census spilled to disk (frontier
    /// generations, sort runs, seen files; zero for in-RAM runs).
    pub spilled_bytes: u64,
    /// Worker counters: the census BFS's pool counters and per-worker
    /// expansions (the disk tier's without pool counters), or a parallel
    /// exploration's `workers` and per-worker expansions; all-zero —
    /// empty per-worker vector — elsewhere.
    pub sched: SchedStats,
}

impl RunStats {
    /// Accumulates `other` into `self` (sums counters, ORs truncation,
    /// keeps the space fields of the first non-empty contributor — cells of
    /// one object share a layout).
    pub fn accumulate(&mut self, other: &RunStats) {
        self.executions += other.executions;
        self.resolved_ops += other.resolved_ops;
        self.crashes += other.crashes;
        self.recovered_ok += other.recovered_ok;
        self.recovered_failed += other.recovered_failed;
        self.recovered_unresolved += other.recovered_unresolved;
        self.steps += other.steps;
        self.persists += other.persists;
        self.distinct_configs += other.distinct_configs;
        self.theorem_bound = self.theorem_bound.max(other.theorem_bound);
        self.truncated |= other.truncated;
        // Peak is a high-water mark, not a flow: cells may run
        // concurrently, but the max is the honest lower bound either way.
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.spilled_bytes += other.spilled_bytes;
        self.sched.accumulate(&other.sched);
        if self.shared_bits == 0 {
            self.shared_bits = other.shared_bits;
            self.private_bits = other.private_bits;
        }
    }
}

/// The shared result type of every terminal runner: did the run pass, was
/// the history linearizable, was the space bound met, plus counts and
/// stats. See [`Verdict::to_json`](crate::report) for the machine-readable
/// rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Reported object name (the scenario label, or the object's own name).
    pub object: String,
    /// The sequential type implemented.
    pub kind: ObjectKind,
    /// Which runner produced this verdict.
    pub mode: RunMode,
    /// Whether the object claims detectability.
    pub detectable: bool,
    /// The runner's overall pass/fail call.
    pub passed: bool,
    /// Whether every checked history was durably linearizable with honest
    /// recovery verdicts (`None` for runners that do not check histories).
    pub linearizable: Option<bool>,
    /// Census: whether the Theorem 1 `2^N − 1` bound was met (detectable
    /// CAS only). Perturb: whether a doubly-perturbing witness exists.
    pub bound_met: Option<bool>,
    /// Rendered first violation, when one was found.
    pub violation: Option<String>,
    /// The doubly-perturbing witness, when the perturb runner found one.
    pub witness: Option<PerturbWitness>,
    /// Counters.
    pub stats: RunStats,
}

impl Verdict {
    /// Panics with the violation (or a summary) unless the run passed.
    pub fn assert_passed(&self) {
        assert!(
            self.passed,
            "{} [{}] failed after {} executions:\n{}",
            self.object,
            self.mode.tag(),
            self.stats.executions,
            self.violation
                .as_deref()
                .unwrap_or("(no violation rendered)")
        );
    }

    /// [`assert_passed`](Verdict::assert_passed) plus "coverage was not
    /// truncated" — the fully-exhaustive variant.
    pub fn assert_complete(&self) {
        self.assert_passed();
        assert!(
            !self.stats.truncated,
            "{} [{}] truncated at {} executions",
            self.object,
            self.mode.tag(),
            self.stats.executions
        );
    }
}

/// Which terminal runner a [`Sweep`] executes per cell.
#[derive(Clone, Debug)]
pub enum Runner {
    /// [`Scenario::simulate`] — a seed axis selects `cfg.seed` per cell.
    Simulate(SimConfig),
    /// [`Scenario::explore`].
    Explore(ExploreConfig),
    /// [`Scenario::census`].
    Census(BfsConfig),
    /// [`Scenario::perturb`].
    Perturb,
    /// [`Scenario::space`].
    Space,
}

#[derive(Clone)]
struct Cell {
    scenario: Scenario,
    seed: Option<u64>,
}

/// A batch of [`Scenario`] runs fanned across axes — seed ranges, object
/// kinds, crash probabilities — executed on `std::thread` workers with a
/// deterministic aggregate report. See the [module docs](self).
#[derive(Clone)]
pub struct Sweep {
    cells: Vec<Cell>,
    parallelism: usize,
}

impl Sweep {
    /// A sweep of one cell: the base scenario. Add axes to fan out.
    pub fn new(base: Scenario) -> Sweep {
        Sweep {
            cells: vec![Cell {
                scenario: base,
                seed: None,
            }],
            parallelism: 1,
        }
    }

    /// A sweep over an explicit list of scenarios (one cell each, in
    /// order).
    pub fn over(scenarios: impl IntoIterator<Item = Scenario>) -> Sweep {
        Sweep {
            cells: scenarios
                .into_iter()
                .map(|scenario| Cell {
                    scenario,
                    seed: None,
                })
                .collect(),
            parallelism: 1,
        }
    }

    /// Crosses every existing cell with a seed range (seeds are the
    /// innermost axis). Under [`Runner::Simulate`] the seed drives the
    /// simulator's RNG; under [`Runner::Explore`]/[`Runner::Census`] it
    /// drives workload resolution, which varies [`Workload::Random`] draws
    /// only — with a deterministic workload those cells are identical, so
    /// a seed axis there mostly multiplies work.
    pub fn seeds(mut self, seeds: Range<u64>) -> Sweep {
        self.cells = self
            .cells
            .iter()
            .flat_map(|cell| {
                seeds.clone().map(|seed| Cell {
                    scenario: cell.scenario.clone(),
                    seed: Some(seed),
                })
            })
            .collect();
        self
    }

    /// Crosses every existing cell with the given object kinds (replacing
    /// each cell's object with the kind-default implementation).
    pub fn objects(mut self, kinds: &[ObjectKind]) -> Sweep {
        self.cells = self
            .cells
            .iter()
            .flat_map(|cell| {
                kinds.iter().map(|&kind| {
                    let mut c = cell.clone();
                    c.scenario.object = ObjectSpec::Kind(kind);
                    c.scenario.label = None;
                    c
                })
            })
            .collect();
        self
    }

    /// Crosses every existing cell with the given crash probabilities
    /// (overriding the fault model's `crash_prob`; cells without a fault
    /// model get [`CrashModel::storms`]).
    pub fn crash_probs(mut self, probs: &[f64]) -> Sweep {
        self.cells = self
            .cells
            .iter()
            .flat_map(|cell| {
                probs.iter().map(|&p| {
                    let mut c = cell.clone();
                    let faults = c.scenario.faults.unwrap_or_else(|| CrashModel::storms(0.0));
                    c.scenario.faults = Some(faults.prob(p));
                    c
                })
            })
            .collect();
        self
    }

    /// Worker threads for cell execution (default 1). The report is
    /// deterministic regardless of this setting: cells are seeded
    /// independently and results merge in construction order.
    pub fn parallelism(mut self, n: usize) -> Sweep {
        self.parallelism = n.max(1);
        self
    }

    /// Number of cells the sweep will run.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell under `runner` and aggregates the verdicts.
    pub fn run(&self, runner: &Runner) -> SweepReport {
        let run_cell = |cell: &Cell| -> SweepCell {
            // The seed axis feeds the simulator's run seed; for the other
            // runners it feeds workload resolution (meaningful for
            // `Workload::Random`; a no-op for deterministic workloads).
            let seeded = || match cell.seed {
                Some(seed) => cell.scenario.clone().workload_seed(seed),
                None => cell.scenario.clone(),
            };
            let verdict = match runner {
                Runner::Simulate(cfg) => {
                    let mut c = cfg.clone();
                    if let Some(seed) = cell.seed {
                        c.seed = seed;
                    }
                    cell.scenario.simulate(&c)
                }
                Runner::Explore(cfg) => seeded().explore(cfg),
                Runner::Census(cfg) => seeded().census(cfg),
                Runner::Perturb => cell.scenario.perturb(),
                Runner::Space => cell.scenario.space(),
            };
            let crash_prob = cell
                .scenario
                .faults
                .map(|f| f.crash_prob)
                .unwrap_or(match runner {
                    Runner::Simulate(cfg) => cfg.crash_prob,
                    _ => 0.0,
                });
            SweepCell {
                object: verdict.object.clone(),
                seed: cell.seed.unwrap_or(match runner {
                    Runner::Simulate(cfg) => cfg.seed,
                    _ => 0,
                }),
                crash_prob,
                verdict,
            }
        };

        let cells = if self.parallelism <= 1 || self.cells.len() <= 1 {
            self.cells.iter().map(run_cell).collect()
        } else {
            // Round-robin lanes, results re-merged in construction order —
            // the same recipe that keeps the parallel explorer
            // deterministic.
            let workers = self.parallelism.min(self.cells.len());
            let mut indexed: Vec<Option<SweepCell>> = (0..self.cells.len()).map(|_| None).collect();
            let lanes: Vec<Vec<usize>> = (0..workers)
                .map(|w| (w..self.cells.len()).step_by(workers).collect())
                .collect();
            let results: Vec<Vec<(usize, SweepCell)>> = std::thread::scope(|s| {
                let handles: Vec<_> = lanes
                    .into_iter()
                    .map(|lane| {
                        s.spawn(|| {
                            lane.into_iter()
                                .map(|i| (i, run_cell(&self.cells[i])))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            });
            for (i, cell) in results.into_iter().flatten() {
                indexed[i] = Some(cell);
            }
            indexed
                .into_iter()
                .map(|c| c.expect("every cell produced a result"))
                .collect()
        };
        SweepReport { cells }
    }

    /// Runs every cell through [`Scenario::simulate`], the crash-storm
    /// batch the seed axis exists for.
    pub fn simulate(&self, cfg: &SimConfig) -> SweepReport {
        self.run(&Runner::Simulate(cfg.clone()))
    }
}

/// One executed sweep cell: its axis coordinates plus the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// Reported object name.
    pub object: String,
    /// The seed this cell ran under.
    pub seed: u64,
    /// The per-step crash probability this cell ran under.
    pub crash_prob: f64,
    /// The cell's verdict.
    pub verdict: Verdict,
}

/// The aggregated outcome of a [`Sweep`]: per-cell verdicts in
/// deterministic (construction) order, with grouping helpers for report
/// tables. Two sweeps of the same cells produce equal reports regardless of
/// worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// The executed cells, in construction order.
    pub cells: Vec<SweepCell>,
}

/// One row of the per-object aggregate table.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateRow {
    /// Reported object name.
    pub object: String,
    /// Cells aggregated into this row.
    pub runs: u64,
    /// Cells whose verdict failed.
    pub failures: u64,
    /// Summed counters.
    pub stats: RunStats,
}

impl SweepReport {
    /// Whether every cell passed.
    pub fn all_passed(&self) -> bool {
        self.cells.iter().all(|c| c.verdict.passed)
    }

    /// Number of failed cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| !c.verdict.passed).count()
    }

    /// Summed counters across all cells.
    pub fn totals(&self) -> RunStats {
        let mut total = RunStats::default();
        for c in &self.cells {
            total.accumulate(&c.verdict.stats);
        }
        total
    }

    /// Aggregates cells per object, in first-appearance order (which is
    /// construction order, hence deterministic).
    pub fn by_object(&self) -> Vec<AggregateRow> {
        let mut rows: Vec<AggregateRow> = Vec::new();
        for c in &self.cells {
            let row = match rows.iter_mut().find(|r| r.object == c.object) {
                Some(row) => row,
                None => {
                    rows.push(AggregateRow {
                        object: c.object.clone(),
                        runs: 0,
                        failures: 0,
                        stats: RunStats::default(),
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.runs += 1;
            row.failures += u64::from(!c.verdict.passed);
            row.stats.accumulate(&c.verdict.stats);
        }
        rows
    }

    /// Panics with the first failing cell's violation unless every cell
    /// passed.
    pub fn assert_all_passed(&self) {
        if let Some(c) = self.cells.iter().find(|c| !c.verdict.passed) {
            panic!(
                "sweep cell failed (object {}, seed {}, crash_prob {}):\n{}",
                c.object,
                c.seed,
                c.crash_prob,
                c.verdict
                    .violation
                    .as_deref()
                    .unwrap_or("(no violation rendered)")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::gray_code_cas_ops;
    use detectable::OpSpec;
    use nvm::Pid;

    #[test]
    fn simulate_matches_engine_defaults() {
        let v = Scenario::object(ObjectKind::Register)
            .processes(3)
            .workload(Workload::mixed(3))
            .faults(CrashModel::storms(0.05))
            .simulate(&SimConfig {
                seed: 11,
                ..Default::default()
            });
        v.assert_passed();
        assert_eq!(v.mode, RunMode::Simulate);
        assert_eq!(v.stats.executions, 1);
        assert!(v.stats.resolved_ops >= 9);
    }

    #[test]
    fn explore_script_equals_engine() {
        let script = vec![
            (Pid::new(0), OpSpec::Write(1)),
            (Pid::new(1), OpSpec::Read),
            (Pid::new(1), OpSpec::Write(2)),
        ];
        // Pinned: `unique_nodes` varies with the worker count.
        let cfg = ExploreConfig {
            parallelism: 1,
            ..Default::default()
        };
        let v = Scenario::object(ObjectKind::Register)
            .workload(Workload::script(script.clone()))
            .explore(&cfg);
        v.assert_complete();

        let (reg, mem) = crate::sim::build_world(|b| DetectableRegister::new(b, 2, 0));
        let out = explore_engine(&reg, &mem, OpSource::Script(&script), &cfg);
        assert_eq!(v.stats.executions, out.leaves as u64);
        assert_eq!(v.stats.distinct_configs, out.unique_nodes as u64);
    }

    #[test]
    fn census_script_runs_the_gray_code_drive() {
        let n = 4u32;
        let v = Scenario::object(ObjectKind::Cas)
            .processes(n)
            .workload(Workload::script(gray_code_cas_ops(n)))
            .census(&BfsConfig::default());
        assert_eq!(v.bound_met, Some(true));
        assert_eq!(v.stats.distinct_configs, 1 << n);
        assert_eq!(v.stats.theorem_bound, (1 << n) - 1);
        v.assert_passed();
    }

    #[test]
    fn census_alphabet_runs_the_bfs() {
        let v = Scenario::object(ObjectKind::Cas)
            .workload(Workload::round_robin(
                vec![
                    OpSpec::Cas { old: 0, new: 1 },
                    OpSpec::Cas { old: 1, new: 0 },
                ],
                4,
            ))
            .census(&BfsConfig {
                max_ops: 4,
                max_states: 200_000,
                ..Default::default()
            });
        assert_eq!(v.bound_met, Some(true));
        v.assert_passed();
    }

    #[test]
    fn perturb_classifies_the_boundary() {
        let cas = Scenario::object(ObjectKind::Cas).perturb();
        assert_eq!(cas.bound_met, Some(true), "Lemma 6");
        assert!(cas.witness.is_some());
        cas.assert_passed();

        let mr = Scenario::object(ObjectKind::MaxRegister).perturb();
        assert_eq!(mr.bound_met, Some(false), "Lemma 4");
        assert!(mr.witness.is_none());
        mr.assert_passed();
    }

    #[test]
    fn space_reports_algorithm2_bits() {
        for n in [1u32, 8, 32] {
            let v = Scenario::object(ObjectKind::Cas).processes(n).space();
            assert_eq!(v.stats.shared_bits, 32 + u64::from(n));
        }
    }

    #[test]
    fn custom_objects_and_labels_flow_through() {
        let v = Scenario::custom(|b| Box::new(DetectableCas::new(b, 2, 0)))
            .label("my-cas")
            .space();
        assert_eq!(v.object, "my-cas");
        assert_eq!(v.kind, ObjectKind::Cas);
    }

    #[test]
    fn sweep_axes_cross_deterministically() {
        let sweep = Sweep::new(Scenario::object(ObjectKind::Register).processes(2))
            .objects(&[ObjectKind::Register, ObjectKind::Cas])
            .seeds(0..3);
        assert_eq!(sweep.len(), 6);
        let report = sweep.simulate(&SimConfig {
            ops_per_process: 2,
            crash_prob: 0.05,
            ..Default::default()
        });
        report.assert_all_passed();
        let rows = report.by_object();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].runs, 3);
        // Seeds are the inner axis: first three cells share an object.
        assert_eq!(report.cells[0].object, report.cells[2].object);
        assert_ne!(report.cells[0].object, report.cells[3].object);
    }

    #[test]
    fn sweep_parallelism_changes_nothing() {
        let base = Sweep::new(
            Scenario::object(ObjectKind::Counter)
                .processes(3)
                .workload(Workload::mixed(3))
                .faults(CrashModel::storms(0.08)),
        )
        .seeds(0..24);
        let seq = base.clone().parallelism(1).simulate(&SimConfig::default());
        let par = base.parallelism(8).simulate(&SimConfig::default());
        assert_eq!(seq, par);
    }

    #[test]
    fn workload_seed_varies_random_draws_in_explore() {
        use detectable::OpSpec;
        let base = Scenario::object(ObjectKind::Register).workload(Workload::random(
            vec![OpSpec::Read, OpSpec::Write(1), OpSpec::Write(2)],
            3,
        ));
        let cfg = ExploreConfig {
            max_crashes: 0,
            // Sequential: whole-verdict equality below includes the
            // scheduler counters, which are nondeterministic run to run
            // under parallelism.
            parallelism: 1,
            ..Default::default()
        };
        let a = base.clone().workload_seed(1).explore(&cfg);
        let b = base.clone().workload_seed(1).explore(&cfg);
        assert_eq!(a, b, "equal workload seeds explore identical trees");
        // Different seeds draw different op lists for at least one of a
        // handful of seeds (the draw space is tiny but not degenerate).
        assert!(
            (2..10).any(|s| base.clone().workload_seed(s).explore(&cfg) != a),
            "workload_seed must be able to vary Random draws"
        );
        // A Sweep seed axis reaches non-simulate runners the same way.
        let sweep = Sweep::new(base).seeds(0..4).run(&Runner::Explore(cfg));
        assert!(
            sweep
                .cells
                .iter()
                .any(|c| c.verdict.stats != sweep.cells[0].verdict.stats),
            "seed axis varies Random-workload explore cells"
        );
    }

    #[test]
    fn empty_alphabet_census_and_perturb_are_config_errors() {
        let empty = Workload::per_process(vec![vec![], vec![]]);
        let census = Scenario::object(ObjectKind::Cas)
            .workload(empty.clone())
            .census(&BfsConfig::default());
        assert!(!census.passed);
        assert!(
            census
                .violation
                .as_deref()
                .is_some_and(|v| v.contains("configuration error")),
            "census must say why: {:?}",
            census.violation
        );
        assert_eq!(census.stats.executions, 0, "nothing ran");

        let perturb = Scenario::object(ObjectKind::Cas).workload(empty).perturb();
        assert!(!perturb.passed);
        assert!(perturb
            .violation
            .as_deref()
            .is_some_and(|v| v.contains("configuration error")));

        let script = Scenario::object(ObjectKind::Cas)
            .workload(Workload::script(Vec::new()))
            .census(&BfsConfig::default());
        assert!(!script.passed);
        assert!(script
            .violation
            .as_deref()
            .is_some_and(|v| v.contains("configuration error")));
    }

    #[test]
    #[should_panic(expected = "script workload references p7")]
    fn scenario_rejects_script_pids_beyond_the_world() {
        let _ = Scenario::object(ObjectKind::Register)
            .workload(Workload::script(vec![(Pid::new(7), OpSpec::Write(1))]))
            .simulate(&SimConfig::default());
    }

    #[test]
    fn auto_symmetry_resolves_from_the_resolved_workload() {
        use crate::explore::SymmetryMode;
        // One-op alphabet, 3 processes: every list identical → reduction on.
        let sym = Scenario::object(ObjectKind::Cas)
            .processes(3)
            .workload(Workload::round_robin(
                vec![OpSpec::Cas { old: 0, new: 1 }],
                1,
            ))
            .faults(CrashModel::exhaustive(1).retries(1));
        // Pinned: `distinct_configs` (expanded nodes) varies with the
        // worker count.
        let seq = ExploreConfig {
            parallelism: 1,
            ..Default::default()
        };
        let auto = sym.explore(&seq);
        let off = sym.explore(&ExploreConfig {
            symmetry: SymmetryMode::Off,
            ..seq.clone()
        });
        auto.assert_passed();
        off.assert_passed();
        assert_eq!(
            auto.stats.executions, off.stats.executions,
            "reduction never changes totals"
        );
        assert!(
            auto.stats.distinct_configs < off.stats.distinct_configs,
            "auto-enabled reduction expanded fewer nodes ({} vs {})",
            auto.stats.distinct_configs,
            off.stats.distinct_configs
        );

        // Hand-assigned per-process lists keep reduction off even when
        // identical (the family gate is conservative, per the Auto contract).
        let hand = Scenario::object(ObjectKind::Cas)
            .processes(3)
            .workload(Workload::per_process(vec![
                vec![OpSpec::Cas {
                    old: 0,
                    new: 1
                }];
                3
            ]))
            .faults(CrashModel::exhaustive(1).retries(1));
        let hand_auto = hand.explore(&seq);
        assert_eq!(
            hand_auto.stats.distinct_configs, off.stats.distinct_configs,
            "per-process workloads resolve Auto to Off"
        );
    }

    #[test]
    fn crash_prob_axis_overrides_faults() {
        let report = Sweep::new(
            Scenario::object(ObjectKind::Register)
                .processes(2)
                .workload(Workload::mixed(2)),
        )
        .crash_probs(&[0.0, 0.1])
        .seeds(0..2)
        .simulate(&SimConfig::default());
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].crash_prob, 0.0);
        assert_eq!(report.cells[2].crash_prob, 0.1);
        // Crash-free cells never crash; the stormy cells were seeded the
        // same way, so any difference comes from the axis.
        assert_eq!(
            report.cells[0].verdict.stats.crashes + report.cells[1].verdict.stats.crashes,
            0
        );
        report.assert_all_passed();
    }
}
