//! Randomized crash-injecting simulator.
//!
//! Drives a [`RecoverableObject`] with N simulated processes under a seeded
//! random scheduler, injecting system-wide crashes at primitive-operation
//! granularity, running recovery functions per the paper's model (recovery
//! may itself crash and be re-entered), and recording the full [`History`]
//! for the checker.
//!
//! The scheduler here only decides *what happens next* — which process
//! steps, when crashes strike, and what each process's next operation is.
//! The operation life cycle itself (announcement protocol, recovery
//! re-entry, fail-retry budgeting per [`SimConfig::retry_on_fail`], history
//! recording) lives in the shared [`crate::driver::Driver`].

use detectable::{OpSpec, RecoverableObject};
use nvm::{CacheMode, CrashPolicy, LayoutBuilder, SimMemory, RESP_FAIL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::{Driver, RetryPolicy, StepOutcome};
use crate::history::History;

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// PRNG seed: equal seeds give identical executions.
    pub seed: u64,
    /// Operations each process performs (from the workload function).
    pub ops_per_process: usize,
    /// Probability that a scheduler step is a system-wide crash.
    pub crash_prob: f64,
    /// Which persistence model the memory simulates.
    pub cache_mode: CacheMode,
    /// What happens to dirty cache lines at a crash.
    pub crash_policy: CrashPolicy,
    /// Re-invoke an operation whose recovery verdict was `fail` (counts as a
    /// fresh invocation in the history).
    pub retry_on_fail: bool,
    /// Retry budget per logical operation (bounds history growth under
    /// crash storms so the exhaustive checker stays applicable).
    pub max_retries: usize,
}

/// A run aborts after this many scheduler steps (guards against livelock
/// under pathological crash rates).
const MAX_STEPS: usize = 1_000_000;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            ops_per_process: 2,
            crash_prob: 0.0,
            cache_mode: CacheMode::PrivateCache,
            crash_policy: CrashPolicy::DropAll,
            retry_on_fail: true,
            max_retries: 3,
        }
    }
}

/// Outcome of a simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// The recorded execution.
    pub history: History,
    /// Crashes injected.
    pub crashes: u64,
    /// Operations that resolved (returned or got a recovery verdict).
    pub resolved_ops: usize,
    /// Recovery verdicts that reported a response (the operation did
    /// linearize before the crash).
    pub recovered_ok: u64,
    /// Recovery verdicts that reported `fail` (never linearized).
    pub recovered_failed: u64,
    /// Scheduler steps consumed.
    pub steps: usize,
}

/// Builds a `(object, memory)` world in one call.
///
/// # Example
///
/// ```
/// use detectable::DetectableCas;
/// use harness::build_world;
/// let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
/// # let _ = (cas, mem);
/// ```
pub fn build_world<O>(f: impl FnOnce(&mut LayoutBuilder) -> O) -> (O, SimMemory) {
    build_world_mode(CacheMode::PrivateCache, f)
}

/// [`build_world`] with an explicit cache mode.
pub fn build_world_mode<O>(
    mode: CacheMode,
    f: impl FnOnce(&mut LayoutBuilder) -> O,
) -> (O, SimMemory) {
    let mut b = LayoutBuilder::new();
    let obj = f(&mut b);
    (obj, SimMemory::with_mode(b.finish(), mode))
}

/// Runs one simulation of `obj` over `mem` with explicit per-process
/// operation plans — the engine beneath
/// [`Scenario::simulate`](crate::Scenario::simulate), public for
/// engine-level equivalence tests and bespoke measurement loops that need
/// the world afterwards (the Scenario runners encapsulate it).
///
/// # Panics
///
/// Panics if the step budget is exhausted (livelock) — crash-heavy runs of
/// lock-free operations should use `retry_on_fail: false` or a generous
/// budget.
pub fn sim_engine(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    cfg: &SimConfig,
    plan: &[Vec<OpSpec>],
) -> SimReport {
    let n = obj.processes() as usize;
    assert_eq!(plan.len(), n, "one operation list per process");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut driver = Driver::for_object(obj);
    let retry = RetryPolicy {
        retry_on_fail: cfg.retry_on_fail,
        max_retries: cfg.max_retries,
        reset_per_op: true, // the budget refills at each fresh operation
    };
    let mut next_op: Vec<usize> = vec![0; n];
    let mut crashes = 0u64;
    let mut resolved = 0usize;
    let mut recovered_ok = 0u64;
    let mut recovered_failed = 0u64;
    let mut steps = 0usize;

    while !driver.all_done() {
        steps += 1;
        assert!(steps <= MAX_STEPS, "simulation exceeded {MAX_STEPS} steps");

        // A crash is a global scheduler event.
        if cfg.crash_prob > 0.0 && rng.gen_bool(cfg.crash_prob) {
            crashes += 1;
            driver.crash(mem, cfg.crash_policy);
            continue;
        }

        // Pick a runnable process uniformly.
        let runnable: Vec<usize> = (0..n).filter(|&i| !driver.state(i).is_done()).collect();
        let i = runnable[rng.gen_range(0..runnable.len())];

        if driver.state(i).is_idle() {
            if next_op[i] >= plan[i].len() {
                driver.mark_done(i);
            } else {
                let op = plan[i][next_op[i]];
                next_op[i] += 1;
                driver.invoke(obj, mem, i, op, &retry);
            }
        } else {
            let outcome = driver.step(obj, mem, i, &retry);
            if outcome.resolved() {
                resolved += 1;
            }
            if let StepOutcome::Recovered { verdict, .. } = outcome {
                if verdict == RESP_FAIL {
                    recovered_failed += 1;
                } else {
                    recovered_ok += 1;
                }
            }
        }
    }

    SimReport {
        history: driver.into_history(),
        crashes,
        resolved_ops: resolved,
        recovered_ok,
        recovered_failed,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearize::check_history;
    use detectable::{DetectableCas, DetectableRegister, ObjectKind};
    use nvm::Pid;

    /// Test-local stand-in for the old closure API: materialize and run.
    fn run_sim(
        obj: &dyn RecoverableObject,
        mem: &SimMemory,
        cfg: &SimConfig,
        workload: fn(Pid, usize) -> OpSpec,
    ) -> SimReport {
        let plan: Vec<Vec<OpSpec>> = (0..obj.processes() as usize)
            .map(|p| {
                (0..cfg.ops_per_process)
                    .map(|i| workload(Pid::new(p as u32), i))
                    .collect()
            })
            .collect();
        sim_engine(obj, mem, cfg, &plan)
    }

    fn reg_workload(pid: Pid, i: usize) -> OpSpec {
        if (pid.idx() + i).is_multiple_of(2) {
            OpSpec::Write((pid.idx() * 10 + i) as u32 + 1)
        } else {
            OpSpec::Read
        }
    }

    #[test]
    fn crash_free_register_runs_linearize() {
        for seed in 0..20 {
            let (reg, mem) = build_world(|b| DetectableRegister::new(b, 3, 0));
            let cfg = SimConfig {
                seed,
                ops_per_process: 3,
                ..SimConfig::default()
            };
            let report = run_sim(&reg, &mem, &cfg, reg_workload);
            assert_eq!(report.crashes, 0);
            check_history(ObjectKind::Register, &report.history)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn crashing_register_runs_linearize() {
        for seed in 0..20 {
            let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
            let cfg = SimConfig {
                seed,
                ops_per_process: 3,
                crash_prob: 0.05,
                ..SimConfig::default()
            };
            let report = run_sim(&reg, &mem, &cfg, reg_workload);
            check_history(ObjectKind::Register, &report.history)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn crashing_cas_runs_linearize() {
        for seed in 0..20 {
            let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
            let cfg = SimConfig {
                seed,
                ops_per_process: 3,
                crash_prob: 0.08,
                ..SimConfig::default()
            };
            let report = run_sim(&cas, &mem, &cfg, |pid, i| OpSpec::Cas {
                old: i as u32,
                new: i as u32 + 1 + pid.get(),
            });
            check_history(ObjectKind::Cas, &report.history)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let run = |seed| {
            let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
            let cfg = SimConfig {
                seed,
                ops_per_process: 2,
                crash_prob: 0.1,
                ..Default::default()
            };
            run_sim(&reg, &mem, &cfg, reg_workload).history.to_string()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn no_retry_leaves_failed_ops_unretried() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let cfg = SimConfig {
            seed: 3,
            ops_per_process: 4,
            crash_prob: 0.2,
            retry_on_fail: false,
            ..Default::default()
        };
        let report = run_sim(&reg, &mem, &cfg, reg_workload);
        check_history(ObjectKind::Register, &report.history).unwrap();
    }
}
