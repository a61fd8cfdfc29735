//! Correctness harness for the detectable-objects reproduction.
//!
//! This crate is the "evaluation testbed" of the reproduction: it drives the
//! objects of the [`detectable`] and `baselines` crates through crashes
//! and adversarial schedules, and checks the paper's claims:
//!
//! * [`spec`] — sequential specifications of every object kind;
//! * [`history`] — execution recording (invocations, responses, crashes,
//!   recovery verdicts);
//! * [`linearize`] — the durable-linearizability + detectability checker
//!   (Wing–Gong search adapted to the crash-recovery model);
//! * [`driver`] — the shared execution driver: announcement protocol,
//!   machine stepping, crash demotion, recovery re-entry and fail-retry
//!   budgeting, used by every component below;
//! * [`sim`] — seeded randomized simulator with crash injection at
//!   primitive-step granularity and asynchronous per-process recovery;
//! * [`explore`](mod@explore) — exhaustive interleaving + crash-point exploration for
//!   small configurations (machine-checks Lemmas 1 and 2 at small scale);
//! * [`census`] — the reachable-configuration census reproducing
//!   **Theorem 1** (detectable CAS needs `2^N − 1` shared-memory
//!   configurations, and Algorithm 2 realizes them);
//! * [`aux_state`] — the **Theorem 2** experiment (detectability requires
//!   externally provided auxiliary state; withholding it produces the
//!   Figure 2 violation);
//! * [`perturb`] — machine-checks the doubly-perturbing classification
//!   (Lemmas 3–8);
//! * [`scenario`] — the **front door**: the composable [`Scenario`] builder
//!   (object + memory model + [`workload`] + fault model) whose terminal
//!   runners lower onto all of the strategies above and return one shared
//!   [`Verdict`], and the [`Sweep`] batch layer that fans scenarios across
//!   seed ranges / object kinds / crash probabilities on worker threads;
//! * [`report`] — Markdown and JSON rendering for verdicts and sweep
//!   reports.
//!
//! The engines beneath the `Scenario` runners (`sim_engine`,
//! `explore_engine`, `census_drive_engine`, `census_bfs_engine`,
//! `witness_search`) are exported for engine-level equivalence tests and
//! bespoke measurement loops. Each engine resolves a `parallelism` of 0 to
//! the host's core count itself ([`resolve_parallelism`]), so an engine
//! call and its `Scenario` runner mean the same thing by it.
//! `census_bfs_engine` is the one BFS census: one worker loop over an
//! in-RAM or an on-disk ([`external`]) storage tier, picked from
//! `BfsConfig::disk_dir` and the object's decodability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aux_state;
pub mod census;
pub mod driver;
pub mod explore;
pub mod external;
pub mod history;
pub mod linearize;
pub mod perturb;
pub mod process_crash;
pub mod report;
pub mod scenario;
pub mod sched;
pub mod sim;
pub mod spec;
pub mod workload;

pub use aux_state::{probe_aux_state, theorem2_script};
pub use census::{
    census_bfs_engine, census_drive_engine, gray_code_cas_ops, BfsConfig, CensusReport,
};
pub use driver::{op_from_key, op_key, Driver, ProcState, RetryPolicy, StepOutcome};
pub use explore::{explore_engine, ExploreConfig, ExploreOutcome, OpSource, SymmetryMode};
pub use external::SpillStats;
pub use history::{Event, History, OpRecord, Outcome};
pub use linearize::{
    check_execution, check_history, check_records, check_records_windowed, Violation,
    MAX_CHECKED_OPS,
};
pub use perturb::{
    default_alphabet, render_witness, validate_witness_on_impl, witness_search, PerturbWitness,
};
pub use process_crash::{
    default_factory, kind_from_name, kind_name, maybe_run_worker, run_cycle, CrashCycleConfig,
    CycleReport, WorldFactory,
};
pub use report::{census_table_json, markdown_table, verdicts_to_json};
pub use scenario::{
    build_kind, AggregateRow, CrashModel, RunMode, RunStats, Runner, Scenario, Sweep, SweepCell,
    SweepReport, Verdict,
};
pub use sched::{resolve_parallelism, SchedStats};
pub use sim::{build_world, build_world_mode, sim_engine, SimConfig, SimReport};
pub use spec::{spec_apply, spec_init, spec_run, SpecState};
pub use workload::{mixed_op, ResolvedWorkload, Workload};
