//! The five workloads. Each builds its inputs once (the timed set-up) and
//! then runs repetitions; every repetition checks its outputs against the
//! counts pinned below.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use harness::{
    build_kind, explore_engine, kind_name, mixed_op, run_cycle, BfsConfig, CrashCycleConfig,
    Driver, ExploreConfig, OpSource, Scenario, SchedStats, SymmetryMode, Workload,
};
use nvm::{AtomicMemory, LayoutBuilder, Pid};

use crate::stats::{shuffle, Histogram};
use crate::trace::{self, Spans, Tally, TimedObject, TRACE_DIR_ENV};

pub const NAMES: [&str; 5] = ["census", "census-spill", "explore", "objects", "soak"];

/// The eight paper objects, in the order the `objects` and `soak`
/// workloads run them.
pub const KINDS: [ObjectKind; 8] = [
    ObjectKind::Register,
    ObjectKind::Cas,
    ObjectKind::MaxRegister,
    ObjectKind::Counter,
    ObjectKind::Faa,
    ObjectKind::Swap,
    ObjectKind::Tas,
    ObjectKind::Queue,
];

/// Census of detectable CAS, N = 4, 5-op budget: expansions and distinct
/// shared-memory configurations (Theorem 1 needs 2^4 − 1 = 15).
const CENSUS_STATES: u64 = 647_456;
const CENSUS_CONFIGS: u64 = 16;
/// Spill budget: about 1/14 of the in-RAM census's working set.
const SPILL_RAM_BUDGET: usize = 16 << 20;
/// Leaves (with multiplicity) of the exhaustive crash-point exploration.
const EXPLORE_LEAVES: usize = 21_476_849_112;
/// Operations per thread per object kind in one `objects` repetition.
const OPS_PER_KIND: usize = 125_000;
/// Step budget of one solo operation; the algorithms are wait-free, so an
/// operation that exhausts it has failed.
const STEP_LIMIT: usize = 1 << 20;
const SOAK_OPS_PER_PROC: usize = 1_000;
/// Rounds (one crash cycle per object kind each) in a traced `soak` rep.
const SOAK_TRACED_ROUNDS: usize = 8;

/// Everything a workload reads besides its own inputs.
pub struct Ctx {
    pub seed: u64,
    /// Threads, worker processes and engine parallelism of every workload.
    pub workers: usize,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub dir: PathBuf,
    pub spans: Spans,
}

/// Per-unit latencies of one repetition.
pub enum Latency {
    /// Milliseconds per unit (a census or exploration verdict, a crash
    /// cycle's kill-to-verdict time).
    Samples(Vec<f64>),
    /// Nanoseconds per object operation.
    Ops(Histogram),
}

/// What one repetition measured.
pub struct Rep {
    pub wall: Duration,
    /// Units completed: states, leaves, operations or crash cycles.
    pub units: f64,
    pub attempted: u64,
    pub failed: u64,
    pub latency: Latency,
    /// Engine counters, as per-layer metric name and value.
    pub engine: Vec<(&'static str, f64)>,
    /// `objects` only: operations per second for each kind.
    pub kind_rates: Vec<f64>,
    /// Traced reps: the shims' totals and the harness's own time.
    pub tally: Tally,
    pub harness_self_ns: f64,
    /// Peak resident set while the rep ran, in MiB (set by the caller).
    pub peak_rss_mb: f64,
}

impl Rep {
    fn new(wall: Duration, units: f64, latency: Latency) -> Rep {
        Rep {
            wall,
            units,
            attempted: 1,
            failed: 0,
            latency,
            engine: Vec::new(),
            kind_rates: Vec::new(),
            tally: Tally::default(),
            harness_self_ns: 0.0,
            peak_rss_mb: 0.0,
        }
    }

    /// Fills the traced fields of an in-process rep whose engine threads
    /// ran for `thread_ns` in total.
    fn traced(&mut self, tally: Tally, thread_ns: f64) {
        self.harness_self_ns = thread_ns - tally.wrapped_ns() as f64;
        self.tally = tally;
    }
}

pub trait Bench {
    /// One repetition; `traced` swaps the timing shims in.
    fn rep(&mut self, ctx: &mut Ctx, traced: bool) -> Rep;
}

/// Builds the named workload's inputs.
pub fn setup(name: &str, ctx: &Ctx) -> Box<dyn Bench> {
    match name {
        "census" => Box::new(Census::new(ctx, false)),
        "census-spill" => Box::new(Census::new(ctx, true)),
        "explore" => Box::new(Explore::new(ctx)),
        "objects" => Box::new(Objects::new(ctx)),
        "soak" => Box::new(Soak::new(ctx)),
        _ => unreachable!("workload names are checked at the command line"),
    }
}

fn scenario(kind: ObjectKind, n: u32, traced: bool) -> Scenario {
    if traced {
        Scenario::custom(move |b| TimedObject::wrap(build_kind(kind, b, n, 128)))
    } else {
        Scenario::object(kind).processes(n)
    }
}

fn sched_counters(s: &SchedStats) -> [(&'static str, f64); 5] {
    let n = s.per_worker_expansions.len().max(1) as f64;
    let total: u64 = s.per_worker_expansions.iter().sum();
    let max = s.per_worker_expansions.iter().copied().max().unwrap_or(0);
    [
        ("harness.sched.steals", s.steals as f64),
        ("harness.sched.steal_failures", s.steal_failures as f64),
        ("harness.sched.parks", s.parks as f64),
        ("harness.sched.flush_batches", s.flush_batches as f64),
        (
            "harness.sched.imbalance",
            if total == 0 {
                0.0
            } else {
                max as f64 / (total as f64 / n)
            },
        ),
    ]
}

/// Threads the engine ran: the external census is sequential whatever
/// parallelism it is given.
fn engine_threads(s: &SchedStats) -> f64 {
    s.workers.max(1) as f64
}

/// Theorem 1 census of detectable CAS through `Scenario::census`, in RAM
/// or spilling to disk under a small RAM budget.
struct Census {
    plain: Scenario,
    traced: Scenario,
    cfg: BfsConfig,
}

impl Census {
    fn new(ctx: &Ctx, spill: bool) -> Census {
        let workload = Workload::round_robin(
            vec![
                OpSpec::Cas { old: 0, new: 1 },
                OpSpec::Cas { old: 1, new: 0 },
            ],
            5,
        );
        let mut cfg = BfsConfig {
            max_ops: 5,
            parallelism: ctx.workers,
            ..BfsConfig::default()
        };
        if spill {
            let dir = ctx.dir.join("spill");
            std::fs::create_dir_all(&dir).expect("create spill dir");
            cfg.disk_dir = Some(dir);
            cfg.ram_budget = Some(SPILL_RAM_BUDGET);
        }
        Census {
            plain: scenario(ObjectKind::Cas, 4, false).workload(workload.clone()),
            traced: scenario(ObjectKind::Cas, 4, true).workload(workload),
            cfg,
        }
    }
}

impl Bench for Census {
    fn rep(&mut self, ctx: &mut Ctx, traced: bool) -> Rep {
        let scenario = if traced { &self.traced } else { &self.plain };
        let before = trace::counters().snapshot();
        let span = ctx.spans.enter("Scenario::census");
        let t = Instant::now();
        let v = scenario.census(&self.cfg);
        let wall = t.elapsed();
        ctx.spans.exit(span);
        let s = &v.stats;
        let ok = v.passed
            && !s.truncated
            && s.executions == CENSUS_STATES
            && s.distinct_configs == CENSUS_CONFIGS;
        if !ok {
            eprintln!("census check failed: {s:?}");
        }
        let mut rep = Rep::new(
            wall,
            s.executions as f64,
            Latency::Samples(vec![wall.as_secs_f64() * 1e3]),
        );
        rep.failed = u64::from(!ok);
        rep.engine = vec![
            ("harness.census.work", s.executions as f64),
            ("harness.census.steps", s.steps as f64),
            (
                "harness.census.peak_resident_bytes",
                s.peak_resident_bytes as f64,
            ),
            ("harness.census.spilled_bytes", s.spilled_bytes as f64),
        ];
        rep.engine.extend(sched_counters(&s.sched));
        if traced {
            let tally = trace::counters().snapshot().since(&before);
            rep.traced(tally, engine_threads(&s.sched) * wall.as_nanos() as f64);
        }
        rep
    }
}

/// Exhaustive crash-point exploration of detectable CAS, called on the
/// engine directly for its memo and scheduler counters.
struct Explore {
    plain: Scenario,
    traced: Scenario,
    lists: Vec<Vec<OpSpec>>,
    cfg: ExploreConfig,
}

impl Explore {
    fn new(ctx: &Ctx) -> Explore {
        Explore {
            plain: scenario(ObjectKind::Cas, 3, false),
            traced: scenario(ObjectKind::Cas, 3, true),
            lists: vec![vec![OpSpec::Cas { old: 0, new: 1 }, OpSpec::Read]; 3],
            cfg: ExploreConfig {
                max_crashes: 1,
                max_retries: 1,
                max_leaves: usize::MAX,
                symmetry: SymmetryMode::On,
                parallelism: ctx.workers,
                ..ExploreConfig::default()
            },
        }
    }
}

impl Bench for Explore {
    fn rep(&mut self, ctx: &mut Ctx, traced: bool) -> Rep {
        let (obj, mem) = if traced { &self.traced } else { &self.plain }.build();
        let before = trace::counters().snapshot();
        let span = ctx.spans.enter("explore_engine");
        let t = Instant::now();
        let out = explore_engine(&*obj, &mem, OpSource::PerProcess(&self.lists), &self.cfg);
        let wall = t.elapsed();
        ctx.spans.exit(span);
        let ok = out.violation.is_none() && !out.truncated && out.leaves == EXPLORE_LEAVES;
        if !ok {
            eprintln!(
                "explore check failed: leaves {} truncated {} violation {:?}",
                out.leaves,
                out.truncated,
                out.violation.map(|v| v.to_string())
            );
        }
        let mut rep = Rep::new(
            wall,
            out.leaves as f64,
            Latency::Samples(vec![wall.as_secs_f64() * 1e3]),
        );
        rep.failed = u64::from(!ok);
        let probes = (out.memo_hits + out.unique_nodes).max(1) as f64;
        rep.engine = vec![
            ("harness.explore.unique_nodes", out.unique_nodes as f64),
            ("harness.explore.memo_hits", out.memo_hits as f64),
            (
                "harness.explore.memo_hit_ratio",
                out.memo_hits as f64 / probes,
            ),
            ("harness.explore.memo_evictions", out.memo_evictions as f64),
        ];
        rep.engine.extend(sched_counters(&out.sched));
        if traced {
            let tally = trace::counters().snapshot().since(&before);
            rep.traced(tally, engine_threads(&out.sched) * wall.as_nanos() as f64);
        }
        rep
    }
}

/// Closed loop: `workers` threads, each with its own history-free `Driver`,
/// run every paper object over `AtomicMemory`.
struct Objects {
    workers: usize,
    /// `lists[kind][thread]`: the kind's mixed operations, shuffled.
    lists: Vec<Vec<Vec<OpSpec>>>,
    queue_capacity: u32,
}

impl Objects {
    fn new(ctx: &Ctx) -> Objects {
        let lists: Vec<Vec<Vec<OpSpec>>> = KINDS
            .iter()
            .enumerate()
            .map(|(k, &kind)| {
                (0..ctx.workers)
                    .map(|t| {
                        let pid = Pid::new(t as u32);
                        let mut ops: Vec<OpSpec> =
                            (0..OPS_PER_KIND).map(|i| mixed_op(kind, pid, i)).collect();
                        shuffle(&mut ops, ctx.seed ^ (((k * 64 + t) as u64) << 32));
                        ops
                    })
                    .collect()
            })
            .collect();
        // The queue never reuses nodes: give every process a slab that
        // holds all of its enqueues.
        let queue = KINDS.iter().position(|&k| k == ObjectKind::Queue).unwrap();
        let max_enq = lists[queue]
            .iter()
            .map(|ops| ops.iter().filter(|op| matches!(op, OpSpec::Enq(_))).count())
            .max()
            .unwrap_or(0);
        Objects {
            workers: ctx.workers,
            queue_capacity: (ctx.workers * max_enq + 1) as u32,
            lists,
        }
    }
}

/// The value a final solo `Read` must return, for the kinds whose final
/// state is fixed by the operation multiset alone.
fn expected_read(kind: ObjectKind, lists: &[Vec<OpSpec>]) -> Option<u64> {
    let ops = lists.iter().flatten();
    match kind {
        ObjectKind::Counter => Some(ops.filter(|op| matches!(op, OpSpec::Inc)).count() as u64),
        ObjectKind::Faa => Some(
            ops.map(|op| match op {
                OpSpec::Faa(d) => u64::from(*d),
                _ => 0,
            })
            .sum(),
        ),
        _ => None,
    }
}

impl Bench for Objects {
    fn rep(&mut self, ctx: &mut Ctx, traced: bool) -> Rep {
        let n = self.workers as u32;
        let before = trace::counters().snapshot();
        let mut hist = Histogram::new();
        let mut rep = Rep::new(Duration::ZERO, 0.0, Latency::Samples(Vec::new()));
        rep.attempted = 0;
        for (k, &kind) in KINDS.iter().enumerate() {
            let lists = &self.lists[k];
            let mut b = LayoutBuilder::new();
            let obj = build_kind(kind, &mut b, n, self.queue_capacity);
            let obj: Box<dyn RecoverableObject> = if traced { TimedObject::wrap(obj) } else { obj };
            let mem = AtomicMemory::new(b.finish());
            let barrier = Barrier::new(self.workers + 1);
            let span = ctx.spans.enter(format!("kind:{}", kind_name(kind)));
            let (results, wall) = std::thread::scope(|s| {
                let handles: Vec<_> = lists
                    .iter()
                    .enumerate()
                    .map(|(t, ops)| {
                        let (obj, mem, barrier) = (&*obj, &mem, &barrier);
                        s.spawn(move || {
                            let mut h = Histogram::new();
                            let mut failed = 0u64;
                            let mut driver = Driver::without_history(n);
                            barrier.wait();
                            for &op in ops {
                                let t0 = Instant::now();
                                let r = driver.try_run_solo(obj, mem, t, op, STEP_LIMIT);
                                h.record(t0.elapsed().as_nanos() as u64);
                                if r.is_none() {
                                    failed += 1;
                                    driver = Driver::without_history(n);
                                }
                            }
                            (h, failed)
                        })
                    })
                    .collect();
                barrier.wait();
                let start = Instant::now();
                let results: Vec<(Histogram, u64)> = handles
                    .into_iter()
                    .map(|h| h.join().expect("objects thread panicked"))
                    .collect();
                (results, start.elapsed())
            });
            ctx.spans.exit(span);
            let ops: usize = lists.iter().map(Vec::len).sum();
            for (h, failed) in &results {
                hist.merge(h);
                rep.failed += failed;
            }
            rep.attempted += ops as u64;
            if let Some(want) = expected_read(kind, lists) {
                let got = Driver::without_history(n).try_run_solo(
                    &*obj,
                    &mem,
                    0,
                    OpSpec::Read,
                    STEP_LIMIT,
                );
                rep.attempted += 1;
                if got != Some(want) {
                    eprintln!("objects check failed: {kind:?} read {got:?}, want {want}");
                    rep.failed += 1;
                }
            }
            rep.wall += wall;
            rep.units += ops as f64;
            rep.kind_rates.push(ops as f64 / wall.as_secs_f64());
        }
        if traced {
            let tally = trace::counters().snapshot().since(&before);
            rep.traced(tally, hist.sum_ns() as f64);
        }
        rep.latency = Latency::Ops(hist);
        rep
    }
}

/// Real SIGKILL crash cycles in the multi-process fabric: one cycle per
/// object kind per round.
struct Soak {
    cfgs: Vec<CrashCycleConfig>,
    counter_dir: PathBuf,
    next_cycle: u64,
}

impl Soak {
    fn new(ctx: &Ctx) -> Soak {
        let procs = ctx.workers as u32;
        let cfgs = KINDS
            .iter()
            .map(|&kind| {
                let mut cfg = CrashCycleConfig::new(kind);
                cfg.procs = procs;
                cfg.ops_per_proc = SOAK_OPS_PER_PROC;
                cfg.queue_capacity = procs * SOAK_OPS_PER_PROC as u32 + 1;
                cfg.procs_as_processes = true;
                cfg.kill_subset = 1;
                cfg.recovery_kills = 0;
                cfg.seed = ctx.seed;
                cfg.dir = ctx.dir.join("soak").join(kind_name(kind));
                cfg
            })
            .collect();
        let counter_dir = ctx.dir.join("counters");
        std::fs::create_dir_all(&counter_dir).expect("create counter dir");
        Soak {
            cfgs,
            counter_dir,
            next_cycle: 0,
        }
    }
}

impl Bench for Soak {
    fn rep(&mut self, ctx: &mut Ctx, traced: bool) -> Rep {
        let rounds = if traced { SOAK_TRACED_ROUNDS } else { 1 };
        if traced {
            // Crash workers inherit the environment: while this is set they
            // wrap their objects and count into files in `counter_dir`.
            std::env::set_var(TRACE_DIR_ENV, &self.counter_dir);
        }
        let mut rep = Rep::new(Duration::ZERO, 0.0, Latency::Samples(Vec::new()));
        rep.attempted = 0;
        let mut samples = Vec::new();
        let (mut ops, mut survivor_ops, mut in_flight) = (0, 0, 0);
        let (mut recovered_ok, mut recovered_failed) = (0, 0);
        for _ in 0..rounds {
            let cycle = self.next_cycle;
            self.next_cycle += 1;
            for cfg in &self.cfgs {
                let span = ctx.spans.enter(format!("run_cycle:{}", cfg.object));
                let t = Instant::now();
                let result = run_cycle(cfg, trace::factory, cycle);
                let wall = t.elapsed();
                ctx.spans.exit(span);
                rep.attempted += 1;
                rep.wall += wall;
                rep.units += 1.0;
                match result {
                    Ok(r) => {
                        if r.recovered_unresolved > 0 || !r.check_ok {
                            eprintln!(
                                "soak check failed: {} cycle {cycle}: {} unresolved, {:?}",
                                cfg.object, r.recovered_unresolved, r.violation
                            );
                            rep.failed += 1;
                        }
                        samples.push(r.recovery_latency_us as f64 / 1e3);
                        ops += r.ops_completed;
                        survivor_ops += r.survivor_ops;
                        in_flight += r.in_flight;
                        recovered_ok += r.recovered_ok;
                        recovered_failed += r.recovered_failed;
                        let phases = (r.kill_latency_us + r.recovery_latency_us) as f64 * 1e3;
                        rep.harness_self_ns += wall.as_nanos() as f64 - phases;
                    }
                    Err(e) => {
                        eprintln!("soak cycle failed: {} cycle {cycle}: {e}", cfg.object);
                        rep.failed += 1;
                    }
                }
                if traced {
                    rep.tally.add(&Tally::drain_dir(&self.counter_dir));
                }
            }
        }
        if traced {
            std::env::remove_var(TRACE_DIR_ENV);
        }
        let cycles = rep.units.max(1.0);
        rep.engine = vec![
            ("harness.process_crash.ops_per_cycle", ops as f64 / cycles),
            (
                "harness.process_crash.survivor_ops_per_cycle",
                survivor_ops as f64 / cycles,
            ),
            ("harness.process_crash.in_flight", in_flight as f64),
            ("harness.process_crash.recovered_ok", recovered_ok as f64),
            (
                "harness.process_crash.recovered_failed",
                recovered_failed as f64,
            ),
        ];
        rep.latency = Latency::Samples(samples);
        rep
    }
}
