//! The benchmark of the detectable-objects workspace: five workloads that
//! cover exhaustive search (the Theorem 1 census in RAM and on disk, the
//! crash-point explorer), the per-operation cost of the paper's objects,
//! and recovery after real SIGKILLs. See `README.md` for the workloads,
//! the metrics and the layer each per-layer metric belongs to.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--trace-out PATH]
//! ```
//!
//! Each workload runs in a fresh child process (this binary re-executed
//! with `--child NAME`): it builds its inputs, prints `ready`, runs one
//! warm-up repetition, then repeats for `--seconds` and reports. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of one extra repetition run through the timing shims.

mod stats;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use stats::{median, peak_rss_mb, quantile, reset_peak_rss, Histogram};
use trace::{Boundary, Spans};
use workloads::{Ctx, Latency, Rep, KINDS, NAMES};

const USAGE: &str =
    "usage: detectable-benchmark [--workload census|census-spill|explore|objects|soak] \
                     [--seed S] [--seconds T] [--trace [0|1]] [--trace-out PATH]";

/// Where runs keep scratch files and `trace.json`, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// Set-up is timed this many times per run (in fresh processes) and the
/// median reported.
const SETUP_SAMPLES: usize = 9;

/// End-to-end metrics, all reported for every workload. `throughput`
/// counts census states, explored leaves, object operations or crash
/// cycles; the latency is per census or exploration verdict, per object
/// operation, or per crash cycle from kill to verdict. Tail latencies are
/// per-layer diagnostics: a census run has too few verdicts for a tail.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("max_rss_mb", "MB"),
];

/// Per-layer metrics, all reported for every traced workload; a layer a
/// workload never enters reports 0 calls.
fn per_layer_table() -> Vec<(String, &'static str)> {
    let fixed = [
        ("detectable.step.calls", "count"),
        ("detectable.step.self_ns", "ns"),
        ("detectable.other_ns", "ns"),
        ("detectable.encode.calls", "count"),
        ("detectable.clone.calls", "count"),
        ("detectable.prepare.calls", "count"),
        ("detectable.recover.calls", "count"),
        ("detectable.steps_per_op", "count"),
        ("nvm.memory.calls", "count"),
        ("nvm.memory.ns", "ns"),
        ("nvm.memory.persists", "count"),
        ("nvm.memory.calls_per_op", "count"),
        ("harness.self_ns", "ns"),
        ("harness.latency_samples", "count"),
        ("harness.latency_p90_ms", "ms"),
        ("harness.latency_p99_ms", "ms"),
        ("harness.latency_max_ms", "ms"),
        ("harness.census.work", "count"),
        ("harness.census.steps", "count"),
        ("harness.census.peak_resident_bytes", "bytes"),
        ("harness.census.spilled_bytes", "bytes"),
        ("harness.sched.steals", "count"),
        ("harness.sched.steal_failures", "count"),
        ("harness.sched.parks", "count"),
        ("harness.sched.flush_batches", "count"),
        ("harness.sched.imbalance", "ratio"),
        ("harness.explore.unique_nodes", "count"),
        ("harness.explore.memo_hits", "count"),
        ("harness.explore.memo_hit_ratio", "ratio"),
        ("harness.explore.memo_evictions", "count"),
        ("harness.process_crash.ops_per_cycle", "count"),
        ("harness.process_crash.survivor_ops_per_cycle", "count"),
        ("harness.process_crash.in_flight", "count"),
        ("harness.process_crash.recovered_ok", "count"),
        ("harness.process_crash.recovered_failed", "count"),
        ("trace_overhead", "ratio"),
    ];
    let mut table: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    table.extend(KINDS.iter().map(|&k| (kind_rate_name(k), "1/s")));
    table
}

fn kind_rate_name(kind: detectable::ObjectKind) -> String {
    format!("detectable.{}.ops_per_s", harness::kind_name(kind))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: PathBuf,
    /// Internal: run the named workload in this process.
    child: Option<String>,
    /// Internal: exit right after set-up (a set-up timing sample).
    setup_only: bool,
}

impl Args {
    fn parse(it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: 15,
            trace: false,
            trace_out: Path::new(OUT_DIR).join("trace.json"),
            child: None,
            setup_only: false,
        };
        let mut it = it.peekable();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => a.workload = Some(workload_name(value()?)?),
                "--child" => a.child = Some(workload_name(value()?)?),
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if a.seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                "--trace-out" => a.trace_out = PathBuf::from(value()?),
                "--setup-only" => a.setup_only = true,
                // `--trace 0|1`, or a bare `--trace` for 1.
                "--trace" => {
                    a.trace = it
                        .next_if(|v| v == "0" || v == "1")
                        .is_none_or(|v| v == "1");
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(a)
    }
}

fn workload_name(name: String) -> Result<String, String> {
    if NAMES.contains(&name.as_str()) {
        Ok(name)
    } else {
        Err(format!(
            "unknown workload {name:?}; expected one of {NAMES:?}"
        ))
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one thread count every workload uses: engine parallelism, object
/// threads and crash-worker processes.
fn workers() -> usize {
    host_cpus().min(2)
}

fn main() {
    // Crash cycles re-execute this binary as their workers and recoverers.
    harness::maybe_run_worker(trace::factory);
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match &args.child {
        Some(name) => run_child(name, &args),
        None => run_all(&args),
    }
}

/// One metric as the child reports it: name, value, unit.
type Metric = (String, f64, String);

/// What a workload's child process reported.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    trace: Option<String>,
}

fn run_all(args: &Args) {
    println!("host_cpus {} workers {}", host_cpus(), workers());
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut traces = Vec::new();
    for &name in &names {
        let out = run_workload(name, args).unwrap_or_else(|e| {
            eprintln!("error: workload {name}: {e}");
            std::process::exit(1);
        });
        let mut line = format!("{name}:");
        for (m, v, u) in &out.metrics {
            write!(line, " {m} {v} {u};").unwrap();
        }
        println!("{line} attempted {} failed {}", out.attempted, out.failed);
        attempted += out.attempted;
        failed += out.failed;
        for (m, v, u) in out.metrics {
            let key = if names.len() == 1 {
                m
            } else {
                format!("{name}/{m}")
            };
            metrics.push((key, v, u));
        }
        traces.extend(out.trace.map(|t| format!("\"{name}\":{t}")));
    }
    if args.trace {
        let body = format!(
            "{{\"host_cpus\":{},\"workers\":{},\"workloads\":{{{}}}}}\n",
            host_cpus(),
            workers(),
            traces.join(",")
        );
        if let Some(dir) = args.trace_out.parent() {
            std::fs::create_dir_all(dir).expect("create trace-out directory");
        }
        std::fs::write(&args.trace_out, body).expect("write trace.json");
        eprintln!("trace written to {}", args.trace_out.display());
    }
    let correct = failed == 0 && attempted > 0;
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (m, v, u)) in metrics.iter().enumerate() {
        assert!(v.is_finite(), "metric {m} is not a number: {v}");
        let sep = if i > 0 { "," } else { "" };
        write!(json, "{sep}\"{m}\":{{\"value\":{v},\"unit\":\"{u}\"}}").unwrap();
    }
    json.push_str("}}");
    println!("{json}");
    std::process::exit(if correct { 0 } else { 1 });
}

/// Runs `name` in child processes: set-up-only children for the set-up
/// samples, then the measured child.
fn run_workload(name: &str, args: &Args) -> io::Result<Outcome> {
    let mut setup_s = Vec::new();
    if !args.trace {
        for _ in 1..SETUP_SAMPLES {
            setup_s.push(spawn_child(name, args, true)?.0);
        }
    }
    let (setup, lines) = spawn_child(name, args, false)?;
    setup_s.push(setup);
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        trace: None,
    };
    if !args.trace {
        out.metrics
            .push(("setup_s".into(), median(&mut setup_s), "s".into()));
    }
    let bad = |l: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad line {l:?}"));
    for line in &lines {
        match line.split_once(' ') {
            Some(("metric", rest)) => {
                let p: Vec<&str> = rest.split(' ').collect();
                let [m, v, u] = p[..] else {
                    return Err(bad(line));
                };
                let v = v.parse().map_err(|_| bad(line))?;
                out.metrics.push((m.into(), v, u.into()));
            }
            Some(("attempted", n)) => out.attempted = n.parse().map_err(|_| bad(line))?,
            Some(("failed", n)) => out.failed = n.parse().map_err(|_| bad(line))?,
            Some(("trace", t)) => out.trace = Some(t.to_string()),
            _ => return Err(bad(line)),
        }
    }
    Ok(out)
}

/// Spawns the child for `name` and returns the seconds from spawn to its
/// `ready` line, plus the lines it printed after that.
fn spawn_child(name: &str, args: &Args, setup_only: bool) -> io::Result<(f64, Vec<String>)> {
    let start = Instant::now();
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--child", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if setup_only {
        cmd.arg("--setup-only");
    }
    let mut child = cmd.spawn()?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let ready = lines.next().transpose()?;
    let setup_s = start.elapsed().as_secs_f64();
    let rest: io::Result<Vec<String>> = lines.collect();
    let status = child.wait()?;
    if !status.success() || ready.as_deref() != Some("ready") {
        return Err(io::Error::other(format!("child exited with {status}")));
    }
    Ok((setup_s, rest?))
}

fn run_child(name: &str, args: &Args) {
    let dir = std::env::current_dir()
        .expect("current directory")
        .join(OUT_DIR)
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let mut ctx = Ctx {
        seed: args.seed,
        workers: workers(),
        dir: dir.clone(),
        spans: Spans::new(),
    };
    let root = ctx.spans.enter(name);
    let span = ctx.spans.enter("setup");
    let mut bench = workloads::setup(name, &ctx);
    ctx.spans.exit(span);
    println!("ready");
    io::stdout().flush().expect("flush stdout");
    if args.setup_only {
        drop(bench);
        std::fs::remove_dir_all(&dir).expect("remove scratch directory");
        return;
    }

    let mut rep = |ctx: &mut Ctx, label: &str, traced: bool| {
        let span = ctx.spans.enter(label);
        reset_peak_rss();
        let mut r = bench.rep(ctx, traced);
        r.peak_rss_mb = peak_rss_mb();
        ctx.spans.exit(span);
        r
    };
    let warm_up = rep(&mut ctx, "warm-up rep", false);
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs() < args.seconds {
        reps.push(rep(&mut ctx, "rep", false));
    }
    let traced = args.trace.then(|| rep(&mut ctx, "traced rep", true));
    ctx.spans.exit(root);
    drop(bench);

    let all = std::iter::once(&warm_up).chain(&reps).chain(&traced);
    let attempted: u64 = all.clone().map(|r| r.attempted).sum();
    let failed: u64 = all.map(|r| r.failed).sum();
    let metrics = match &traced {
        None => end_to_end(&reps),
        Some(t) => per_layer(&reps, t),
    };
    for (m, v, u) in metrics {
        println!("metric {m} {v} {u}");
    }
    println!("attempted {attempted}");
    println!("failed {failed}");
    if let Some(t) = &traced {
        println!(
            "trace {{\"workers\":{},\"spans\":{},\"threads\":{}}}",
            ctx.workers,
            ctx.spans.to_json(),
            t.tally.to_json()
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

/// The per-unit latencies of `reps`, pooled.
enum Pooled {
    /// Ascending milliseconds.
    Samples(Vec<f64>),
    Ops(Histogram),
}

impl Pooled {
    fn of(reps: &[Rep]) -> Pooled {
        let mut samples = Vec::new();
        let mut ops: Option<Histogram> = None;
        for r in reps {
            match &r.latency {
                Latency::Samples(s) => samples.extend_from_slice(s),
                Latency::Ops(h) => ops.get_or_insert_with(Histogram::new).merge(h),
            }
        }
        match ops {
            Some(h) => Pooled::Ops(h),
            None => {
                samples.sort_by(f64::total_cmp);
                Pooled::Samples(samples)
            }
        }
    }

    fn len(&self) -> u64 {
        match self {
            Pooled::Samples(s) => s.len() as u64,
            Pooled::Ops(h) => h.count(),
        }
    }

    fn quantile_ms(&self, q: f64) -> f64 {
        match self {
            Pooled::Samples(s) => quantile(s, q),
            Pooled::Ops(h) => h.quantile_ns(q) / 1e6,
        }
    }

    fn max_ms(&self) -> f64 {
        match self {
            Pooled::Samples(s) => *s.last().expect("latency samples"),
            Pooled::Ops(h) => h.max_ns() as f64 / 1e6,
        }
    }
}

fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let mut rates: Vec<f64> = reps
        .iter()
        .map(|r| r.units / r.wall.as_secs_f64())
        .collect();
    let mut rss: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();
    let values = [
        median(&mut rates),
        Pooled::of(reps).quantile_ms(0.5),
        median(&mut rss),
    ];
    END_TO_END[1..]
        .iter()
        .zip(values)
        .map(|(&(m, u), v)| (m.to_string(), v, u.to_string()))
        .collect()
}

fn per_layer(reps: &[Rep], traced: &Rep) -> Vec<Metric> {
    let t = &traced.tally;
    let ops = t.count(Boundary::Prepare).max(1) as f64;
    let mut values: HashMap<String, f64> = [
        ("detectable.step.calls", t.count(Boundary::Step) as f64),
        ("detectable.step.self_ns", t.ns(Boundary::Step) as f64),
        ("detectable.other_ns", t.object_other_ns() as f64),
        ("detectable.encode.calls", t.count(Boundary::Encode) as f64),
        ("detectable.clone.calls", t.count(Boundary::Clone) as f64),
        (
            "detectable.prepare.calls",
            t.count(Boundary::Prepare) as f64,
        ),
        (
            "detectable.recover.calls",
            t.count(Boundary::Recover) as f64,
        ),
        (
            "detectable.steps_per_op",
            t.count(Boundary::Step) as f64 / ops,
        ),
        ("nvm.memory.calls", t.count(Boundary::Memory) as f64),
        ("nvm.memory.ns", t.ns(Boundary::Memory) as f64),
        ("nvm.memory.persists", t.count(Boundary::Persist) as f64),
        (
            "nvm.memory.calls_per_op",
            t.count(Boundary::Memory) as f64 / ops,
        ),
        ("harness.self_ns", traced.harness_self_ns),
    ]
    .into_iter()
    .chain(traced.engine.iter().copied())
    .map(|(m, v)| (m.to_string(), v))
    .collect();

    let lat = Pooled::of(reps);
    values.insert("harness.latency_samples".into(), lat.len() as f64);
    values.insert("harness.latency_p90_ms".into(), lat.quantile_ms(0.9));
    values.insert("harness.latency_p99_ms".into(), lat.quantile_ms(0.99));
    values.insert("harness.latency_max_ms".into(), lat.max_ms());
    let mut per_unit: Vec<f64> = reps
        .iter()
        .map(|r| r.wall.as_secs_f64() / r.units)
        .collect();
    let traced_per_unit = traced.wall.as_secs_f64() / traced.units;
    values.insert(
        "trace_overhead".into(),
        traced_per_unit / median(&mut per_unit),
    );
    for (k, &kind) in KINDS.iter().enumerate() {
        let mut rates: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.kind_rates.get(k).copied())
            .collect();
        if !rates.is_empty() {
            values.insert(kind_rate_name(kind), median(&mut rates));
        }
    }

    let table = per_layer_table();
    for name in values.keys() {
        assert!(
            table.iter().any(|(m, _)| m == name),
            "{name} is missing from the per-layer table"
        );
    }
    table
        .into_iter()
        .map(|(m, u)| {
            let v = values.get(&m).copied().unwrap_or(0.0);
            (m, v, u.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&[
            "--workload",
            "soak",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("soak"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let a = parse(&["--trace", "0", "--workload", "objects"]).unwrap();
        assert!(!a.trace);
        let a = parse(&["--trace", "--workload", "objects"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.workload.as_deref(), Some("objects"));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    /// `BENCHMARK.json` at the repository root declares the same metrics,
    /// with the same units, as this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (m, u) in END_TO_END {
            assert!(declared(m, u), "end-to-end metric {m} ({u}) not declared");
        }
        for (m, u) in per_layer_table() {
            assert!(declared(&m, u), "per-layer metric {m} ({u}) not declared");
        }
        for w in NAMES {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let declared_metrics = json.matches("\"unit\":").count();
        assert_eq!(declared_metrics, END_TO_END.len() + per_layer_table().len());
    }
}
