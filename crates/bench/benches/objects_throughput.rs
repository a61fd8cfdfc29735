//! **Experiments E8–E10** — what detectability costs per operation, and
//! what `Op.Recover` costs per crash point.
//!
//! Every cell warms once, then times a fixed number of runs; one sample
//! per cell (the median run and its quartiles) is written to
//! `BENCH_objects.json` at the workspace root
//! (regenerate with `cargo bench -p bench --bench objects_throughput`).
//! Throughput cells run the simulator-checked step machines on real OS
//! threads over `AtomicMemory` ([`bench::run_concurrent`]); each run
//! builds a fresh world outside the timed region.
//!
//! * **E8a `register_throughput`** — Algorithm 1 vs the unbounded-tag
//!   register vs a plain volatile one, N = 8, 1/2/4/8 threads, one read
//!   per four ops. Expected: plain ≥ both detectable variants; Algorithm 1
//!   pays its N-step toggle loop per write, the tagged baseline its tags.
//! * **E8b `cas_throughput`** — Algorithm 2 vs the unbounded-tag CAS vs a
//!   non-detectable recoverable CAS vs a plain one, N = 8, over a 3-value
//!   domain (high contention). Expected: plain ≥ non-detectable ≥
//!   Algorithm 2 ≥ tagged; none collapses (single wait-free attempts).
//! * **E10a `maxreg_solo_read`, `maxreg_contended`** — Algorithm 3's
//!   double-collect `Read`: solo cost grows linearly in N; concurrent
//!   `WriteMax` traffic forces re-collection (obstruction-free, not
//!   wait-free), so the reader's throughput falls with writer count.
//!   Contended cells count the reader's operations only.
//! * **E10b `queue_throughput`** — Enq/Deq pairs on the durable queue,
//!   one process per thread. Lock-free with helping: sub-linear, no
//!   collapse.
//! * **E9 `recovery_latency`** — the recovery machine run to its verdict
//!   after a solo operation crashed at a chosen step. `pre-checkpoint` and
//!   `mid-ambiguous` must answer `fail` (the op did not take effect) and
//!   `post-effect`/`post-link` must answer the op's response; each cell
//!   asserts its verdict before it is timed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use baselines::{NonDetectableCas, PlainCas, PlainRegister, TaggedCas, TaggedRegister};
use bench::{build_atomic_world, ops_per_sec, run_concurrent};
use detectable::{
    DetectableCas, DetectableQueue, DetectableRegister, MaxRegister, OpSpec, RecoverableObject,
};
use harness::build_world;
use nvm::{run_to_completion, LayoutBuilder, Pid, RESP_FAIL};

const THREADS: [u32; 4] = [1, 2, 4, 8];
/// Timed runs per cell, after one warm run.
const RUNS: u32 = 100;
/// Recoveries per timed run: a single recovery is too short to time.
const RECOVERIES_PER_RUN: usize = 10_000;

type Make = fn(&mut LayoutBuilder) -> Box<dyn RecoverableObject>;
type Workload = fn(Pid, usize) -> OpSpec;

fn cas_op(pid: Pid, i: usize) -> OpSpec {
    OpSpec::Cas {
        old: (i as u32) % 3,
        new: (pid.get() + i as u32 + 1) % 3,
    }
}

fn register_op(pid: Pid, i: usize) -> OpSpec {
    if (pid.idx() + i).is_multiple_of(4) {
        OpSpec::Read
    } else {
        OpSpec::Write((pid.get() * 1_000 + i as u32) % 97)
    }
}

fn queue_op(pid: Pid, i: usize) -> OpSpec {
    if i.is_multiple_of(2) {
        OpSpec::Enq(pid.get() * 10_000 + i as u32)
    } else {
        OpSpec::Deq
    }
}

/// Process 0 reads; every other process writes increasing maxima.
fn maxreg_op(pid: Pid, i: usize) -> OpSpec {
    if pid.get() == 0 {
        OpSpec::Read
    } else {
        OpSpec::WriteMax(i as u32)
    }
}

#[derive(Default)]
struct Recorder {
    samples: Vec<String>,
}

impl Recorder {
    /// Warms `run` once, times [`RUNS`] more, and records one sample: the
    /// median run with its quartiles (runs are short, so one preempted run
    /// would skew a mean). `run` returns the timed part of one run of `ops`
    /// counted operations; `extra` is spliced into the sample as additional
    /// JSON fields.
    fn sample(
        &mut self,
        cell: (&str, &str, u32, u32),
        ops: usize,
        extra: &str,
        mut run: impl FnMut() -> Duration,
    ) {
        let (group, variant, threads, processes) = cell;
        run();
        let mut times: Vec<Duration> = (0..RUNS).map(|_| run()).collect();
        times.sort_unstable();
        let [q1, median, q3] = [1, 2, 3].map(|q| times[q * times.len() / 4]);
        let sample = format!(
            "    {{\"group\": \"{group}\", \"variant\": \"{variant}\", \"threads\": {threads}, \
             \"processes\": {processes},{extra} \"ops\": {ops}, \"median_seconds\": {:.9}, \
             \"q1_seconds\": {:.9}, \"q3_seconds\": {:.9}, \"ops_per_sec\": {:.0}}}",
            median.as_secs_f64(),
            q1.as_secs_f64(),
            q3.as_secs_f64(),
            ops_per_sec(ops, median),
        );
        println!("{sample}");
        self.samples.push(sample);
    }

    /// A closed-loop cell: `threads` threads each run `ops_per_thread`
    /// operations of `workload` on a fresh `processes`-process world.
    fn closed_loop(
        &mut self,
        cell: (&str, &str, u32, u32),
        ops_per_thread: usize,
        make: impl Fn(&mut LayoutBuilder) -> Box<dyn RecoverableObject>,
        workload: Workload,
    ) {
        let threads = cell.2;
        self.sample(cell, threads as usize * ops_per_thread, "", || {
            let (obj, mem) = build_atomic_world(&make);
            run_concurrent(&*obj, &mem, threads, ops_per_thread, workload)
        });
    }
}

fn main() {
    let mut rec = Recorder::default();

    let cas: [(&str, Make); 4] = [
        ("detectable-alg2", |b| Box::new(DetectableCas::new(b, 8, 0))),
        ("tagged-unbounded", |b| Box::new(TaggedCas::new(b, 8))),
        ("non-detectable", |b| Box::new(NonDetectableCas::new(b, 8))),
        ("plain-volatile", |b| Box::new(PlainCas::new(b, 8))),
    ];
    let register: [(&str, Make); 3] = [
        ("detectable-alg1", |b| {
            Box::new(DetectableRegister::new(b, 8, 0))
        }),
        ("tagged-unbounded", |b| Box::new(TaggedRegister::new(b, 8))),
        ("plain-volatile", |b| Box::new(PlainRegister::new(b, 8))),
    ];
    for (group, variants, workload) in [
        ("cas_throughput", &cas[..], cas_op as Workload),
        ("register_throughput", &register[..], register_op),
    ] {
        for &(variant, make) in variants {
            for t in THREADS {
                rec.closed_loop((group, variant, t, 8), 2_000, make, workload);
            }
        }
    }
    for t in THREADS {
        // Nodes are not reclaimed (every enq consumes a slot) and slabs
        // are per-process, so the arena is sized to the run.
        let cap = t * 1_000 + 64;
        let make = move |b: &mut LayoutBuilder| -> Box<dyn RecoverableObject> {
            Box::new(DetectableQueue::new(b, t, cap))
        };
        rec.closed_loop(
            ("queue_throughput", "enq_deq_pairs", t, t),
            1_000,
            make,
            queue_op,
        );
    }
    for n in [2u32, 8, 32, 64] {
        let make = move |b: &mut LayoutBuilder| -> Box<dyn RecoverableObject> {
            Box::new(MaxRegister::new(b, n))
        };
        rec.closed_loop(("maxreg_solo_read", "read", 1, n), 100, make, maxreg_op);
    }
    for writers in [0u32, 1, 3, 7] {
        let threads = writers + 1;
        rec.sample(
            ("maxreg_contended", "read_with_writers", threads, 8),
            2_000,
            "",
            || {
                let (mr, mem) = build_atomic_world(|b| MaxRegister::new(b, 8));
                run_concurrent(&mr, &mem, threads, 2_000, maxreg_op)
            },
        );
    }

    let (reg, cas) = (register[0].1, cas[0].1);
    let queue: Make = |b| Box::new(DetectableQueue::new(b, 8, 256));
    let (write, swap, enq) = (
        OpSpec::Write(7),
        OpSpec::Cas { old: 0, new: 5 },
        OpSpec::Enq(3),
    );
    for (variant, make, op, crash_point, steps) in [
        ("register-alg1", reg, write, "pre-checkpoint", 2),
        ("register-alg1", reg, write, "mid-ambiguous", 6),
        ("register-alg1", reg, write, "post-effect", 7),
        ("cas-alg2", cas, swap, "pre-checkpoint", 1),
        ("cas-alg2", cas, swap, "mid-ambiguous", 3),
        ("cas-alg2", cas, swap, "post-effect", 4),
        ("queue", queue, enq, "pre-checkpoint", 2),
        // A solo Enq first recovers as linearized after 10 steps.
        ("queue", queue, enq, "post-link", 10),
    ] {
        // Crash a solo operation after `steps` steps. Recovery is
        // re-entrant, so one crashed world serves every timed recovery.
        let (obj, mem) = build_world(make);
        let p = Pid::new(0);
        obj.prepare(&mem, p, &op);
        let mut m = obj.invoke(p, &op);
        for _ in 0..steps {
            if m.step(&mem).is_ready() {
                break;
            }
        }
        drop(m);
        let recover = || {
            let mut r = obj.recover(p, &op);
            run_to_completion(&mut *r, &mem, 1_000_000).expect("recovery terminates")
        };
        let linearized = recover() != RESP_FAIL;
        assert_eq!(
            linearized,
            matches!(crash_point, "post-effect" | "post-link"),
            "{variant}/{crash_point}: recovery verdict does not match the crash point"
        );
        let verdict = if linearized { "linearized" } else { "fail" };
        let extra = format!(" \"crash_point\": \"{crash_point}\", \"verdict\": \"{verdict}\",");
        rec.sample(
            ("recovery_latency", variant, 1, 8),
            RECOVERIES_PER_RUN,
            &extra,
            || {
                let start = Instant::now();
                for _ in 0..RECOVERIES_PER_RUN {
                    black_box(recover());
                }
                start.elapsed()
            },
        );
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"objects_throughput\",\n  \"host_cpus\": {cpus},\n  \
         \"runs_per_sample\": {RUNS},\n  \"samples\": [\n{}\n  ]\n}}\n",
        rec.samples.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_objects.json");
    std::fs::write(path, json).expect("write BENCH_objects.json");
    println!("baseline written to {path}");
}
