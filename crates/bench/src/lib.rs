//! Benchmark utilities shared by the bench programs and the experiment
//! table binaries.
//!
//! The binaries in `src/bin/` regenerate every evaluation artifact indexed
//! in `DESIGN.md` §4 (experiments E1–E7, E18). The three bench programs
//! under `benches/` are plain-timer `main`s, each rewriting one committed
//! baseline at the workspace root: `objects_throughput` (E8–E10,
//! `BENCH_objects.json`), `explore_throughput` (E11, E13, E17,
//! `BENCH_explore.json`) and `census_throughput` (E12, E15, E17,
//! `BENCH_census.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Barrier;
use std::time::{Duration, Instant};

use detectable::{OpSpec, RecoverableObject};
use harness::Driver;
use nvm::{AtomicMemory, Pid};

/// Drives `threads` real OS threads, each performing `ops_per_thread`
/// operations of `workload` against `obj` over shared atomic memory, and
/// returns the wall-clock time from the first worker leaving the start
/// barrier to the last worker finishing. The workers take both instants
/// themselves: on an oversubscribed host a coordinating thread can be
/// descheduled past the barrier while the workers run to completion.
///
/// Used by the throughput benchmarks (experiment E8): the same step
/// machines that the simulator checks for correctness run here over
/// `AtomicU64` memory with sequentially consistent ordering, and each
/// thread runs its operations through the same [`Driver`] caller protocol
/// the correctness harness uses (crash-free, so recovery never triggers).
///
/// # Panics
///
/// Panics if `threads` is 0 or exceeds the object's process count.
pub fn run_concurrent(
    obj: &dyn RecoverableObject,
    mem: &AtomicMemory,
    threads: u32,
    ops_per_thread: usize,
    workload: impl Fn(Pid, usize) -> OpSpec + Sync,
) -> Duration {
    assert!((1..=obj.processes()).contains(&threads));
    let barrier = Barrier::new(threads as usize);
    let (workload, barrier) = (&workload, &barrier);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let pid = Pid::new(t);
                    // History-free: recording two events per op inside the
                    // timed loop would be measured as algorithm cost.
                    let mut driver = Driver::without_history(obj.processes());
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..ops_per_thread {
                        let op = workload(pid, i);
                        driver.run_solo(obj, mem, pid.idx(), op, usize::MAX);
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    });
    let start = spans
        .iter()
        .map(|s| s.0)
        .min()
        .expect("at least one worker");
    let end = spans
        .iter()
        .map(|s| s.1)
        .max()
        .expect("at least one worker");
    end - start
}

/// Throughput in operations per second for a completed run.
pub fn ops_per_sec(total_ops: usize, elapsed: Duration) -> f64 {
    total_ops as f64 / elapsed.as_secs_f64()
}

/// Renders a Markdown table — re-exported from [`harness::report`] so the
/// table binaries and the sweep reports share one renderer.
pub use harness::markdown_table;

/// Whether the experiment binary was invoked with `--json`: print the
/// machine-readable verdict stream (for CI and bench tracking) instead of
/// the Markdown tables.
pub fn json_mode() -> bool {
    flag_present("json")
}

/// The value of `--<name> V` or `--<name>=V` on the command line, if the
/// flag is present.
///
/// # Panics
///
/// Panics when the flag appears with no value — a silently-defaulted run
/// would misreport what was measured.
pub fn flag_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("{flag} expects a value"));
            return Some(v);
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// Whether the bare flag `--<name>` is present on the command line.
pub fn flag_present(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Worker threads requested via `--threads N`. Experiment binaries with
/// parallel engines (the census BFS, the explorer) pass this through.
///
/// `--threads 0` is rejected: the auto default is spelled by *omitting*
/// the flag, which returns 0 so the harness's `resolve_parallelism` picks
/// the host's available parallelism. Values above the host's CPU count
/// are allowed (oversubscription is sometimes useful for scheduler
/// stress) but warn on stderr.
pub fn threads_flag() -> usize {
    let Some(v) = flag_value("threads") else {
        return 0; // auto: resolve to the host's available parallelism
    };
    let n: usize = v
        .parse()
        .unwrap_or_else(|_| panic!("--threads expects a number, got {v:?}"));
    if n == 0 {
        panic!("--threads 0 is invalid; omit the flag to use the host's available parallelism");
    }
    let host = std::thread::available_parallelism().map_or(1, |c| c.get());
    if n > host {
        eprintln!("warning: --threads {n} exceeds the host's {host} available CPUs");
    }
    n
}

/// Builds an `(object, AtomicMemory)` world for the thread benches.
pub fn build_atomic_world<O>(f: impl FnOnce(&mut nvm::LayoutBuilder) -> O) -> (O, AtomicMemory) {
    let mut b = nvm::LayoutBuilder::new();
    let obj = f(&mut b);
    (obj, AtomicMemory::new(b.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use detectable::DetectableCas;

    #[test]
    fn concurrent_driver_completes_all_ops() {
        let (cas, mem) = build_atomic_world(|b| DetectableCas::new(b, 4, 0));
        let elapsed = run_concurrent(&cas, &mem, 4, 50, |pid, i| OpSpec::Cas {
            old: 0,
            new: (pid.get() + 1) * 1000 + i as u32,
        });
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn concurrent_register_writes_complete() {
        use detectable::DetectableRegister;
        let (reg, mem) = build_atomic_world(|b| DetectableRegister::new(b, 4, 0));
        let elapsed = run_concurrent(&reg, &mem, 4, 100, |pid, i| {
            if i % 2 == 0 {
                OpSpec::Write(pid.get() * 100 + i as u32)
            } else {
                OpSpec::Read
            }
        });
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn markdown_table_formats() {
        let t = markdown_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("| name "));
        assert!(t.contains("| long-name |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn ops_per_sec_math() {
        let r = ops_per_sec(1000, Duration::from_millis(500));
        assert!((r - 2000.0).abs() < 1.0);
    }
}
