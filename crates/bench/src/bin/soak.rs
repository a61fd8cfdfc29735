//! **Experiment E18** — real-process SIGKILL/recover soak over the crash
//! fabric.
//!
//! Unlike `soak_table` (which *simulates* crash storms inside one
//! process), every cycle here spawns one OS process *per paper process*
//! driving traffic against file-mapped NVM. The parent SIGKILLs a
//! randomized `--kill-subset` of them at a randomized point while the
//! survivors keep running, then runs each dead process's recovery in its
//! own child — SIGKILLing that recoverer mid-recovery up to
//! `--recovery-kills` nested times before the final re-entry converges —
//! and checks the stitched pre-crash + recovery history for durable
//! linearizability and detectability. In the shared-cache model
//! (`--cache shared`) a crash loses the one cache all processes share, so
//! every worker dies: `--kill-subset` must equal `--procs`.
//!
//! The eight paper objects must come through with **zero unresolved
//! operations and zero check failures**; the two non-detectable baselines
//! are negative controls — their `fail`-for-everything recovery lies about
//! operations that did linearize, and the stitched-history check is
//! expected to catch them in the act.
//!
//! Run: `cargo run --release -p bench --bin soak -- \
//!     [--cycles N] [--ops N] [--procs N] [--kill-window US] [--seed S] \
//!     [--cache private|shared] [--kill-subset N] [--recovery-kills K] [--json]`
//!
//! Exits 2 on an invalid configuration (before any cycle runs), and 1 if
//! any *detectable* row leaves an operation unresolved, fails a check, or
//! errors.
//!
//! `--json` reports each row's kill and recovery latencies as p50, p99 and
//! max from a fixed log-bucket histogram, and the row's recovery time
//! split into its three phases (recoverers and mid-cycle probe, survivor
//! drain, log parse and check), summed over the row's cycles.

use baselines::{NonDetectableCas, NonDetectableRegister};
use bench::{flag_value, json_mode, markdown_table};
use detectable::{ObjectKind, RecoverableObject};
use harness::process_crash::{
    default_factory, kind_name, maybe_run_worker, run_cycle, CrashCycleConfig,
};
use nvm::{CacheMode, LayoutBuilder};

/// The soak's object universe: the eight paper-default implementations
/// plus the two non-detectable negative controls.
fn factory(
    name: &str,
    b: &mut LayoutBuilder,
    n: u32,
    qcap: u32,
) -> Option<Box<dyn RecoverableObject>> {
    match name {
        "nondetectable-register" => Some(Box::new(NonDetectableRegister::new(b, n))),
        "nondetectable-cas" => Some(Box::new(NonDetectableCas::new(b, n))),
        _ => default_factory(name, b, n, qcap),
    }
}

/// Sub-buckets per power of two: a bucket spans at most 1/8 of its lower
/// bound.
const SUB_BITS: u32 = 3;
/// Enough buckets for every `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Fixed log-bucket histogram of microsecond latencies. Values below
/// `2 << SUB_BITS` get a bucket each; above that, each power of two
/// splits into `1 << SUB_BITS` equal buckets.
struct LatencyHistogram {
    counts: Vec<u64>,
    max: u64,
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            max: 0,
        }
    }

    fn bucket(us: u64) -> usize {
        if us < 1 << SUB_BITS {
            return us as usize;
        }
        let shift = 63 - us.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) | ((us >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    /// The largest value bucket `b` holds.
    fn upper(b: usize) -> u64 {
        if b < 1 << SUB_BITS {
            return b as u64;
        }
        let shift = (b >> SUB_BITS) - 1;
        let mantissa = (b as u64 & ((1 << SUB_BITS) - 1)) | 1 << SUB_BITS;
        (mantissa << shift) + ((1 << shift) - 1)
    }

    fn record(&mut self, us: u64) {
        self.counts[Self::bucket(us)] += 1;
        self.max = self.max.max(us);
    }

    /// The nearest-rank `q`-quantile, as the upper bound of its bucket
    /// capped at the exact maximum, so `p50 <= p99 <= max` always holds.
    /// Zero when nothing was recorded.
    fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper(b).min(self.max);
            }
        }
        0
    }

    /// `"{name}_p50_us":…,"{name}_p99_us":…,"{name}_max_us":…`
    fn json(&self, name: &str) -> String {
        format!(
            "\"{name}_p50_us\":{},\"{name}_p99_us\":{},\"{name}_max_us\":{}",
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

struct Row {
    object: String,
    kind: ObjectKind,
    detectable: bool,
    cycles: u64,
    crashed_cycles: u64,
    worker_kills: u64,
    survivor_ops: u64,
    ops_completed: u64,
    in_flight: u64,
    recovered_ok: u64,
    recovered_failed: u64,
    recovered_unresolved: u64,
    recovery_kills: u64,
    recovery_reentries: u64,
    check_failures: u64,
    errors: u64,
    kill_latency: LatencyHistogram,
    recovery_latency: LatencyHistogram,
    recover_us: u64,
    drain_us: u64,
    check_us: u64,
    recovery_us: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "{{\"object\":\"{}\",\"kind\":\"{}\",\"detectable\":{},\"cycles\":{},\
             \"crashed_cycles\":{},\"worker_kills\":{},\"survivor_ops\":{},\
             \"ops_completed\":{},\"in_flight\":{},\
             \"recovered_ok\":{},\"recovered_failed\":{},\
             \"recovered_unresolved\":{},\"recovery_kills\":{},\
             \"recovery_reentries\":{},\
             \"check_failures\":{},\"errors\":{},\"expected_failures\":{},\
             {},{},\"recover_us\":{},\"drain_us\":{},\"check_us\":{},\
             \"recovery_us\":{}}}",
            self.object,
            kind_name(self.kind),
            self.detectable,
            self.cycles,
            self.crashed_cycles,
            self.worker_kills,
            self.survivor_ops,
            self.ops_completed,
            self.in_flight,
            self.recovered_ok,
            self.recovered_failed,
            self.recovered_unresolved,
            self.recovery_kills,
            self.recovery_reentries,
            self.check_failures,
            self.errors,
            !self.detectable,
            self.kill_latency.json("kill_latency"),
            self.recovery_latency.json("recovery_latency"),
            self.recover_us,
            self.drain_us,
            self.check_us,
            self.recovery_us,
        )
    }

    fn clean(&self) -> bool {
        self.recovered_unresolved == 0 && self.check_failures == 0 && self.errors == 0
    }
}

/// Parses `--{flag}` as a positive integer with `census_table`-style
/// diagnostics: a present-but-valueless flag already panics inside
/// [`flag_value`], a non-numeric value names the flag, and zero is
/// rejected outright instead of producing a degenerate run.
fn positive_flag(flag: &str, default: u64) -> u64 {
    match flag_value(flag) {
        None => default,
        Some(v) => {
            let n: u64 = v
                .parse()
                .unwrap_or_else(|_| panic!("--{flag} expects a positive integer, got {v:?}"));
            assert_ne!(n, 0, "--{flag} must be greater than zero");
            n
        }
    }
}

fn main() {
    maybe_run_worker(factory);

    let cycles: u64 = positive_flag("cycles", 25);
    let total_ops: usize = positive_flag("ops", 900) as usize;
    let procs: u32 = positive_flag("procs", 3) as u32;
    let kill_window_us: u64 = positive_flag("kill-window", 3_000);
    let seed: u64 = flag_value("seed").map_or(1, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--seed expects an integer, got {v:?}"))
    });
    let cache = match flag_value("cache").as_deref() {
        Some("shared") => CacheMode::SharedCache,
        Some("private") | None => CacheMode::PrivateCache,
        Some(other) => panic!("--cache expects private|shared, got {other:?}"),
    };
    let kill_subset: u32 = positive_flag("kill-subset", 1) as u32;
    let recovery_kills: u32 = flag_value("recovery-kills").map_or(0, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--recovery-kills expects an integer, got {v:?}"))
    });
    if cache == CacheMode::SharedCache && kill_subset != procs {
        eprintln!(
            "soak: --cache shared requires --kill-subset equal to --procs ({procs}), got \
             {kill_subset}: a shared-cache crash loses the cache all processes share"
        );
        std::process::exit(2);
    }
    let ops_per_proc = (total_ops / procs as usize).max(1);

    let objects: Vec<(String, ObjectKind)> = [
        ObjectKind::Register,
        ObjectKind::Cas,
        ObjectKind::MaxRegister,
        ObjectKind::Counter,
        ObjectKind::Faa,
        ObjectKind::Swap,
        ObjectKind::Tas,
        ObjectKind::Queue,
    ]
    .into_iter()
    .map(|k| (kind_name(k).to_string(), k))
    .chain([
        ("nondetectable-register".to_string(), ObjectKind::Register),
        ("nondetectable-cas".to_string(), ObjectKind::Cas),
    ])
    .collect();

    let root = std::env::temp_dir().join(format!("soak-{}", std::process::id()));
    // Every object shares one configuration but for its name, kind and
    // directory: check it once, before the first cycle.
    let mut template = CrashCycleConfig::new(ObjectKind::Register);
    template.procs = procs;
    template.ops_per_proc = ops_per_proc;
    // The queue arena never recycles nodes: capacity must cover every
    // enqueue a full cycle can attempt.
    template.queue_capacity = (procs as usize * ops_per_proc + 1) as u32;
    template.cache_mode = cache;
    template.seed = seed;
    template.kill_window_us = kill_window_us;
    template.kill_subset = kill_subset;
    template.recovery_kills = recovery_kills;
    if let Err(e) = template.validate() {
        eprintln!("soak: {e}");
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    for (object, kind) in objects {
        let detectable = {
            let mut b = LayoutBuilder::new();
            factory(&object, &mut b, procs, template.queue_capacity)
                .expect("factory")
                .detectable()
        };
        let cfg = CrashCycleConfig {
            object: object.clone(),
            kind,
            dir: root.join(&object),
            ..template.clone()
        };

        let mut row = Row {
            object,
            kind,
            detectable,
            cycles,
            crashed_cycles: 0,
            worker_kills: 0,
            survivor_ops: 0,
            ops_completed: 0,
            in_flight: 0,
            recovered_ok: 0,
            recovered_failed: 0,
            recovered_unresolved: 0,
            recovery_kills: 0,
            recovery_reentries: 0,
            check_failures: 0,
            errors: 0,
            kill_latency: LatencyHistogram::new(),
            recovery_latency: LatencyHistogram::new(),
            recover_us: 0,
            drain_us: 0,
            check_us: 0,
            recovery_us: 0,
        };
        for cycle in 0..cycles {
            match run_cycle(&cfg, factory, cycle) {
                Ok(r) => {
                    row.crashed_cycles += u64::from(r.crashed);
                    row.worker_kills += r.worker_kills as u64;
                    row.survivor_ops += r.survivor_ops as u64;
                    row.ops_completed += r.ops_completed as u64;
                    row.in_flight += r.in_flight as u64;
                    row.recovered_ok += r.recovered_ok as u64;
                    row.recovered_failed += r.recovered_failed as u64;
                    row.recovered_unresolved += r.recovered_unresolved as u64;
                    row.recovery_kills += r.recovery_kills as u64;
                    row.recovery_reentries += r.recovery_reentries as u64;
                    row.check_failures += u64::from(!r.check_ok);
                    row.kill_latency.record(r.kill_latency_us);
                    row.recovery_latency.record(r.recovery_latency_us);
                    row.recover_us += r.recover_us;
                    row.drain_us += r.drain_us;
                    row.check_us += r.check_us;
                    row.recovery_us += r.recovery_latency_us;
                    if !r.check_ok && detectable {
                        eprintln!(
                            "VIOLATION: {} cycle {cycle}:\n{}",
                            row.object,
                            r.violation.as_deref().unwrap_or("(unrendered)")
                        );
                    }
                }
                Err(e) => {
                    row.errors += 1;
                    eprintln!("ERROR: {} cycle {cycle}: {e}", row.object);
                }
            }
        }
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&root);

    let total_cycles: u64 = rows.iter().map(|r| r.cycles).sum();
    if json_mode() {
        let body: Vec<String> = rows.iter().map(Row::json).collect();
        println!(
            "{{\"kill_window_us\":{kill_window_us},\"procs\":{procs},\
             \"kill_subset\":{kill_subset},\
             \"recovery_kills\":{recovery_kills},\
             \"ops_per_cycle\":{},\"cycles_per_object\":{cycles},\
             \"total_cycles\":{total_cycles},\"cache\":\"{}\",\"rows\":[{}]}}",
            ops_per_proc * procs as usize,
            if cache == CacheMode::SharedCache {
                "shared"
            } else {
                "private"
            },
            body.join(",")
        );
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.object.clone(),
                    format!("{}/{}", r.worker_kills, r.recovery_kills),
                    format!("{}", r.ops_completed),
                    format!("{}", r.in_flight),
                    format!("{}/{}", r.recovered_ok, r.recovered_failed),
                    format!("{}", r.recovered_unresolved),
                    if r.detectable {
                        if r.clean() {
                            "0 (clean)".into()
                        } else {
                            format!(
                                "{} VIOLATIONS",
                                r.check_failures + r.recovered_unresolved + r.errors
                            )
                        }
                    } else {
                        format!("{} (expected)", r.check_failures)
                    },
                ]
            })
            .collect();
        println!(
            "# E18 — real-process SIGKILL soak ({total_cycles} cycles, {procs} worker \
             processes, {kill_subset} killed per cycle, {}-op cycles, {kill_window_us}us kill \
             window, {recovery_kills} recovery kills)\n",
            ops_per_proc * procs as usize
        );
        println!(
            "{}",
            markdown_table(
                &[
                    "object",
                    "kills (worker/recovery)",
                    "ops completed",
                    "in flight",
                    "recovered ok/fail",
                    "unresolved",
                    "check failures",
                ],
                &table,
            )
        );
        println!(
            "\nDetectable objects must lose nothing: every operation the durable log shows\n\
             in flight at the kill resolves through Recover with a definite verdict — even\n\
             when recovery itself is SIGKILLed and re-entered — and the stitched history\n\
             linearizes. The nondetectable baselines document the failure mode: their\n\
             recovery disclaims operations that really linearized, and the history check\n\
             catches the lie."
        );
    }

    let bad: Vec<&Row> = rows.iter().filter(|r| r.detectable && !r.clean()).collect();
    if !bad.is_empty() {
        for r in bad {
            eprintln!(
                "FAIL: {} left {} ops unresolved, {} check failures, {} errors",
                r.object, r.recovered_unresolved, r.check_failures, r.errors
            );
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_exact_below_sixteen_and_within_an_eighth_above() {
        for us in (0..5_000).chain([u64::MAX / 3, u64::MAX]) {
            let b = LatencyHistogram::bucket(us);
            assert!(b < BUCKETS);
            let upper = LatencyHistogram::upper(b);
            assert!(upper >= us, "{us} above its bucket's upper bound {upper}");
            if us < 16 {
                assert_eq!(upper, us);
            } else {
                assert!(upper - us <= us / 8, "{us} in a bucket up to {upper}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_capped_at_the_max() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for us in [5_000, 6_000, 6_100, 7_000, 12_345] {
            h.record(us);
        }
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        assert!((6_100..=6_100 + 6_100 / 8).contains(&p50), "p50 {p50}");
        assert_eq!(p99, 12_345);
        assert!(p50 <= p99 && p99 <= h.max);
    }
}
