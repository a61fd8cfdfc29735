//! **Experiment E12/E15** — census-engine throughput: configurations
//! expanded per second on the N = 4 detectable-CAS world by the in-RAM
//! engine, sequential vs parallel, unfolded vs with the private-step
//! fold.
//!
//! The engine expands each successor under an undo-log checkpoint
//! (O(writes) instead of a full-memory copy), keeps each frontier node's
//! logical memory image in the node, and schedules expansion on
//! per-worker LIFO stacks that share through one pool (`harness::sched`),
//! so its states/sec
//! figure is the headline number future PRs track via the committed
//! `BENCH_census.json` baseline (regenerate it with
//! `cargo bench -p bench --bench census_throughput`).
//!
//! The `fork-par{2,4,8}` rows are the E17 scaling curve; each sample
//! embeds the pool counters (batches taken, waits, per-worker
//! expansions) and the host's CPU count. Parallel rows are measured
//! wherever the bench runs — a 1-CPU host commits honest no-speedup rows
//! (they still pin count determinism and exercise the pool's take and
//! wait paths); the ≥ 1.8×
//! fork-seq target at 4 threads applies on `host_cpus ≥ 4` runs.

use std::time::Instant;

use detectable::{DetectableCas, ObjectKind, OpSpec};
use harness::{
    build_world, census_bfs_engine, census_table_json, BfsConfig, CensusReport, Scenario, Workload,
};

/// The fixed benchmark world: the Theorem 1 N = 4 census over the standard
/// 2-op CAS alphabet, 5-op budget (~650k configurations).
const N: u32 = 4;
const MAX_OPS: usize = 5;

fn alphabet() -> [OpSpec; 2] {
    [
        OpSpec::Cas { old: 0, new: 1 },
        OpSpec::Cas { old: 1, new: 0 },
    ]
}

fn config(parallelism: usize) -> BfsConfig {
    BfsConfig {
        max_ops: MAX_OPS,
        max_states: 20_000_000,
        parallelism,
        ..Default::default()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Records `BENCH_census.json` next to the workspace root: one sample per
/// engine variant with the expanded-state count, wall time, derived
/// states/sec, peak resident bytes, spilled bytes, scheduler counters and
/// the host CPU count it ran under, plus a `table` document (the
/// `census_table --json` schema) that CI diffs live output against.
/// Disk-tier rows (`ext-n5-seq`, `ext-n5-par`, `ext-n6-fold`) run the
/// external-memory engine under a 512 MiB budget next to their in-RAM twins
/// and assert the E15 acceptance contract: identical counts, measured peak
/// under the budget; `ext-n5-par` runs on the host's parallelism and must
/// match `ext-n5-seq`'s counts and spill volume. The `fork-par{2,4,8}` rows (experiment E17) are measured on
/// every host — `host_cpus` tells a reader whether to read them as a
/// scaling curve or as a determinism pin.
fn main() {
    let cpus = host_cpus();
    let mut entries = Vec::new();

    let mut sample = |label: &str, warm: bool, run: &dyn Fn() -> CensusReport| -> CensusReport {
        if warm {
            let _ = run();
        }
        let start = Instant::now();
        let out = run();
        let elapsed = start.elapsed();
        assert!(!out.truncated, "baseline worlds must complete");
        let per_worker = out
            .sched
            .per_worker_expansions
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"engine\": \"{}\",\n",
                "      \"states\": {},\n",
                "      \"distinct_shared\": {},\n",
                "      \"host_cpus\": {},\n",
                "      \"mean_seconds\": {:.6},\n",
                "      \"states_per_sec\": {:.0},\n",
                "      \"peak_resident_bytes\": {},\n",
                "      \"spilled_bytes\": {},\n",
                "      \"sched\": {{\"workers\":{},\"steals\":{},\"steal_failures\":{},\
                 \"parks\":{},\"flush_batches\":{},\"per_worker_expansions\":[{}]}}\n",
                "    }}"
            ),
            label,
            out.work,
            out.distinct_shared,
            cpus,
            elapsed.as_secs_f64(),
            out.work as f64 / elapsed.as_secs_f64(),
            out.peak_resident_bytes,
            out.spill.map_or(0, |s| s.bytes_spilled),
            out.sched.workers,
            out.sched.steals,
            out.sched.steal_failures,
            out.sched.parks,
            out.sched.flush_batches,
            per_worker,
        ));
        out
    };

    let scenario_report = |cfg: BfsConfig| -> CensusReport {
        let v = Scenario::object(ObjectKind::Cas)
            .processes(N)
            .workload(Workload::round_robin(alphabet().to_vec(), MAX_OPS))
            .census(&cfg);
        CensusReport {
            distinct_shared: v.stats.distinct_configs as usize,
            theorem_bound: v.stats.theorem_bound,
            work: v.stats.executions as usize,
            steps: v.stats.steps,
            resolved_ops: v.stats.resolved_ops,
            persists: v.stats.persists,
            truncated: v.stats.truncated,
            peak_resident_bytes: v.stats.peak_resident_bytes,
            spill: None,
            sched: v.stats.sched,
        }
    };
    let mut seq_counts = None;
    for threads in [1usize, 2, 4, 8] {
        let label = if threads == 1 {
            "fork-seq".to_string()
        } else {
            format!("fork-par{threads}")
        };
        let out = sample(&label, true, &|| scenario_report(config(threads)));
        // The E17 determinism contract, asserted at record time: every
        // thread level reports the sequential counts.
        match seq_counts {
            None => seq_counts = Some((out.work, out.distinct_shared)),
            Some(counts) => assert_eq!(
                (out.work, out.distinct_shared),
                counts,
                "{label}: counts moved across thread levels"
            ),
        }
    }
    // The private-step fold: fewer expansions for the same verdict,
    // tracked so reduction regressions surface in the baseline diff.
    sample("fold-seq", true, &|| {
        scenario_report(BfsConfig {
            fold_private: true,
            ..config(1)
        })
    });

    // Disk-tier rows (experiment E15): the census's disk tier vs its
    // in-RAM tier on the worlds the disk tier exists for — N = 5
    // unfolded and N = 6 folded — under a deliberately small RAM budget.
    // These are single-shot (no warm run): the point of the row is the
    // peak-resident / counts contract, with throughput as the secondary
    // trend line.
    const EXT_BUDGET: usize = 512 << 20;
    let spill = std::env::temp_dir().join(format!("census-bench-{}", std::process::id()));
    std::fs::create_dir_all(&spill).expect("spill dir");
    let ext_cfg = |fold_private: bool, disk: bool| BfsConfig {
        max_ops: 5,
        max_states: 20_000_000,
        parallelism: 1,
        fold_private,
        disk_dir: disk.then(|| spill.clone()),
        ram_budget: disk.then_some(EXT_BUDGET),
    };
    // `ext-n5-par` runs the disk tier on the host's parallelism beside the
    // one-worker `ext-n5-seq`: same world, same budget, same counts.
    for (n, fold) in [(5u32, false), (6, true)] {
        let (obj, world_mem) = build_world(|b| DetectableCas::new(b, n, 0));
        let tag = if fold { "fold" } else { "seq" };
        let ram = sample(&format!("ram-n{n}-{tag}"), false, &|| {
            census_bfs_engine(&obj, &world_mem, &alphabet(), &ext_cfg(fold, false))
        });
        let ext = sample(&format!("ext-n{n}-{tag}"), false, &|| {
            census_bfs_engine(&obj, &world_mem, &alphabet(), &ext_cfg(fold, true))
        });
        if !fold {
            let par = sample(&format!("ext-n{n}-par"), false, &|| {
                let cfg = BfsConfig {
                    parallelism: 0,
                    ..ext_cfg(fold, true)
                };
                census_bfs_engine(&obj, &world_mem, &alphabet(), &cfg)
            });
            assert_eq!(
                (par.work, par.steps, par.distinct_shared),
                (ext.work, ext.steps, ext.distinct_shared),
                "N={n}: the disk tier's counts moved with its workers"
            );
            assert_eq!(
                par.spill.map(|s| s.bytes_spilled),
                ext.spill.map(|s| s.bytes_spilled),
                "N={n}: the disk tier's spill volume moved with its workers"
            );
        }
        // The acceptance contract for the disk tier: identical verdict and
        // counts under the budget, with the measured peak actually under it.
        assert_eq!(ext.distinct_shared, ram.distinct_shared, "N={n}");
        assert_eq!(ext.work, ram.work, "N={n}");
        assert_eq!(ext.steps, ram.steps, "N={n}");
        assert!(
            ext.peak_resident_bytes < EXT_BUDGET as u64,
            "N={n}: external peak {} over budget {EXT_BUDGET}",
            ext.peak_resident_bytes
        );
        assert!(
            ext.spill.is_some_and(|s| s.bytes_spilled > 0),
            "N={n}: disk run spilled nothing"
        );
    }
    let _ = std::fs::remove_dir_all(&spill);

    // A small canonical table run so the committed baseline carries the
    // `census_table --json` schema for CI to diff against.
    let table_verdicts: Vec<_> = (1..=2u32)
        .map(|n| {
            let start = Instant::now();
            let v = Scenario::object(ObjectKind::Cas)
                .processes(n)
                .workload(Workload::round_robin(alphabet().to_vec(), 2 * n as usize))
                .census(&config(1));
            (v, start.elapsed())
        })
        .collect();

    let json = format!(
        "{{\n  \"benchmark\": \"census_throughput\",\n  \"workload\": \
         \"theorem1 census, detectable CAS N=4, 2-op alphabet, max_ops 5\",\n  \
         \"host_cpus\": {},\n  \
         \"samples\": [\n{}\n  ],\n  \"table\": {}\n}}\n",
        cpus,
        entries.join(",\n"),
        census_table_json(1, &table_verdicts),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_census.json");
    std::fs::write(path, &json).expect("write BENCH_census.json");
    println!("baseline written to {path}");
}
