//! **Experiments E11 + E13** — exhaustive-explorer throughput: covered
//! executions (leaves) per second on fixed small configurations.
//!
//! Four comparisons are tracked via the committed `BENCH_explore.json`
//! baseline (regenerate with `cargo bench -p bench --bench
//! explore_throughput`, which rewrites it in place). Every row but `par*`
//! runs the sequential explorer, so its `unique_nodes` and `memo_hits`
//! do not depend on the host's CPU count:
//!
//! * **pruned vs unpruned** (E11) — state-hash pruning on the 2-process
//!   CAS triangle; the memoized-subtree accounting dwarfs the naive
//!   enumeration.
//! * **sym-on vs sym-off** (E13) — symmetry reduction on a 3-process
//!   symmetric CAS workload: only one member of each process-permutation
//!   orbit is expanded, same totals, ≥ 2× leaves/s.
//! * **shared-\*** (E13) — the same symmetric workload under the
//!   shared-cache persistence model: the first recorded shared-cache
//!   exploration numbers. Algorithm 2 persists every primitive
//!   (write-through), so under `DropAll` these rows match the
//!   private-cache state counts — they are a mode-coverage baseline;
//!   dirty-set state blow-up needs deliberately-unpersisted workloads
//!   (see ROADMAP).
//! * **seq, par{2,4,8}** (E17) — the benchmark's `explore` world (3
//!   processes × `[Cas(0, 1), Read]`, 1 crash, symmetry on, exhaustive)
//!   on 1/2/4/8 workers: the canonical search alone, then with 1/3/7
//!   helpers that warm its memo. The sequential run takes seconds, long
//!   enough for every helper to start and expand nodes. Each sample
//!   embeds `workers` and the per-worker expansion counts (worker 0
//!   first), and leaf totals stay pinned to the `seq` row. Rows are
//!   measured on every host (`host_cpus` says whether to read them as a
//!   scaling curve or a determinism pin).

use std::time::Instant;

use detectable::{DetectableCas, OpSpec};
use harness::{
    build_world, build_world_mode, explore_engine, ExploreConfig, OpSource, SymmetryMode,
};
use nvm::{CacheMode, SimMemory};

/// E11 configuration: the CAS triangle from the integration suite, bounded
/// to a budget both engines can finish.
fn triangle_workload() -> Vec<Vec<OpSpec>> {
    vec![
        vec![
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 2 },
        ],
        vec![OpSpec::Cas { old: 0, new: 2 }, OpSpec::Read],
    ]
}

fn triangle_config(prune: bool) -> ExploreConfig {
    ExploreConfig {
        max_crashes: 1,
        max_retries: 1,
        max_leaves: 100_000,
        prune,
        parallelism: 1,
        ..Default::default()
    }
}

/// E13 configuration: three identical single-CAS processes with one crash —
/// every "who acts first" orbit is mergeable, and the tree still completes
/// exhaustively (tens of millions of leaves through memoized counts).
fn symmetric_workload() -> Vec<Vec<OpSpec>> {
    vec![vec![OpSpec::Cas { old: 0, new: 1 }]; 3]
}

/// E17 configuration: the benchmark's `explore` world, whose sequential
/// run takes seconds.
fn scaling_workload() -> Vec<Vec<OpSpec>> {
    vec![vec![OpSpec::Cas { old: 0, new: 1 }, OpSpec::Read]; 3]
}

fn symmetric_config(symmetry: SymmetryMode) -> ExploreConfig {
    ExploreConfig {
        max_crashes: 1,
        max_retries: 1,
        max_leaves: usize::MAX,
        symmetry,
        parallelism: 1,
        ..Default::default()
    }
}

/// The benchmark grid: one row per (workload, engine-variant) pair.
struct Row {
    workload: &'static str,
    engine: &'static str,
    mem: SimMemory,
    obj: DetectableCas,
    ops: Vec<Vec<OpSpec>>,
    cfg: ExploreConfig,
}

fn rows() -> Vec<Row> {
    let mut out = Vec::new();
    for (engine, prune) in [("pruned", true), ("unpruned", false)] {
        let (obj, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        out.push(Row {
            workload: "cas-triangle 2p x 2op, 1 crash, max_leaves 100000",
            engine,
            mem,
            obj,
            ops: triangle_workload(),
            cfg: triangle_config(prune),
        });
    }
    for (engine, symmetry) in [("sym-off", SymmetryMode::Off), ("sym-on", SymmetryMode::On)] {
        let (obj, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        out.push(Row {
            workload: "symmetric cas 3p x 1op, 1 crash, exhaustive",
            engine,
            mem,
            obj,
            ops: symmetric_workload(),
            cfg: symmetric_config(symmetry),
        });
    }
    for (engine, symmetry) in [
        ("shared-sym-off", SymmetryMode::Off),
        ("shared-sym-on", SymmetryMode::On),
    ] {
        let (obj, mem) = build_world_mode(CacheMode::SharedCache, |b| DetectableCas::new(b, 3, 0));
        out.push(Row {
            workload: "symmetric cas 3p x 1op, 1 crash, shared-cache, exhaustive",
            engine,
            mem,
            obj,
            ops: symmetric_workload(),
            cfg: symmetric_config(symmetry),
        });
    }
    // E17 scaling rows: the canonical search on 1 worker, then plus helpers.
    for (engine, threads) in [("seq", 1usize), ("par2", 2), ("par4", 4), ("par8", 8)] {
        let (obj, mem) = build_world(|b| DetectableCas::new(b, 3, 0));
        out.push(Row {
            workload: "symmetric cas 3p x [cas, read], 1 crash, exhaustive",
            engine,
            mem,
            obj,
            ops: scaling_workload(),
            cfg: ExploreConfig {
                parallelism: threads,
                ..symmetric_config(SymmetryMode::On)
            },
        });
    }
    out
}

/// Records `BENCH_explore.json` next to the workspace root: one sample
/// per grid row with leaves, unique node expansions, memo hits, wall
/// time, the derived leaves/sec and the worker counters (nonzero on
/// the `par*` rows). The `par*` rows'
/// leaf totals are asserted equal to the `seq` row at record time — the
/// E17 determinism contract.
fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = Vec::new();
    let mut seq_leaves = None;
    for row in rows() {
        // Warm once, then time a fixed number of runs.
        let _ = explore_engine(&row.obj, &row.mem, OpSource::PerProcess(&row.ops), &row.cfg);
        let runs = 3;
        let start = Instant::now();
        let mut out = None;
        for _ in 0..runs {
            out = Some(explore_engine(
                &row.obj,
                &row.mem,
                OpSource::PerProcess(&row.ops),
                &row.cfg,
            ));
        }
        let elapsed = start.elapsed() / runs;
        let out = out.expect("at least one run");
        out.assert_no_violation();
        let leaves_per_sec = out.leaves as f64 / elapsed.as_secs_f64();
        if row.engine == "seq" {
            seq_leaves = Some(out.leaves);
        } else if row.engine.starts_with("par") {
            assert_eq!(
                Some(out.leaves),
                seq_leaves,
                "{}: leaf totals moved across thread levels",
                row.engine
            );
        }
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
                "      \"workload\": \"{}\",\n",
                "      \"engine\": \"{}\",\n",
                "      \"symmetry\": {},\n",
                "      \"leaves\": {},\n",
                "      \"unique_nodes\": {},\n",
                "      \"memo_hits\": {},\n",
                "      \"mean_seconds\": {:.6},\n",
                "      \"leaves_per_sec\": {:.0},\n",
                "      \"sched\": {{\"workers\":{},\"steals\":{},\"steal_failures\":{},\
                 \"parks\":{},\"flush_batches\":{},\"per_worker_expansions\":[{}]}}\n",
                "    }}"
            ),
            row.workload,
            row.engine,
            out.symmetry,
            out.leaves,
            out.unique_nodes,
            out.memo_hits,
            elapsed.as_secs_f64(),
            leaves_per_sec,
            out.sched.workers,
            out.sched.steals,
            out.sched.steal_failures,
            out.sched.parks,
            out.sched.flush_batches,
            per_worker,
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"explore_throughput\",\n  \"host_cpus\": {},\n  \
         \"samples\": [\n{}\n  ]\n}}\n",
        cpus,
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("baseline written to {path}");
}
