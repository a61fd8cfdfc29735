//! **Experiment E1 / E12 / E15** — Theorem 1 / Figure 1: the
//! reachable-configuration census.
//!
//! Counts distinct shared-memory configurations (memory-equivalence classes)
//! reachable by the detectable CAS (Algorithm 2) and by the non-detectable
//! recoverable CAS, through the [`Scenario::census`] runner:
//!
//! * *witness* rows drive the constructive Gray-code walk (a script
//!   workload: one successful CAS per step, flipping one process's vector
//!   bit) — Algorithm 2 realizes all `2^N` vectors, meeting the `2^N − 1`
//!   lower bound;
//! * *bfs* rows exhaustively explore every interleaving of a bounded CAS
//!   alphabet workload. The in-RAM engine (nodes that own their memory
//!   images, a LIFO stack per worker and a shared pool) carries the
//!   exhaustive census to N = 4
//!   and N = 5 (experiment E12); `--threads N` spreads frontier expansion
//!   over worker threads with identical counts at every setting;
//! * *bfs-fold* rows (detectable CAS, N ≥ 6) fold each machine step's
//!   private-only continuation into it (`BfsConfig::fold_private`, the
//!   explorer's partial-order reduction): expansions shrink 20–40×, the
//!   distinct-configuration verdict is provably that of the unfolded
//!   engine, and 63 ≥ 2⁶ − 1 completes in about a second;
//! * `--max-n K` extends (or shrinks) the BFS sweep: the default 6 is
//!   today's CI table; `--max-n 7` adds the N = 7 *bfs-fold* row
//!   (experiment E15), which needs a 6-op budget (`Σ C(7,k), k ≤ 6` =
//!   `127 = 2^7 − 1`) and completes in RAM (about 5M states); `--max-n 8`
//!   adds the N = 8 row, 7 ops and about 99M states, which completes in
//!   RAM in minutes and a few GB (E15). Pass `--disk-dir DIR` (and
//!   optionally `--ram-budget BYTES`) to run every BFS row on the census's
//!   disk tier instead, spilling the frontier, images included, and the
//!   visited set to disk;
//! * the non-detectable baseline stays at the value-domain size, flat in N —
//!   the ablation isolating detectability as the cause of the blow-up.
//!
//! Run: `cargo run --release -p bench --bin census_table [-- --threads N]
//! [--max-n K] [--disk-dir DIR] [--ram-budget BYTES] [--json]`; with
//! `--json` every row also carries its census's wall time (`wall_ms`).

use baselines::NonDetectableCas;
use bench::{flag_value, json_mode, markdown_table, threads_flag};
use detectable::{ObjectKind, OpSpec};
use std::time::{Duration, Instant};

use harness::{
    census_table_json, gray_code_cas_ops, resolve_parallelism, BfsConfig, Scenario, Verdict,
    Workload,
};

/// Runs one census and times it.
fn timed_census(scenario: Scenario, cfg: &BfsConfig) -> (Verdict, Duration) {
    let start = Instant::now();
    let v = scenario.census(cfg);
    (v, start.elapsed())
}

/// The Gray-code witness walk as a scenario for `n` processes.
fn witness_scenario(n: u32, detectable: bool) -> Scenario {
    let base = if detectable {
        Scenario::object(ObjectKind::Cas).label("detectable-cas (Alg 2)")
    } else {
        Scenario::custom(move |b| Box::new(NonDetectableCas::new(b, n))).label("non-detectable cas")
    };
    base.processes(n)
        .workload(Workload::script(gray_code_cas_ops(n)))
}

/// The bounded-alphabet BFS as a scenario for `n` processes.
fn bfs_scenario(n: u32, detectable: bool) -> Scenario {
    let alphabet = vec![
        OpSpec::Cas { old: 0, new: 1 },
        OpSpec::Cas { old: 1, new: 0 },
    ];
    let base = if detectable {
        Scenario::object(ObjectKind::Cas).label("detectable-cas (Alg 2)")
    } else {
        Scenario::custom(move |b| Box::new(NonDetectableCas::new(b, n))).label("non-detectable cas")
    };
    base.processes(n)
        .workload(Workload::round_robin(alphabet, 2 * n as usize))
}

/// Operation budget for the exhaustive BFS at `n` processes: `2N` keeps the
/// small worlds comparable with the historical tables; N = 4, 5 use 5 ops
/// while the state space stays a CI-sized few million. From N = 6 on, N − 1
/// ops reach every vector of toggle weight ≤ N − 1: `Σ C(N,k), k ≤ N − 1` =
/// `2^N − 1`, exactly the bound (5 ops at N = 6, 6 at N = 7, 7 at N = 8).
fn bfs_ops(n: u32) -> usize {
    match n {
        0..=3 => 2 * n as usize,
        4 | 5 => 5,
        _ => n as usize - 1,
    }
}

/// Admission cap for the exhaustive BFS at `n` processes: far above every
/// row's state count up to N = 7 (about 5M), and above N = 8's 98,779,626
/// folded states, so every row of the default sweeps completes.
fn bfs_cap(n: u32) -> usize {
    if n <= 7 {
        20_000_000
    } else {
        120_000_000
    }
}

fn row(mode: &str, n: u32, v: &Verdict) -> Vec<String> {
    vec![
        v.object.clone(),
        mode.into(),
        n.to_string(),
        v.stats.distinct_configs.to_string(),
        v.stats.theorem_bound.to_string(),
        match (v.bound_met, v.stats.truncated) {
            // A met lower bound is conclusive even when coverage was cut —
            // more states could only add configurations.
            (Some(true), _) => "yes".into(),
            (Some(false), true) => "TRUNCATED (inconclusive)".into(),
            (Some(false), false) => "NO".into(),
            (None, _) => "exempt (not detectable)".into(),
        },
    ]
}

fn main() {
    // `--threads` omitted → 0 → the host's available parallelism.
    let threads = resolve_parallelism(threads_flag());
    let max_n: u32 =
        flag_value("max-n").map_or(6, |v| v.parse().expect("--max-n takes a process count"));
    let disk_dir = flag_value("disk-dir").map(std::path::PathBuf::from);
    let ram_budget: Option<usize> =
        flag_value("ram-budget").map(|v| v.parse().expect("--ram-budget takes a byte count"));
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut verdicts: Vec<(Verdict, Duration)> = Vec::new();

    // Constructive witness: Algorithm 2, N = 1..=12, then the ablation.
    for n in 1..=12u32 {
        let (v, wall) = timed_census(witness_scenario(n, true), &BfsConfig::default());
        rows.push(row("witness", n, &v));
        verdicts.push((v, wall));
    }
    for n in [2u32, 4, 8, 12] {
        let (v, wall) = timed_census(witness_scenario(n, false), &BfsConfig::default());
        rows.push(row("witness", n, &v));
        verdicts.push((v, wall));
    }

    // Exhaustive BFS, both implementations. The N ≤ 5 rows step one
    // primitive per successor; the N ≥ 6 rows fold private-only steps to
    // stay tractable, and are labeled as such (the verdict is the unfolded
    // engine's by the fold's soundness argument — see DESIGN §3.3).
    let mut bfs_row = |n: u32, detectable: bool| {
        let fold = detectable && n >= 6;
        let cfg = BfsConfig {
            max_ops: bfs_ops(n),
            max_states: bfs_cap(n),
            parallelism: threads,
            fold_private: fold,
            disk_dir: disk_dir.clone(),
            ram_budget,
        };
        let (v, wall) = timed_census(bfs_scenario(n, detectable), &cfg);
        let mode_tag = if fold { "bfs-fold" } else { "bfs" };
        rows.push(row(
            &format!(
                "{mode_tag} (≤{} ops, {} states)",
                cfg.max_ops, v.stats.executions
            ),
            n,
            &v,
        ));
        verdicts.push((v, wall));
    };
    for n in 1..=max_n {
        bfs_row(n, true);
    }
    for n in 1..=max_n.min(5) {
        bfs_row(n, false);
    }

    if json_mode() {
        println!("{}", census_table_json(threads, &verdicts));
        return;
    }

    println!("# E1/E12/E15 — Theorem 1 census: reachable shared-memory configurations\n");
    println!(
        "BFS rows expanded on {threads} worker thread(s){}.\n",
        if disk_dir.is_some() {
            " on the external-memory (disk-spill) engine"
        } else {
            ""
        }
    );
    println!(
        "{}",
        markdown_table(
            &[
                "object",
                "mode",
                "N",
                "distinct shared configs",
                "2^N - 1 bound",
                "meets bound"
            ],
            &rows,
        )
    );
    println!(
        "\nShape check: Algorithm 2 grows as 2^N (meeting Theorem 1's 2^N - 1), the\n\
         non-detectable ablation stays flat at the value-domain size."
    );
}
