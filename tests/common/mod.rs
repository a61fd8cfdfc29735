//! Test helpers shared by the census integration targets: the reference
//! census every engine is judged against, and the counts it compares.

#![allow(dead_code)]

use std::collections::{HashSet, VecDeque};

use detectable::{OpSpec, RecoverableObject};
use harness::{BfsConfig, CensusReport, Driver, RetryPolicy, RunStats};
use nvm::{SimMemory, Word};

/// The counts both census implementations report, compared whole.
#[derive(Debug, PartialEq, Eq)]
pub struct Counts {
    pub distinct_shared: u64,
    pub work: u64,
    pub truncated: bool,
    pub steps: u64,
    pub resolved_ops: u64,
    pub persists: u64,
}

impl From<&CensusReport> for Counts {
    fn from(r: &CensusReport) -> Self {
        Counts {
            distinct_shared: r.distinct_shared as u64,
            work: r.work as u64,
            truncated: r.truncated,
            steps: r.steps,
            resolved_ops: r.resolved_ops,
            persists: r.persists,
        }
    }
}

impl From<&RunStats> for Counts {
    fn from(s: &RunStats) -> Self {
        Counts {
            distinct_shared: s.distinct_configs,
            work: s.executions,
            truncated: s.truncated,
            steps: s.steps,
            resolved_ops: s.resolved_ops,
            persists: s.persists,
        }
    }
}

/// The reference census, kept independent of the engine it checks: exact
/// node keys (operation budget, driver key, full logical memory — no
/// fingerprints), a plain FIFO (no arena, no batching), and a
/// [`SimMemory::fork`] of its own for every frontier node: each successor
/// is generated on a fresh fork of its parent. A fork is a full copy,
/// dirty cache cells and crash ordinal included, so shared-cache worlds
/// compare correctly, and its counters start at zero, so `persists` is the
/// sum over the forks. The cap means what it means for
/// `census_bfs_engine`: `max_states` bounds admissions, every admitted
/// node is expanded, and a refused admission marks the run truncated.
/// `fold_private` steps through the public [`Driver::step_merged`], the
/// explorer's fold, instead of [`Driver::step`]. `parallelism` is ignored:
/// the reference is sequential and admits in canonical BFS order, as the
/// disk tier does at every worker count.
pub fn reference_census(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    alphabet: &[OpSpec],
    cfg: &BfsConfig,
) -> Counts {
    const RETRY: RetryPolicy = RetryPolicy {
        retry_on_fail: false,
        max_retries: 0,
        reset_per_op: false,
    };
    let key = |mem: &SimMemory, driver: &Driver, ops_used: usize| {
        let mut key = vec![ops_used as Word];
        driver.encode_key(&mut key);
        key.extend(mem.full_key());
        key
    };
    let root = Driver::without_history(obj.processes());
    let mut shared = HashSet::from([mem.shared_key()]);
    let mut visited = HashSet::new();
    let mut queue = VecDeque::new();
    let mut counts = Counts {
        distinct_shared: 0,
        work: 0,
        truncated: cfg.max_states == 0,
        steps: 0,
        resolved_ops: 0,
        persists: 0,
    };
    if cfg.max_states > 0 {
        visited.insert(key(mem, &root, 0));
        queue.push_back((mem.fork(), root, 0));
    }
    while let Some((node_mem, node_driver, ops_used)) = queue.pop_front() {
        counts.work += 1;
        for i in 0..obj.processes() as usize {
            let successors: Vec<(SimMemory, Driver, usize)> = if node_driver.state(i).in_flight() {
                let (fork, mut driver) = (node_mem.fork(), node_driver.clone());
                let outcome = if cfg.fold_private {
                    driver.step_merged(obj, &fork, i, &RETRY)
                } else {
                    driver.step(obj, &fork, i, &RETRY)
                };
                counts.resolved_ops += u64::from(outcome.resolved());
                vec![(fork, driver, ops_used)]
            } else if ops_used < cfg.max_ops {
                alphabet
                    .iter()
                    .map(|op| {
                        let (fork, mut driver) = (node_mem.fork(), node_driver.clone());
                        driver.invoke(obj, &fork, i, *op, &RETRY);
                        (fork, driver, ops_used + 1)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            for (fork, driver, ops_used) in successors {
                counts.steps += 1;
                counts.persists += fork.stats().persists;
                shared.insert(fork.shared_key());
                let k = key(&fork, &driver, ops_used);
                if visited.contains(&k) {
                    continue;
                }
                if visited.len() >= cfg.max_states {
                    counts.truncated = true;
                } else {
                    visited.insert(k);
                    queue.push_back((fork, driver, ops_used));
                }
            }
        }
    }
    counts.distinct_shared = shared.len() as u64;
    counts
}

/// A fresh spill directory for a disk-tier run, unique to this test
/// process and `tag`.
pub fn spill_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("census-ext-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).expect("spill dir");
    d
}
