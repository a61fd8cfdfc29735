//! Absolute pins for the four objects composed from the detectable CAS
//! (counter, fetch-and-add, swap, test-and-set).
//!
//! The other suites compare engines with each other; these numbers pin each
//! object on its own, so any drift in its layout, its per-step primitive
//! sequence or its state-equivalence classes shows here:
//!
//! * the layout (region names, order, width) and Theorem 1's bit counts;
//! * solo step and persist counts of every operation, and of the recovery
//!   run after a crash at every step of it;
//! * census `work` and `distinct_shared` in exact mode, in RAM and on the
//!   disk tier;
//! * sequential explorer `leaves` and `unique_nodes` with one crash,
//!   symmetry reduction on and off.

use detectable::{
    DetectableCounter, DetectableFaa, DetectableSwap, DetectableTas, ObjectKind, OpSpec,
};
use harness::{
    census_bfs_engine, default_alphabet, explore_engine, BfsConfig, ExploreConfig, OpSource,
    Scenario, SymmetryMode,
};
use nvm::{LayoutBuilder, Machine, Pid, Poll, SimMemory, Space, Word};

const KINDS: [ObjectKind; 4] = [
    ObjectKind::Counter,
    ObjectKind::Faa,
    ObjectKind::Swap,
    ObjectKind::Tas,
];

/// `name:words x bits:shared|private` for every region, in layout order
/// (private arrays listed once, for process 0).
fn layout_of(kind: ObjectKind, n: u32) -> Vec<String> {
    let mut b = LayoutBuilder::new();
    match kind {
        ObjectKind::Counter => drop(DetectableCounter::new(&mut b, n)),
        ObjectKind::Faa => drop(DetectableFaa::new(&mut b, n)),
        ObjectKind::Swap => drop(DetectableSwap::new(&mut b, n)),
        ObjectKind::Tas => drop(DetectableTas::new(&mut b, n)),
        other => panic!("not a composed object: {other:?}"),
    }
    let layout = b.finish();
    let mut out = Vec::new();
    for r in layout.regions() {
        let space = match r.space() {
            Space::Shared => "shared",
            Space::Private(p) if p.get() == 0 => "private",
            Space::Private(_) => continue,
        };
        out.push(format!(
            "{}:{}x{}:{space}",
            r.name(),
            r.words(),
            r.bits_per_word()
        ));
    }
    out
}

/// One sequential script per kind that takes every branch of the attempt
/// machine solo: wins, the effect-free fast paths and `Read`.
fn solo_script(kind: ObjectKind) -> Vec<OpSpec> {
    match kind {
        ObjectKind::Counter => vec![OpSpec::Inc, OpSpec::Inc, OpSpec::Read],
        ObjectKind::Faa => vec![OpSpec::Faa(2), OpSpec::Faa(3), OpSpec::Read],
        ObjectKind::Swap => vec![
            OpSpec::Swap(1),
            OpSpec::Swap(1),
            OpSpec::Swap(2),
            OpSpec::Read,
        ],
        ObjectKind::Tas => vec![
            OpSpec::TestAndSet,
            OpSpec::TestAndSet,
            OpSpec::Reset,
            OpSpec::Reset,
            OpSpec::Read,
        ],
        other => panic!("not a composed object: {other:?}"),
    }
}

fn run(m: &mut dyn Machine, mem: &SimMemory) -> (u64, Word) {
    for steps in 1..10_000 {
        if let Poll::Ready(w) = m.step(mem) {
            return (steps, w);
        }
    }
    panic!("machine did not complete");
}

/// Per op of the script: `[steps, persists, response, recovery steps,
/// recovery persists]`, the recovery columns summed over a crash after each
/// step `0..steps` of the op, each recovered solo from the same prefix.
fn solo_counts(kind: ObjectKind, n: u32) -> Vec<[u64; 5]> {
    let (obj, mem) = Scenario::object(kind).processes(n).build();
    let mut out = Vec::new();
    for (i, op) in solo_script(kind).into_iter().enumerate() {
        let pid = Pid::new(i as u32 % n);
        let (mut rec_steps, mut rec_persists) = (0, 0);
        let mut crash_after = 0;
        loop {
            let cp = mem.checkpoint();
            obj.prepare(&mem, pid, &op);
            let mut m = obj.invoke(pid, &op);
            if (0..crash_after).any(|_| m.step(&mem).is_ready()) {
                mem.rollback(cp);
                break;
            }
            drop(m);
            let p0 = mem.stats().persists;
            let (s, _) = run(&mut *obj.recover(pid, &op), &mem);
            rec_steps += s;
            rec_persists += mem.stats().persists - p0;
            mem.rollback(cp);
            crash_after += 1;
        }
        obj.prepare(&mem, pid, &op);
        let p0 = mem.stats().persists;
        let (steps, resp) = run(&mut *obj.invoke(pid, &op), &mem);
        out.push([
            steps,
            mem.stats().persists - p0,
            resp,
            rec_steps,
            rec_persists,
        ]);
    }
    out
}

/// `[work, distinct_shared]` of the exact census, in RAM then on disk.
fn census_counts(kind: ObjectKind, n: u32, max_ops: usize) -> [usize; 4] {
    let (obj, mem) = Scenario::object(kind).processes(n).build();
    let alphabet = default_alphabet(kind);
    let dir =
        std::env::temp_dir().join(format!("capsule-pins-{}-{kind:?}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spill dir");
    let cfg = |disk: bool| BfsConfig {
        max_ops,
        max_states: 1_000_000,
        parallelism: 1,
        fold_private: false,
        disk_dir: disk.then(|| dir.clone()),
        ram_budget: disk.then_some(8 * 1024),
    };
    let ram = census_bfs_engine(&*obj, &mem, &alphabet, &cfg(false));
    let disk = census_bfs_engine(&*obj, &mem, &alphabet, &cfg(true));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(disk.spill.is_some(), "{kind:?}: the disk tier did not run");
    assert!(!ram.truncated && !disk.truncated);
    [
        ram.work,
        ram.distinct_shared,
        disk.work,
        disk.distinct_shared,
    ]
}

/// Every process runs the same list, so symmetry reduction applies.
fn explore_lists(kind: ObjectKind, n: u32) -> Vec<Vec<OpSpec>> {
    let list = match (kind, n) {
        (ObjectKind::Counter, 2) => vec![OpSpec::Inc, OpSpec::Read],
        (ObjectKind::Counter, _) => vec![OpSpec::Inc],
        (ObjectKind::Faa, 2) => vec![OpSpec::Faa(1), OpSpec::Read],
        (ObjectKind::Faa, _) => vec![OpSpec::Faa(1)],
        (ObjectKind::Swap, 2) => vec![OpSpec::Swap(1), OpSpec::Swap(0)],
        (ObjectKind::Swap, _) => vec![OpSpec::Swap(1)],
        (ObjectKind::Tas, 2) => vec![OpSpec::TestAndSet, OpSpec::Reset],
        (ObjectKind::Tas, _) => vec![OpSpec::TestAndSet],
        (other, _) => panic!("not a composed object: {other:?}"),
    };
    vec![list; n as usize]
}

/// `[leaves, unique_nodes]` with symmetry off, then on.
fn explore_counts(kind: ObjectKind, n: u32) -> [usize; 4] {
    let lists = explore_lists(kind, n);
    let mut out = [0; 4];
    for (i, symmetry) in [SymmetryMode::Off, SymmetryMode::On]
        .into_iter()
        .enumerate()
    {
        let (obj, mem) = Scenario::object(kind).processes(n).build();
        let cfg = ExploreConfig {
            max_crashes: 1,
            max_retries: 1,
            max_leaves: usize::MAX,
            symmetry,
            parallelism: 1,
            ..Default::default()
        };
        let o = explore_engine(&*obj, &mem, OpSource::PerProcess(&lists), &cfg);
        assert!(
            o.violation.is_none() && !o.truncated,
            "{kind:?} n={n}: {o:?}"
        );
        assert_eq!(o.symmetry, symmetry == SymmetryMode::On);
        out[2 * i] = o.leaves;
        out[2 * i + 1] = o.unique_nodes;
    }
    out
}

#[test]
fn composed_object_counts_are_pinned() {
    let mut seen = String::new();
    for kind in KINDS {
        for n in [2u32, 3] {
            let space = Scenario::object(kind).processes(n).space().stats;
            let max_ops = if n == 2 { 4 } else { 3 };
            seen += &format!(
                "{kind:?} n={n}\n  layout {:?}\n  bits [{}, {}]\n  solo {:?}\n  census {:?}\n  explore {:?}\n",
                layout_of(kind, n),
                space.shared_bits,
                space.private_bits,
                solo_counts(kind, n),
                census_counts(kind, n, max_ops),
                explore_counts(kind, n),
            );
        }
    }
    assert_eq!(seen, PINNED, "observed:\n{seen}");
}

/// Recorded from the per-object implementations (`counter.rs`, `swap.rs`,
/// `tas.rs`) before one capsule engine replaced them; the engine must
/// reproduce every number. The counter and FAA rows were re-recorded when
/// the write-only `DELTA_p` region was dropped: 32 private bits per process
/// and one persist per attempt less, every step, census and explorer count
/// unchanged.
const PINNED: &str = r#"Counter n=2
  layout ["counter.cas.C:1x34:shared", "counter.cas.RD[p0]:1x1:private", "counter.cas.Ann.resp[p0]:1x64:private", "counter.cas.Ann.CP[p0]:1x1:private", "counter.ARG[p0]:1x32:private", "counter.Ann.resp[p0]:1x64:private", "counter.Ann.CP[p0]:1x1:private"]
  bits [34, 326]
  solo [[11, 11, 1, 90, 57], [11, 11, 1, 90, 57], [2, 2, 2, 6, 4]]
  census [8608, 9, 8608, 9]
  explore [1101022, 5043, 1101022, 2590]
Counter n=3
  layout ["counter.cas.C:1x35:shared", "counter.cas.RD[p0]:1x1:private", "counter.cas.Ann.resp[p0]:1x64:private", "counter.cas.Ann.CP[p0]:1x1:private", "counter.ARG[p0]:1x32:private", "counter.Ann.resp[p0]:1x64:private", "counter.Ann.CP[p0]:1x1:private"]
  bits [35, 489]
  solo [[11, 11, 1, 90, 57], [11, 11, 1, 90, 57], [2, 2, 2, 6, 4]]
  census [23463, 12, 23463, 12]
  explore [807627771306, 156136, 807627771306, 30258]
Faa n=2
  layout ["faa.cas.C:1x34:shared", "faa.cas.RD[p0]:1x1:private", "faa.cas.Ann.resp[p0]:1x64:private", "faa.cas.Ann.CP[p0]:1x1:private", "faa.ARG[p0]:1x32:private", "faa.Ann.resp[p0]:1x64:private", "faa.Ann.CP[p0]:1x1:private"]
  bits [34, 326]
  solo [[11, 11, 0, 90, 57], [11, 11, 2, 90, 57], [2, 2, 5, 6, 4]]
  census [8608, 9, 8608, 9]
  explore [1101022, 5043, 1101022, 2590]
Faa n=3
  layout ["faa.cas.C:1x35:shared", "faa.cas.RD[p0]:1x1:private", "faa.cas.Ann.resp[p0]:1x64:private", "faa.cas.Ann.CP[p0]:1x1:private", "faa.ARG[p0]:1x32:private", "faa.Ann.resp[p0]:1x64:private", "faa.Ann.CP[p0]:1x1:private"]
  bits [35, 489]
  solo [[11, 11, 0, 90, 57], [11, 11, 2, 90, 57], [2, 2, 5, 6, 4]]
  census [23463, 12, 23463, 12]
  explore [807627771306, 156136, 807627771306, 30258]
Swap n=2
  layout ["swap.cas.C:1x34:shared", "swap.cas.RD[p0]:1x1:private", "swap.cas.Ann.resp[p0]:1x64:private", "swap.cas.Ann.CP[p0]:1x1:private", "swap.ARG[p0]:1x32:private", "swap.Ann.resp[p0]:1x64:private", "swap.Ann.CP[p0]:1x1:private"]
  bits [34, 326]
  solo [[11, 11, 0, 90, 57], [2, 2, 1, 4, 0], [11, 11, 1, 90, 57], [2, 2, 2, 6, 4]]
  census [8411, 4, 8411, 4]
  explore [15144644, 25587, 15144644, 12932]
Swap n=3
  layout ["swap.cas.C:1x35:shared", "swap.cas.RD[p0]:1x1:private", "swap.cas.Ann.resp[p0]:1x64:private", "swap.cas.Ann.CP[p0]:1x1:private", "swap.ARG[p0]:1x32:private", "swap.Ann.resp[p0]:1x64:private", "swap.Ann.CP[p0]:1x1:private"]
  bits [35, 489]
  solo [[11, 11, 0, 90, 57], [2, 2, 1, 4, 0], [11, 11, 1, 90, 57], [2, 2, 2, 6, 4]]
  census [21776, 8, 21776, 8]
  explore [69136491864, 115000, 69136491864, 21617]
Tas n=2
  layout ["tas.cas.C:1x34:shared", "tas.cas.RD[p0]:1x1:private", "tas.cas.Ann.resp[p0]:1x64:private", "tas.cas.Ann.CP[p0]:1x1:private", "tas.Ann.resp[p0]:1x64:private", "tas.Ann.CP[p0]:1x1:private"]
  bits [34, 262]
  solo [[10, 10, 0, 38, 7], [2, 2, 1, 4, 0], [10, 10, 1, 78, 47], [2, 2, 1, 4, 0], [2, 2, 0, 6, 4]]
  census [6618, 4, 6618, 4]
  explore [9667304, 24849, 9667304, 12541]
Tas n=3
  layout ["tas.cas.C:1x35:shared", "tas.cas.RD[p0]:1x1:private", "tas.cas.Ann.resp[p0]:1x64:private", "tas.cas.Ann.CP[p0]:1x1:private", "tas.Ann.resp[p0]:1x64:private", "tas.Ann.CP[p0]:1x1:private"]
  bits [35, 393]
  solo [[10, 10, 0, 38, 7], [2, 2, 1, 4, 0], [10, 10, 1, 78, 47], [2, 2, 1, 4, 0], [2, 2, 0, 6, 4]]
  census [17756, 8, 17756, 8]
  explore [25194635532, 112609, 25194635532, 20430]
"#;
