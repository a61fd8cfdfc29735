//! The traced run's instruments: timing shims around the object, its
//! machines and the memory they touch, the per-thread counters they feed,
//! and the coarse spans the benchmark records around its calls.
//!
//! The shims forward every call unchanged, so a traced run explores the
//! same states and returns the same counts as an untraced one (pinned by
//! the tests below); only the clock reads around each call are added.
//! Memory time is measured inside each machine step, so a step's self
//! time is its duration minus the primitives it issued.

use std::cell::Cell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use nvm::{Layout, LayoutBuilder, Loc, Machine, MappedFile, Memory, Pid, Poll, Word};

/// When set, [`factory`] wraps every object it builds in [`TimedObject`]
/// and the counters of this process live in `<dir>/<pid>.ctr`. Crash
/// workers are separate processes that may die by SIGKILL at any point;
/// counters in a shared file mapping survive that.
pub const TRACE_DIR_ENV: &str = "DETECTABLE_BENCH_TRACE_DIR";

/// The fine boundaries the shims time, in counter order.
#[derive(Copy, Clone)]
pub enum Boundary {
    /// `Machine::step`; time is self time (memory primitives excluded).
    Step,
    /// `Memory::{read, write, cas, persist}` issued by the object.
    Memory,
    /// `Memory::persist` calls (counted; their time is under `Memory`).
    Persist,
    Encode,
    Clone,
    /// `RecoverableObject::prepare`; time excludes memory primitives.
    Prepare,
    Invoke,
    Recover,
    Decode,
}

const BOUNDARY_NAMES: [&str; 9] = [
    "step", "memory", "persist", "encode", "clone", "prepare", "invoke", "recover", "decode",
];
const NB: usize = BOUNDARY_NAMES.len();
/// Counter slots; threads take slots round-robin on first use.
const SLOTS: usize = 64;
const WORDS: usize = SLOTS * NB * 2;

enum Store {
    Heap(Box<[AtomicU64]>),
    File(MappedFile),
}

/// Sharded `{count, ns}` totals per thread slot and boundary.
pub struct Counters {
    store: Store,
}

impl Counters {
    fn word(&self, i: usize) -> &AtomicU64 {
        match &self.store {
            Store::Heap(w) => &w[i],
            Store::File(f) => f.word(i),
        }
    }

    fn add(&self, b: Boundary, count: u64, ns: u64) {
        let base = (thread_slot() * NB + b as usize) * 2;
        if count > 0 {
            self.word(base).fetch_add(count, Ordering::Relaxed);
        }
        if ns > 0 {
            self.word(base + 1).fetch_add(ns, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> Tally {
        Tally(
            (0..WORDS)
                .map(|i| self.word(i).load(Ordering::Relaxed))
                .collect(),
        )
    }
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}

static COUNTERS: OnceLock<Counters> = OnceLock::new();

/// This process's counters: a file under [`TRACE_DIR_ENV`] when it is set,
/// heap words otherwise.
pub fn counters() -> &'static Counters {
    COUNTERS.get_or_init(|| {
        let store = match std::env::var_os(TRACE_DIR_ENV) {
            Some(dir) => {
                let path = Path::new(&dir).join(format!("{}.ctr", std::process::id()));
                Store::File(MappedFile::create(&path, WORDS).expect("create counter file"))
            }
            None => Store::Heap((0..WORDS).map(|_| AtomicU64::new(0)).collect()),
        };
        Counters { store }
    })
}

/// A copy of the counters: `{count, ns}` per thread slot and boundary.
pub struct Tally(Vec<u64>);

impl Default for Tally {
    fn default() -> Self {
        Tally(vec![0; WORDS])
    }
}

impl Tally {
    /// What was recorded between `before` and `self`.
    pub fn since(&self, before: &Tally) -> Tally {
        Tally(self.0.iter().zip(&before.0).map(|(a, b)| a - b).collect())
    }

    pub fn add(&mut self, other: &Tally) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Sums and removes the counter files that crash workers left in `dir`.
    pub fn drain_dir(dir: &Path) -> Tally {
        let mut total = Tally::default();
        for entry in std::fs::read_dir(dir).expect("read counter dir") {
            let path = entry.expect("counter dir entry").path();
            let file = MappedFile::open(&path).expect("open counter file");
            let words: Vec<u64> = (0..WORDS)
                .map(|i| file.word(i).load(Ordering::Relaxed))
                .collect();
            total.add(&Tally(words));
            drop(file);
            std::fs::remove_file(&path).expect("remove counter file");
        }
        total
    }

    pub fn count(&self, b: Boundary) -> u64 {
        (0..SLOTS).map(|s| self.0[(s * NB + b as usize) * 2]).sum()
    }

    pub fn ns(&self, b: Boundary) -> u64 {
        (0..SLOTS)
            .map(|s| self.0[(s * NB + b as usize) * 2 + 1])
            .sum()
    }

    /// Time inside the object's own code other than machine steps.
    pub fn object_other_ns(&self) -> u64 {
        use Boundary::*;
        [Encode, Clone, Prepare, Invoke, Recover, Decode]
            .into_iter()
            .map(|b| self.ns(b))
            .sum()
    }

    /// Time inside the object and the memory it touched.
    pub fn wrapped_ns(&self) -> u64 {
        self.ns(Boundary::Step) + self.object_other_ns() + self.ns(Boundary::Memory)
    }

    /// `[{"slot":s,"step":{"count":c,"ns":n},…},…]` for the slots that
    /// recorded anything.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for s in 0..SLOTS {
            let row = &self.0[s * NB * 2..(s + 1) * NB * 2];
            if row.iter().all(|&w| w == 0) {
                continue;
            }
            if out.len() > 1 {
                out.push(',');
            }
            write!(out, "{{\"slot\":{s}").unwrap();
            for (b, name) in BOUNDARY_NAMES.iter().enumerate() {
                let (c, n) = (row[b * 2], row[b * 2 + 1]);
                write!(out, ",\"{name}\":{{\"count\":{c},\"ns\":{n}}}").unwrap();
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times each primitive it forwards; the caller flushes the totals once
/// per machine step or `prepare`.
struct TimedMemory<'a> {
    inner: &'a dyn Memory,
    calls: Cell<u64>,
    persists: Cell<u64>,
    ns: Cell<u64>,
}

impl<'a> TimedMemory<'a> {
    fn new(inner: &'a dyn Memory) -> Self {
        TimedMemory {
            inner,
            calls: Cell::new(0),
            persists: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + elapsed_ns(t));
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Records `b` with the time `total` minus the memory time inside it.
    fn flush(&self, b: Boundary, total: u64) {
        let c = counters();
        c.add(b, 1, total.saturating_sub(self.ns.get()));
        c.add(Boundary::Memory, self.calls.get(), self.ns.get());
        c.add(Boundary::Persist, self.persists.get(), 0);
    }
}

impl Memory for TimedMemory<'_> {
    fn read(&self, pid: Pid, loc: Loc) -> Word {
        self.time(|| self.inner.read(pid, loc))
    }

    fn write(&self, pid: Pid, loc: Loc, val: Word) {
        self.time(|| self.inner.write(pid, loc, val))
    }

    fn cas(&self, pid: Pid, loc: Loc, old: Word, new: Word) -> bool {
        self.time(|| self.inner.cas(pid, loc, old, new))
    }

    fn persist(&self, pid: Pid, loc: Loc) {
        self.persists.set(self.persists.get() + 1);
        self.time(|| self.inner.persist(pid, loc))
    }

    fn layout(&self) -> &Layout {
        self.inner.layout()
    }
}

fn timed<T>(b: Boundary, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    counters().add(b, 1, elapsed_ns(t));
    r
}

/// A machine whose steps, encodings and clones are timed.
struct TimedMachine(Box<dyn Machine>);

impl TimedMachine {
    fn wrap(m: Box<dyn Machine>) -> Box<dyn Machine> {
        Box::new(TimedMachine(m))
    }
}

impl Machine for TimedMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let tm = TimedMemory::new(mem);
        let t = Instant::now();
        let r = self.0.step(&tm);
        tm.flush(Boundary::Step, elapsed_ns(t));
        r
    }

    fn pid(&self) -> Pid {
        self.0.pid()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        timed(Boundary::Clone, || TimedMachine::wrap(self.0.clone_box()))
    }

    fn encode(&self) -> Vec<Word> {
        timed(Boundary::Encode, || self.0.encode())
    }
}

/// A [`RecoverableObject`] whose machines and announcements are timed.
pub struct TimedObject(Box<dyn RecoverableObject>);

impl TimedObject {
    pub fn wrap(inner: Box<dyn RecoverableObject>) -> Box<dyn RecoverableObject> {
        Box::new(TimedObject(inner))
    }
}

impl RecoverableObject for TimedObject {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, op: &OpSpec) {
        let tm = TimedMemory::new(mem);
        let t = Instant::now();
        self.0.prepare(&tm, pid, op);
        tm.flush(Boundary::Prepare, elapsed_ns(t));
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        timed(Boundary::Invoke, || {
            TimedMachine::wrap(self.0.invoke(pid, op))
        })
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        timed(Boundary::Recover, || {
            TimedMachine::wrap(self.0.recover(pid, op))
        })
    }

    fn processes(&self) -> u32 {
        self.0.processes()
    }

    fn kind(&self) -> ObjectKind {
        self.0.kind()
    }

    fn detectable(&self) -> bool {
        self.0.detectable()
    }

    fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
        self.0.permute_memory(words, perm)
    }

    fn decodable(&self) -> bool {
        self.0.decodable()
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        timed(Boundary::Decode, || {
            self.0.decode_op(pid, op, words).map(TimedMachine::wrap)
        })
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// The crash-worker [`harness::WorldFactory`]: the paper's objects, timed
/// while [`TRACE_DIR_ENV`] is set.
pub fn factory(
    name: &str,
    b: &mut LayoutBuilder,
    n: u32,
    queue_capacity: u32,
) -> Option<Box<dyn RecoverableObject>> {
    let obj = harness::default_factory(name, b, n, queue_capacity)?;
    Some(if std::env::var_os(TRACE_DIR_ENV).is_some() {
        TimedObject::wrap(obj)
    } else {
        obj
    })
}

struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Coarse spans (workload → rep → engine call, kind loop or crash cycle),
/// kept in memory and written out when the run ends.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span whose parent is the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns: elapsed_ns(self.epoch),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = elapsed_ns(self.epoch);
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )
            .unwrap();
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{
        build_kind, explore_engine, BfsConfig, ExploreConfig, OpSource, RunStats, Scenario,
        SymmetryMode, Workload,
    };

    fn census_stats(traced: bool) -> RunStats {
        let scenario = if traced {
            Scenario::custom(|b| TimedObject::wrap(build_kind(ObjectKind::Cas, b, 3, 128)))
        } else {
            Scenario::object(ObjectKind::Cas).processes(3)
        };
        let cfg = BfsConfig {
            max_ops: 5,
            parallelism: 1,
            ..BfsConfig::default()
        };
        let v = scenario
            .workload(Workload::round_robin(
                vec![
                    OpSpec::Cas { old: 0, new: 1 },
                    OpSpec::Cas { old: 1, new: 0 },
                ],
                5,
            ))
            .census(&cfg);
        assert!(v.passed && !v.stats.truncated);
        v.stats
    }

    #[test]
    fn shims_leave_the_census_unchanged() {
        let before = counters().snapshot();
        let traced = census_stats(true);
        let recorded = counters().snapshot().since(&before);
        let plain = census_stats(false);
        assert_eq!(traced.executions, plain.executions);
        assert_eq!(traced.steps, plain.steps);
        assert_eq!(traced.distinct_configs, plain.distinct_configs);
        assert_eq!(traced.resolved_ops, plain.resolved_ops);
        assert_eq!(plain.distinct_configs, 8);
        assert!(recorded.count(Boundary::Step) > 0);
        assert!(recorded.count(Boundary::Encode) > 0);
        assert!(recorded.count(Boundary::Memory) > 0);
    }

    #[test]
    fn shims_leave_the_explorer_unchanged() {
        let lists = vec![vec![OpSpec::Cas { old: 0, new: 1 }, OpSpec::Read]; 2];
        let cfg = ExploreConfig {
            max_crashes: 1,
            max_retries: 1,
            max_leaves: usize::MAX,
            symmetry: SymmetryMode::On,
            parallelism: 1,
            ..ExploreConfig::default()
        };
        let run = |scenario: Scenario| {
            let (obj, mem) = scenario.build();
            explore_engine(&*obj, &mem, OpSource::PerProcess(&lists), &cfg)
        };
        let plain = run(Scenario::object(ObjectKind::Cas).processes(2));
        let traced = run(Scenario::custom(|b| {
            TimedObject::wrap(build_kind(ObjectKind::Cas, b, 2, 128))
        }));
        assert!(plain.violation.is_none() && traced.violation.is_none());
        assert!(plain.symmetry && traced.symmetry);
        assert_eq!(traced.leaves, plain.leaves);
        assert_eq!(traced.unique_nodes, plain.unique_nodes);
        assert_eq!(traced.memo_hits, plain.memo_hits);
    }

    #[test]
    fn spans_nest() {
        let mut s = Spans::new();
        let a = s.enter("workload");
        let b = s.enter("rep");
        s.exit(b);
        s.exit(a);
        let json = s.to_json();
        assert!(json.contains("\"id\":1,\"parent\":0,\"name\":\"rep\""));
        assert!(json.contains("\"id\":0,\"parent\":null"));
    }
}
