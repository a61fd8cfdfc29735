//! Detectable counter and fetch-and-add, composed from the detectable CAS.
//!
//! The paper's Section 6 observes that detectability is what makes
//! recoverable operations *composable*: a client that crashed inside a
//! sub-operation can learn from the sub-operation's recovery function whether
//! it was linearized, and continue accordingly. This module exercises that
//! claim: the counter's `Inc` is the classic CAS retry loop, made
//! exactly-once across crashes by consulting `Cas.Recover` — the detectable
//! CAS's verdict (`true` / `false` / `fail`) is exactly the information the
//! outer recovery needs.
//!
//! Both objects are doubly-perturbing (paper Lemmas 5 and 7), so by
//! Theorem 2 they must receive auxiliary state; here it is the outer
//! `Ann_p.CP` checkpoint, the persisted inner-CAS argument `ARG_p`, and the
//! caller-reset inner announcement.
//!
//! `Inc`/`Faa` are lock-free (not wait-free): a retry loop can be starved by
//! other writers. `Read` is wait-free.

use nvm::{
    AnnBank, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, ACK, RESP_FAIL, RESP_NONE, TRUE,
};

use crate::cas::{CasMachine, CasRecoverMachine, DetectableCas};
use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

/// What the composed operation returns on inner success.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Flavor {
    /// `Inc` returns `ack`.
    Counter,
    /// `Faa` returns the previous value.
    Faa,
}

#[derive(Copy, Clone, Debug)]
struct CounterInner {
    cas: DetectableCas,
    /// Persisted argument of the in-flight inner CAS attempt (the `old`
    /// value); recovery re-derives `new = old + delta`.
    arg: Loc,
    /// Persisted delta of the in-flight operation (needed by recovery, which
    /// is called with the same arguments — we keep it in NVM so the harness
    /// can also recover after total loss of volatile state).
    delta: Loc,
    ann: AnnBank,
    n: u32,
    flavor: Flavor,
}

impl CounterInner {
    fn arg_loc(&self, pid: Pid) -> Loc {
        self.arg.at(pid.idx())
    }

    fn delta_loc(&self, pid: Pid) -> Loc {
        self.delta.at(pid.idx())
    }
}

/// A detectable counter (`Inc` / `Read`) built on [`DetectableCas`].
///
/// # Example
///
/// ```
/// use detectable::{DetectableCounter, OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, ACK};
///
/// let mut b = LayoutBuilder::new();
/// let ctr = DetectableCounter::new(&mut b, 2);
/// let mem = SimMemory::new(b.finish());
/// let p = Pid::new(0);
///
/// for _ in 0..3 {
///     ctr.prepare(&mem, p, &OpSpec::Inc);
///     let mut m = ctr.invoke(p, &OpSpec::Inc);
///     assert_eq!(run_to_completion(&mut *m, &mem, 1000).unwrap(), ACK);
/// }
/// ctr.prepare(&mem, p, &OpSpec::Read);
/// let mut r = ctr.invoke(p, &OpSpec::Read);
/// assert_eq!(run_to_completion(&mut *r, &mem, 1000).unwrap(), 3);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct DetectableCounter {
    inner: CounterInner,
}

/// A detectable fetch-and-add (`Faa(d)` / `Read`) built on [`DetectableCas`].
///
/// `Faa(d)` returns the value the object held immediately before the
/// operation's linearization point.
#[derive(Copy, Clone, Debug)]
pub struct DetectableFaa {
    inner: CounterInner,
}

fn build(b: &mut LayoutBuilder, name: &str, n: u32, flavor: Flavor) -> CounterInner {
    let cas = DetectableCas::with_name(b, &format!("{name}.cas"), n, 0);
    let arg = b.private_array(&format!("{name}.ARG"), n, 1, 32);
    let delta = b.private_array(&format!("{name}.DELTA"), n, 1, 32);
    let ann = AnnBank::alloc(b, name, n, 1);
    CounterInner {
        cas,
        arg,
        delta,
        ann,
        n,
        flavor,
    }
}

impl DetectableCounter {
    /// Allocates a counter for `n` processes, initially 0.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "counter", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        DetectableCounter {
            inner: build(b, name, n, Flavor::Counter),
        }
    }

    /// The current counter value (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.cas.peek_value(mem)
    }
}

impl DetectableFaa {
    /// Allocates a fetch-and-add object for `n` processes, initially 0.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "faa", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        DetectableFaa {
            inner: build(b, name, n, Flavor::Faa),
        }
    }

    /// The current value (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.cas.peek_value(mem)
    }
}

fn delta_of(inner: &CounterInner, op: &OpSpec) -> u32 {
    match (inner.flavor, op) {
        (Flavor::Counter, OpSpec::Inc) => 1,
        (Flavor::Faa, OpSpec::Faa(d)) => *d,
        _ => panic!("object does not support {op}"),
    }
}

macro_rules! impl_recoverable {
    ($ty:ty, $kind:expr, $name:expr, $read_op:pat, $add_op:pat) => {
        impl RecoverableObject for $ty {
            fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
                self.inner.ann.prepare(mem, pid);
            }

            fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
                match op {
                    $read_op => Box::new(ReadMachine::new(self.inner, pid)),
                    $add_op => {
                        let d = delta_of(&self.inner, op);
                        Box::new(AddMachine::new(self.inner, pid, d))
                    }
                    other => panic!("object does not support {other}"),
                }
            }

            fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
                match op {
                    $read_op => Box::new(ReadRecoverMachine::new(self.inner, pid)),
                    $add_op => {
                        let d = delta_of(&self.inner, op);
                        Box::new(AddRecoverMachine::new(self.inner, pid, d))
                    }
                    other => panic!("object does not support {other}"),
                }
            }

            fn processes(&self) -> u32 {
                self.inner.n
            }

            fn kind(&self) -> ObjectKind {
                $kind
            }

            fn name(&self) -> &'static str {
                $name
            }

            /// The composition adds only pid-free private state (`ARG`,
            /// `DELTA`, the outer `Ann`), all relocated generically; the
            /// inner CAS's toggle vector is the one packed encoding left.
            fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
                self.inner.cas.permute_memory(words, perm)
            }

            fn decodable(&self) -> bool {
                true
            }

            fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
                match op {
                    $read_op => ReadMachine::decode(self.inner, pid, words)
                        .map(|m| Box::new(m) as Box<dyn Machine>),
                    $add_op => {
                        let d = delta_of(&self.inner, op);
                        AddMachine::decode(self.inner, pid, d, words)
                            .map(|m| Box::new(m) as Box<dyn Machine>)
                    }
                    _ => None,
                }
            }
        }
    };
}

impl_recoverable!(
    DetectableCounter,
    ObjectKind::Counter,
    "detectable-counter",
    OpSpec::Read,
    OpSpec::Inc
);
impl_recoverable!(
    DetectableFaa,
    ObjectKind::Faa,
    "detectable-faa",
    OpSpec::Read,
    OpSpec::Faa(_)
);

// ---------------------------------------------------------------------------
// Add (Inc / Faa): CAS retry loop with checkpointed attempts
// ---------------------------------------------------------------------------
//
// Per attempt:
//   A1: v := value of C              (one read via the inner read machine)
//   A2: inner_ann.resp := ⊥          (caller protocol for the inner CAS,
//   A3: inner_ann.CP   := 0           split into two steps)
//   A4: ARG_p := v; DELTA_p := d     (persist recovery arguments)
//   A5: Ann_p.CP := 1                (outer checkpoint: inner CAS announced)
//   A6..: run inner Cas(v, v+d)
//   on true  → Ann_p.result := (ack | v); return
//   on false → next attempt
//
// Recovery consults the *inner* recovery function — the composability the
// paper attributes to detectability.

#[derive(Clone)]
enum AddState {
    ReadValue,
    ResetInnerResp { v: u32 },
    ResetInnerCp { v: u32 },
    PersistArgs { v: u32 },
    OuterCheckpoint { v: u32 },
    RunCas { v: u32, m: CasMachine },
    PersistResp { v: u32 },
    Done,
}

#[derive(Clone)]
struct AddMachine {
    obj: CounterInner,
    pid: Pid,
    delta: u32,
    state: AddState,
}

impl AddMachine {
    fn new(obj: CounterInner, pid: Pid, delta: u32) -> Self {
        AddMachine {
            obj,
            pid,
            delta,
            state: AddState::ReadValue,
        }
    }

    fn response(&self, v: u32) -> Word {
        match self.obj.flavor {
            Flavor::Counter => ACK,
            Flavor::Faa => u64::from(v),
        }
    }

    /// Inverse of [`Machine::encode`]: rebuilds an in-flight `Inc`/`Faa`
    /// machine, reconstructing a nested CAS attempt through the inner
    /// object's own decoder (its `old`/`new` arguments are recoverable from
    /// the nested encoding and must agree with this attempt's `v`/`delta`).
    fn decode(obj: CounterInner, pid: Pid, delta: u32, words: &[Word]) -> Option<AddMachine> {
        if words.len() < 3 || words[2] != u64::from(delta) {
            return None;
        }
        let v = u32::try_from(words[1]).ok()?;
        let flat = words.len() == 3;
        let state = match words[0] {
            1 if flat && v == 0 => AddState::ReadValue,
            2 if flat => AddState::ResetInnerResp { v },
            3 if flat => AddState::ResetInnerCp { v },
            4 if flat => AddState::PersistArgs { v },
            5 if flat => AddState::OuterCheckpoint { v },
            6 => {
                let inner = &words[3..];
                let (old, new) = (
                    u32::try_from(*inner.get(1)?).ok()?,
                    u32::try_from(*inner.get(2)?).ok()?,
                );
                if old != v || new != v.wrapping_add(delta) {
                    return None;
                }
                let m = CasMachine::decode(obj.cas.inner, pid, old, new, inner)?;
                AddState::RunCas { v, m }
            }
            7 if flat => AddState::PersistResp { v },
            8 if flat && v == 0 => AddState::Done,
            _ => return None,
        };
        Some(AddMachine {
            obj,
            pid,
            delta,
            state,
        })
    }
}

impl Machine for AddMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match &mut self.state {
            AddState::ReadValue => {
                // Raw read of C: must not touch the inner announcement,
                // which belongs to the in-flight inner CAS attempt.
                let v = o.cas.read_value_raw(mem, p);
                self.state = AddState::ResetInnerResp { v };
                Poll::Pending
            }
            AddState::ResetInnerResp { v } => {
                mem.write_pp(p, o.cas.ann().resp_loc(p), RESP_NONE);
                self.state = AddState::ResetInnerCp { v: *v };
                Poll::Pending
            }
            AddState::ResetInnerCp { v } => {
                mem.write_pp(p, o.cas.ann().cp_loc(p), 0);
                self.state = AddState::PersistArgs { v: *v };
                Poll::Pending
            }
            AddState::PersistArgs { v } => {
                mem.write_pp(p, o.arg_loc(p), u64::from(*v));
                mem.write_pp(p, o.delta_loc(p), u64::from(self.delta));
                self.state = AddState::OuterCheckpoint { v: *v };
                Poll::Pending
            }
            AddState::OuterCheckpoint { v } => {
                o.ann.write_cp(mem, p, 1);
                let m = CasMachine::new(o.cas.inner, p, *v, v.wrapping_add(self.delta));
                self.state = AddState::RunCas { v: *v, m };
                Poll::Pending
            }
            AddState::RunCas { v, m } => {
                if let Poll::Ready(w) = m.step(mem) {
                    if w == TRUE {
                        self.state = AddState::PersistResp { v: *v };
                    } else {
                        // Lost the race; start a fresh attempt.
                        self.state = AddState::ReadValue;
                    }
                }
                Poll::Pending
            }
            AddState::PersistResp { v } => {
                let v = *v;
                let resp = self.response(v);
                o.ann.write_resp(mem, p, resp);
                self.state = AddState::Done;
                Poll::Ready(resp)
            }
            AddState::Done => panic!("stepped a completed Add machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            AddState::ReadValue => "add:read",
            AddState::ResetInnerResp { .. } => "add:reset-resp",
            AddState::ResetInnerCp { .. } => "add:reset-cp",
            AddState::PersistArgs { .. } => "add:args",
            AddState::OuterCheckpoint { .. } => "add:cp",
            AddState::RunCas { .. } => "add:cas",
            AddState::PersistResp { .. } => "add:resp",
            AddState::Done => "add:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let (s, v, inner): (u64, u64, Vec<Word>) = match &self.state {
            AddState::ReadValue => (1, 0, vec![]),
            AddState::ResetInnerResp { v } => (2, u64::from(*v), vec![]),
            AddState::ResetInnerCp { v } => (3, u64::from(*v), vec![]),
            AddState::PersistArgs { v } => (4, u64::from(*v), vec![]),
            AddState::OuterCheckpoint { v } => (5, u64::from(*v), vec![]),
            AddState::RunCas { v, m } => (6, u64::from(*v), m.encode()),
            AddState::PersistResp { v } => (7, u64::from(*v), vec![]),
            AddState::Done => (8, 0, vec![]),
        };
        let mut out = vec![s, v, u64::from(self.delta)];
        out.extend(inner);
        out
    }
}

// ---------------------------------------------------------------------------
// Add recovery
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum AddRecState {
    CheckResp,
    CheckCp,
    ReadArg,
    RunInnerRecover {
        v: u32,
        m: CasRecoverMachine,
    },
    PersistResp {
        v: u32,
    },
    /// Inner verdict was false/fail: continue as a fresh operation.
    Retry(AddMachine),
    Done,
}

#[derive(Clone)]
struct AddRecoverMachine {
    obj: CounterInner,
    pid: Pid,
    delta: u32,
    state: AddRecState,
}

impl AddRecoverMachine {
    fn new(obj: CounterInner, pid: Pid, delta: u32) -> Self {
        AddRecoverMachine {
            obj,
            pid,
            delta,
            state: AddRecState::CheckResp,
        }
    }

    fn response(&self, v: u32) -> Word {
        match self.obj.flavor {
            Flavor::Counter => ACK,
            Flavor::Faa => u64::from(v),
        }
    }
}

impl Machine for AddRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match &mut self.state {
            AddRecState::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = AddRecState::Done;
                    return Poll::Ready(resp);
                }
                self.state = AddRecState::CheckCp;
                Poll::Pending
            }
            AddRecState::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    // Crashed before any inner CAS was announced: nothing of
                    // this operation is visible → not linearized.
                    self.state = AddRecState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = AddRecState::ReadArg;
                Poll::Pending
            }
            AddRecState::ReadArg => {
                let v = mem.read_pp(p, o.arg_loc(p)) as u32;
                let d = mem.read_pp(p, o.delta_loc(p)) as u32;
                let m = CasRecoverMachine::new(o.cas.inner, p, v, v.wrapping_add(d));
                self.state = AddRecState::RunInnerRecover { v, m };
                Poll::Pending
            }
            AddRecState::RunInnerRecover { v, m } => {
                if let Poll::Ready(w) = m.step(mem) {
                    if w == TRUE {
                        // The crashed attempt's CAS was linearized: the add
                        // happened exactly once; persist the outer response.
                        self.state = AddRecState::PersistResp { v: *v };
                    } else {
                        // false or fail: the add did not happen; finish the
                        // operation with fresh attempts (NRL-style), so the
                        // caller gets exactly-once semantics without retry
                        // logic of its own.
                        self.state = AddRecState::Retry(AddMachine::new(*o, p, self.delta));
                    }
                }
                Poll::Pending
            }
            AddRecState::PersistResp { v } => {
                let v = *v;
                let resp = self.response(v);
                o.ann.write_resp(mem, p, resp);
                self.state = AddRecState::Done;
                Poll::Ready(resp)
            }
            AddRecState::Retry(m) => {
                let r = m.step(mem);
                if let Poll::Ready(w) = r {
                    self.state = AddRecState::Done;
                    return Poll::Ready(w);
                }
                Poll::Pending
            }
            AddRecState::Done => panic!("stepped a completed Add.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            AddRecState::CheckResp => "add.rec:resp",
            AddRecState::CheckCp => "add.rec:cp",
            AddRecState::ReadArg => "add.rec:arg",
            AddRecState::RunInnerRecover { .. } => "add.rec:inner",
            AddRecState::PersistResp { .. } => "add.rec:persist",
            AddRecState::Retry(_) => "add.rec:retry",
            AddRecState::Done => "add.rec:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let (s, inner): (u64, Vec<Word>) = match &self.state {
            AddRecState::CheckResp => (1, vec![]),
            AddRecState::CheckCp => (2, vec![]),
            AddRecState::ReadArg => (3, vec![]),
            AddRecState::RunInnerRecover { v, m } => {
                let mut e = vec![u64::from(*v)];
                e.extend(m.encode());
                (4, e)
            }
            AddRecState::PersistResp { v } => (5, vec![u64::from(*v)]),
            AddRecState::Retry(m) => (6, m.encode()),
            AddRecState::Done => (7, vec![]),
        };
        let mut out = vec![s, u64::from(self.delta)];
        out.extend(inner);
        out
    }
}

// ---------------------------------------------------------------------------
// Read: delegate to the inner CAS object's read, persist the outer response
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct ReadMachine {
    obj: CounterInner,
    pid: Pid,
    val: Option<u32>,
}

impl ReadMachine {
    fn new(obj: CounterInner, pid: Pid) -> Self {
        ReadMachine {
            obj,
            pid,
            val: None,
        }
    }

    /// Inverse of [`Machine::encode`] for the composed `Read` machine.
    fn decode(obj: CounterInner, pid: Pid, words: &[Word]) -> Option<ReadMachine> {
        if words.len() != 1 {
            return None;
        }
        let val = match words[0] {
            RESP_NONE => None,
            w => Some(u32::try_from(w).ok()?),
        };
        Some(ReadMachine { obj, pid, val })
    }
}

impl Machine for ReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        match self.val {
            None => {
                // Raw read of C: the counter's own announcement records the
                // response; the inner CAS announcement stays untouched.
                self.val = Some(self.obj.cas.read_value_raw(mem, self.pid));
                Poll::Pending
            }
            Some(v) => {
                self.obj.ann.write_resp(mem, self.pid, u64::from(v));
                Poll::Ready(u64::from(v))
            }
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        if self.val.is_some() {
            "ctr.read:persist"
        } else {
            "ctr.read:inner"
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.val.map_or(RESP_NONE, u64::from)]
    }
}

#[derive(Clone)]
struct ReadRecoverMachine {
    obj: CounterInner,
    pid: Pid,
    checked: bool,
    inner: Option<ReadMachine>,
}

impl ReadRecoverMachine {
    fn new(obj: CounterInner, pid: Pid) -> Self {
        ReadRecoverMachine {
            obj,
            pid,
            checked: false,
            inner: None,
        }
    }
}

impl Machine for ReadRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        if !self.checked {
            self.checked = true;
            let resp = self.obj.ann.read_resp(mem, self.pid);
            if resp != RESP_NONE {
                return Poll::Ready(resp);
            }
            self.inner = Some(ReadMachine::new(self.obj, self.pid));
            return Poll::Pending;
        }
        self.inner
            .as_mut()
            .expect("re-invocation missing")
            .step(mem)
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        "ctr.read.rec"
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let mut v = vec![u64::from(self.checked)];
        if let Some(m) = &self.inner {
            v.extend(m.encode());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{run_to_completion, SimMemory};

    /// The handle and its descriptor are `Copy`, and no machine owns a
    /// reference count or a heap allocation: each carries its object's
    /// locations by value.
    #[test]
    fn machines_carry_locations_by_value() {
        const {
            crate::object::assert_copy::<DetectableCounter>();
            crate::object::assert_copy::<DetectableFaa>();
            crate::object::assert_copy::<CounterInner>();
            assert!(!std::mem::needs_drop::<AddMachine>());
            assert!(!std::mem::needs_drop::<AddRecoverMachine>());
            assert!(!std::mem::needs_drop::<ReadMachine>());
            assert!(!std::mem::needs_drop::<ReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, DetectableCounter) {
        let mut b = LayoutBuilder::new();
        let c = DetectableCounter::new(&mut b, n);
        (SimMemory::new(b.finish()), c)
    }

    fn run_op(obj: &impl RecoverableObject, mem: &SimMemory, pid: Pid, op: OpSpec) -> Word {
        obj.prepare(mem, pid, &op);
        let mut m = obj.invoke(pid, &op);
        run_to_completion(&mut *m, mem, 10_000).unwrap()
    }

    #[test]
    fn increments_accumulate() {
        let (mem, c) = world(2);
        for _ in 0..5 {
            assert_eq!(run_op(&c, &mem, Pid::new(0), OpSpec::Inc), ACK);
        }
        assert_eq!(run_op(&c, &mem, Pid::new(1), OpSpec::Read), 5);
        assert_eq!(c.peek_value(&mem), 5);
    }

    #[test]
    fn permute_memory_maps_executions_across_pids() {
        // The composed object delegates to the inner CAS's toggle vector;
        // its own ARG/DELTA/Ann words relocate generically.
        let (mem_a, c_a) = world(3);
        assert_eq!(run_op(&c_a, &mem_a, Pid::new(0), OpSpec::Inc), ACK);
        assert_eq!(run_op(&c_a, &mem_a, Pid::new(2), OpSpec::Read), 1);
        let (mem_b, c_b) = world(3);
        assert_eq!(run_op(&c_b, &mem_b, Pid::new(1), OpSpec::Inc), ACK);
        assert_eq!(run_op(&c_b, &mem_b, Pid::new(2), OpSpec::Read), 1);

        let perm = [1u32, 0, 2];
        let mut words = Vec::new();
        assert!(mem_a.logical_words_permuted(&perm, true, &mut words));
        assert!(c_a.permute_memory(&mut words, &perm));
        assert_eq!(words, mem_b.full_key());
        let _ = c_b;
    }

    #[test]
    fn interleaved_increments_both_count() {
        let (mem, c) = world(2);
        let p = Pid::new(0);
        let q = Pid::new(1);
        // p reads 0 and stalls before its CAS; q completes an increment; p's
        // first attempt fails and it retries.
        c.prepare(&mem, p, &OpSpec::Inc);
        let mut mp = c.invoke(p, &OpSpec::Inc);
        for _ in 0..6 {
            assert!(!mp.step(&mem).is_ready());
        }
        assert_eq!(run_op(&c, &mem, q, OpSpec::Inc), ACK);
        assert_eq!(run_to_completion(&mut *mp, &mem, 10_000).unwrap(), ACK);
        assert_eq!(c.peek_value(&mem), 2);
    }

    /// Crash an Inc at every step boundary; recovery must give exactly-once
    /// semantics: counter ends at base+1 if the verdict is ack, base if fail.
    #[test]
    fn crash_at_every_step_exactly_once() {
        // Upper bound on solo Inc steps: read(2) + resets(2) + args + cp +
        // cas(5) + resp = 12.
        for crash_after in 0..12 {
            let (mem, c) = world(2);
            let p = Pid::new(0);
            run_op(&c, &mem, p, OpSpec::Inc); // base value 1
            c.prepare(&mem, p, &OpSpec::Inc);
            let mut m = c.invoke(p, &OpSpec::Inc);
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if completed {
                assert_eq!(c.peek_value(&mem), 2);
                continue;
            }
            let mut rec = c.recover(p, &OpSpec::Inc);
            let verdict = run_to_completion(&mut *rec, &mem, 10_000).unwrap();
            match verdict {
                RESP_FAIL => assert_eq!(
                    c.peek_value(&mem),
                    1,
                    "fail verdict but increment applied (crash_after={crash_after})"
                ),
                w => {
                    assert_eq!(w, ACK);
                    assert_eq!(
                        c.peek_value(&mem),
                        2,
                        "ack verdict but count wrong (crash_after={crash_after})"
                    );
                }
            }
        }
    }

    #[test]
    fn recovery_after_completion_returns_response() {
        let (mem, c) = world(2);
        let p = Pid::new(0);
        run_op(&c, &mem, p, OpSpec::Inc);
        let mut rec = c.recover(p, &OpSpec::Inc);
        assert_eq!(run_to_completion(&mut *rec, &mem, 10_000).unwrap(), ACK);
        assert_eq!(c.peek_value(&mem), 1, "recovery must not double-apply");
    }

    #[test]
    fn faa_returns_previous_value() {
        let mut b = LayoutBuilder::new();
        let f = DetectableFaa::new(&mut b, 2);
        let mem = SimMemory::new(b.finish());
        assert_eq!(run_op(&f, &mem, Pid::new(0), OpSpec::Faa(10)), 0);
        assert_eq!(run_op(&f, &mem, Pid::new(1), OpSpec::Faa(5)), 10);
        assert_eq!(run_op(&f, &mem, Pid::new(0), OpSpec::Read), 15);
    }

    #[test]
    fn faa_crash_recovery_exactly_once() {
        let mut b = LayoutBuilder::new();
        let f = DetectableFaa::new(&mut b, 2);
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);
        for crash_after in 0..12 {
            let before = f.peek_value(&mem);
            let op = OpSpec::Faa(3);
            f.prepare(&mem, p, &op);
            let mut m = f.invoke(p, &op);
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if completed {
                assert_eq!(f.peek_value(&mem), before + 3);
                continue;
            }
            let mut rec = f.recover(p, &op);
            let verdict = run_to_completion(&mut *rec, &mem, 10_000).unwrap();
            if verdict == RESP_FAIL {
                assert_eq!(f.peek_value(&mem), before);
            } else {
                assert_eq!(verdict, u64::from(before), "FAA must return the pre-value");
                assert_eq!(f.peek_value(&mem), before + 3);
            }
        }
    }

    #[test]
    fn read_recovery_paths() {
        let (mem, c) = world(2);
        let p = Pid::new(0);
        run_op(&c, &mem, p, OpSpec::Inc);
        c.prepare(&mem, p, &OpSpec::Read);
        let mut r = c.invoke(p, &OpSpec::Read);
        let _ = r.step(&mem); // inner read of C, crash before persisting
        drop(r);
        let mut rec = c.recover(p, &OpSpec::Read);
        assert_eq!(run_to_completion(&mut *rec, &mem, 10_000).unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn counter_rejects_foreign_ops() {
        let (_, c) = world(2);
        let _ = c.invoke(Pid::new(0), &OpSpec::Write(1));
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn faa_rejects_inc() {
        let mut b = LayoutBuilder::new();
        let f = DetectableFaa::new(&mut b, 2);
        let _ = f.invoke(Pid::new(0), &OpSpec::Inc);
    }
}
