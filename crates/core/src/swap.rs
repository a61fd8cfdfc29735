//! A detectable swap (fetch-and-store), composed from the detectable CAS.
//!
//! Swap is in the paper's list of common perturbable *and* doubly-perturbing
//! objects (§5), so by Theorem 2 its detectable implementations need
//! auxiliary state; this one receives it the same way the counter does —
//! the outer `Ann_p` resets, the persisted inner-CAS argument, and the
//! caller-refreshed inner announcement.
//!
//! The implementation is the capsule pattern of Ben-David et al. that the
//! paper's Section 6 recalls ("partition the code into capsules, each
//! containing a single CAS followed by several reads, and replace each CAS
//! with its recoverable version"): each attempt is one capsule — a read of
//! `C`, a persisted checkpoint, and one detectable CAS — and recovery
//! consults the inner `Cas.Recover` to decide whether the capsule's CAS was
//! linearized.
//!
//! `Swap` is lock-free; `Read` is wait-free.

use nvm::{
    AnnBank, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, RESP_FAIL, RESP_NONE, TRUE,
};

use crate::cas::{CasMachine, CasRecoverMachine, DetectableCas};
use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

#[derive(Copy, Clone, Debug)]
struct SwapInner {
    cas: DetectableCas,
    /// Persisted `old` argument of the in-flight inner CAS attempt — both
    /// the recovery argument and the operation's response on success.
    arg: Loc,
    ann: AnnBank,
    n: u32,
}

impl SwapInner {
    fn arg_loc(&self, pid: Pid) -> Loc {
        self.arg.at(pid.idx())
    }
}

/// A detectable swap object (`Swap(v)` returns the previous value) built on
/// [`DetectableCas`].
///
/// # Example
///
/// ```
/// use detectable::{DetectableSwap, OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory};
///
/// let mut b = LayoutBuilder::new();
/// let sw = DetectableSwap::new(&mut b, 2);
/// let mem = SimMemory::new(b.finish());
/// let p = Pid::new(0);
///
/// sw.prepare(&mem, p, &OpSpec::Swap(7));
/// let mut m = sw.invoke(p, &OpSpec::Swap(7));
/// assert_eq!(run_to_completion(&mut *m, &mem, 1000).unwrap(), 0);
///
/// sw.prepare(&mem, p, &OpSpec::Swap(9));
/// let mut m2 = sw.invoke(p, &OpSpec::Swap(9));
/// assert_eq!(run_to_completion(&mut *m2, &mem, 1000).unwrap(), 7);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct DetectableSwap {
    inner: SwapInner,
}

impl DetectableSwap {
    /// Allocates a swap object for `n` processes, initially 0.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "swap", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        let cas = DetectableCas::with_name(b, &format!("{name}.cas"), n, 0);
        let arg = b.private_array(&format!("{name}.ARG"), n, 1, 32);
        let ann = AnnBank::alloc(b, name, n, 1);
        DetectableSwap {
            inner: SwapInner { cas, arg, ann, n },
        }
    }

    /// The current value (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.cas.peek_value(mem)
    }
}

impl RecoverableObject for DetectableSwap {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Swap(v) => Box::new(SwapMachine::new(self.inner, pid, v)),
            OpSpec::Read => Box::new(SwapReadMachine {
                obj: self.inner,
                pid,
                val: None,
            }),
            ref other => panic!("swap does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Swap(v) => Box::new(SwapRecoverMachine::new(self.inner, pid, v)),
            OpSpec::Read => Box::new(SwapReadRecoverMachine {
                obj: self.inner,
                pid,
                checked: false,
                inner: None,
            }),
            ref other => panic!("swap does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Swap
    }

    fn name(&self) -> &'static str {
        "detectable-swap"
    }

    /// The composition adds only pid-free private state (`ARG`, the outer
    /// `Ann`), relocated generically; delegate to the inner CAS's packed
    /// toggle vector.
    fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
        self.inner.cas.permute_memory(words, perm)
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        match *op {
            OpSpec::Swap(v) => SwapMachine::decode(self.inner, pid, v, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            OpSpec::Read => SwapReadMachine::decode(self.inner, pid, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            _ => None,
        }
    }
}

// One capsule per attempt: read C, refresh the inner announcement, persist
// the recovery argument, checkpoint, run the (detectable) CAS.
#[derive(Clone)]
enum SwState {
    ReadValue,
    ResetInnerResp { v: u32 },
    ResetInnerCp { v: u32 },
    PersistArg { v: u32 },
    OuterCheckpoint { v: u32 },
    RunCas { v: u32, m: CasMachine },
    PersistResp { v: u32 },
    Done,
}

#[derive(Clone)]
struct SwapMachine {
    obj: SwapInner,
    pid: Pid,
    val: u32,
    state: SwState,
}

impl SwapMachine {
    fn new(obj: SwapInner, pid: Pid, val: u32) -> Self {
        SwapMachine {
            obj,
            pid,
            val,
            state: SwState::ReadValue,
        }
    }

    /// Inverse of [`Machine::encode`]: rebuilds an in-flight `Swap(val)`,
    /// reconstructing a nested CAS attempt through the inner object's
    /// decoder (its `old` must agree with the attempt's observed value and
    /// its `new` with the swap argument).
    fn decode(obj: SwapInner, pid: Pid, val: u32, words: &[Word]) -> Option<SwapMachine> {
        if words.len() < 3 || words[2] != u64::from(val) {
            return None;
        }
        let v = u32::try_from(words[1]).ok()?;
        let flat = words.len() == 3;
        let state = match words[0] {
            1 if flat && v == 0 => SwState::ReadValue,
            2 if flat => SwState::ResetInnerResp { v },
            3 if flat => SwState::ResetInnerCp { v },
            4 if flat => SwState::PersistArg { v },
            5 if flat => SwState::OuterCheckpoint { v },
            6 => {
                let inner = &words[3..];
                if inner.get(1) != Some(&u64::from(v)) || inner.get(2) != Some(&u64::from(val)) {
                    return None;
                }
                let m = CasMachine::decode(obj.cas.inner, pid, v, val, inner)?;
                SwState::RunCas { v, m }
            }
            7 if flat => SwState::PersistResp { v },
            8 if flat && v == 0 => SwState::Done,
            _ => return None,
        };
        Some(SwapMachine {
            obj,
            pid,
            val,
            state,
        })
    }
}

impl Machine for SwapMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match &mut self.state {
            SwState::ReadValue => {
                let v = o.cas.read_value_raw(mem, p);
                if v == self.val {
                    // Installing the value already present: effect-free, so
                    // linearize at this read (mirrors the inner Cas(x, x)
                    // fast path, which would otherwise run and immediately
                    // succeed without changing anything).
                    self.state = SwState::PersistResp { v };
                } else {
                    self.state = SwState::ResetInnerResp { v };
                }
                Poll::Pending
            }
            SwState::ResetInnerResp { v } => {
                mem.write_pp(p, o.cas.ann().resp_loc(p), RESP_NONE);
                self.state = SwState::ResetInnerCp { v: *v };
                Poll::Pending
            }
            SwState::ResetInnerCp { v } => {
                mem.write_pp(p, o.cas.ann().cp_loc(p), 0);
                self.state = SwState::PersistArg { v: *v };
                Poll::Pending
            }
            SwState::PersistArg { v } => {
                mem.write_pp(p, o.arg_loc(p), u64::from(*v));
                self.state = SwState::OuterCheckpoint { v: *v };
                Poll::Pending
            }
            SwState::OuterCheckpoint { v } => {
                o.ann.write_cp(mem, p, 1);
                let m = CasMachine::new(o.cas.inner, p, *v, self.val);
                self.state = SwState::RunCas { v: *v, m };
                Poll::Pending
            }
            SwState::RunCas { v, m } => {
                if let Poll::Ready(w) = m.step(mem) {
                    if w == TRUE {
                        self.state = SwState::PersistResp { v: *v };
                    } else {
                        self.state = SwState::ReadValue;
                    }
                }
                Poll::Pending
            }
            SwState::PersistResp { v } => {
                let resp = u64::from(*v);
                o.ann.write_resp(mem, p, resp);
                self.state = SwState::Done;
                Poll::Ready(resp)
            }
            SwState::Done => panic!("stepped a completed Swap machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            SwState::ReadValue => "swap:read",
            SwState::ResetInnerResp { .. } => "swap:reset-resp",
            SwState::ResetInnerCp { .. } => "swap:reset-cp",
            SwState::PersistArg { .. } => "swap:arg",
            SwState::OuterCheckpoint { .. } => "swap:cp",
            SwState::RunCas { .. } => "swap:cas",
            SwState::PersistResp { .. } => "swap:resp",
            SwState::Done => "swap:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let (s, v, inner): (u64, u64, Vec<Word>) = match &self.state {
            SwState::ReadValue => (1, 0, vec![]),
            SwState::ResetInnerResp { v } => (2, u64::from(*v), vec![]),
            SwState::ResetInnerCp { v } => (3, u64::from(*v), vec![]),
            SwState::PersistArg { v } => (4, u64::from(*v), vec![]),
            SwState::OuterCheckpoint { v } => (5, u64::from(*v), vec![]),
            SwState::RunCas { v, m } => (6, u64::from(*v), m.encode()),
            SwState::PersistResp { v } => (7, u64::from(*v), vec![]),
            SwState::Done => (8, 0, vec![]),
        };
        let mut out = vec![s, v, u64::from(self.val)];
        out.extend(inner);
        out
    }
}

#[derive(Clone)]
enum SwRecState {
    CheckResp,
    CheckCp,
    ReadArg,
    RunInnerRecover { v: u32, m: CasRecoverMachine },
    PersistResp { v: u32 },
    Retry(SwapMachine),
    Done,
}

#[derive(Clone)]
struct SwapRecoverMachine {
    obj: SwapInner,
    pid: Pid,
    val: u32,
    state: SwRecState,
}

impl SwapRecoverMachine {
    fn new(obj: SwapInner, pid: Pid, val: u32) -> Self {
        SwapRecoverMachine {
            obj,
            pid,
            val,
            state: SwRecState::CheckResp,
        }
    }
}

impl Machine for SwapRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match &mut self.state {
            SwRecState::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = SwRecState::Done;
                    return Poll::Ready(resp);
                }
                self.state = SwRecState::CheckCp;
                Poll::Pending
            }
            SwRecState::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    self.state = SwRecState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = SwRecState::ReadArg;
                Poll::Pending
            }
            SwRecState::ReadArg => {
                let v = mem.read_pp(p, o.arg_loc(p)) as u32;
                let m = CasRecoverMachine::new(o.cas.inner, p, v, self.val);
                self.state = SwRecState::RunInnerRecover { v, m };
                Poll::Pending
            }
            SwRecState::RunInnerRecover { v, m } => {
                if let Poll::Ready(w) = m.step(mem) {
                    if w == TRUE {
                        self.state = SwRecState::PersistResp { v: *v };
                    } else {
                        // Not applied: finish the swap with fresh attempts.
                        self.state = SwRecState::Retry(SwapMachine::new(*o, p, self.val));
                    }
                }
                Poll::Pending
            }
            SwRecState::PersistResp { v } => {
                let resp = u64::from(*v);
                o.ann.write_resp(mem, p, resp);
                self.state = SwRecState::Done;
                Poll::Ready(resp)
            }
            SwRecState::Retry(m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    self.state = SwRecState::Done;
                    return Poll::Ready(w);
                }
                Poll::Pending
            }
            SwRecState::Done => panic!("stepped a completed Swap.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            SwRecState::CheckResp => "swap.rec:resp",
            SwRecState::CheckCp => "swap.rec:cp",
            SwRecState::ReadArg => "swap.rec:arg",
            SwRecState::RunInnerRecover { .. } => "swap.rec:inner",
            SwRecState::PersistResp { .. } => "swap.rec:persist",
            SwRecState::Retry(_) => "swap.rec:retry",
            SwRecState::Done => "swap.rec:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let (s, inner): (u64, Vec<Word>) = match &self.state {
            SwRecState::CheckResp => (1, vec![]),
            SwRecState::CheckCp => (2, vec![]),
            SwRecState::ReadArg => (3, vec![]),
            SwRecState::RunInnerRecover { v, m } => {
                let mut e = vec![u64::from(*v)];
                e.extend(m.encode());
                (4, e)
            }
            SwRecState::PersistResp { v } => (5, vec![u64::from(*v)]),
            SwRecState::Retry(m) => (6, m.encode()),
            SwRecState::Done => (7, vec![]),
        };
        let mut out = vec![s, u64::from(self.val)];
        out.extend(inner);
        out
    }
}

#[derive(Clone)]
struct SwapReadMachine {
    obj: SwapInner,
    pid: Pid,
    val: Option<u32>,
}

impl SwapReadMachine {
    /// Inverse of [`Machine::encode`] for the composed `Read` machine.
    fn decode(obj: SwapInner, pid: Pid, words: &[Word]) -> Option<SwapReadMachine> {
        if words.len() != 1 {
            return None;
        }
        let val = match words[0] {
            RESP_NONE => None,
            w => Some(u32::try_from(w).ok()?),
        };
        Some(SwapReadMachine { obj, pid, val })
    }
}

impl Machine for SwapReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        match self.val {
            None => {
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
        "swap.read"
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.val.map_or(RESP_NONE, u64::from)]
    }
}

#[derive(Clone)]
struct SwapReadRecoverMachine {
    obj: SwapInner,
    pid: Pid,
    checked: bool,
    inner: Option<SwapReadMachine>,
}

impl Machine for SwapReadRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        if !self.checked {
            self.checked = true;
            let resp = self.obj.ann.read_resp(mem, self.pid);
            if resp != RESP_NONE {
                return Poll::Ready(resp);
            }
            self.inner = Some(SwapReadMachine {
                obj: self.obj,
                pid: self.pid,
                val: None,
            });
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
        "swap.read.rec"
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
            crate::object::assert_copy::<DetectableSwap>();
            crate::object::assert_copy::<SwapInner>();
            assert!(!std::mem::needs_drop::<SwapMachine>());
            assert!(!std::mem::needs_drop::<SwapRecoverMachine>());
            assert!(!std::mem::needs_drop::<SwapReadMachine>());
            assert!(!std::mem::needs_drop::<SwapReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, DetectableSwap) {
        let mut b = LayoutBuilder::new();
        let s = DetectableSwap::new(&mut b, n);
        (SimMemory::new(b.finish()), s)
    }

    fn run_op(s: &DetectableSwap, mem: &SimMemory, pid: Pid, op: OpSpec) -> Word {
        s.prepare(mem, pid, &op);
        let mut m = s.invoke(pid, &op);
        run_to_completion(&mut *m, mem, 10_000).unwrap()
    }

    #[test]
    fn swap_returns_previous_value() {
        let (mem, s) = world(2);
        assert_eq!(run_op(&s, &mem, Pid::new(0), OpSpec::Swap(5)), 0);
        assert_eq!(run_op(&s, &mem, Pid::new(1), OpSpec::Swap(9)), 5);
        assert_eq!(run_op(&s, &mem, Pid::new(0), OpSpec::Read), 9);
    }

    #[test]
    fn swap_to_same_value_is_effect_free() {
        let (mem, s) = world(2);
        run_op(&s, &mem, Pid::new(0), OpSpec::Swap(4));
        assert_eq!(run_op(&s, &mem, Pid::new(1), OpSpec::Swap(4)), 4);
        assert_eq!(s.peek_value(&mem), 4);
    }

    #[test]
    fn crash_at_every_step_exactly_once() {
        for crash_after in 0..12 {
            let (mem, s) = world(2);
            let p = Pid::new(0);
            run_op(&s, &mem, p, OpSpec::Swap(3)); // base value 3
            let op = OpSpec::Swap(8);
            s.prepare(&mem, p, &op);
            let mut m = s.invoke(p, &op);
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if completed {
                assert_eq!(s.peek_value(&mem), 8);
                continue;
            }
            let mut rec = s.recover(p, &op);
            let verdict = run_to_completion(&mut *rec, &mem, 10_000).unwrap();
            if verdict == RESP_FAIL {
                assert_eq!(s.peek_value(&mem), 3, "crash_after={crash_after}");
            } else {
                assert_eq!(verdict, 3, "swap must return the pre-value");
                assert_eq!(s.peek_value(&mem), 8, "crash_after={crash_after}");
            }
        }
    }

    #[test]
    fn contended_swaps_chain() {
        // p reads then stalls; q swaps; p's CAS fails and it retries with
        // the fresh value — the chain of previous-values stays consistent.
        let (mem, s) = world(2);
        let p = Pid::new(0);
        let q = Pid::new(1);
        let op = OpSpec::Swap(10);
        s.prepare(&mem, p, &op);
        let mut mp = s.invoke(p, &op);
        for _ in 0..5 {
            assert!(!mp.step(&mem).is_ready());
        }
        assert_eq!(run_op(&s, &mem, q, OpSpec::Swap(20)), 0);
        assert_eq!(run_to_completion(&mut *mp, &mem, 10_000).unwrap(), 20);
        assert_eq!(s.peek_value(&mem), 10);
    }

    #[test]
    fn recovery_after_completion_is_idempotent() {
        let (mem, s) = world(2);
        let p = Pid::new(0);
        let op = OpSpec::Swap(6);
        assert_eq!(run_op(&s, &mem, p, op), 0);
        let mut rec = s.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 10_000).unwrap(), 0);
        assert_eq!(s.peek_value(&mem), 6, "no double apply");
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn rejects_foreign_ops() {
        let (_, s) = world(2);
        let _ = s.invoke(Pid::new(0), &OpSpec::Inc);
    }
}
