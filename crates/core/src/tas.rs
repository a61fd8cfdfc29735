//! A detectable resettable test-and-set, composed from the detectable CAS.
//!
//! The paper's Section 1 recalls the result of Attiya et al. that every
//! lock-free detectable test-and-set built from non-recoverable test-and-set
//! objects needs unbounded space. Building it from the bounded-space
//! detectable **CAS** instead sidesteps that lower bound: this object uses
//! bounded space because Algorithm 2 does.
//!
//! The value domain is `{0, 1}`. `TestAndSet` returns the previous value and
//! sets the object; `Reset` clears it; `Read` observes it. `TestAndSet` is
//! wait-free (one CAS attempt suffices: if `Cas(0, 1)` fails, some state
//! change to 1 happened within the operation's interval, so returning 1
//! linearizes there). `Reset` is lock-free.

use nvm::{
    AnnBank, LayoutBuilder, Machine, Memory, Pid, Poll, Word, ACK, RESP_FAIL, RESP_NONE, TRUE,
};

use crate::cas::{CasMachine, CasRecoverMachine, DetectableCas};
use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

#[derive(Copy, Clone, Debug)]
struct TasInner {
    cas: DetectableCas,
    ann: AnnBank,
    n: u32,
}

/// A detectable resettable test-and-set object built on [`DetectableCas`].
///
/// # Example
///
/// ```
/// use detectable::{DetectableTas, OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, ACK};
///
/// let mut b = LayoutBuilder::new();
/// let tas = DetectableTas::new(&mut b, 2);
/// let mem = SimMemory::new(b.finish());
/// let p = Pid::new(0);
///
/// tas.prepare(&mem, p, &OpSpec::TestAndSet);
/// let mut m = tas.invoke(p, &OpSpec::TestAndSet);
/// assert_eq!(run_to_completion(&mut *m, &mem, 100).unwrap(), 0); // won
///
/// tas.prepare(&mem, p, &OpSpec::TestAndSet);
/// let mut m2 = tas.invoke(p, &OpSpec::TestAndSet);
/// assert_eq!(run_to_completion(&mut *m2, &mem, 100).unwrap(), 1); // already set
/// ```
#[derive(Copy, Clone, Debug)]
pub struct DetectableTas {
    inner: TasInner,
}

impl DetectableTas {
    /// Allocates a test-and-set object for `n` processes, initially clear.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "tas", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        let cas = DetectableCas::with_name(b, &format!("{name}.cas"), n, 0);
        let ann = AnnBank::alloc(b, name, n, 1);
        DetectableTas {
            inner: TasInner { cas, ann, n },
        }
    }

    /// The current bit (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.cas.peek_value(mem)
    }
}

impl RecoverableObject for DetectableTas {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match op {
            OpSpec::TestAndSet => Box::new(TasMachine::new(self.inner, pid, TasFlavor::Set)),
            OpSpec::Reset => Box::new(TasMachine::new(self.inner, pid, TasFlavor::Reset)),
            OpSpec::Read => Box::new(TasReadMachine {
                obj: self.inner,
                pid,
                val: None,
            }),
            other => panic!("tas does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match op {
            OpSpec::TestAndSet => Box::new(TasRecoverMachine::new(self.inner, pid, TasFlavor::Set)),
            OpSpec::Reset => Box::new(TasRecoverMachine::new(self.inner, pid, TasFlavor::Reset)),
            OpSpec::Read => Box::new(TasReadRecoverMachine {
                obj: self.inner,
                pid,
                checked: false,
                inner: None,
            }),
            other => panic!("tas does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Tas
    }

    fn name(&self) -> &'static str {
        "detectable-tas"
    }

    /// The composition adds only the pid-free outer `Ann`, relocated
    /// generically; delegate to the inner CAS's packed toggle vector.
    fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
        self.inner.cas.permute_memory(words, perm)
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        let flavor = match op {
            OpSpec::TestAndSet => TasFlavor::Set,
            OpSpec::Reset => TasFlavor::Reset,
            OpSpec::Read => {
                return TasReadMachine::decode(self.inner, pid, words)
                    .map(|m| Box::new(m) as Box<dyn Machine>)
            }
            _ => return None,
        };
        TasMachine::decode(self.inner, pid, flavor, words).map(|m| Box::new(m) as Box<dyn Machine>)
    }
}

/// Which operation the shared machine is executing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TasFlavor {
    /// `TestAndSet`: `Cas(0, 1)`, returns the previous bit.
    Set,
    /// `Reset`: `Cas(1, 0)` loop, returns `ack`.
    Reset,
}

impl TasFlavor {
    fn cas_args(self) -> (u32, u32) {
        match self {
            TasFlavor::Set => (0, 1),
            TasFlavor::Reset => (1, 0),
        }
    }
}

#[derive(Clone)]
enum TState {
    ReadValue,
    ResetInnerResp,
    ResetInnerCp,
    OuterCheckpoint,
    RunCas(CasMachine),
    PersistResp(Word),
    Done,
}

#[derive(Clone)]
struct TasMachine {
    obj: TasInner,
    pid: Pid,
    flavor: TasFlavor,
    state: TState,
}

impl TasMachine {
    fn new(obj: TasInner, pid: Pid, flavor: TasFlavor) -> Self {
        TasMachine {
            obj,
            pid,
            flavor,
            state: TState::ReadValue,
        }
    }

    /// Inverse of [`Machine::encode`]: rebuilds an in-flight `TestAndSet`
    /// or `Reset`, routing a nested CAS attempt through the inner object's
    /// decoder (its arguments are fixed by the flavor).
    fn decode(obj: TasInner, pid: Pid, flavor: TasFlavor, words: &[Word]) -> Option<TasMachine> {
        if words.len() < 2 || words[1] != flavor as u64 {
            return None;
        }
        let rest = &words[2..];
        let state = match words[0] {
            1 if rest.is_empty() => TState::ReadValue,
            2 if rest.is_empty() => TState::ResetInnerResp,
            3 if rest.is_empty() => TState::ResetInnerCp,
            4 if rest.is_empty() => TState::OuterCheckpoint,
            5 => {
                let (old, new) = flavor.cas_args();
                if rest.get(1) != Some(&u64::from(old)) || rest.get(2) != Some(&u64::from(new)) {
                    return None;
                }
                TState::RunCas(CasMachine::decode(obj.cas.inner, pid, old, new, rest)?)
            }
            6 if rest.len() == 1 => TState::PersistResp(rest[0]),
            7 if rest.is_empty() => TState::Done,
            _ => return None,
        };
        Some(TasMachine {
            obj,
            pid,
            flavor,
            state,
        })
    }
}

impl Machine for TasMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match &mut self.state {
            TState::ReadValue => {
                let v = o.cas.read_value_raw(mem, p);
                match (self.flavor, v) {
                    // TestAndSet on an already-set object: linearize at this
                    // read, return 1.
                    (TasFlavor::Set, 1) => self.state = TState::PersistResp(1),
                    // Reset on an already-clear object: linearize here.
                    (TasFlavor::Reset, 0) => self.state = TState::PersistResp(ACK),
                    _ => self.state = TState::ResetInnerResp,
                }
                Poll::Pending
            }
            TState::ResetInnerResp => {
                mem.write_pp(p, o.cas.ann().resp_loc(p), RESP_NONE);
                self.state = TState::ResetInnerCp;
                Poll::Pending
            }
            TState::ResetInnerCp => {
                mem.write_pp(p, o.cas.ann().cp_loc(p), 0);
                self.state = TState::OuterCheckpoint;
                Poll::Pending
            }
            TState::OuterCheckpoint => {
                o.ann.write_cp(mem, p, 1);
                let (old, new) = self.flavor.cas_args();
                let m = CasMachine::new(o.cas.inner, p, old, new);
                self.state = TState::RunCas(m);
                Poll::Pending
            }
            TState::RunCas(m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    match (self.flavor, w == TRUE) {
                        // Won the CAS: the bit was 0, we set it.
                        (TasFlavor::Set, true) => self.state = TState::PersistResp(0),
                        // Lost the CAS: some transition to 1 happened inside
                        // our interval (possibly 0→1→0, but a 1-state existed)
                        // → linearize the failed TAS there, return 1.
                        (TasFlavor::Set, false) => self.state = TState::PersistResp(1),
                        (TasFlavor::Reset, true) => self.state = TState::PersistResp(ACK),
                        // Reset lost a race: retry until the object is clear.
                        (TasFlavor::Reset, false) => self.state = TState::ReadValue,
                    }
                }
                Poll::Pending
            }
            TState::PersistResp(w) => {
                let w = *w;
                o.ann.write_resp(mem, p, w);
                self.state = TState::Done;
                Poll::Ready(w)
            }
            TState::Done => panic!("stepped a completed TAS machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            TState::ReadValue => "tas:read",
            TState::ResetInnerResp => "tas:reset-resp",
            TState::ResetInnerCp => "tas:reset-cp",
            TState::OuterCheckpoint => "tas:cp",
            TState::RunCas(_) => "tas:cas",
            TState::PersistResp(_) => "tas:resp",
            TState::Done => "tas:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let (s, inner): (u64, Vec<Word>) = match &self.state {
            TState::ReadValue => (1, vec![]),
            TState::ResetInnerResp => (2, vec![]),
            TState::ResetInnerCp => (3, vec![]),
            TState::OuterCheckpoint => (4, vec![]),
            TState::RunCas(m) => (5, m.encode()),
            TState::PersistResp(w) => (6, vec![*w]),
            TState::Done => (7, vec![]),
        };
        let mut out = vec![s, self.flavor as u64];
        out.extend(inner);
        out
    }
}

#[derive(Clone)]
enum TRecState {
    CheckResp,
    CheckCp,
    RunInnerRecover(CasRecoverMachine),
    PersistResp(Word),
    Retry(TasMachine),
    Done,
}

#[derive(Clone)]
struct TasRecoverMachine {
    obj: TasInner,
    pid: Pid,
    flavor: TasFlavor,
    state: TRecState,
}

impl TasRecoverMachine {
    fn new(obj: TasInner, pid: Pid, flavor: TasFlavor) -> Self {
        TasRecoverMachine {
            obj,
            pid,
            flavor,
            state: TRecState::CheckResp,
        }
    }
}

impl Machine for TasRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match &mut self.state {
            TRecState::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = TRecState::Done;
                    return Poll::Ready(resp);
                }
                self.state = TRecState::CheckCp;
                Poll::Pending
            }
            TRecState::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    self.state = TRecState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                let (old, new) = self.flavor.cas_args();
                let m = CasRecoverMachine::new(o.cas.inner, p, old, new);
                self.state = TRecState::RunInnerRecover(m);
                Poll::Pending
            }
            TRecState::RunInnerRecover(m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    match (self.flavor, w) {
                        (TasFlavor::Set, TRUE) => self.state = TRecState::PersistResp(0),
                        // Inner CAS completed with false: a 1-state existed in
                        // the interval → the TAS may return 1.
                        (TasFlavor::Set, nvm::FALSE) => self.state = TRecState::PersistResp(1),
                        // Inner fail: we cannot tell "never ran" from "ran
                        // and lost"; a failed TAS has no effect, so declaring
                        // it not-linearized is always sound.
                        (TasFlavor::Set, _) => {
                            self.state = TRecState::Done;
                            return Poll::Ready(RESP_FAIL);
                        }
                        (TasFlavor::Reset, TRUE) => self.state = TRecState::PersistResp(ACK),
                        // Reset did not take effect yet: finish it NRL-style
                        // (resets are safe to re-execute).
                        (TasFlavor::Reset, _) => {
                            self.state = TRecState::Retry(TasMachine::new(*o, p, TasFlavor::Reset))
                        }
                    }
                }
                Poll::Pending
            }
            TRecState::PersistResp(w) => {
                let w = *w;
                o.ann.write_resp(mem, p, w);
                self.state = TRecState::Done;
                Poll::Ready(w)
            }
            TRecState::Retry(m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    self.state = TRecState::Done;
                    return Poll::Ready(w);
                }
                Poll::Pending
            }
            TRecState::Done => panic!("stepped a completed TAS.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            TRecState::CheckResp => "tas.rec:resp",
            TRecState::CheckCp => "tas.rec:cp",
            TRecState::RunInnerRecover(_) => "tas.rec:inner",
            TRecState::PersistResp(_) => "tas.rec:persist",
            TRecState::Retry(_) => "tas.rec:retry",
            TRecState::Done => "tas.rec:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let (s, inner): (u64, Vec<Word>) = match &self.state {
            TRecState::CheckResp => (1, vec![]),
            TRecState::CheckCp => (2, vec![]),
            TRecState::RunInnerRecover(m) => (3, m.encode()),
            TRecState::PersistResp(w) => (4, vec![*w]),
            TRecState::Retry(m) => (5, m.encode()),
            TRecState::Done => (6, vec![]),
        };
        let mut out = vec![s, self.flavor as u64];
        out.extend(inner);
        out
    }
}

#[derive(Clone)]
struct TasReadMachine {
    obj: TasInner,
    pid: Pid,
    val: Option<u32>,
}

impl TasReadMachine {
    /// Inverse of [`Machine::encode`] for the composed `Read` machine.
    fn decode(obj: TasInner, pid: Pid, words: &[Word]) -> Option<TasReadMachine> {
        if words.len() != 1 {
            return None;
        }
        let val = match words[0] {
            RESP_NONE => None,
            w => Some(u32::try_from(w).ok()?),
        };
        Some(TasReadMachine { obj, pid, val })
    }
}

impl Machine for TasReadMachine {
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
        "tas.read"
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.val.map_or(RESP_NONE, u64::from)]
    }
}

#[derive(Clone)]
struct TasReadRecoverMachine {
    obj: TasInner,
    pid: Pid,
    checked: bool,
    inner: Option<TasReadMachine>,
}

impl Machine for TasReadRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        if !self.checked {
            self.checked = true;
            let resp = self.obj.ann.read_resp(mem, self.pid);
            if resp != RESP_NONE {
                return Poll::Ready(resp);
            }
            self.inner = Some(TasReadMachine {
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
        "tas.read.rec"
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
            crate::object::assert_copy::<DetectableTas>();
            crate::object::assert_copy::<TasInner>();
            assert!(!std::mem::needs_drop::<TasMachine>());
            assert!(!std::mem::needs_drop::<TasRecoverMachine>());
            assert!(!std::mem::needs_drop::<TasReadMachine>());
            assert!(!std::mem::needs_drop::<TasReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, DetectableTas) {
        let mut b = LayoutBuilder::new();
        let t = DetectableTas::new(&mut b, n);
        (SimMemory::new(b.finish()), t)
    }

    fn run_op(t: &DetectableTas, mem: &SimMemory, pid: Pid, op: OpSpec) -> Word {
        t.prepare(mem, pid, &op);
        let mut m = t.invoke(pid, &op);
        run_to_completion(&mut *m, mem, 10_000).unwrap()
    }

    #[test]
    fn first_tas_wins_second_loses() {
        let (mem, t) = world(2);
        assert_eq!(run_op(&t, &mem, Pid::new(0), OpSpec::TestAndSet), 0);
        assert_eq!(run_op(&t, &mem, Pid::new(1), OpSpec::TestAndSet), 1);
        assert_eq!(run_op(&t, &mem, Pid::new(0), OpSpec::Read), 1);
    }

    #[test]
    fn reset_clears() {
        let (mem, t) = world(2);
        run_op(&t, &mem, Pid::new(0), OpSpec::TestAndSet);
        assert_eq!(run_op(&t, &mem, Pid::new(1), OpSpec::Reset), ACK);
        assert_eq!(run_op(&t, &mem, Pid::new(0), OpSpec::Read), 0);
        assert_eq!(run_op(&t, &mem, Pid::new(1), OpSpec::TestAndSet), 0);
    }

    #[test]
    fn reset_on_clear_object_is_noop() {
        let (mem, t) = world(2);
        assert_eq!(run_op(&t, &mem, Pid::new(0), OpSpec::Reset), ACK);
        assert_eq!(t.peek_value(&mem), 0);
    }

    #[test]
    fn racing_tas_exactly_one_winner() {
        let (mem, t) = world(2);
        let p = Pid::new(0);
        let q = Pid::new(1);
        t.prepare(&mem, p, &OpSpec::TestAndSet);
        let mut mp = t.invoke(p, &OpSpec::TestAndSet);
        // p reads 0 and stops before its CAS completes (read + 2 resets + cp = 4 steps).
        for _ in 0..4 {
            assert!(!mp.step(&mem).is_ready());
        }
        assert_eq!(run_op(&t, &mem, q, OpSpec::TestAndSet), 0, "q wins");
        let w = run_to_completion(&mut *mp, &mem, 10_000).unwrap();
        assert_eq!(w, 1, "p must lose");
    }

    #[test]
    fn crash_at_every_step_tas() {
        for crash_after in 0..10 {
            let (mem, t) = world(2);
            let p = Pid::new(0);
            t.prepare(&mem, p, &OpSpec::TestAndSet);
            let mut m = t.invoke(p, &OpSpec::TestAndSet);
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if completed {
                continue;
            }
            let mut rec = t.recover(p, &OpSpec::TestAndSet);
            let verdict = run_to_completion(&mut *rec, &mem, 10_000).unwrap();
            let bit = t.peek_value(&mem);
            match verdict {
                RESP_FAIL => assert_eq!(bit, 0, "fail but bit set (crash_after={crash_after})"),
                0 => assert_eq!(bit, 1, "won but bit clear (crash_after={crash_after})"),
                other => panic!("unexpected solo verdict {other}"),
            }
        }
    }

    #[test]
    fn crash_during_reset_recovers() {
        let (mem, t) = world(2);
        let p = Pid::new(0);
        run_op(&t, &mem, p, OpSpec::TestAndSet);
        for crash_after in 0..8 {
            t.prepare(&mem, p, &OpSpec::Reset);
            let mut m = t.invoke(p, &OpSpec::Reset);
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if !completed {
                let mut rec = t.recover(p, &OpSpec::Reset);
                let w = run_to_completion(&mut *rec, &mem, 10_000).unwrap();
                assert!(w == ACK || w == RESP_FAIL);
                if w == RESP_FAIL {
                    // Not linearized: the bit must still be set.
                    assert_eq!(t.peek_value(&mem), 1);
                    continue;
                }
            }
            assert_eq!(t.peek_value(&mem), 0);
            // Re-arm for next iteration.
            run_op(&t, &mem, p, OpSpec::TestAndSet);
        }
    }

    #[test]
    fn read_recovery() {
        let (mem, t) = world(2);
        let p = Pid::new(0);
        run_op(&t, &mem, p, OpSpec::TestAndSet);
        t.prepare(&mem, p, &OpSpec::Read);
        let mut r = t.invoke(p, &OpSpec::Read);
        let _ = r.step(&mem);
        drop(r);
        let mut rec = t.recover(p, &OpSpec::Read);
        assert_eq!(run_to_completion(&mut *rec, &mem, 10_000).unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn rejects_foreign_ops() {
        let (_, t) = world(2);
        let _ = t.invoke(Pid::new(0), &OpSpec::Inc);
    }
}
