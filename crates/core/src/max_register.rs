//! **Algorithm 3** — a detectable max register using *no auxiliary state*.
//!
//! Theorem 2 of the paper proves that every *doubly-perturbing* object needs
//! auxiliary state for detectability. The max register is perturbable but
//! **not** doubly-perturbing (Lemma 4): once `writeMax(v)` is linearized,
//! repeating it cannot change any other operation's response. Algorithm 3
//! exploits this to give a detectable implementation whose operations receive
//! nothing from the outside — [`RecoverableObject::prepare`] is a no-op for
//! this object, and both recovery functions simply re-invoke the
//! (idempotent) operation.
//!
//! The register is an array `MR[N]` where process `p` writes only `MR[p]`;
//! the logical value is `max_i MR[i]`. `Read` repeatedly collects the array
//! until two consecutive collects agree (a *double collect*, which yields a
//! valid snapshot), then returns the maximum. `Write-Max` is wait-free;
//! `Read` is obstruction-free (a concurrent writer can force re-collection),
//! matching the paper's weak-obstruction-freedom setting.
//!
//! # Example
//!
//! ```
//! use detectable::{MaxRegister, OpSpec, RecoverableObject};
//! use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, ACK};
//!
//! let mut b = LayoutBuilder::new();
//! let mr = MaxRegister::new(&mut b, 2);
//! let mem = SimMemory::new(b.finish());
//!
//! let mut w = mr.invoke(Pid::new(0), &OpSpec::WriteMax(7));
//! assert_eq!(run_to_completion(&mut *w, &mem, 100).unwrap(), ACK);
//! let mut w2 = mr.invoke(Pid::new(1), &OpSpec::WriteMax(3));
//! assert_eq!(run_to_completion(&mut *w2, &mem, 100).unwrap(), ACK);
//!
//! let mut r = mr.invoke(Pid::new(1), &OpSpec::Read);
//! assert_eq!(run_to_completion(&mut *r, &mem, 100).unwrap(), 7);
//! ```

use nvm::{encode_to_vec, AnnBank, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, ACK};

use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

#[derive(Copy, Clone, Debug)]
pub(crate) struct MaxRegInner {
    n: u32,
    mr: Loc,
    // Ann.resp is written by Read (paper line 54) but never *provided* to an
    // operation: prepare() is a no-op, so this is not auxiliary state in the
    // sense of Definition 1.
    ann: AnnBank,
}

impl MaxRegInner {
    fn mr_loc(&self, i: u32) -> Loc {
        self.mr.at(i as usize)
    }
}

/// The detectable, auxiliary-state-free max register of paper Section 5.
///
/// Supports [`OpSpec::WriteMax`] and [`OpSpec::Read`]. Its existence
/// separates doubly-perturbing objects (which *must* receive auxiliary
/// state, Theorem 2) from merely perturbable ones.
#[derive(Copy, Clone, Debug)]
pub struct MaxRegister {
    inner: MaxRegInner,
}

impl MaxRegister {
    /// Allocates a max register for `n` processes, initially 0.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "maxreg", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        assert!(n >= 1, "n must be positive");
        let mr = b.shared(&format!("{name}.MR"), n, 32);
        let ann = AnnBank::alloc(b, name, n, 1);
        MaxRegister {
            inner: MaxRegInner { n, mr, ann },
        }
    }

    /// The current logical value `max_i MR[i]` (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        (0..self.inner.n)
            .map(|i| mem.read(Pid::new(0), self.inner.mr_loc(i)) as u32)
            .max()
            .unwrap_or(0)
    }
}

impl RecoverableObject for MaxRegister {
    /// **No auxiliary state**: nothing is written between invocations.
    fn prepare(&self, _mem: &dyn Memory, _pid: Pid, _op: &OpSpec) {}

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::WriteMax(v) => Box::new(WriteMaxMachine::new(self.inner, pid, v)),
            OpSpec::Read => Box::new(MaxReadMachine::new(self.inner, pid)),
            ref other => panic!("max register does not support {other}"),
        }
    }

    /// Recovery re-invokes the idempotent operation (paper: "the recovery
    /// function of each of these operations simply re-invokes the
    /// operation").
    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        self.invoke(pid, op)
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::MaxRegister
    }

    fn name(&self) -> &'static str {
        "max-register"
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        match *op {
            OpSpec::WriteMax(v) => WriteMaxMachine::decode(self.inner, pid, v, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            OpSpec::Read => MaxReadMachine::decode(self.inner, pid, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            _ => None,
        }
    }

    // No `permute_memory`: although `MR` itself relocates trivially, the
    // `Read` double-collect scans `MR[0..N]` in **fixed index order**, so
    // renaming processes is not an automorphism of the step relation — a
    // concurrent `Write-Max` landing on an already-scanned versus
    // not-yet-scanned slot branches differently after relocation, changing
    // subtree shapes. Symmetry-reduced exploration therefore treats the
    // max register as opaque (merging under relocation alone demonstrably
    // skews leaf totals).
}

// ---------------------------------------------------------------------------
// Write-Max (paper lines 47–49)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum WMState {
    L47,
    L48,
    Done,
}

#[derive(Clone)]
struct WriteMaxMachine {
    obj: MaxRegInner,
    pid: Pid,
    val: u32,
    state: WMState,
}

impl WriteMaxMachine {
    fn new(obj: MaxRegInner, pid: Pid, val: u32) -> Self {
        WriteMaxMachine {
            obj,
            pid,
            val,
            state: WMState::L47,
        }
    }

    /// Inverse of [`Machine::encode`] for `WriteMax(val)`.
    fn decode(obj: MaxRegInner, pid: Pid, val: u32, words: &[Word]) -> Option<WriteMaxMachine> {
        if words.len() != 2 || words[1] != u64::from(val) {
            return None;
        }
        let state = match words[0] {
            47 => WMState::L47,
            48 => WMState::L48,
            49 => WMState::Done,
            _ => return None,
        };
        Some(WriteMaxMachine {
            obj,
            pid,
            val,
            state,
        })
    }
}

impl Machine for WriteMaxMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            WMState::L47 => {
                // 47: if MR[p] < val
                let cur = mem.read_pp(p, o.mr_loc(p.get())) as u32;
                if cur < self.val {
                    self.state = WMState::L48;
                    Poll::Pending
                } else {
                    // 49: return ack
                    self.state = WMState::Done;
                    Poll::Ready(ACK)
                }
            }
            WMState::L48 => {
                // 48: MR[p] := val
                mem.write_pp(p, o.mr_loc(p.get()), u64::from(self.val));
                self.state = WMState::Done;
                Poll::Ready(ACK)
            }
            WMState::Done => panic!("stepped a completed Write-Max machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            WMState::L47 => "writemax:47",
            WMState::L48 => "writemax:48",
            WMState::Done => "writemax:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        encode_to_vec(self)
    }

    fn encode_into(&self, out: &mut Vec<Word>) {
        let s = match self.state {
            WMState::L47 => 47,
            WMState::L48 => 48,
            WMState::Done => 49,
        };
        out.extend_from_slice(&[s, u64::from(self.val)]);
    }
}

// ---------------------------------------------------------------------------
// Read (paper lines 50–55): double collect
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Debug)]
enum MRState {
    /// Comparing `a` against `MR`, index by index (paper line 51).
    Verify(u32),
    /// Re-copying `MR` into `a` after a mismatch (paper line 52).
    Collect(u32),
    /// Persist the response (paper line 54).
    Persist,
    Done,
}

#[derive(Clone)]
struct MaxReadMachine {
    obj: MaxRegInner,
    pid: Pid,
    state: MRState,
    a: Vec<u32>,
    res: u32,
}

impl MaxReadMachine {
    fn new(obj: MaxRegInner, pid: Pid) -> Self {
        // 50: a[N], initially all 0.
        let n = obj.n as usize;
        MaxReadMachine {
            obj,
            pid,
            state: MRState::Verify(0),
            a: vec![0; n],
            res: 0,
        }
    }

    /// Inverse of [`Machine::encode`] for `Read`.
    fn decode(obj: MaxRegInner, pid: Pid, words: &[Word]) -> Option<MaxReadMachine> {
        let n = obj.n;
        if words.len() != 2 + n as usize {
            return None;
        }
        let state = match words[0] {
            54 => MRState::Persist,
            55 => MRState::Done,
            s if (100..100 + u64::from(n)).contains(&s) => MRState::Verify((s - 100) as u32),
            s if (200..200 + u64::from(n)).contains(&s) => MRState::Collect((s - 200) as u32),
            _ => return None,
        };
        let res = u32::try_from(words[1]).ok()?;
        let a = words[2..]
            .iter()
            .map(|&w| u32::try_from(w).ok())
            .collect::<Option<Vec<_>>>()?;
        Some(MaxReadMachine {
            obj,
            pid,
            state,
            a,
            res,
        })
    }
}

impl Machine for MaxReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            MRState::Verify(i) => {
                // 51: while a ≠ MR — compare entry i.
                let cur = mem.read_pp(p, o.mr_loc(i)) as u32;
                if cur != self.a[i as usize] {
                    self.state = MRState::Collect(0);
                } else if i + 1 < o.n {
                    self.state = MRState::Verify(i + 1);
                } else {
                    // 53: res := highest value in a.
                    self.res = self.a.iter().copied().max().unwrap_or(0);
                    self.state = MRState::Persist;
                }
                Poll::Pending
            }
            MRState::Collect(i) => {
                // 52: a := MR — copy entry i.
                self.a[i as usize] = mem.read_pp(p, o.mr_loc(i)) as u32;
                self.state = if i + 1 < o.n {
                    MRState::Collect(i + 1)
                } else {
                    MRState::Verify(0)
                };
                Poll::Pending
            }
            MRState::Persist => {
                // 54–55: Ann_p.result := res; return res.
                o.ann.write_resp(mem, p, u64::from(self.res));
                self.state = MRState::Done;
                Poll::Ready(u64::from(self.res))
            }
            MRState::Done => panic!("stepped a completed max-register Read machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            MRState::Verify(_) => "maxread:51",
            MRState::Collect(_) => "maxread:52",
            MRState::Persist => "maxread:54",
            MRState::Done => "maxread:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        encode_to_vec(self)
    }

    fn encode_into(&self, out: &mut Vec<Word>) {
        let s = match self.state {
            MRState::Verify(i) => 100 + u64::from(i),
            MRState::Collect(i) => 200 + u64::from(i),
            MRState::Persist => 54,
            MRState::Done => 55,
        };
        out.extend_from_slice(&[s, u64::from(self.res)]);
        out.extend(self.a.iter().map(|&x| u64::from(x)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{run_to_completion, SimMemory};

    /// The handle and its descriptor are `Copy`, and `Write-Max` owns no
    /// reference count or heap allocation. (`Read` owns its `a[N]` collect
    /// array, a `Vec`.)
    #[test]
    fn machines_carry_locations_by_value() {
        const {
            crate::object::assert_copy::<MaxRegister>();
            crate::object::assert_copy::<MaxRegInner>();
            assert!(!std::mem::needs_drop::<WriteMaxMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, MaxRegister) {
        let mut b = LayoutBuilder::new();
        let mr = MaxRegister::new(&mut b, n);
        (SimMemory::new(b.finish()), mr)
    }

    fn write_max(mr: &MaxRegister, mem: &SimMemory, pid: Pid, v: u32) -> Word {
        let mut m = mr.invoke(pid, &OpSpec::WriteMax(v));
        run_to_completion(&mut *m, mem, 1000).unwrap()
    }

    fn read(mr: &MaxRegister, mem: &SimMemory, pid: Pid) -> Word {
        let mut m = mr.invoke(pid, &OpSpec::Read);
        run_to_completion(&mut *m, mem, 10_000).unwrap()
    }

    #[test]
    fn initial_read_is_zero() {
        let (mem, mr) = world(3);
        assert_eq!(read(&mr, &mem, Pid::new(0)), 0);
    }

    #[test]
    fn max_semantics() {
        let (mem, mr) = world(3);
        write_max(&mr, &mem, Pid::new(0), 5);
        write_max(&mr, &mem, Pid::new(1), 3); // smaller: no effect on max
        assert_eq!(read(&mr, &mem, Pid::new(2)), 5);
        write_max(&mr, &mem, Pid::new(2), 9);
        assert_eq!(read(&mr, &mem, Pid::new(0)), 9);
        assert_eq!(mr.peek_value(&mem), 9);
    }

    #[test]
    fn smaller_write_does_not_lower() {
        let (mem, mr) = world(2);
        write_max(&mr, &mem, Pid::new(0), 9);
        write_max(&mr, &mem, Pid::new(0), 2);
        assert_eq!(read(&mr, &mem, Pid::new(1)), 9);
    }

    #[test]
    fn write_max_is_idempotent_after_crash() {
        // Crash at every point of WriteMax and re-invoke (its recovery):
        // the final state must be as if it executed once.
        for crash_after in 0..2 {
            let (mem, mr) = world(2);
            let p = Pid::new(0);
            let mut m = mr.invoke(p, &OpSpec::WriteMax(7));
            for _ in 0..crash_after {
                let _ = m.step(&mem);
            }
            drop(m); // crash
            let mut rec = mr.recover(p, &OpSpec::WriteMax(7));
            assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), ACK);
            assert_eq!(mr.peek_value(&mem), 7);
        }
    }

    #[test]
    fn repeated_crashes_during_recovery() {
        let (mem, mr) = world(2);
        let p = Pid::new(0);
        for _ in 0..5 {
            let mut rec = mr.recover(p, &OpSpec::WriteMax(4));
            let _ = rec.step(&mem);
            drop(rec); // crash again mid-recovery
        }
        let mut rec = mr.recover(p, &OpSpec::WriteMax(4));
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), ACK);
        assert_eq!(mr.peek_value(&mem), 4);
    }

    #[test]
    fn read_double_collect_restarts_on_interference() {
        let (mem, mr) = world(2);
        let reader = Pid::new(0);
        let writer = Pid::new(1);
        let mut r = mr.invoke(reader, &OpSpec::Read);
        // First verify step passes over MR[0] = 0.
        assert!(!r.step(&mem).is_ready());
        // Writer bumps MR[1] mid-collect.
        write_max(&mr, &mem, writer, 6);
        // Reader must eventually return 6 (the write happened before its
        // successful double collect).
        let resp = run_to_completion(&mut *r, &mem, 10_000).unwrap();
        assert_eq!(resp, 6);
    }

    #[test]
    fn read_is_obstruction_free_solo_bounded() {
        // Solo, a read takes exactly N verify steps + persist.
        for n in [1u32, 4, 16] {
            let (mem, mr) = world(n);
            let mut m = mr.invoke(Pid::new(0), &OpSpec::Read);
            let mut steps = 0;
            while !m.step(&mem).is_ready() {
                steps += 1;
                assert!(steps < 10_000);
            }
            assert_eq!(steps + 1, (n + 1) as usize);
        }
    }

    #[test]
    fn prepare_is_a_no_op() {
        // The whole point of Algorithm 3: no auxiliary state. prepare() must
        // not write any NVM.
        let (mem, mr) = world(2);
        let before = mem.stats();
        mr.prepare(&mem, Pid::new(0), &OpSpec::WriteMax(1));
        mr.prepare(&mem, Pid::new(0), &OpSpec::Read);
        let after = mem.stats();
        assert_eq!(before, after, "prepare must not touch memory");
    }

    #[test]
    fn space_is_n_values() {
        let mut b = LayoutBuilder::new();
        let _mr = MaxRegister::new(&mut b, 8);
        let layout = b.finish();
        assert_eq!(layout.shared_bits(), 8 * 32);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn rejects_foreign_ops() {
        let (_, mr) = world(2);
        let _ = mr.invoke(Pid::new(0), &OpSpec::Inc);
    }
}
