//! An Attiya-et-al-style detectable register with **unbounded** tags.
//!
//! The paper (Section 3) describes the prior approach: "Attiya et al. avoid
//! [the ABA problem] by ensuring that all written values are distinct, at
//! the cost of using a register of unbounded size". Concretely, every write
//! stores `⟨val, pid, seq⟩` where `seq` comes from a per-process counter
//! that grows forever. Distinctness makes recovery trivial compared to
//! Algorithm 1:
//!
//! * if `R` still equals what the writer read before crashing, *no* write
//!   (by anyone, including the writer) happened — `fail`;
//! * otherwise some write happened after the writer's read; whether it was
//!   the writer's own or an overwriting one, the crashed write can be
//!   linearized (possibly immediately before its overwriter) — `ack`.
//!
//! No toggle-bit arrays are needed — but the sequence number is auxiliary
//! state via arguments whose space grows with the number of operations,
//! which is exactly the cost the paper's Algorithm 1 eliminates.
//!
//! The simulation packs `seq` into 26 bits of the register word; the space
//! tables account `⌈log₂(ops)⌉` bits per tag, and the packing panics on
//! overflow rather than silently wrapping (preserving the distinctness the
//! algorithm's correctness rests on).

use nvm::{
    AnnBank, Field, FieldBuilder, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, ACK,
    RESP_FAIL, RESP_NONE,
};

use detectable::{MemExt, ObjectKind, OpSpec, RecoverableObject};

/// Bits reserved for the unbounded sequence number in the packed register.
pub const TAG_SEQ_BITS: u32 = 26;

#[derive(Copy, Clone, Debug)]
struct TaggedRegInner {
    n: u32,
    r_val: Field,
    r_pid: Field,
    r_seq: Field,
    r: Loc,
    rd: Loc,
    seq: Loc,
    ann: AnnBank,
}

impl TaggedRegInner {
    fn pack(&self, val: u32, pid: u32, seq: Word) -> Word {
        assert!(
            seq <= self.r_seq.max(),
            "tag overflow: the unbounded-tag baseline ran out of its {TAG_SEQ_BITS}-bit simulation field"
        );
        self.r_seq.set(
            self.r_pid
                .set(self.r_val.set(0, u64::from(val)), u64::from(pid)),
            seq,
        )
    }

    fn val_of(&self, w: Word) -> u32 {
        self.r_val.get(w) as u32
    }

    fn rd_loc(&self, pid: Pid) -> Loc {
        self.rd.at(pid.idx())
    }

    fn seq_loc(&self, pid: Pid) -> Loc {
        self.seq.at(pid.idx())
    }
}

/// Detectable register with distinct-value tags and unbounded space (the
/// \[3\]-style baseline the paper contrasts Algorithm 1 against).
///
/// # Example
///
/// ```
/// use baselines::TaggedRegister;
/// use detectable::{OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, ACK};
///
/// let mut b = LayoutBuilder::new();
/// let reg = TaggedRegister::new(&mut b, 2);
/// let mem = SimMemory::new(b.finish());
/// let p = Pid::new(0);
///
/// reg.prepare(&mem, p, &OpSpec::Write(9));
/// let mut w = reg.invoke(p, &OpSpec::Write(9));
/// assert_eq!(run_to_completion(&mut *w, &mem, 100).unwrap(), ACK);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct TaggedRegister {
    inner: TaggedRegInner,
}

impl TaggedRegister {
    /// Allocates a tagged register for `n` processes, initially 0.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "tagged-reg", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        assert!((1..=64).contains(&n), "n must be in 1..=64");
        let mut f = FieldBuilder::new();
        let r_val = f.field(32);
        let r_pid = f.field(6);
        let r_seq = f.field(TAG_SEQ_BITS);
        let r = b.shared(&format!("{name}.R"), 1, f.bits_used());
        let rd = b.private_array(&format!("{name}.RD"), n, 1, f.bits_used());
        let seq = b.private_array(&format!("{name}.SEQ"), n, 1, TAG_SEQ_BITS);
        let ann = AnnBank::alloc(b, name, n, 2);
        TaggedRegister {
            inner: TaggedRegInner {
                n,
                r_val,
                r_pid,
                r_seq,
                r,
                rd,
                seq,
                ann,
            },
        }
    }

    /// Current value (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.val_of(mem.read(Pid::new(0), self.inner.r))
    }

    /// Current sequence number of `pid` — the unbounded auxiliary state.
    pub fn peek_seq(&self, mem: &dyn Memory, pid: Pid) -> Word {
        mem.read(pid, self.inner.seq_loc(pid))
    }
}

impl RecoverableObject for TaggedRegister {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
        // The unbounded tag: auxiliary state via operation arguments.
        let s = mem.read(pid, self.inner.seq_loc(pid));
        mem.write_pp(pid, self.inner.seq_loc(pid), s + 1);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Write(v) => Box::new(TWriteMachine {
                obj: self.inner,
                pid,
                val: v,
                state: TWState::ReadSeq,
                seq: 0,
                old: 0,
            }),
            OpSpec::Read => Box::new(TReadMachine {
                obj: self.inner,
                pid,
                val: None,
            }),
            ref other => panic!("tagged register does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Write(v) => Box::new(TWriteRecoverMachine {
                obj: self.inner,
                pid,
                val: v,
                state: TWRState::CheckResp,
            }),
            OpSpec::Read => Box::new(TReadRecoverMachine {
                obj: self.inner,
                pid,
                checked: false,
                inner: None,
            }),
            ref other => panic!("tagged register does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }

    fn name(&self) -> &'static str {
        "tagged-register"
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TWState {
    ReadSeq,
    ReadR,
    PersistRd,
    Checkpoint,
    WriteR,
    CheckpointDone,
    PersistResp,
    Done,
}

#[derive(Clone)]
struct TWriteMachine {
    obj: TaggedRegInner,
    pid: Pid,
    val: u32,
    state: TWState,
    seq: Word,
    old: Word,
}

impl Machine for TWriteMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            TWState::ReadSeq => {
                self.seq = mem.read_pp(p, o.seq_loc(p));
                self.state = TWState::ReadR;
                Poll::Pending
            }
            TWState::ReadR => {
                self.old = mem.read_pp(p, o.r);
                self.state = TWState::PersistRd;
                Poll::Pending
            }
            TWState::PersistRd => {
                mem.write_pp(p, o.rd_loc(p), self.old);
                self.state = TWState::Checkpoint;
                Poll::Pending
            }
            TWState::Checkpoint => {
                o.ann.write_cp(mem, p, 1);
                self.state = TWState::WriteR;
                Poll::Pending
            }
            TWState::WriteR => {
                mem.write_pp(p, o.r, o.pack(self.val, p.get(), self.seq));
                self.state = TWState::CheckpointDone;
                Poll::Pending
            }
            TWState::CheckpointDone => {
                o.ann.write_cp(mem, p, 2);
                self.state = TWState::PersistResp;
                Poll::Pending
            }
            TWState::PersistResp => {
                o.ann.write_resp(mem, p, ACK);
                self.state = TWState::Done;
                Poll::Ready(ACK)
            }
            TWState::Done => panic!("stepped a completed tagged Write machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            TWState::ReadSeq => "twrite:seq",
            TWState::ReadR => "twrite:read",
            TWState::PersistRd => "twrite:rd",
            TWState::Checkpoint => "twrite:cp1",
            TWState::WriteR => "twrite:store",
            TWState::CheckpointDone => "twrite:cp2",
            TWState::PersistResp => "twrite:resp",
            TWState::Done => "twrite:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.state as u64, u64::from(self.val), self.seq, self.old]
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TWRState {
    CheckResp,
    CheckCp,
    CompareR,
    Finish,
    Done,
}

#[derive(Clone)]
struct TWriteRecoverMachine {
    obj: TaggedRegInner,
    pid: Pid,
    #[allow(dead_code)]
    val: u32,
    state: TWRState,
}

impl Machine for TWriteRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            TWRState::CheckResp => {
                if o.ann.read_resp(mem, p) != RESP_NONE {
                    self.state = TWRState::Done;
                    return Poll::Ready(ACK);
                }
                self.state = TWRState::CheckCp;
                Poll::Pending
            }
            TWRState::CheckCp => {
                let cp = o.ann.read_cp(mem, p);
                if cp == 0 {
                    self.state = TWRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = if cp == 1 {
                    TWRState::CompareR
                } else {
                    TWRState::Finish
                };
                Poll::Pending
            }
            TWRState::CompareR => {
                // Distinct tags: R unchanged ⟺ no write at all since our
                // pre-crash read ⟹ our write did not execute.
                let r = mem.read_pp(p, o.r);
                let rd = mem.read_pp(p, o.rd_loc(p));
                if r == rd {
                    self.state = TWRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = TWRState::Finish;
                Poll::Pending
            }
            TWRState::Finish => {
                o.ann.write_resp(mem, p, ACK);
                self.state = TWRState::Done;
                Poll::Ready(ACK)
            }
            TWRState::Done => panic!("stepped a completed tagged Write.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            TWRState::CheckResp => "twrite.rec:resp",
            TWRState::CheckCp => "twrite.rec:cp",
            TWRState::CompareR => "twrite.rec:cmp",
            TWRState::Finish => "twrite.rec:fin",
            TWRState::Done => "twrite.rec:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.state as u64]
    }
}

#[derive(Clone)]
struct TReadMachine {
    obj: TaggedRegInner,
    pid: Pid,
    val: Option<u32>,
}

impl Machine for TReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        match self.val {
            None => {
                self.val = Some(self.obj.val_of(mem.read_pp(self.pid, self.obj.r)));
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
        "tread"
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.val.map_or(RESP_NONE, u64::from)]
    }
}

#[derive(Clone)]
struct TReadRecoverMachine {
    obj: TaggedRegInner,
    pid: Pid,
    checked: bool,
    inner: Option<TReadMachine>,
}

impl Machine for TReadRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        if !self.checked {
            self.checked = true;
            let resp = self.obj.ann.read_resp(mem, self.pid);
            if resp != RESP_NONE {
                return Poll::Ready(resp);
            }
            self.inner = Some(TReadMachine {
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
        "tread.rec"
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
            crate::assert_copy::<TaggedRegister>();
            crate::assert_copy::<TaggedRegInner>();
            assert!(!std::mem::needs_drop::<TWriteMachine>());
            assert!(!std::mem::needs_drop::<TWriteRecoverMachine>());
            assert!(!std::mem::needs_drop::<TReadMachine>());
            assert!(!std::mem::needs_drop::<TReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, TaggedRegister) {
        let mut b = LayoutBuilder::new();
        let r = TaggedRegister::new(&mut b, n);
        (SimMemory::new(b.finish()), r)
    }

    fn write(r: &TaggedRegister, mem: &SimMemory, pid: Pid, v: u32) -> Word {
        r.prepare(mem, pid, &OpSpec::Write(v));
        let mut m = r.invoke(pid, &OpSpec::Write(v));
        run_to_completion(&mut *m, mem, 100).unwrap()
    }

    fn read(r: &TaggedRegister, mem: &SimMemory, pid: Pid) -> Word {
        r.prepare(mem, pid, &OpSpec::Read);
        let mut m = r.invoke(pid, &OpSpec::Read);
        run_to_completion(&mut *m, mem, 100).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let (mem, r) = world(2);
        assert_eq!(write(&r, &mem, Pid::new(0), 5), ACK);
        assert_eq!(read(&r, &mem, Pid::new(1)), 5);
    }

    #[test]
    fn tags_grow_without_bound() {
        let (mem, r) = world(2);
        let p = Pid::new(0);
        let s0 = r.peek_seq(&mem, p);
        for i in 0..10 {
            write(&r, &mem, p, i);
        }
        assert_eq!(
            r.peek_seq(&mem, p),
            s0 + 10,
            "one tag consumed per operation"
        );
    }

    #[test]
    fn crash_at_every_line_solo() {
        for crash_after in 0..7 {
            let (mem, r) = world(2);
            let p = Pid::new(0);
            write(&r, &mem, p, 5);
            r.prepare(&mem, p, &OpSpec::Write(7));
            let mut m = r.invoke(p, &OpSpec::Write(7));
            for _ in 0..crash_after {
                assert!(!m.step(&mem).is_ready());
            }
            drop(m);
            let mut rec = r.recover(p, &OpSpec::Write(7));
            let verdict = run_to_completion(&mut *rec, &mem, 100).unwrap();
            let v = r.peek_value(&mem);
            if verdict == RESP_FAIL {
                assert_eq!(v, 5, "crash_after={crash_after}");
            } else {
                assert_eq!(verdict, ACK);
                assert_eq!(v, 7, "crash_after={crash_after}");
            }
        }
    }

    #[test]
    fn same_value_twice_is_distinct_in_memory() {
        // The distinct-tag property: writing the same application value
        // twice produces different register contents.
        let (mem, r) = world(2);
        let p = Pid::new(0);
        write(&r, &mem, p, 9);
        let w1 = mem.peek(r.inner.r);
        write(&r, &mem, p, 9);
        let w2 = mem.peek(r.inner.r);
        assert_ne!(w1, w2);
        assert_eq!(r.inner.val_of(w1), r.inner.val_of(w2));
    }

    #[test]
    fn overwritten_crashed_write_acks() {
        // p crashes with CP=1 after storing; q overwrites; recovery must
        // still say ack (R differs from RD).
        let (mem, r) = world(2);
        let p = Pid::new(0);
        r.prepare(&mem, p, &OpSpec::Write(7));
        let mut m = r.invoke(p, &OpSpec::Write(7));
        for _ in 0..5 {
            assert!(!m.step(&mem).is_ready()); // through the store
        }
        drop(m);
        write(&r, &mem, Pid::new(1), 8);
        let mut rec = r.recover(p, &OpSpec::Write(7));
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), ACK);
    }

    #[test]
    #[should_panic(expected = "tag overflow")]
    fn tag_overflow_panics_rather_than_wrapping() {
        let (mem, r) = world(1);
        let p = Pid::new(0);
        // Force the seq counter near the packing limit.
        mem.poke(r.inner.seq_loc(p), r.inner.r_seq.max() + 1);
        write(&r, &mem, p, 1);
    }
}
