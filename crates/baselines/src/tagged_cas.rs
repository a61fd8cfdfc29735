//! A Ben-David-et-al-style detectable CAS with **unbounded** tags.
//!
//! The paper cites the recoverable CAS of Ben-David, Blelloch, Friedman and
//! Wei (SPAA 2019) as a detectable CAS whose auxiliary state — unique
//! per-operation identifiers — is unbounded. The scheme:
//!
//! * `C` holds `⟨val, owner-pid, owner-seq⟩`: the tag of the last successful
//!   CAS;
//! * before attempting to overwrite `C = ⟨v, (r, s)⟩`, a process `q` first
//!   persists `s` into the announcement cell `OBS[r][q]` — telling `r`
//!   "your operation `s` succeeded" *before* the evidence is destroyed;
//! * recovery for `p`'s operation `s`: if `C`'s tag is `(p, s)`, it
//!   succeeded; else if `max_q OBS[p][q] ≥ s`, it succeeded and was
//!   overwritten; otherwise it was never linearized — `fail`.
//!
//! Soundness of the announcement: `OBS[p][q] = s` is only written after `q`
//! *read* `(p, s)` in `C`, which can only happen if `p`'s CAS succeeded.
//! Each `OBS[p][q]` is single-writer and non-decreasing, so no race can
//! regress it.
//!
//! Space: `N²` announcement words plus a sequence number per process, every
//! one of them growing with operation count — versus Algorithm 2's fixed
//! `N` bits. This is the contrast object for experiment E3.

use nvm::{
    AnnBank, Field, FieldBuilder, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, FALSE,
    RESP_FAIL, RESP_NONE, TRUE,
};

use detectable::{MemExt, ObjectKind, OpSpec, RecoverableObject};

/// Bits reserved for the unbounded sequence number in the packed word.
pub const TAG_SEQ_BITS: u32 = 20;

#[derive(Copy, Clone, Debug)]
struct TaggedCasInner {
    n: u32,
    c_val: Field,
    c_pid: Field,
    c_seq: Field,
    c: Loc,
    obs: Loc,
    seq: Loc,
    ann: AnnBank,
}

impl TaggedCasInner {
    fn pack(&self, val: u32, pid: u32, seq: Word) -> Word {
        assert!(
            seq <= self.c_seq.max(),
            "tag overflow: the unbounded-tag baseline ran out of its {TAG_SEQ_BITS}-bit simulation field"
        );
        self.c_seq.set(
            self.c_pid
                .set(self.c_val.set(0, u64::from(val)), u64::from(pid)),
            seq,
        )
    }

    fn unpack(&self, w: Word) -> (u32, u32, Word) {
        (
            self.c_val.get(w) as u32,
            self.c_pid.get(w) as u32,
            self.c_seq.get(w),
        )
    }

    /// `OBS[victim][writer]`.
    fn obs_loc(&self, victim: u32, writer: u32) -> Loc {
        self.obs.at((victim * self.n + writer) as usize)
    }

    fn seq_loc(&self, pid: Pid) -> Loc {
        self.seq.at(pid.idx())
    }
}

/// Detectable CAS with unbounded per-operation tags and an `N × N`
/// overwrite-announcement matrix (the \[4\]-style baseline the paper
/// contrasts Algorithm 2 against).
///
/// # Example
///
/// ```
/// use baselines::TaggedCas;
/// use detectable::{OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, TRUE};
///
/// let mut b = LayoutBuilder::new();
/// let cas = TaggedCas::new(&mut b, 2);
/// let mem = SimMemory::new(b.finish());
/// let op = OpSpec::Cas { old: 0, new: 4 };
/// cas.prepare(&mem, Pid::new(0), &op);
/// let mut m = cas.invoke(Pid::new(0), &op);
/// assert_eq!(run_to_completion(&mut *m, &mem, 100).unwrap(), TRUE);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct TaggedCas {
    inner: TaggedCasInner,
}

impl TaggedCas {
    /// Allocates a tagged CAS object for `n` processes, initially 0.
    ///
    /// The initial tag is `(pid 0, seq 0)`, attributing the initial value to
    /// a fictitious CAS by process 0, mirroring the paper's convention for
    /// initial values.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, "tagged-cas", n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        assert!((1..=64).contains(&n), "n must be in 1..=64");
        let mut f = FieldBuilder::new();
        let c_val = f.field(32);
        let c_pid = f.field(6);
        let c_seq = f.field(TAG_SEQ_BITS);
        let c = b.shared(&format!("{name}.C"), 1, f.bits_used());
        let obs = b.shared(&format!("{name}.OBS"), n * n, TAG_SEQ_BITS);
        let seq = b.private_array(&format!("{name}.SEQ"), n, 1, TAG_SEQ_BITS);
        let ann = AnnBank::alloc(b, name, n, 1);
        TaggedCas {
            inner: TaggedCasInner {
                n,
                c_val,
                c_pid,
                c_seq,
                c,
                obs,
                seq,
                ann,
            },
        }
    }

    /// Current value (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.unpack(mem.read(Pid::new(0), self.inner.c)).0
    }
}

impl RecoverableObject for TaggedCas {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
        let s = mem.read(pid, self.inner.seq_loc(pid));
        mem.write_pp(pid, self.inner.seq_loc(pid), s + 1);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Cas { old, new } => Box::new(TCasMachine {
                obj: self.inner,
                pid,
                old,
                new,
                state: TCState::ReadSeq,
                seq: 0,
                cur: 0,
            }),
            OpSpec::Read => Box::new(TCasReadMachine {
                obj: self.inner,
                pid,
                val: None,
            }),
            ref other => panic!("tagged cas does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Cas { .. } => Box::new(TCasRecoverMachine {
                obj: self.inner,
                pid,
                state: TCRState::CheckResp,
                seq: 0,
                scan: 0,
            }),
            OpSpec::Read => Box::new(TCasReadRecoverMachine {
                obj: self.inner,
                pid,
                checked: false,
                inner: None,
            }),
            ref other => panic!("tagged cas does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Cas
    }

    fn name(&self) -> &'static str {
        "tagged-cas"
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TCState {
    ReadSeq,
    ReadC,
    /// Fast path: persist `resp` without touching `C` (false on value
    /// mismatch; true for the effect-free `Cas(x, x)`, which must not
    /// install a fresh tag lest concurrent failed CASes lose their
    /// linearization point — same subtlety as Algorithm 2).
    FastPath(Word),
    Announce,
    Checkpoint,
    DoCas,
    PersistResp(bool),
    Done,
}

#[derive(Clone)]
struct TCasMachine {
    obj: TaggedCasInner,
    pid: Pid,
    old: u32,
    new: u32,
    state: TCState,
    seq: Word,
    cur: Word,
}

impl Machine for TCasMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            TCState::ReadSeq => {
                self.seq = mem.read_pp(p, o.seq_loc(p));
                self.state = TCState::ReadC;
                Poll::Pending
            }
            TCState::ReadC => {
                self.cur = mem.read_pp(p, o.c);
                let (val, _, _) = o.unpack(self.cur);
                self.state = if val != self.old {
                    TCState::FastPath(FALSE)
                } else if self.old == self.new {
                    TCState::FastPath(TRUE)
                } else {
                    TCState::Announce
                };
                Poll::Pending
            }
            TCState::FastPath(resp) => {
                o.ann.write_resp(mem, p, resp);
                self.state = TCState::Done;
                Poll::Ready(resp)
            }
            TCState::Announce => {
                // Record the current holder's success before destroying it.
                let (_, r, s) = o.unpack(self.cur);
                mem.write_pp(p, o.obs_loc(r, p.get()), s);
                self.state = TCState::Checkpoint;
                Poll::Pending
            }
            TCState::Checkpoint => {
                o.ann.write_cp(mem, p, 1);
                self.state = TCState::DoCas;
                Poll::Pending
            }
            TCState::DoCas => {
                let ok = mem.cas_pp(p, o.c, self.cur, o.pack(self.new, p.get(), self.seq));
                self.state = TCState::PersistResp(ok);
                Poll::Pending
            }
            TCState::PersistResp(ok) => {
                let w = if ok { TRUE } else { FALSE };
                o.ann.write_resp(mem, p, w);
                self.state = TCState::Done;
                Poll::Ready(w)
            }
            TCState::Done => panic!("stepped a completed tagged Cas machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            TCState::ReadSeq => "tcas:seq",
            TCState::ReadC => "tcas:read",
            TCState::FastPath(_) => "tcas:fastpath",
            TCState::Announce => "tcas:announce",
            TCState::Checkpoint => "tcas:cp",
            TCState::DoCas => "tcas:cas",
            TCState::PersistResp(_) => "tcas:resp",
            TCState::Done => "tcas:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let s = match self.state {
            TCState::ReadSeq => 1,
            TCState::ReadC => 2,
            TCState::FastPath(r) => 100 + r,
            TCState::Announce => 4,
            TCState::Checkpoint => 5,
            TCState::DoCas => 6,
            TCState::PersistResp(ok) => 7 + u64::from(ok),
            TCState::Done => 9,
        };
        vec![
            s,
            u64::from(self.old),
            u64::from(self.new),
            self.seq,
            self.cur,
        ]
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TCRState {
    CheckResp,
    CheckCp,
    ReadSeq,
    ReadC,
    Scan,
    PersistTrue,
    Done,
}

#[derive(Clone)]
struct TCasRecoverMachine {
    obj: TaggedCasInner,
    pid: Pid,
    state: TCRState,
    seq: Word,
    scan: u32,
}

impl Machine for TCasRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            TCRState::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = TCRState::Done;
                    return Poll::Ready(resp);
                }
                self.state = TCRState::CheckCp;
                Poll::Pending
            }
            TCRState::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    self.state = TCRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = TCRState::ReadSeq;
                Poll::Pending
            }
            TCRState::ReadSeq => {
                self.seq = mem.read_pp(p, o.seq_loc(p));
                self.state = TCRState::ReadC;
                Poll::Pending
            }
            TCRState::ReadC => {
                let (_, r, s) = o.unpack(mem.read_pp(p, o.c));
                if r == p.get() && s == self.seq {
                    self.state = TCRState::PersistTrue;
                } else {
                    self.scan = 0;
                    self.state = TCRState::Scan;
                }
                Poll::Pending
            }
            TCRState::Scan => {
                let recorded = mem.read_pp(p, o.obs_loc(p.get(), self.scan));
                if recorded >= self.seq && recorded > 0 {
                    self.state = TCRState::PersistTrue;
                } else if self.scan + 1 < o.n {
                    self.scan += 1;
                } else {
                    self.state = TCRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                Poll::Pending
            }
            TCRState::PersistTrue => {
                o.ann.write_resp(mem, p, TRUE);
                self.state = TCRState::Done;
                Poll::Ready(TRUE)
            }
            TCRState::Done => panic!("stepped a completed tagged Cas.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            TCRState::CheckResp => "tcas.rec:resp",
            TCRState::CheckCp => "tcas.rec:cp",
            TCRState::ReadSeq => "tcas.rec:seq",
            TCRState::ReadC => "tcas.rec:c",
            TCRState::Scan => "tcas.rec:scan",
            TCRState::PersistTrue => "tcas.rec:true",
            TCRState::Done => "tcas.rec:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.state as u64, self.seq, u64::from(self.scan)]
    }
}

#[derive(Clone)]
struct TCasReadMachine {
    obj: TaggedCasInner,
    pid: Pid,
    val: Option<u32>,
}

impl Machine for TCasReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        match self.val {
            None => {
                let (v, _, _) = self.obj.unpack(mem.read_pp(self.pid, self.obj.c));
                self.val = Some(v);
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
        "tcas.read"
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        vec![self.val.map_or(RESP_NONE, u64::from)]
    }
}

#[derive(Clone)]
struct TCasReadRecoverMachine {
    obj: TaggedCasInner,
    pid: Pid,
    checked: bool,
    inner: Option<TCasReadMachine>,
}

impl Machine for TCasReadRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        if !self.checked {
            self.checked = true;
            let resp = self.obj.ann.read_resp(mem, self.pid);
            if resp != RESP_NONE {
                return Poll::Ready(resp);
            }
            self.inner = Some(TCasReadMachine {
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
        "tcas.read.rec"
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
            crate::assert_copy::<TaggedCas>();
            crate::assert_copy::<TaggedCasInner>();
            assert!(!std::mem::needs_drop::<TCasMachine>());
            assert!(!std::mem::needs_drop::<TCasRecoverMachine>());
            assert!(!std::mem::needs_drop::<TCasReadMachine>());
            assert!(!std::mem::needs_drop::<TCasReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, TaggedCas) {
        let mut b = LayoutBuilder::new();
        let c = TaggedCas::new(&mut b, n);
        (SimMemory::new(b.finish()), c)
    }

    fn do_cas(c: &TaggedCas, mem: &SimMemory, pid: Pid, old: u32, new: u32) -> Word {
        let op = OpSpec::Cas { old, new };
        c.prepare(mem, pid, &op);
        let mut m = c.invoke(pid, &op);
        run_to_completion(&mut *m, mem, 100).unwrap()
    }

    #[test]
    fn basic_cas_semantics() {
        let (mem, c) = world(2);
        assert_eq!(do_cas(&c, &mem, Pid::new(0), 0, 5), TRUE);
        assert_eq!(do_cas(&c, &mem, Pid::new(1), 0, 9), FALSE);
        assert_eq!(do_cas(&c, &mem, Pid::new(1), 5, 9), TRUE);
        assert_eq!(c.peek_value(&mem), 9);
    }

    #[test]
    fn crash_at_every_line_success_path() {
        for crash_after in 0..6 {
            let (mem, c) = world(2);
            let p = Pid::new(0);
            let op = OpSpec::Cas { old: 0, new: 5 };
            c.prepare(&mem, p, &op);
            let mut m = c.invoke(p, &op);
            for _ in 0..crash_after {
                assert!(!m.step(&mem).is_ready());
            }
            drop(m);
            let mut rec = c.recover(p, &op);
            let verdict = run_to_completion(&mut *rec, &mem, 100).unwrap();
            let v = c.peek_value(&mem);
            if verdict == RESP_FAIL {
                assert_eq!(v, 0, "crash_after={crash_after}");
            } else {
                assert_eq!(verdict, TRUE, "crash_after={crash_after}");
                assert_eq!(v, 5);
            }
        }
    }

    #[test]
    fn overwritten_success_detected_via_announcement() {
        // p's CAS succeeds and crashes before persisting its response; q
        // then overwrites C. Recovery must still say true, via OBS.
        let (mem, c) = world(2);
        let p = Pid::new(0);
        let op = OpSpec::Cas { old: 0, new: 5 };
        c.prepare(&mem, p, &op);
        let mut m = c.invoke(p, &op);
        for _ in 0..5 {
            assert!(!m.step(&mem).is_ready()); // through DoCas
        }
        drop(m);
        assert_eq!(do_cas(&c, &mem, Pid::new(1), 5, 7), TRUE);
        let mut rec = c.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), TRUE);
    }

    #[test]
    fn lost_race_recovers_fail() {
        let (mem, c) = world(2);
        let p = Pid::new(0);
        let op = OpSpec::Cas { old: 0, new: 5 };
        c.prepare(&mem, p, &op);
        let mut m = c.invoke(p, &op);
        for _ in 0..4 {
            assert!(!m.step(&mem).is_ready()); // up to (not incl.) the CAS
        }
        assert_eq!(do_cas(&c, &mem, Pid::new(1), 0, 9), TRUE);
        assert!(!m.step(&mem).is_ready()); // p's CAS fails
        drop(m);
        let mut rec = c.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), RESP_FAIL);
    }

    #[test]
    fn space_grows_quadratically_with_n() {
        for n in [2u32, 4, 8] {
            let mut b = LayoutBuilder::new();
            let _c = TaggedCas::new(&mut b, n);
            let layout = b.finish();
            // C word + N² announcement words of TAG_SEQ_BITS each.
            let expected = (32 + 6 + u64::from(TAG_SEQ_BITS))
                + u64::from(n) * u64::from(n) * u64::from(TAG_SEQ_BITS);
            assert_eq!(layout.shared_bits(), expected);
        }
    }
}
