//! **Algorithm 1** — the bounded-space detectable read/write register.
//!
//! The first detectable read/write object using bounded space (paper
//! Section 3). The object's state is a single shared register
//! `R = ⟨val, q, toggle⟩` recording the value, the last writer and which of
//! the writer's two *toggle-bit arrays* that write used, plus a shared
//! `N × N × 2` bit array `A`: `A[i][p][t]` is the toggle bit through which
//! writer `p` coordinates with process `i` for toggle index `t`.
//!
//! The ABA problem this solves: values are not unique, so after a crash a
//! writer `p` that read `⟨v, q, t⟩` from `R` cannot tell "nothing happened"
//! apart from "q wrote the very same triple again". The toggle discipline
//! breaks the symmetry — before `q` can reuse toggle index `t` it must
//! *complete* a write with index `1−t`, and completing a write sets all of
//! the writer's toggle bits of that index to 1, including the one `p` zeroed
//! at line 2. So upon recovery `p` concludes a write happened in between if
//! and only if `R` changed or `A[p][q][1−t]` flipped back to 1 (paper,
//! Lemma 1).
//!
//! Space: `R` holds the value plus `⌈log N⌉ + 1` bits; `A` holds `2N²` shared
//! bits; per process there is one word of recovery data `RD_p`, one toggle
//! index `T_p`, and the `Ann_p` fields — all bounded, in contrast to the
//! unbounded sequence numbers of Attiya et al. (implemented in the
//! `baselines` crate as [`baselines::TaggedRegister`]).
//!
//! [`baselines::TaggedRegister`]: https://docs.rs/baselines
//!
//! # Example
//!
//! ```
//! use detectable::{DetectableRegister, OpSpec, RecoverableObject};
//! use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, ACK};
//!
//! let mut b = LayoutBuilder::new();
//! let reg = DetectableRegister::new(&mut b, 2, 0);
//! let mem = SimMemory::new(b.finish());
//! let p = Pid::new(0);
//!
//! reg.prepare(&mem, p, &OpSpec::Write(7));
//! let mut w = reg.invoke(p, &OpSpec::Write(7));
//! assert_eq!(run_to_completion(&mut *w, &mem, 100).unwrap(), ACK);
//!
//! reg.prepare(&mem, p, &OpSpec::Read);
//! let mut r = reg.invoke(p, &OpSpec::Read);
//! assert_eq!(run_to_completion(&mut *r, &mem, 100).unwrap(), 7);
//! ```

use nvm::{
    encode_to_vec, AnnBank, Field, FieldBuilder, LayoutBuilder, Loc, Machine, Memory, Pid, Poll,
    Word, ACK, RESP_FAIL, RESP_NONE,
};

use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

/// Shared layout and bit packing of one Algorithm 1 instance.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RegisterInner {
    n: u32,
    init: u32,
    // Packing of R = ⟨val, q, qtoggle⟩ and RD_p = ⟨mtoggle, qval, q, qtoggle⟩.
    r_val: Field,
    r_q: Field,
    r_tog: Field,
    rd_mtog: Field,
    rd_val: Field,
    rd_q: Field,
    rd_tog: Field,
    r: Loc,
    a: Loc,
    rd: Loc,
    t: Loc,
    ann: AnnBank,
}

impl RegisterInner {
    fn pack_r(&self, val: u32, q: u32, tog: u64) -> Word {
        let mut w = 0;
        w = self.r_val.set(w, u64::from(val));
        w = self.r_q.set(w, u64::from(q));
        self.r_tog.set(w, tog)
    }

    fn unpack_r(&self, w: Word) -> (u32, u32, u64) {
        (
            self.r_val.get(w) as u32,
            self.r_q.get(w) as u32,
            self.r_tog.get(w),
        )
    }

    fn pack_rd(&self, mtog: u64, val: u32, q: u32, tog: u64) -> Word {
        let mut w = 0;
        w = self.rd_mtog.set(w, mtog);
        w = self.rd_val.set(w, u64::from(val));
        w = self.rd_q.set(w, u64::from(q));
        self.rd_tog.set(w, tog)
    }

    fn unpack_rd(&self, w: Word) -> (u64, u32, u32, u64) {
        (
            self.rd_mtog.get(w),
            self.rd_val.get(w) as u32,
            self.rd_q.get(w) as u32,
            self.rd_tog.get(w),
        )
    }

    /// Location of `A[i][p][t]`.
    fn a_loc(&self, i: u32, p: u32, t: u64) -> Loc {
        debug_assert!(i < self.n && p < self.n && t < 2);
        self.a.at(((i * self.n + p) * 2 + t as u32) as usize)
    }

    fn rd_loc(&self, pid: Pid) -> Loc {
        self.rd.at(pid.idx())
    }

    fn t_loc(&self, pid: Pid) -> Loc {
        self.t.at(pid.idx())
    }
}

/// The bounded-space detectable read/write register of paper Section 3.
///
/// Supports [`OpSpec::Write`] and [`OpSpec::Read`]; both are wait-free, and
/// `Write` is detectable through its recovery function (lines 14–27 of the
/// paper). See the [module documentation](self) for the algorithm.
#[derive(Copy, Clone, Debug)]
pub struct DetectableRegister {
    inner: RegisterInner,
}

/// Maximum processes supported by the packing of `R` (6-bit writer ids).
pub const MAX_REGISTER_PROCESSES: u32 = 64;

impl DetectableRegister {
    /// Allocates a register for `n` processes with initial value `init`.
    ///
    /// Initially `R = ⟨init, 0, 0⟩`, attributing the initial value to a write
    /// by process 0 with toggle array 0, exactly as the paper specifies.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds [`MAX_REGISTER_PROCESSES`].
    pub fn new(b: &mut LayoutBuilder, n: u32, init: u32) -> Self {
        Self::with_name(b, "reg", n, init)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix, for
    /// worlds containing several objects.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32, init: u32) -> Self {
        assert!(
            (1..=MAX_REGISTER_PROCESSES).contains(&n),
            "n must be in 1..=64"
        );
        let mut rf = FieldBuilder::new();
        let r_val = rf.field(32);
        let r_q = rf.field(6);
        let r_tog = rf.field(1);
        let mut df = FieldBuilder::new();
        let rd_mtog = df.field(1);
        let rd_val = df.field(32);
        let rd_q = df.field(6);
        let rd_tog = df.field(1);

        let r = b.shared(&format!("{name}.R"), 1, rf.bits_used());
        let a = b.shared(&format!("{name}.A"), n * n * 2, 1);
        let rd = b.private_array(&format!("{name}.RD"), n, 1, df.bits_used());
        let t = b.private_array(&format!("{name}.T"), n, 1, 1);
        let ann = AnnBank::alloc(b, name, n, 2);

        let inner = RegisterInner {
            n,
            init,
            r_val,
            r_q,
            r_tog,
            rd_mtog,
            rd_val,
            rd_q,
            rd_tog,
            r,
            a,
            rd,
            t,
            ann,
        };
        DetectableRegister { inner }
    }

    /// Materializes the initial value `⟨init, 0, 0⟩` in a freshly created
    /// memory. Only needed when the register was built with a nonzero `init`
    /// (all-zero memory already encodes `R = ⟨0, 0, 0⟩`).
    pub fn initialize(&self, mem: &dyn Memory) {
        let w = self.inner.pack_r(self.inner.init, 0, 0);
        mem.write_pp(Pid::new(0), self.inner.r, w);
    }

    /// Reads the register's current logical value without a machine (test and
    /// diagnostic helper; performs a plain read by process 0).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        let (v, _, _) = self.inner.unpack_r(mem.read(Pid::new(0), self.inner.r));
        v
    }
}

impl RecoverableObject for DetectableRegister {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Write(v) => Box::new(WriteMachine::new(self.inner, pid, v)),
            OpSpec::Read => Box::new(ReadMachine::new(self.inner, pid)),
            ref other => panic!("register does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Write(v) => Box::new(WriteRecoverMachine::new(self.inner, pid, v)),
            OpSpec::Read => Box::new(ReadRecoverMachine::new(self.inner, pid)),
            ref other => panic!("register does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }

    fn name(&self) -> &'static str {
        "detectable-register"
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        match *op {
            OpSpec::Write(v) => WriteMachine::decode(self.inner, pid, v, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            OpSpec::Read => {
                ReadMachine::decode(self.inner, pid, words).map(|m| Box::new(m) as Box<dyn Machine>)
            }
            _ => None,
        }
    }

    // No `permute_memory`: the write path sets *all* of the writer's
    // toggle bits `A[0..N][p][t]` in fixed index order, so renaming
    // processes is not an automorphism of the step relation (concurrent
    // observers see partially-updated columns in a different order after
    // relocation). The initial state is also asymmetric — `R = ⟨init, 0,
    // 0⟩` attributes the initial value to the literal process 0 — and
    // stale `RD` words keep observed-writer ids alive. Symmetry-reduced
    // exploration treats the register as opaque.
}

// ---------------------------------------------------------------------------
// Write (paper lines 1–13)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum WState {
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
    Loop(u32), // lines 9–10, one write per iteration
    L11,
    L12,
    Done,
}

/// The `Write(val)` operation machine.
#[derive(Clone)]
struct WriteMachine {
    obj: RegisterInner,
    pid: Pid,
    val: u32,
    state: WState,
    // Volatile locals.
    qval: u32,
    q: u32,
    qtoggle: u64,
    mtoggle: u64,
}

impl WriteMachine {
    fn new(obj: RegisterInner, pid: Pid, val: u32) -> Self {
        WriteMachine {
            obj,
            pid,
            val,
            state: WState::L1,
            qval: 0,
            q: 0,
            qtoggle: 0,
            mtoggle: 0,
        }
    }

    /// Inverse of [`Machine::encode`]: rebuilds an in-flight `Write(val)`
    /// machine from its encoding.
    fn decode(obj: RegisterInner, pid: Pid, val: u32, words: &[Word]) -> Option<WriteMachine> {
        if words.len() != 6 || words[1] != u64::from(val) {
            return None;
        }
        let state = match words[0] {
            1 => WState::L1,
            2 => WState::L2,
            3 => WState::L3,
            4 => WState::L4,
            5 => WState::L5,
            6 => WState::L6,
            7 => WState::L7,
            8 => WState::L8,
            11 => WState::L11,
            12 => WState::L12,
            13 => WState::Done,
            s if (100..100 + u64::from(obj.n)).contains(&s) => WState::Loop((s - 100) as u32),
            _ => return None,
        };
        Some(WriteMachine {
            obj,
            pid,
            val,
            state,
            qval: u32::try_from(words[2]).ok()?,
            q: u32::try_from(words[3]).ok()?,
            qtoggle: words[4],
            mtoggle: words[5],
        })
    }
}

impl Machine for WriteMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            WState::L1 => {
                // 1: ⟨qval, q, qtoggle⟩ := R
                let w = mem.read_pp(p, o.r);
                (self.qval, self.q, self.qtoggle) = o.unpack_r(w);
                self.state = WState::L2;
                Poll::Pending
            }
            WState::L2 => {
                // 2: A[p][q][1 − qtoggle] := 0
                mem.write_pp(p, o.a_loc(p.get(), self.q, 1 - self.qtoggle), 0);
                self.state = WState::L3;
                Poll::Pending
            }
            WState::L3 => {
                // 3: mtoggle := T_p
                self.mtoggle = mem.read_pp(p, o.t_loc(p));
                self.state = WState::L4;
                Poll::Pending
            }
            WState::L4 => {
                // 4: RD_p := ⟨mtoggle, qval, q, qtoggle⟩
                let w = o.pack_rd(self.mtoggle, self.qval, self.q, self.qtoggle);
                mem.write_pp(p, o.rd_loc(p), w);
                self.state = WState::L5;
                Poll::Pending
            }
            WState::L5 => {
                // 5: if R ≠ ⟨qval, q, qtoggle⟩ then goto 8
                let w = mem.read_pp(p, o.r);
                if w != o.pack_r(self.qval, self.q, self.qtoggle) {
                    self.state = WState::L8;
                } else {
                    self.state = WState::L6;
                }
                Poll::Pending
            }
            WState::L6 => {
                // 6: Ann_p.CP := 1
                o.ann.write_cp(mem, p, 1);
                self.state = WState::L7;
                Poll::Pending
            }
            WState::L7 => {
                // 7: R := ⟨val, p, mtoggle⟩
                mem.write_pp(p, o.r, o.pack_r(self.val, p.get(), self.mtoggle));
                self.state = WState::L8;
                Poll::Pending
            }
            WState::L8 => {
                // 8: Ann_p.CP := 2
                o.ann.write_cp(mem, p, 2);
                self.state = WState::Loop(0);
                Poll::Pending
            }
            WState::Loop(i) => {
                // 9–10: for i = 1..N: A[i][p][mtoggle] := 1
                mem.write_pp(p, o.a_loc(i, p.get(), self.mtoggle), 1);
                self.state = if i + 1 < o.n {
                    WState::Loop(i + 1)
                } else {
                    WState::L11
                };
                Poll::Pending
            }
            WState::L11 => {
                // 11: T_p := 1 − mtoggle
                mem.write_pp(p, o.t_loc(p), 1 - self.mtoggle);
                self.state = WState::L12;
                Poll::Pending
            }
            WState::L12 => {
                // 12–13: Ann_p.result := ack; return ack
                o.ann.write_resp(mem, p, ACK);
                self.state = WState::Done;
                Poll::Ready(ACK)
            }
            WState::Done => panic!("stepped a completed Write machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            WState::L1 => "write:1",
            WState::L2 => "write:2",
            WState::L3 => "write:3",
            WState::L4 => "write:4",
            WState::L5 => "write:5",
            WState::L6 => "write:6",
            WState::L7 => "write:7",
            WState::L8 => "write:8",
            WState::Loop(_) => "write:9-10",
            WState::L11 => "write:11",
            WState::L12 => "write:12",
            WState::Done => "write:done",
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
            WState::L1 => 1,
            WState::L2 => 2,
            WState::L3 => 3,
            WState::L4 => 4,
            WState::L5 => 5,
            WState::L6 => 6,
            WState::L7 => 7,
            WState::L8 => 8,
            WState::Loop(i) => 100 + u64::from(i),
            WState::L11 => 11,
            WState::L12 => 12,
            WState::Done => 13,
        };
        out.extend_from_slice(&[
            s,
            u64::from(self.val),
            u64::from(self.qval),
            u64::from(self.q),
            self.qtoggle,
            self.mtoggle,
        ]);
    }
}

// ---------------------------------------------------------------------------
// Write.Recover (paper lines 14–27)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum WRState {
    L14,
    L15,
    L17,
    L20a, // read R, compare
    L20b, // read A[p][q][1 − qtoggle], compare
    L22,
    Loop(u32), // lines 23–24
    L25,
    L26,
    Done,
}

/// The `Write.Recover(val)` machine.
#[derive(Clone)]
struct WriteRecoverMachine {
    obj: RegisterInner,
    pid: Pid,
    #[allow(dead_code)] // recovery is called with the same args as Write
    val: u32,
    state: WRState,
    mtoggle: u64,
    qval: u32,
    q: u32,
    qtoggle: u64,
}

impl WriteRecoverMachine {
    fn new(obj: RegisterInner, pid: Pid, val: u32) -> Self {
        WriteRecoverMachine {
            obj,
            pid,
            val,
            state: WRState::L14,
            mtoggle: 0,
            qval: 0,
            q: 0,
            qtoggle: 0,
        }
    }
}

impl Machine for WriteRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            WRState::L14 => {
                // 14: ⟨mtoggle, qval, q, qtoggle⟩ := RD_p
                let w = mem.read_pp(p, o.rd_loc(p));
                (self.mtoggle, self.qval, self.q, self.qtoggle) = o.unpack_rd(w);
                self.state = WRState::L15;
                Poll::Pending
            }
            WRState::L15 => {
                // 15–16: if Ann_p.result ≠ ⊥ then return ack
                if o.ann.read_resp(mem, p) != RESP_NONE {
                    self.state = WRState::Done;
                    return Poll::Ready(ACK);
                }
                self.state = WRState::L17;
                Poll::Pending
            }
            WRState::L17 => {
                // 17–18: if Ann_p.CP = 0 then return fail
                // 19: if Ann_p.CP = 1 then check line 20, else fall to 22.
                let cp = o.ann.read_cp(mem, p);
                if cp == 0 {
                    self.state = WRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = if cp == 1 { WRState::L20a } else { WRState::L22 };
                Poll::Pending
            }
            WRState::L20a => {
                // 20 (first conjunct): R = ⟨qval, q, qtoggle⟩?
                let w = mem.read_pp(p, o.r);
                if w == o.pack_r(self.qval, self.q, self.qtoggle) {
                    self.state = WRState::L20b;
                } else {
                    self.state = WRState::L22;
                }
                Poll::Pending
            }
            WRState::L20b => {
                // 20 (second conjunct): A[p][q][1 − qtoggle] = 0? → fail
                let bit = mem.read_pp(p, o.a_loc(p.get(), self.q, 1 - self.qtoggle));
                if bit == 0 {
                    self.state = WRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = WRState::L22;
                Poll::Pending
            }
            WRState::L22 => {
                // 22: Ann_p.CP := 2
                o.ann.write_cp(mem, p, 2);
                self.state = WRState::Loop(0);
                Poll::Pending
            }
            WRState::Loop(i) => {
                // 23–24: for i = 1..N: A[i][p][mtoggle] := 1
                mem.write_pp(p, o.a_loc(i, p.get(), self.mtoggle), 1);
                self.state = if i + 1 < o.n {
                    WRState::Loop(i + 1)
                } else {
                    WRState::L25
                };
                Poll::Pending
            }
            WRState::L25 => {
                // 25: T_p := 1 − mtoggle
                mem.write_pp(p, o.t_loc(p), 1 - self.mtoggle);
                self.state = WRState::L26;
                Poll::Pending
            }
            WRState::L26 => {
                // 26–27: Ann_p.result := ack; return ack
                o.ann.write_resp(mem, p, ACK);
                self.state = WRState::Done;
                Poll::Ready(ACK)
            }
            WRState::Done => panic!("stepped a completed Write.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            WRState::L14 => "write.rec:14",
            WRState::L15 => "write.rec:15",
            WRState::L17 => "write.rec:17",
            WRState::L20a => "write.rec:20a",
            WRState::L20b => "write.rec:20b",
            WRState::L22 => "write.rec:22",
            WRState::Loop(_) => "write.rec:23-24",
            WRState::L25 => "write.rec:25",
            WRState::L26 => "write.rec:26",
            WRState::Done => "write.rec:done",
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
            WRState::L14 => 14,
            WRState::L15 => 15,
            WRState::L17 => 17,
            WRState::L20a => 20,
            WRState::L20b => 21,
            WRState::L22 => 22,
            WRState::Loop(i) => 200 + u64::from(i),
            WRState::L25 => 25,
            WRState::L26 => 26,
            WRState::Done => 27,
        };
        out.extend_from_slice(&[
            s,
            self.mtoggle,
            u64::from(self.qval),
            u64::from(self.q),
            self.qtoggle,
        ]);
    }
}

// ---------------------------------------------------------------------------
// Read and Read.Recover (described in prose in the paper)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum RState {
    ReadR,
    Persist,
    Done,
}

/// The `Read()` machine: read `R`, persist the response, return it.
#[derive(Clone)]
struct ReadMachine {
    obj: RegisterInner,
    pid: Pid,
    state: RState,
    val: u32,
}

impl ReadMachine {
    fn new(obj: RegisterInner, pid: Pid) -> Self {
        ReadMachine {
            obj,
            pid,
            state: RState::ReadR,
            val: 0,
        }
    }

    /// Inverse of [`Machine::encode`] for the `Read` machine.
    fn decode(obj: RegisterInner, pid: Pid, words: &[Word]) -> Option<ReadMachine> {
        if words.len() != 2 {
            return None;
        }
        let state = match words[0] {
            1 => RState::ReadR,
            2 => RState::Persist,
            3 => RState::Done,
            _ => return None,
        };
        Some(ReadMachine {
            obj,
            pid,
            state,
            val: u32::try_from(words[1]).ok()?,
        })
    }
}

impl Machine for ReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        match self.state {
            RState::ReadR => {
                let (v, _, _) = o.unpack_r(mem.read_pp(self.pid, o.r));
                self.val = v;
                self.state = RState::Persist;
                Poll::Pending
            }
            RState::Persist => {
                o.ann.write_resp(mem, self.pid, u64::from(self.val));
                self.state = RState::Done;
                Poll::Ready(u64::from(self.val))
            }
            RState::Done => panic!("stepped a completed Read machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            RState::ReadR => "read:R",
            RState::Persist => "read:persist",
            RState::Done => "read:done",
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
            RState::ReadR => 1,
            RState::Persist => 2,
            RState::Done => 3,
        };
        out.extend_from_slice(&[s, u64::from(self.val)]);
    }
}

/// `Read.Recover`: return the persisted response if any, otherwise re-invoke.
#[derive(Clone)]
struct ReadRecoverMachine {
    obj: RegisterInner,
    pid: Pid,
    checked: bool,
    inner: Option<ReadMachine>,
}

impl ReadRecoverMachine {
    fn new(obj: RegisterInner, pid: Pid) -> Self {
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
            .expect("read recovery re-invocation missing")
            .step(mem)
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        if !self.checked {
            "read.rec:check"
        } else {
            "read.rec:reinvoke"
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        encode_to_vec(self)
    }

    fn encode_into(&self, out: &mut Vec<Word>) {
        out.push(u64::from(self.checked));
        if let Some(m) = &self.inner {
            m.encode_into(out);
        }
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
            crate::object::assert_copy::<DetectableRegister>();
            crate::object::assert_copy::<RegisterInner>();
            assert!(!std::mem::needs_drop::<WriteMachine>());
            assert!(!std::mem::needs_drop::<WriteRecoverMachine>());
            assert!(!std::mem::needs_drop::<ReadMachine>());
            assert!(!std::mem::needs_drop::<ReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, DetectableRegister) {
        let mut b = LayoutBuilder::new();
        let reg = DetectableRegister::new(&mut b, n, 0);
        (SimMemory::new(b.finish()), reg)
    }

    fn write(reg: &DetectableRegister, mem: &SimMemory, pid: Pid, v: u32) -> Word {
        reg.prepare(mem, pid, &OpSpec::Write(v));
        let mut m = reg.invoke(pid, &OpSpec::Write(v));
        run_to_completion(&mut *m, mem, 1000).unwrap()
    }

    fn read(reg: &DetectableRegister, mem: &SimMemory, pid: Pid) -> Word {
        reg.prepare(mem, pid, &OpSpec::Read);
        let mut m = reg.invoke(pid, &OpSpec::Read);
        run_to_completion(&mut *m, mem, 1000).unwrap()
    }

    #[test]
    fn solo_write_read() {
        let (mem, reg) = world(2);
        assert_eq!(write(&reg, &mem, Pid::new(0), 42), ACK);
        assert_eq!(read(&reg, &mem, Pid::new(1)), 42);
        assert_eq!(reg.peek_value(&mem), 42);
    }

    #[test]
    fn permute_memory_is_declined() {
        // The register stays opaque to symmetry reduction (see the trait
        // impl comment: index-ordered toggle loop + asymmetric initial
        // attribution); the default hook must say so.
        let (mem, reg) = world(3);
        let mut words = mem.full_key();
        assert!(!reg.permute_memory(&mut words, &[1, 0, 2]));
    }

    #[test]
    fn initial_value_reads_zero() {
        let (mem, reg) = world(2);
        assert_eq!(read(&reg, &mem, Pid::new(0)), 0);
    }

    #[test]
    fn nonzero_initialization() {
        let mut b = LayoutBuilder::new();
        let reg = DetectableRegister::new(&mut b, 2, 17);
        let mem = SimMemory::new(b.finish());
        reg.initialize(&mem);
        assert_eq!(read(&reg, &mem, Pid::new(1)), 17);
    }

    #[test]
    fn sequential_writes_overwrite() {
        let (mem, reg) = world(3);
        for (p, v) in [(0, 1), (1, 2), (2, 3), (0, 4)] {
            write(&reg, &mem, Pid::new(p), v);
        }
        assert_eq!(read(&reg, &mem, Pid::new(1)), 4);
    }

    #[test]
    fn same_value_written_twice_by_same_process() {
        // The ABA-prone pattern the algorithm is designed around.
        let (mem, reg) = world(2);
        write(&reg, &mem, Pid::new(0), 9);
        write(&reg, &mem, Pid::new(1), 5);
        write(&reg, &mem, Pid::new(0), 9);
        assert_eq!(read(&reg, &mem, Pid::new(1)), 9);
    }

    /// Crash a solo Write at every possible step boundary and check the
    /// recovery verdict is consistent with whether the write took effect.
    #[test]
    fn crash_at_every_line_solo() {
        // Total steps of a solo write for n=2: L1..L8 (8) + loop(2) + L11 + L12 = 12.
        for crash_after in 0..12 {
            let (mem, reg) = world(2);
            let p = Pid::new(0);
            write(&reg, &mem, p, 5); // distinguishable base value
            reg.prepare(&mem, p, &OpSpec::Write(7));
            let mut m = reg.invoke(p, &OpSpec::Write(7));
            for _ in 0..crash_after {
                assert!(!m.step(&mem).is_ready(), "write finished early");
            }
            drop(m); // crash

            let mut rec = reg.recover(p, &OpSpec::Write(7));
            let verdict = run_to_completion(&mut *rec, &mem, 1000).unwrap();
            let value_now = reg.peek_value(&mem);
            if verdict == RESP_FAIL {
                assert_eq!(
                    value_now, 5,
                    "fail verdict but write visible (crash_after={crash_after})"
                );
            } else {
                assert_eq!(verdict, ACK);
                assert_eq!(
                    value_now, 7,
                    "ack verdict but write lost (crash_after={crash_after})"
                );
            }
        }
    }

    /// After an `ack` recovery the process can keep using the register; after
    /// a `fail` it can retry and succeed.
    #[test]
    fn recovery_then_continue() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        reg.prepare(&mem, p, &OpSpec::Write(3));
        let mut m = reg.invoke(p, &OpSpec::Write(3));
        let _ = m.step(&mem); // L1 only
        drop(m);
        let mut rec = reg.recover(p, &OpSpec::Write(3));
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), RESP_FAIL);
        // Retry.
        assert_eq!(write(&reg, &mem, p, 3), ACK);
        assert_eq!(read(&reg, &mem, Pid::new(1)), 3);
    }

    /// Crash during recovery; recovery must be re-enterable (idempotent
    /// verdicts) — the paper allows multiple crashes during Op.Recover.
    #[test]
    fn crash_inside_recovery() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        reg.prepare(&mem, p, &OpSpec::Write(7));
        let mut m = reg.invoke(p, &OpSpec::Write(7));
        for _ in 0..7 {
            let _ = m.step(&mem); // through L7: R written, CP=1 persisted... (L6) then L7
        }
        drop(m); // crash after R := ⟨7, p, t⟩

        // First recovery attempt crashes mid-way at every possible point; the
        // final attempt must still return ack (the write is in NVM).
        for crash_after in 0..8 {
            let mut rec = reg.recover(p, &OpSpec::Write(7));
            let mut done = None;
            for _ in 0..crash_after {
                match rec.step(&mem) {
                    Poll::Ready(w) => {
                        done = Some(w);
                        break;
                    }
                    Poll::Pending => {}
                }
            }
            if let Some(w) = done {
                assert_eq!(w, ACK);
            }
            drop(rec); // crash inside recovery
        }
        let mut rec = reg.recover(p, &OpSpec::Write(7));
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), ACK);
        assert_eq!(reg.peek_value(&mem), 7);
    }

    /// The overwritten-by-concurrent-write path: p stalls before line 5, q
    /// writes; p must skip its own write to R (line 5 condition) yet return
    /// ack, linearized before q's write.
    #[test]
    fn concurrent_overwrite_path() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        let q = Pid::new(1);
        reg.prepare(&mem, p, &OpSpec::Write(10));
        let mut mp = reg.invoke(p, &OpSpec::Write(10));
        // p executes L1..L4 (4 steps), pausing before the L5 re-read.
        for _ in 0..4 {
            assert!(!mp.step(&mem).is_ready());
        }
        // q performs a complete write.
        assert_eq!(write(&reg, &mem, q, 20), ACK);
        // p resumes: L5 sees R changed → goto 8, completes without writing R.
        let resp = run_to_completion(&mut *mp, &mem, 1000).unwrap();
        assert_eq!(resp, ACK);
        assert_eq!(reg.peek_value(&mem), 20, "p must not overwrite q");
    }

    /// The paper's key ABA scenario, executed concretely (proof of Lemma 1,
    /// claim 1): p crashes with CP = 1 and R showing the same triple it first
    /// read, but q has completed an intervening write pair putting the same
    /// triple back. The toggle bit must reveal the interleaving and recovery
    /// must NOT return fail.
    #[test]
    fn aba_detected_via_toggle_bits() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        let q = Pid::new(1);

        // q writes 9 (toggle array 0): R = ⟨9, q, 0⟩.
        write(&reg, &mem, q, 9);

        // p starts Write(7), reads R = ⟨9, q, 0⟩, zeroes A[p][q][1],
        // persists RD, passes line 5 (R unchanged), sets CP := 1 and WRITES R
        // (through L7 = 7 steps), then crashes before CP := 2.
        reg.prepare(&mem, p, &OpSpec::Write(7));
        let mut mp = reg.invoke(p, &OpSpec::Write(7));
        for _ in 0..7 {
            assert!(!mp.step(&mem).is_ready());
        }
        drop(mp); // crash: CP = 1, R = ⟨7, p, 0⟩

        // q writes 5 (toggle 1) then 9 again (toggle 0): R = ⟨9, q, 0⟩ — the
        // exact triple p recorded in RD_p. Completing the toggle-1 write set
        // A[p][q][1] := 1, which is the evidence recovery needs.
        write(&reg, &mem, q, 5);
        write(&reg, &mem, q, 9);

        let mut rec = reg.recover(p, &OpSpec::Write(7));
        let verdict = run_to_completion(&mut *rec, &mem, 1000).unwrap();
        assert_eq!(
            verdict, ACK,
            "p wrote R before the crash: recovery must detect linearization despite the ABA"
        );
    }

    /// Negative twin of the ABA test: p crashes with CP = 1 *before* writing
    /// R and nothing else happens — recovery must return fail.
    #[test]
    fn no_write_no_aba_fails() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        write(&reg, &mem, Pid::new(1), 9);
        reg.prepare(&mem, p, &OpSpec::Write(7));
        let mut mp = reg.invoke(p, &OpSpec::Write(7));
        for _ in 0..6 {
            assert!(!mp.step(&mem).is_ready()); // through L6: CP = 1, R untouched
        }
        drop(mp);
        let mut rec = reg.recover(p, &OpSpec::Write(7));
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), RESP_FAIL);
        assert_eq!(reg.peek_value(&mem), 9);
    }

    #[test]
    fn read_recovery_returns_persisted_response() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        write(&reg, &mem, p, 33);
        reg.prepare(&mem, p, &OpSpec::Read);
        let mut r = reg.invoke(p, &OpSpec::Read);
        let _ = r.step(&mem);
        let _ = r.step(&mem); // completes, resp persisted
        drop(r);
        let mut rec = reg.recover(p, &OpSpec::Read);
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), 33);
    }

    #[test]
    fn read_recovery_reinvokes_when_no_response() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        write(&reg, &mem, p, 8);
        reg.prepare(&mem, p, &OpSpec::Read);
        let mut r = reg.invoke(p, &OpSpec::Read);
        let _ = r.step(&mem); // read R but crash before persisting resp
        drop(r);
        let mut rec = reg.recover(p, &OpSpec::Read);
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), 8);
    }

    #[test]
    fn write_is_wait_free_bounded_steps() {
        // A solo write takes exactly N + 10 primitive steps (8 lines + N-loop
        // + T_p + resp) regardless of history.
        for n in [1u32, 2, 8, 32] {
            let (mem, reg) = world(n);
            let p = Pid::new(0);
            reg.prepare(&mem, p, &OpSpec::Write(1));
            let mut m = reg.invoke(p, &OpSpec::Write(1));
            let mut steps = 0;
            loop {
                steps += 1;
                if m.step(&mem).is_ready() {
                    break;
                }
                assert!(steps < 10_000);
            }
            assert_eq!(steps, (n + 10) as usize);
        }
    }

    #[test]
    fn space_is_bounded_theta_n_squared_shared() {
        let mut b = LayoutBuilder::new();
        let _reg = DetectableRegister::new(&mut b, 8, 0);
        let layout = b.finish();
        // Shared: R (39 bits) + A (2·N² bits).
        assert_eq!(layout.shared_bits(), 39 + 2 * 8 * 8);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn rejects_foreign_ops() {
        let (_, reg) = world(2);
        let _ = reg.invoke(Pid::new(0), &OpSpec::Inc);
    }

    #[test]
    fn machines_encode_distinct_states() {
        let (mem, reg) = world(2);
        let p = Pid::new(0);
        reg.prepare(&mem, p, &OpSpec::Write(1));
        let mut m = reg.invoke(p, &OpSpec::Write(1));
        let e0 = m.encode();
        let _ = m.step(&mem);
        assert_ne!(m.encode(), e0);
    }
}
