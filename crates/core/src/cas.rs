//! **Algorithm 2** — the bounded-space detectable CAS object.
//!
//! The first detectable CAS implementation using bounded space (paper
//! Section 4.1). The object's state is a single CAS-able shared variable
//! `C = ⟨val, vec⟩` where `vec` is an `N`-bit vector: a *successful* CAS by
//! process `p` atomically flips `vec[p]` together with installing the new
//! value. Since only `p` ever changes `vec[p]`, the recovery function can
//! decide whether `p`'s crashed CAS took effect by comparing `vec[p]` with
//! the flipped bit `p` persisted into `RD_p` *before* attempting the CAS:
//!
//! * `vec[p] == RD_p` — the CAS succeeded (and nothing since changed the
//!   bit, as only `p`'s next successful CAS could);
//! * `vec[p] != RD_p` — either the CAS failed or it was never executed; in
//!   both cases the operation was not linearized, so recovery returns `fail`.
//!
//! The object therefore uses exactly `N` shared bits beyond the value — and
//! Theorem 1 (reproduced by the census experiment in the `harness` crate)
//! shows Ω(N) bits are necessary, making this algorithm asymptotically
//! space-optimal.
//!
//! # Example
//!
//! ```
//! use detectable::{DetectableCas, OpSpec, RecoverableObject};
//! use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, TRUE, FALSE};
//!
//! let mut b = LayoutBuilder::new();
//! let cas = DetectableCas::new(&mut b, 2, 0);
//! let mem = SimMemory::new(b.finish());
//! let p = Pid::new(0);
//!
//! let op = OpSpec::Cas { old: 0, new: 5 };
//! cas.prepare(&mem, p, &op);
//! let mut m = cas.invoke(p, &op);
//! assert_eq!(run_to_completion(&mut *m, &mem, 100).unwrap(), TRUE);
//!
//! let op2 = OpSpec::Cas { old: 0, new: 9 };
//! cas.prepare(&mem, p, &op2);
//! let mut m2 = cas.invoke(p, &op2);
//! assert_eq!(run_to_completion(&mut *m2, &mem, 100).unwrap(), FALSE);
//! ```

use nvm::{
    encode_to_vec, AnnBank, Field, FieldBuilder, LayoutBuilder, Loc, Machine, Memory, Pid, Poll,
    Word, FALSE, RESP_FAIL, RESP_NONE, TRUE,
};

use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

/// Maximum processes: the value (32 bits) and the vector (N bits) must share
/// one 64-bit CAS-able word, mirroring the paper's single Ω(N)-bit variable.
pub const MAX_CAS_PROCESSES: u32 = 32;

#[derive(Copy, Clone, Debug)]
pub(crate) struct CasInner {
    n: u32,
    init: u32,
    c_val: Field,
    c_vec: Field,
    c: Loc,
    rd: Loc,
    ann: AnnBank,
}

impl CasInner {
    fn pack(&self, val: u32, vec: u64) -> Word {
        self.c_vec.set(self.c_val.set(0, u64::from(val)), vec)
    }

    fn unpack(&self, w: Word) -> (u32, u64) {
        (self.c_val.get(w) as u32, self.c_vec.get(w))
    }

    fn rd_loc(&self, pid: Pid) -> Loc {
        self.rd.at(pid.idx())
    }
}

/// The bounded-space detectable CAS object of paper Section 4.1.
///
/// Supports [`OpSpec::Cas`] and [`OpSpec::Read`]; both are wait-free and
/// `Cas` is detectable through lines 38–46 of the paper. See the
/// [module documentation](self) for the algorithm and its space bound.
#[derive(Copy, Clone, Debug)]
pub struct DetectableCas {
    /// Compositions (counter, FAA, swap, TAS) build their nested CAS
    /// machines from it.
    pub(crate) inner: CasInner,
}

impl DetectableCas {
    /// Allocates a CAS object for `n` processes with initial value `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds [`MAX_CAS_PROCESSES`].
    pub fn new(b: &mut LayoutBuilder, n: u32, init: u32) -> Self {
        Self::with_name(b, "cas", n, init)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32, init: u32) -> Self {
        assert!((1..=MAX_CAS_PROCESSES).contains(&n), "n must be in 1..=32");
        let mut cf = FieldBuilder::new();
        let c_val = cf.field(32);
        let c_vec = cf.field(n);
        let c = b.shared(&format!("{name}.C"), 1, cf.bits_used());
        let rd = b.private_array(&format!("{name}.RD"), n, 1, 1);
        let ann = AnnBank::alloc(b, name, n, 1);
        DetectableCas {
            inner: CasInner {
                n,
                init,
                c_val,
                c_vec,
                c,
                rd,
                ann,
            },
        }
    }

    /// Materializes a nonzero initial value `⟨init, 0…0⟩` in fresh memory.
    pub fn initialize(&self, mem: &dyn Memory) {
        mem.write_pp(
            Pid::new(0),
            self.inner.c,
            self.inner.pack(self.inner.init, 0),
        );
    }

    /// The current logical value of the object (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.inner.unpack(mem.read(Pid::new(0), self.inner.c)).0
    }

    /// The current toggle vector (diagnostic helper for the census).
    pub fn peek_vec(&self, mem: &dyn Memory) -> u64 {
        self.inner.unpack(mem.read(Pid::new(0), self.inner.c)).1
    }

    /// The announcement bank, for in-crate compositions (counter, FAA, TAS)
    /// that act as the caller of inner CAS operations and must execute the
    /// caller protocol step by step.
    pub(crate) fn ann(&self) -> &AnnBank {
        &self.inner.ann
    }

    /// One primitive read of `C` returning the value component, for in-crate
    /// compositions. Unlike the public `Read` operation this does **not**
    /// persist anything into `Ann_p.resp` — compositions must not pollute
    /// the announcement their own recovery consults.
    pub(crate) fn read_value_raw(&self, mem: &dyn Memory, pid: Pid) -> u32 {
        self.inner.unpack(mem.read_pp(pid, self.inner.c)).0
    }
}

impl RecoverableObject for DetectableCas {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Cas { old, new } => Box::new(CasMachine::new(self.inner, pid, old, new)),
            OpSpec::Read => Box::new(CasReadMachine::new(self.inner, pid)),
            ref other => panic!("cas object does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Cas { .. } => Box::new(CasRecoverMachine::new(self.inner, pid)),
            OpSpec::Read => Box::new(CasReadRecoverMachine::new(self.inner, pid)),
            ref other => panic!("cas object does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Cas
    }

    fn name(&self) -> &'static str {
        "detectable-cas"
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        match *op {
            OpSpec::Cas { old, new } => CasMachine::decode(self.inner, pid, old, new, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            OpSpec::Read => CasReadMachine::decode(self.inner, pid, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            _ => None,
        }
    }

    /// The only pid-dependent encoding beyond the (generically relocated)
    /// private regions is the `N`-bit toggle vector packed inside `C`:
    /// process `p`'s bit moves to position `perm[p]`. `RD_p` holds a single
    /// toggle *bit value* and `Ann_p` holds responses, both pid-free.
    fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
        let o = &self.inner;
        if perm.len() != o.n as usize {
            return false;
        }
        let (val, vec) = o.unpack(words[o.c.index()]);
        let mut permuted = 0u64;
        for (p, &q) in perm.iter().enumerate() {
            permuted |= ((vec >> p) & 1) << q;
        }
        words[o.c.index()] = o.pack(val, permuted);
        true
    }
}

// ---------------------------------------------------------------------------
// Cas (paper lines 28–37)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum CState {
    L28,
    /// Fast path: persist `resp` (false for value mismatch, true for the
    /// effect-free `Cas(x, x)`) and return without touching `C`.
    L30 {
        resp: Word,
    },
    L33, // RD_p := newvec[p]
    L34, // CP := 1
    L35, // the CAS
    L36, // persist response
    Done,
}

#[derive(Clone)]
pub(crate) struct CasMachine {
    obj: CasInner,
    pid: Pid,
    old: u32,
    new: u32,
    state: CState,
    val: u32,
    vec: u64,
    newvec: u64,
    res: bool,
}

impl CasMachine {
    pub(crate) fn new(obj: CasInner, pid: Pid, old: u32, new: u32) -> Self {
        CasMachine {
            obj,
            pid,
            old,
            new,
            state: CState::L28,
            val: 0,
            vec: 0,
            newvec: 0,
            res: false,
        }
    }

    /// Inverse of [`Machine::encode`]: rebuilds a `Cas(old, new)` machine
    /// from its encoding. Compositions (counter, swap, TAS) also route
    /// their nested CAS machines through this — the operation arguments are
    /// recoverable because `encode` stores them in `words[1..=2]`.
    pub(crate) fn decode(
        obj: CasInner,
        pid: Pid,
        old: u32,
        new: u32,
        words: &[Word],
    ) -> Option<CasMachine> {
        if words.len() != 7
            || words[1] != u64::from(old)
            || words[2] != u64::from(new)
            || words[6] > 1
        {
            return None;
        }
        let state = match words[0] {
            28 => CState::L28,
            s @ 30..=31 => CState::L30 { resp: s - 30 },
            33 => CState::L33,
            34 => CState::L34,
            35 => CState::L35,
            36 => CState::L36,
            37 => CState::Done,
            _ => return None,
        };
        Some(CasMachine {
            obj,
            pid,
            old,
            new,
            state,
            val: u32::try_from(words[3]).ok()?,
            vec: words[4],
            newvec: words[5],
            res: words[6] == 1,
        })
    }
}

impl Machine for CasMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            CState::L28 => {
                // 28: ⟨val, vec⟩ := C
                (self.val, self.vec) = o.unpack(mem.read_pp(p, o.c));
                if self.val != self.old {
                    // 29: CAS failed; return false after persisting.
                    self.state = CState::L30 { resp: FALSE };
                } else if self.old == self.new {
                    // Degenerate Cas(x, x): effect-free, so linearize at this
                    // read and return true WITHOUT touching C. The paper's
                    // Lemma 2 implicitly assumes old ≠ new ("the value of C
                    // after [an intervening successful CAS] must be other
                    // than old"); executing the vector flip here would break
                    // linearizability of concurrent failed CASes, since the
                    // value would not change while vec does.
                    self.state = CState::L30 { resp: TRUE };
                } else {
                    // 32: newvec := flipBit(vec, p) — local computation.
                    self.newvec = self.vec ^ (1 << p.get());
                    self.state = CState::L33;
                }
                Poll::Pending
            }
            CState::L30 { resp } => {
                // 30–31: Ann_p.result := resp; return resp
                o.ann.write_resp(mem, p, resp);
                self.state = CState::Done;
                Poll::Ready(resp)
            }
            CState::L33 => {
                // 33: RD_p := newvec[p]
                mem.write_pp(p, o.rd_loc(p), (self.newvec >> p.get()) & 1);
                self.state = CState::L34;
                Poll::Pending
            }
            CState::L34 => {
                // 34: Ann_p.CP := 1
                o.ann.write_cp(mem, p, 1);
                self.state = CState::L35;
                Poll::Pending
            }
            CState::L35 => {
                // 35: res := C.CAS(⟨val, vec⟩, ⟨new, newvec⟩)
                self.res = mem.cas_pp(
                    p,
                    o.c,
                    o.pack(self.val, self.vec),
                    o.pack(self.new, self.newvec),
                );
                self.state = CState::L36;
                Poll::Pending
            }
            CState::L36 => {
                // 36–37: Ann_p.result := res; return res
                let w = if self.res { TRUE } else { FALSE };
                o.ann.write_resp(mem, p, w);
                self.state = CState::Done;
                Poll::Ready(w)
            }
            CState::Done => panic!("stepped a completed Cas machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            CState::L28 => "cas:28",
            CState::L30 { .. } => "cas:30",
            CState::L33 => "cas:33",
            CState::L34 => "cas:34",
            CState::L35 => "cas:35",
            CState::L36 => "cas:36",
            CState::Done => "cas:done",
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
            CState::L28 => 28,
            CState::L30 { resp } => 30 + resp,
            CState::L33 => 33,
            CState::L34 => 34,
            CState::L35 => 35,
            CState::L36 => 36,
            CState::Done => 37,
        };
        out.extend_from_slice(&[
            s,
            u64::from(self.old),
            u64::from(self.new),
            u64::from(self.val),
            self.vec,
            self.newvec,
            u64::from(self.res),
        ]);
    }
}

// ---------------------------------------------------------------------------
// Cas.Recover (paper lines 38–46)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum CRState {
    L38,
    L40,
    L42,
    L43,
    L45,
    Done,
}

#[derive(Clone)]
pub(crate) struct CasRecoverMachine {
    obj: CasInner,
    pid: Pid,
    state: CRState,
    vec: u64,
}

impl CasRecoverMachine {
    pub(crate) fn new(obj: CasInner, pid: Pid) -> Self {
        CasRecoverMachine {
            obj,
            pid,
            state: CRState::L38,
            vec: 0,
        }
    }
}

impl Machine for CasRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            CRState::L38 => {
                // 38–39: if Ann_p.result ≠ ⊥ then return it
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = CRState::Done;
                    return Poll::Ready(resp);
                }
                self.state = CRState::L40;
                Poll::Pending
            }
            CRState::L40 => {
                // 40–41: if Ann_p.CP = 0 then return fail
                if o.ann.read_cp(mem, p) == 0 {
                    self.state = CRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = CRState::L42;
                Poll::Pending
            }
            CRState::L42 => {
                // 42: ⟨val, vec⟩ := C
                (_, self.vec) = o.unpack(mem.read_pp(p, o.c));
                self.state = CRState::L43;
                Poll::Pending
            }
            CRState::L43 => {
                // 43–44: if vec[p] ≠ RD_p then return fail
                let rd = mem.read_pp(p, o.rd_loc(p));
                if (self.vec >> p.get()) & 1 != rd {
                    self.state = CRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = CRState::L45;
                Poll::Pending
            }
            CRState::L45 => {
                // 45–46: Ann_p.result := true; return true
                o.ann.write_resp(mem, p, TRUE);
                self.state = CRState::Done;
                Poll::Ready(TRUE)
            }
            CRState::Done => panic!("stepped a completed Cas.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            CRState::L38 => "cas.rec:38",
            CRState::L40 => "cas.rec:40",
            CRState::L42 => "cas.rec:42",
            CRState::L43 => "cas.rec:43",
            CRState::L45 => "cas.rec:45",
            CRState::Done => "cas.rec:done",
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
            CRState::L38 => 38,
            CRState::L40 => 40,
            CRState::L42 => 42,
            CRState::L43 => 43,
            CRState::L45 => 45,
            CRState::Done => 46,
        };
        out.extend_from_slice(&[s, self.vec]);
    }
}

// ---------------------------------------------------------------------------
// Read and Read.Recover (described in prose in the paper)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum CRdState {
    ReadC,
    Persist,
    Done,
}

#[derive(Clone)]
struct CasReadMachine {
    obj: CasInner,
    pid: Pid,
    state: CRdState,
    val: u32,
}

impl CasReadMachine {
    fn new(obj: CasInner, pid: Pid) -> Self {
        CasReadMachine {
            obj,
            pid,
            state: CRdState::ReadC,
            val: 0,
        }
    }

    /// Inverse of [`Machine::encode`] for the `Read` machine.
    fn decode(obj: CasInner, pid: Pid, words: &[Word]) -> Option<CasReadMachine> {
        if words.len() != 2 {
            return None;
        }
        let state = match words[0] {
            1 => CRdState::ReadC,
            2 => CRdState::Persist,
            3 => CRdState::Done,
            _ => return None,
        };
        Some(CasReadMachine {
            obj,
            pid,
            state,
            val: u32::try_from(words[1]).ok()?,
        })
    }
}

impl Machine for CasReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        match self.state {
            CRdState::ReadC => {
                (self.val, _) = o.unpack(mem.read_pp(self.pid, o.c));
                self.state = CRdState::Persist;
                Poll::Pending
            }
            CRdState::Persist => {
                o.ann.write_resp(mem, self.pid, u64::from(self.val));
                self.state = CRdState::Done;
                Poll::Ready(u64::from(self.val))
            }
            CRdState::Done => panic!("stepped a completed Read machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            CRdState::ReadC => "cas.read:C",
            CRdState::Persist => "cas.read:persist",
            CRdState::Done => "cas.read:done",
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
            CRdState::ReadC => 1,
            CRdState::Persist => 2,
            CRdState::Done => 3,
        };
        out.extend_from_slice(&[s, u64::from(self.val)]);
    }
}

#[derive(Clone)]
struct CasReadRecoverMachine {
    obj: CasInner,
    pid: Pid,
    checked: bool,
    inner: Option<CasReadMachine>,
}

impl CasReadRecoverMachine {
    fn new(obj: CasInner, pid: Pid) -> Self {
        CasReadRecoverMachine {
            obj,
            pid,
            checked: false,
            inner: None,
        }
    }
}

impl Machine for CasReadRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        if !self.checked {
            self.checked = true;
            let resp = self.obj.ann.read_resp(mem, self.pid);
            if resp != RESP_NONE {
                return Poll::Ready(resp);
            }
            self.inner = Some(CasReadMachine::new(self.obj, self.pid));
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
            "cas.read.rec:check"
        } else {
            "cas.read.rec:reinvoke"
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
    use nvm::{run_to_completion, SimMemory, ACK};

    /// The handle and its descriptor are `Copy`, and no machine owns a
    /// reference count or a heap allocation: each carries its object's
    /// locations by value.
    #[test]
    fn machines_carry_locations_by_value() {
        const {
            crate::object::assert_copy::<DetectableCas>();
            crate::object::assert_copy::<CasInner>();
            crate::object::assert_copy::<AnnBank>();
            assert!(!std::mem::needs_drop::<CasMachine>());
            assert!(!std::mem::needs_drop::<CasRecoverMachine>());
            assert!(!std::mem::needs_drop::<CasReadMachine>());
            assert!(!std::mem::needs_drop::<CasReadRecoverMachine>());
        }
    }

    fn world(n: u32) -> (SimMemory, DetectableCas) {
        let mut b = LayoutBuilder::new();
        let cas = DetectableCas::new(&mut b, n, 0);
        (SimMemory::new(b.finish()), cas)
    }

    fn do_cas(obj: &DetectableCas, mem: &SimMemory, pid: Pid, old: u32, new: u32) -> Word {
        let op = OpSpec::Cas { old, new };
        obj.prepare(mem, pid, &op);
        let mut m = obj.invoke(pid, &op);
        run_to_completion(&mut *m, mem, 100).unwrap()
    }

    fn do_read(obj: &DetectableCas, mem: &SimMemory, pid: Pid) -> Word {
        obj.prepare(mem, pid, &OpSpec::Read);
        let mut m = obj.invoke(pid, &OpSpec::Read);
        run_to_completion(&mut *m, mem, 100).unwrap()
    }

    #[test]
    fn successful_and_failed_cas() {
        let (mem, cas) = world(2);
        assert_eq!(do_cas(&cas, &mem, Pid::new(0), 0, 5), TRUE);
        assert_eq!(do_cas(&cas, &mem, Pid::new(1), 0, 7), FALSE);
        assert_eq!(do_cas(&cas, &mem, Pid::new(1), 5, 7), TRUE);
        assert_eq!(do_read(&cas, &mem, Pid::new(0)), 7);
    }

    #[test]
    fn successful_cas_flips_own_vec_bit() {
        let (mem, cas) = world(3);
        assert_eq!(cas.peek_vec(&mem), 0b000);
        do_cas(&cas, &mem, Pid::new(1), 0, 4);
        assert_eq!(cas.peek_vec(&mem), 0b010);
        do_cas(&cas, &mem, Pid::new(1), 4, 6);
        assert_eq!(cas.peek_vec(&mem), 0b000);
        do_cas(&cas, &mem, Pid::new(2), 6, 8);
        assert_eq!(cas.peek_vec(&mem), 0b100);
    }

    #[test]
    fn failed_cas_does_not_touch_vec() {
        let (mem, cas) = world(2);
        do_cas(&cas, &mem, Pid::new(0), 3, 4); // fails: value is 0
        assert_eq!(cas.peek_vec(&mem), 0);
    }

    #[test]
    fn nonzero_initialization() {
        let mut b = LayoutBuilder::new();
        let cas = DetectableCas::new(&mut b, 2, 9);
        let mem = SimMemory::new(b.finish());
        cas.initialize(&mem);
        assert_eq!(do_read(&cas, &mem, Pid::new(0)), 9);
        assert_eq!(do_cas(&cas, &mem, Pid::new(0), 9, 1), TRUE);
    }

    /// Crash a solo successful Cas at every step boundary; the recovery
    /// verdict must match whether C changed.
    #[test]
    fn crash_at_every_line_success_path() {
        // Steps of a successful CAS: L28, L33, L34, L35, L36 = 5.
        for crash_after in 0..5 {
            let (mem, cas) = world(2);
            let p = Pid::new(0);
            let op = OpSpec::Cas { old: 0, new: 5 };
            cas.prepare(&mem, p, &op);
            let mut m = cas.invoke(p, &op);
            for _ in 0..crash_after {
                assert!(!m.step(&mem).is_ready());
            }
            drop(m);

            let mut rec = cas.recover(p, &op);
            let verdict = run_to_completion(&mut *rec, &mem, 100).unwrap();
            let value = cas.peek_value(&mem);
            if verdict == RESP_FAIL {
                assert_eq!(
                    value, 0,
                    "fail verdict but CAS visible (crash_after={crash_after})"
                );
            } else {
                assert_eq!(verdict, TRUE);
                assert_eq!(
                    value, 5,
                    "true verdict but CAS missing (crash_after={crash_after})"
                );
            }
        }
    }

    /// Crash a solo failing Cas (wrong old value) at every step boundary.
    #[test]
    fn crash_at_every_line_failure_path() {
        for crash_after in 0..2 {
            let (mem, cas) = world(2);
            let p = Pid::new(0);
            do_cas(&cas, &mem, p, 0, 3); // value now 3
            let op = OpSpec::Cas { old: 9, new: 5 };
            cas.prepare(&mem, p, &op);
            let mut m = cas.invoke(p, &op);
            for _ in 0..crash_after {
                assert!(!m.step(&mem).is_ready());
            }
            drop(m);
            let mut rec = cas.recover(p, &op);
            let verdict = run_to_completion(&mut *rec, &mem, 100).unwrap();
            // Either the op never got anywhere (fail) or it persisted false.
            assert!(verdict == RESP_FAIL || verdict == FALSE);
            assert_eq!(cas.peek_value(&mem), 3);
        }
    }

    /// The contended case: p's CAS at line 35 loses to q. Recovery must
    /// return fail (vec[p] still unflipped) even though CP = 1.
    #[test]
    fn lost_race_recovers_fail() {
        let (mem, cas) = world(2);
        let p = Pid::new(0);
        let q = Pid::new(1);
        let op = OpSpec::Cas { old: 0, new: 5 };
        cas.prepare(&mem, p, &op);
        let mut m = cas.invoke(p, &op);
        // L28 (reads 0), L33, L34 — stop before the CAS.
        for _ in 0..3 {
            assert!(!m.step(&mem).is_ready());
        }
        // q succeeds first.
        assert_eq!(do_cas(&cas, &mem, q, 0, 9), TRUE);
        // p's CAS now fails; crash right after it, before persisting resp.
        assert!(!m.step(&mem).is_ready()); // L35: CAS fails
        drop(m);

        let mut rec = cas.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), RESP_FAIL);
        assert_eq!(cas.peek_value(&mem), 9);
    }

    /// The ABA-resistance guarantee: even if the value returns to `old`
    /// via other processes, p's own vec bit tells the truth.
    #[test]
    fn value_aba_does_not_confuse_recovery() {
        let (mem, cas) = world(3);
        let p = Pid::new(0);
        let op = OpSpec::Cas { old: 0, new: 5 };
        cas.prepare(&mem, p, &op);
        let mut m = cas.invoke(p, &op);
        for _ in 0..3 {
            let _ = m.step(&mem); // stop before the CAS
        }
        // q: 0 → 7, r: 7 → 0. Value is old again but vecs differ.
        assert_eq!(do_cas(&cas, &mem, Pid::new(1), 0, 7), TRUE);
        assert_eq!(do_cas(&cas, &mem, Pid::new(2), 7, 0), TRUE);
        // p's CAS fails (vec changed even though value matches) — this is
        // exactly why vec is *inside* the CAS-able word.
        assert!(!m.step(&mem).is_ready());
        drop(m);
        let mut rec = cas.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), RESP_FAIL);
    }

    #[test]
    fn recovery_after_completion_returns_persisted_response() {
        let (mem, cas) = world(2);
        let p = Pid::new(0);
        let op = OpSpec::Cas { old: 0, new: 5 };
        assert_eq!(do_cas(&cas, &mem, p, 0, 5), TRUE);
        let mut rec = cas.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), TRUE);
    }

    #[test]
    fn crash_inside_recovery_is_reenterable() {
        let (mem, cas) = world(2);
        let p = Pid::new(0);
        let op = OpSpec::Cas { old: 0, new: 5 };
        cas.prepare(&mem, p, &op);
        let mut m = cas.invoke(p, &op);
        for _ in 0..4 {
            let _ = m.step(&mem); // through L35: CAS performed
        }
        drop(m);
        for crash_after in 0..4 {
            let mut rec = cas.recover(p, &op);
            for _ in 0..crash_after {
                if rec.step(&mem).is_ready() {
                    break;
                }
            }
            drop(rec);
        }
        let mut rec = cas.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), TRUE);
        assert_eq!(cas.peek_value(&mem), 5);
    }

    #[test]
    fn read_recovery_paths() {
        let (mem, cas) = world(2);
        let p = Pid::new(0);
        do_cas(&cas, &mem, p, 0, 8);
        // Crash before response persisted → re-invoke.
        cas.prepare(&mem, p, &OpSpec::Read);
        let mut r = cas.invoke(p, &OpSpec::Read);
        let _ = r.step(&mem);
        drop(r);
        let mut rec = cas.recover(p, &OpSpec::Read);
        assert_eq!(run_to_completion(&mut *rec, &mem, 100).unwrap(), 8);
        // Completed read → recovery returns the persisted response.
        assert_eq!(do_read(&cas, &mem, p), 8);
        let mut rec2 = cas.recover(p, &OpSpec::Read);
        assert_eq!(run_to_completion(&mut *rec2, &mem, 100).unwrap(), 8);
    }

    #[test]
    fn cas_is_wait_free_constant_steps() {
        for n in [1u32, 4, 32] {
            let (mem, cas) = world(n);
            let p = Pid::new(0);
            let op = OpSpec::Cas { old: 0, new: 1 };
            cas.prepare(&mem, p, &op);
            let mut m = cas.invoke(p, &op);
            let mut steps = 0;
            while !m.step(&mem).is_ready() {
                steps += 1;
                assert!(steps < 100);
            }
            assert_eq!(steps + 1, 5, "CAS step count must not depend on N");
        }
    }

    #[test]
    fn space_is_theta_n_bits_beyond_value() {
        for n in [2u32, 8, 32] {
            let mut b = LayoutBuilder::new();
            let _cas = DetectableCas::new(&mut b, n, 0);
            let layout = b.finish();
            // Shared bits: 32 (value) + N (vector).
            assert_eq!(layout.shared_bits(), 32 + u64::from(n));
        }
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn rejects_foreign_ops() {
        let (_, cas) = world(2);
        let _ = cas.invoke(Pid::new(0), &OpSpec::Write(1));
    }

    #[test]
    fn ack_constant_not_confused_with_true() {
        // TRUE and ACK share an encoding by design; this documents it.
        assert_eq!(TRUE, ACK);
    }

    #[test]
    fn permute_memory_maps_executions_across_pids() {
        // World A: p0 succeeds then p2 fails. World B: the same ops by p1
        // and p2 (renaming 0↔1). The canonicalized memories must coincide
        // exactly: generic private relocation + the vec-bit permutation.
        let (mem_a, cas_a) = world(3);
        do_cas(&cas_a, &mem_a, Pid::new(0), 0, 5);
        do_cas(&cas_a, &mem_a, Pid::new(2), 0, 9); // fails: value is 5
        let (mem_b, cas_b) = world(3);
        do_cas(&cas_b, &mem_b, Pid::new(1), 0, 5);
        do_cas(&cas_b, &mem_b, Pid::new(2), 0, 9);

        let perm = [1u32, 0, 2];
        let mut words = Vec::new();
        assert!(mem_a.logical_words_permuted(&perm, true, &mut words));
        assert!(cas_a.permute_memory(&mut words, &perm));
        assert_eq!(words, mem_b.full_key());
        let _ = cas_b;
    }

    #[test]
    fn permute_memory_is_invertible_on_the_vec() {
        let (mem, cas) = world(4);
        do_cas(&cas, &mem, Pid::new(1), 0, 3);
        do_cas(&cas, &mem, Pid::new(3), 3, 0);
        let original = mem.full_key();
        let mut words = original.clone();
        assert!(cas.permute_memory(&mut words, &[2, 0, 3, 1]));
        assert_ne!(words, original, "bits 1 and 3 moved");
        // Inverse of [2,0,3,1] is [1,3,0,2].
        assert!(cas.permute_memory(&mut words, &[1, 3, 0, 2]));
        assert_eq!(words, original);
        assert!(
            !cas.permute_memory(&mut words, &[0, 1]),
            "arity mismatch is rejected"
        );
    }
}
