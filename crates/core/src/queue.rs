//! A detectable durable FIFO queue in the style of Friedman et al. \[9\].
//!
//! The paper repeatedly uses the queue of Friedman, Herlihy, Marathe and
//! Petrank (PPoPP 2018) as its example of a detectable object whose
//! auxiliary state is **unbounded**: every operation carries a unique
//! identifier. This module reproduces that design over the simulated NVM
//! arena, providing the contrast object for the space experiments (its
//! per-process sequence numbers grow without bound, unlike Algorithms 1–2).
//!
//! Design (a Michael–Scott queue with durable linearization points):
//!
//! * nodes live in a shared arena, partitioned into per-process slabs so
//!   allocation is crash-safe without synchronization; node 0 is the dummy;
//! * `Enq` appends by CAS on the last node's `next`; that CAS is the
//!   linearization point; the enqueuer persists the allocated node index in
//!   private NVM *before* attempting to link, so recovery can decide "was my
//!   node linked?" by scanning `next` pointers;
//! * `Deq` claims the first node by CAS on its `deq_id` field from 0 to the
//!   operation's unique id (the linearization point), then swings `HEAD`;
//!   recovery scans `deq_id` fields for its id;
//! * ids are `(seq << 6) | pid` with `seq` drawn from a per-process NVM
//!   counter incremented by the caller in `prepare` — auxiliary state **via
//!   operation arguments**, in the terms of the paper's Definition 1.
//!
//! Nodes are never reclaimed (indices are never reused), which rules out ABA
//! on `next`/`deq_id` and keeps recovery scans sound; the arena capacity is
//! fixed at construction. `Enq`/`Deq` are lock-free.

use nvm::{
    encode_to_vec, AnnBank, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, ACK, RESP_FAIL,
    RESP_NONE,
};

use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject, EMPTY};

#[derive(Copy, Clone, Debug)]
struct QueueInner {
    n: u32,
    cap: u32,
    slab: u32,
    head: Loc,
    tail: Loc,
    nodes: Loc,
    seq: Loc,
    enq_node: Loc,
    enq_last: Loc,
    deq_node: Loc,
    alloc: Loc,
    ann: AnnBank,
}

impl QueueInner {
    fn value_loc(&self, idx: u32) -> Loc {
        self.nodes.at((idx * 3) as usize)
    }

    fn next_loc(&self, idx: u32) -> Loc {
        self.nodes.at((idx * 3 + 1) as usize)
    }

    fn deq_id_loc(&self, idx: u32) -> Loc {
        self.nodes.at((idx * 3 + 2) as usize)
    }

    fn seq_loc(&self, pid: Pid) -> Loc {
        self.seq.at(pid.idx())
    }

    fn enq_node_loc(&self, pid: Pid) -> Loc {
        self.enq_node.at(pid.idx())
    }

    fn enq_last_loc(&self, pid: Pid) -> Loc {
        self.enq_last.at(pid.idx())
    }

    fn deq_node_loc(&self, pid: Pid) -> Loc {
        self.deq_node.at(pid.idx())
    }

    fn alloc_loc(&self, pid: Pid) -> Loc {
        self.alloc.at(pid.idx())
    }

    fn slab_base(&self, pid: Pid) -> u32 {
        1 + pid.get() * self.slab
    }

    fn op_id(&self, pid: Pid, seq: Word) -> Word {
        (seq << 6) | Word::from(pid.get())
    }
}

/// A detectable durable FIFO queue (see the [module docs](self)).
///
/// Supports [`OpSpec::Enq`] and [`OpSpec::Deq`]; `Deq` on an empty queue
/// returns [`EMPTY`].
///
/// # Example
///
/// ```
/// use detectable::{DetectableQueue, OpSpec, RecoverableObject, EMPTY};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, ACK};
///
/// let mut b = LayoutBuilder::new();
/// let q = DetectableQueue::new(&mut b, 2, 64);
/// let mem = SimMemory::new(b.finish());
/// let p = Pid::new(0);
///
/// q.prepare(&mem, p, &OpSpec::Enq(7));
/// let mut e = q.invoke(p, &OpSpec::Enq(7));
/// assert_eq!(run_to_completion(&mut *e, &mem, 1000).unwrap(), ACK);
///
/// q.prepare(&mem, p, &OpSpec::Deq);
/// let mut d = q.invoke(p, &OpSpec::Deq);
/// assert_eq!(run_to_completion(&mut *d, &mem, 1000).unwrap(), 7);
///
/// q.prepare(&mem, p, &OpSpec::Deq);
/// let mut d2 = q.invoke(p, &OpSpec::Deq);
/// assert_eq!(run_to_completion(&mut *d2, &mem, 1000).unwrap(), EMPTY);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct DetectableQueue {
    inner: QueueInner,
}

impl DetectableQueue {
    /// Allocates a queue for `n` processes with an arena of `cap` nodes
    /// (bounding the *total* number of enqueue attempts over the object's
    /// lifetime, since nodes are not reclaimed).
    ///
    /// # Panics
    ///
    /// Panics if the arena is too small to give each process at least one
    /// node beyond the dummy, or if `n` exceeds 64 (id packing).
    pub fn new(b: &mut LayoutBuilder, n: u32, cap: u32) -> Self {
        Self::with_name(b, "queue", n, cap)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32, cap: u32) -> Self {
        assert!((1..=64).contains(&n), "n must be in 1..=64");
        let slab = (cap.saturating_sub(1)) / n;
        assert!(slab >= 1, "arena too small: need at least {} nodes", n + 1);
        let head = b.shared(&format!("{name}.HEAD"), 1, 32);
        let tail = b.shared(&format!("{name}.TAIL"), 1, 32);
        let nodes = b.shared(&format!("{name}.NODES"), cap * 3, 64);
        let seq = b.private_array(&format!("{name}.SEQ"), n, 1, 64);
        let enq_node = b.private_array(&format!("{name}.ENQ_NODE"), n, 1, 32);
        let enq_last = b.private_array(&format!("{name}.ENQ_LAST"), n, 1, 32);
        let deq_node = b.private_array(&format!("{name}.DEQ_NODE"), n, 1, 32);
        let alloc = b.private_array(&format!("{name}.ALLOC"), n, 1, 32);
        let ann = AnnBank::alloc(b, name, n, 1);
        DetectableQueue {
            inner: QueueInner {
                n,
                cap,
                slab,
                head,
                tail,
                nodes,
                seq,
                enq_node,
                enq_last,
                deq_node,
                alloc,
                ann,
            },
        }
    }

    /// Drains the queue's current contents without machines (diagnostic
    /// helper; not linearizable with concurrent operations).
    pub fn peek_contents(&self, mem: &dyn Memory) -> Vec<u32> {
        let o = &self.inner;
        let p = Pid::new(0);
        let mut out = Vec::new();
        let mut cur = mem.read(p, o.head) as u32;
        loop {
            let nxt = mem.read(p, o.next_loc(cur));
            if nxt == 0 {
                break;
            }
            let idx = (nxt - 1) as u32;
            if mem.read(p, o.deq_id_loc(idx)) == 0 {
                out.push(mem.read(p, o.value_loc(idx)) as u32);
            }
            cur = idx;
        }
        out
    }
}

impl RecoverableObject for DetectableQueue {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.inner.ann.prepare(mem, pid);
        // Assign the unique operation id: auxiliary state via arguments.
        let s = mem.read(pid, self.inner.seq_loc(pid));
        mem.write_pp(pid, self.inner.seq_loc(pid), s + 1);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Enq(v) => Box::new(EnqMachine::new(self.inner, pid, v)),
            OpSpec::Deq => Box::new(DeqMachine::new(self.inner, pid)),
            ref other => panic!("queue does not support {other}"),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match *op {
            OpSpec::Enq(_) => Box::new(EnqRecoverMachine::new(self.inner, pid)),
            OpSpec::Deq => Box::new(DeqRecoverMachine::new(self.inner, pid)),
            ref other => panic!("queue does not support {other}"),
        }
    }

    fn processes(&self) -> u32 {
        self.inner.n
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Queue
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        match *op {
            OpSpec::Enq(v) => EnqMachine::decode(self.inner, pid, v, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
            OpSpec::Deq => {
                DeqMachine::decode(self.inner, pid, words).map(|m| Box::new(m) as Box<dyn Machine>)
            }
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        "detectable-queue"
    }
}

// ---------------------------------------------------------------------------
// Enq
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum EState {
    AllocRead,
    WriteValue,
    WriteNext,
    WriteEnqNode,
    AllocBump,
    Checkpoint,
    ReadTail,
    ReadNext,
    PersistLast,
    CasNext,
    SwingTail,
    HelpSwing,
    PersistResp,
    Done,
}

#[derive(Clone)]
struct EnqMachine {
    obj: QueueInner,
    pid: Pid,
    val: u32,
    state: EState,
    idx: u32,
    alloc_count: u32,
    last: u32,
    nxt: Word,
}

impl EnqMachine {
    fn new(obj: QueueInner, pid: Pid, val: u32) -> Self {
        EnqMachine {
            obj,
            pid,
            val,
            state: EState::AllocRead,
            idx: 0,
            alloc_count: 0,
            last: 0,
            nxt: 0,
        }
    }

    /// Inverse of [`Machine::encode`] for `Enq(val)`.
    fn decode(obj: QueueInner, pid: Pid, val: u32, words: &[Word]) -> Option<EnqMachine> {
        if words.len() != 6 || words[1] != u64::from(val) {
            return None;
        }
        let state = match words[0] {
            0 => EState::AllocRead,
            1 => EState::WriteValue,
            2 => EState::WriteNext,
            3 => EState::WriteEnqNode,
            4 => EState::AllocBump,
            5 => EState::Checkpoint,
            6 => EState::ReadTail,
            7 => EState::ReadNext,
            8 => EState::PersistLast,
            9 => EState::CasNext,
            10 => EState::SwingTail,
            11 => EState::HelpSwing,
            12 => EState::PersistResp,
            13 => EState::Done,
            _ => return None,
        };
        Some(EnqMachine {
            obj,
            pid,
            val,
            state,
            idx: u32::try_from(words[2]).ok()?,
            alloc_count: u32::try_from(words[3]).ok()?,
            last: u32::try_from(words[4]).ok()?,
            nxt: words[5],
        })
    }
}

impl Machine for EnqMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            EState::AllocRead => {
                self.alloc_count = mem.read_pp(p, o.alloc_loc(p)) as u32;
                assert!(
                    self.alloc_count < o.slab,
                    "queue arena slab exhausted for {p} (cap {})",
                    o.cap
                );
                self.idx = o.slab_base(p) + self.alloc_count;
                self.state = EState::WriteValue;
                Poll::Pending
            }
            EState::WriteValue => {
                mem.write_pp(p, o.value_loc(self.idx), u64::from(self.val));
                self.state = EState::WriteNext;
                Poll::Pending
            }
            EState::WriteNext => {
                mem.write_pp(p, o.next_loc(self.idx), 0);
                self.state = EState::WriteEnqNode;
                Poll::Pending
            }
            EState::WriteEnqNode => {
                mem.write_pp(p, o.enq_node_loc(p), u64::from(self.idx));
                self.state = EState::AllocBump;
                Poll::Pending
            }
            EState::AllocBump => {
                mem.write_pp(p, o.alloc_loc(p), u64::from(self.alloc_count + 1));
                self.state = EState::Checkpoint;
                Poll::Pending
            }
            EState::Checkpoint => {
                o.ann.write_cp(mem, p, 1);
                self.state = EState::ReadTail;
                Poll::Pending
            }
            EState::ReadTail => {
                self.last = mem.read_pp(p, o.tail) as u32;
                self.state = EState::ReadNext;
                Poll::Pending
            }
            EState::ReadNext => {
                self.nxt = mem.read_pp(p, o.next_loc(self.last));
                self.state = if self.nxt == 0 {
                    EState::PersistLast
                } else {
                    EState::HelpSwing
                };
                Poll::Pending
            }
            EState::PersistLast => {
                // O(1) recovery hint: persist which node we are about to
                // link after, so recovery checks a single `next` cell. Only
                // the attempt after the last persisted hint can be the one
                // that succeeded (earlier attempts failed, or we would have
                // exited the loop).
                mem.write_pp(p, o.enq_last_loc(p), u64::from(self.last));
                self.state = EState::CasNext;
                Poll::Pending
            }
            EState::CasNext => {
                // Linearization point on success.
                if mem.cas_pp(p, o.next_loc(self.last), 0, u64::from(self.idx) + 1) {
                    self.state = EState::SwingTail;
                } else {
                    self.state = EState::ReadTail;
                }
                Poll::Pending
            }
            EState::SwingTail => {
                let _ = mem.cas_pp(p, o.tail, u64::from(self.last), u64::from(self.idx));
                self.state = EState::PersistResp;
                Poll::Pending
            }
            EState::HelpSwing => {
                let _ = mem.cas_pp(p, o.tail, u64::from(self.last), self.nxt - 1);
                self.state = EState::ReadTail;
                Poll::Pending
            }
            EState::PersistResp => {
                o.ann.write_resp(mem, p, ACK);
                self.state = EState::Done;
                Poll::Ready(ACK)
            }
            EState::Done => panic!("stepped a completed Enq machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            EState::AllocRead => "enq:alloc",
            EState::WriteValue => "enq:value",
            EState::WriteNext => "enq:next",
            EState::WriteEnqNode => "enq:announce-node",
            EState::AllocBump => "enq:bump",
            EState::Checkpoint => "enq:cp",
            EState::ReadTail => "enq:tail",
            EState::ReadNext => "enq:read-next",
            EState::PersistLast => "enq:hint",
            EState::CasNext => "enq:link",
            EState::SwingTail => "enq:swing",
            EState::HelpSwing => "enq:help",
            EState::PersistResp => "enq:resp",
            EState::Done => "enq:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        encode_to_vec(self)
    }

    fn encode_into(&self, out: &mut Vec<Word>) {
        out.extend_from_slice(&[
            self.state as u64,
            u64::from(self.val),
            u64::from(self.idx),
            u64::from(self.alloc_count),
            u64::from(self.last),
            self.nxt,
        ]);
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ERState {
    CheckResp,
    CheckCp,
    ReadEnqNode,
    ReadLast,
    CheckLink,
    PersistResp,
    Done,
}

#[derive(Clone)]
struct EnqRecoverMachine {
    obj: QueueInner,
    pid: Pid,
    state: ERState,
    idx: u32,
    last: u32,
}

impl EnqRecoverMachine {
    fn new(obj: QueueInner, pid: Pid) -> Self {
        EnqRecoverMachine {
            obj,
            pid,
            state: ERState::CheckResp,
            idx: 0,
            last: 0,
        }
    }
}

impl Machine for EnqRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            ERState::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = ERState::Done;
                    return Poll::Ready(resp);
                }
                self.state = ERState::CheckCp;
                Poll::Pending
            }
            ERState::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    self.state = ERState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = ERState::ReadEnqNode;
                Poll::Pending
            }
            ERState::ReadEnqNode => {
                self.idx = mem.read_pp(p, o.enq_node_loc(p)) as u32;
                self.state = ERState::ReadLast;
                Poll::Pending
            }
            ERState::ReadLast => {
                self.last = mem.read_pp(p, o.enq_last_loc(p)) as u32;
                self.state = ERState::CheckLink;
                Poll::Pending
            }
            ERState::CheckLink => {
                // Our freshly allocated node can only be pointed to by the
                // one CAS attempt after the persisted hint, so a single
                // `next` cell decides linearization. A stale hint (from an
                // earlier operation) cannot point at the fresh node.
                let nxt = mem.read_pp(p, o.next_loc(self.last));
                if nxt == u64::from(self.idx) + 1 {
                    self.state = ERState::PersistResp;
                } else {
                    self.state = ERState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                Poll::Pending
            }
            ERState::PersistResp => {
                o.ann.write_resp(mem, p, ACK);
                self.state = ERState::Done;
                Poll::Ready(ACK)
            }
            ERState::Done => panic!("stepped a completed Enq.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            ERState::CheckResp => "enq.rec:resp",
            ERState::CheckCp => "enq.rec:cp",
            ERState::ReadEnqNode => "enq.rec:node",
            ERState::ReadLast => "enq.rec:hint",
            ERState::CheckLink => "enq.rec:check",
            ERState::PersistResp => "enq.rec:persist",
            ERState::Done => "enq.rec:done",
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
            ERState::CheckResp => 1,
            ERState::CheckCp => 2,
            ERState::ReadEnqNode => 3,
            ERState::ReadLast => 6,
            ERState::CheckLink => 7,
            ERState::PersistResp => 4,
            ERState::Done => 5,
        };
        out.extend_from_slice(&[s, u64::from(self.idx), u64::from(self.last)]);
    }
}

// ---------------------------------------------------------------------------
// Deq
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum DState {
    ReadSeq,
    Checkpoint,
    ReadHead,
    ReadTail,
    ReadNext,
    RecheckHead,
    HelpSwingTail,
    PersistTarget,
    ClaimCas,
    ReadValue,
    SwingHead,
    HelpSwingHead,
    PersistResp(Word),
    Done,
}

#[derive(Clone)]
struct DeqMachine {
    obj: QueueInner,
    pid: Pid,
    state: DState,
    id: Word,
    h: u32,
    t: u32,
    nxt: Word,
    val: Word,
}

impl DeqMachine {
    fn new(obj: QueueInner, pid: Pid) -> Self {
        DeqMachine {
            obj,
            pid,
            state: DState::ReadSeq,
            id: 0,
            h: 0,
            t: 0,
            nxt: 0,
            val: 0,
        }
    }

    /// Inverse of [`Machine::encode`] for `Deq`.
    fn decode(obj: QueueInner, pid: Pid, words: &[Word]) -> Option<DeqMachine> {
        if words.len() != 6 {
            return None;
        }
        let state = match words[0] {
            1 => DState::ReadSeq,
            2 => DState::Checkpoint,
            3 => DState::ReadHead,
            4 => DState::ReadTail,
            5 => DState::ReadNext,
            6 => DState::RecheckHead,
            7 => DState::HelpSwingTail,
            8 => DState::ClaimCas,
            9 => DState::ReadValue,
            10 => DState::SwingHead,
            11 => DState::HelpSwingHead,
            12 => DState::Done,
            13 => DState::PersistTarget,
            // Encode wraps: real responses land on 100 + value, the
            // sentinels near `u64::MAX` on 97..=99 (see `encode`).
            s @ (97..=99 | 100..) => DState::PersistResp(s.wrapping_sub(100)),
            _ => return None,
        };
        Some(DeqMachine {
            obj,
            pid,
            state,
            id: words[1],
            h: u32::try_from(words[2]).ok()?,
            t: u32::try_from(words[3]).ok()?,
            nxt: words[4],
            val: words[5],
        })
    }
}

impl Machine for DeqMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            DState::ReadSeq => {
                let s = mem.read_pp(p, o.seq_loc(p));
                self.id = o.op_id(p, s);
                self.state = DState::Checkpoint;
                Poll::Pending
            }
            DState::Checkpoint => {
                o.ann.write_cp(mem, p, 1);
                self.state = DState::ReadHead;
                Poll::Pending
            }
            DState::ReadHead => {
                self.h = mem.read_pp(p, o.head) as u32;
                self.state = DState::ReadTail;
                Poll::Pending
            }
            DState::ReadTail => {
                self.t = mem.read_pp(p, o.tail) as u32;
                self.state = DState::ReadNext;
                Poll::Pending
            }
            DState::ReadNext => {
                self.nxt = mem.read_pp(p, o.next_loc(self.h));
                self.state = DState::RecheckHead;
                Poll::Pending
            }
            DState::RecheckHead => {
                let h2 = mem.read_pp(p, o.head) as u32;
                if h2 != self.h {
                    self.state = DState::ReadHead;
                } else if self.nxt == 0 {
                    if self.h == self.t {
                        // Empty: linearize at the ReadNext observation.
                        self.state = DState::PersistResp(EMPTY);
                    } else {
                        self.state = DState::ReadHead;
                    }
                } else if self.h == self.t {
                    self.state = DState::HelpSwingTail;
                } else {
                    self.state = DState::PersistTarget;
                }
                Poll::Pending
            }
            DState::PersistTarget => {
                // O(1) recovery hint: persist which node we are about to
                // claim, so recovery checks one `deq_id` cell.
                mem.write_pp(p, o.deq_node_loc(p), self.nxt - 1);
                self.state = DState::ClaimCas;
                Poll::Pending
            }
            DState::HelpSwingTail => {
                let _ = mem.cas_pp(p, o.tail, u64::from(self.t), self.nxt - 1);
                self.state = DState::ReadHead;
                Poll::Pending
            }
            DState::ClaimCas => {
                // Linearization point on success.
                let idx = (self.nxt - 1) as u32;
                if mem.cas_pp(p, o.deq_id_loc(idx), 0, self.id) {
                    self.state = DState::ReadValue;
                } else {
                    self.state = DState::HelpSwingHead;
                }
                Poll::Pending
            }
            DState::ReadValue => {
                self.val = mem.read_pp(p, o.value_loc((self.nxt - 1) as u32));
                self.state = DState::SwingHead;
                Poll::Pending
            }
            DState::SwingHead => {
                let _ = mem.cas_pp(p, o.head, u64::from(self.h), self.nxt - 1);
                self.state = DState::PersistResp(self.val);
                Poll::Pending
            }
            DState::HelpSwingHead => {
                let _ = mem.cas_pp(p, o.head, u64::from(self.h), self.nxt - 1);
                self.state = DState::ReadHead;
                Poll::Pending
            }
            DState::PersistResp(w) => {
                o.ann.write_resp(mem, p, w);
                self.state = DState::Done;
                Poll::Ready(w)
            }
            DState::Done => panic!("stepped a completed Deq machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            DState::ReadSeq => "deq:seq",
            DState::Checkpoint => "deq:cp",
            DState::ReadHead => "deq:head",
            DState::ReadTail => "deq:tail",
            DState::ReadNext => "deq:next",
            DState::RecheckHead => "deq:recheck",
            DState::HelpSwingTail => "deq:help-tail",
            DState::PersistTarget => "deq:hint",
            DState::ClaimCas => "deq:claim",
            DState::ReadValue => "deq:value",
            DState::SwingHead => "deq:swing",
            DState::HelpSwingHead => "deq:help-head",
            DState::PersistResp(_) => "deq:resp",
            DState::Done => "deq:done",
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
            DState::ReadSeq => 1,
            DState::Checkpoint => 2,
            DState::ReadHead => 3,
            DState::ReadTail => 4,
            DState::ReadNext => 5,
            DState::RecheckHead => 6,
            DState::HelpSwingTail => 7,
            DState::PersistTarget => 13,
            DState::ClaimCas => 8,
            DState::ReadValue => 9,
            DState::SwingHead => 10,
            DState::HelpSwingHead => 11,
            // Wrapping: response sentinels (EMPTY, RESP_*) sit near
            // `u64::MAX` and land on 97..=99 — still disjoint from the
            // plain tags (1..=13) and from `100 + value` for real values.
            DState::PersistResp(w) => 100u64.wrapping_add(w),
            DState::Done => 12,
        };
        out.extend_from_slice(&[
            s,
            self.id,
            u64::from(self.h),
            u64::from(self.t),
            self.nxt,
            self.val,
        ]);
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum DRState {
    CheckResp,
    CheckCp,
    ReadSeq,
    ReadTarget,
    CheckClaim,
    ReadValue(u32),
    PersistResp,
    Done,
}

#[derive(Clone)]
struct DeqRecoverMachine {
    obj: QueueInner,
    pid: Pid,
    state: DRState,
    id: Word,
    target: u32,
    val: Word,
}

impl DeqRecoverMachine {
    fn new(obj: QueueInner, pid: Pid) -> Self {
        DeqRecoverMachine {
            obj,
            pid,
            state: DRState::CheckResp,
            id: 0,
            target: 0,
            val: 0,
        }
    }
}

impl Machine for DeqRecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let o = &self.obj;
        let p = self.pid;
        match self.state {
            DRState::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = DRState::Done;
                    return Poll::Ready(resp);
                }
                self.state = DRState::CheckCp;
                Poll::Pending
            }
            DRState::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    self.state = DRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = DRState::ReadSeq;
                Poll::Pending
            }
            DRState::ReadSeq => {
                let s = mem.read_pp(p, o.seq_loc(p));
                self.id = o.op_id(p, s);
                self.state = DRState::ReadTarget;
                Poll::Pending
            }
            DRState::ReadTarget => {
                self.target = mem.read_pp(p, o.deq_node_loc(p)) as u32;
                self.state = DRState::CheckClaim;
                Poll::Pending
            }
            DRState::CheckClaim => {
                // Only the claim attempt after the last persisted hint can
                // have installed our (unique) id; one cell decides it.
                if mem.read_pp(p, o.deq_id_loc(self.target)) == self.id {
                    self.state = DRState::ReadValue(self.target);
                } else {
                    self.state = DRState::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                Poll::Pending
            }
            DRState::ReadValue(j) => {
                self.val = mem.read_pp(p, o.value_loc(j));
                self.state = DRState::PersistResp;
                Poll::Pending
            }
            DRState::PersistResp => {
                o.ann.write_resp(mem, p, self.val);
                self.state = DRState::Done;
                Poll::Ready(self.val)
            }
            DRState::Done => panic!("stepped a completed Deq.Recover machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            DRState::CheckResp => "deq.rec:resp",
            DRState::CheckCp => "deq.rec:cp",
            DRState::ReadSeq => "deq.rec:seq",
            DRState::ReadTarget => "deq.rec:hint",
            DRState::CheckClaim => "deq.rec:check",
            DRState::ReadValue(_) => "deq.rec:value",
            DRState::PersistResp => "deq.rec:persist",
            DRState::Done => "deq.rec:done",
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
            DRState::CheckResp => 1,
            DRState::CheckCp => 2,
            DRState::ReadSeq => 3,
            DRState::ReadTarget => 6,
            DRState::CheckClaim => 7,
            DRState::ReadValue(j) => 10_000 + u64::from(j),
            DRState::PersistResp => 4,
            DRState::Done => 5,
        };
        out.extend_from_slice(&[s, self.id, u64::from(self.target), self.val]);
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
            crate::object::assert_copy::<DetectableQueue>();
            crate::object::assert_copy::<QueueInner>();
            assert!(!std::mem::needs_drop::<EnqMachine>());
            assert!(!std::mem::needs_drop::<EnqRecoverMachine>());
            assert!(!std::mem::needs_drop::<DeqMachine>());
            assert!(!std::mem::needs_drop::<DeqRecoverMachine>());
        }
    }

    fn world(n: u32, cap: u32) -> (SimMemory, DetectableQueue) {
        let mut b = LayoutBuilder::new();
        let q = DetectableQueue::new(&mut b, n, cap);
        (SimMemory::new(b.finish()), q)
    }

    fn run_op(q: &DetectableQueue, mem: &SimMemory, pid: Pid, op: OpSpec) -> Word {
        q.prepare(mem, pid, &op);
        let mut m = q.invoke(pid, &op);
        run_to_completion(&mut *m, mem, 100_000).unwrap()
    }

    #[test]
    fn fifo_order() {
        let (mem, q) = world(2, 32);
        let p = Pid::new(0);
        for v in [1, 2, 3] {
            assert_eq!(run_op(&q, &mem, p, OpSpec::Enq(v)), ACK);
        }
        assert_eq!(q.peek_contents(&mem), vec![1, 2, 3]);
        assert_eq!(run_op(&q, &mem, Pid::new(1), OpSpec::Deq), 1);
        assert_eq!(run_op(&q, &mem, p, OpSpec::Deq), 2);
        assert_eq!(run_op(&q, &mem, Pid::new(1), OpSpec::Deq), 3);
        assert_eq!(run_op(&q, &mem, p, OpSpec::Deq), EMPTY);
    }

    #[test]
    fn empty_deq_returns_empty() {
        let (mem, q) = world(2, 16);
        assert_eq!(run_op(&q, &mem, Pid::new(0), OpSpec::Deq), EMPTY);
    }

    #[test]
    fn interleaved_enqueues_both_land() {
        let (mem, q) = world(2, 32);
        let p = Pid::new(0);
        let r = Pid::new(1);
        q.prepare(&mem, p, &OpSpec::Enq(10));
        let mut mp = q.invoke(p, &OpSpec::Enq(10));
        // p allocates and stops right before its link CAS (8 steps in).
        for _ in 0..8 {
            assert!(!mp.step(&mem).is_ready());
        }
        assert_eq!(run_op(&q, &mem, r, OpSpec::Enq(20)), ACK);
        assert_eq!(run_to_completion(&mut *mp, &mem, 100_000).unwrap(), ACK);
        let mut contents = q.peek_contents(&mem);
        contents.sort_unstable();
        assert_eq!(contents, vec![10, 20]);
    }

    #[test]
    fn crash_enq_at_every_step() {
        // An uncontended enq: alloc(1) + node writes(2) + announce(1) +
        // bump(1) + cp(1) + tail(1) + next(1) + link(1) + swing(1) + resp(1)
        // = 11 steps.
        for crash_after in 0..11 {
            let (mem, q) = world(2, 32);
            let p = Pid::new(0);
            run_op(&q, &mem, p, OpSpec::Enq(1));
            q.prepare(&mem, p, &OpSpec::Enq(2));
            let mut m = q.invoke(p, &OpSpec::Enq(2));
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if completed {
                assert_eq!(q.peek_contents(&mem), vec![1, 2]);
                continue;
            }
            let mut rec = q.recover(p, &OpSpec::Enq(2));
            let verdict = run_to_completion(&mut *rec, &mem, 100_000).unwrap();
            if verdict == RESP_FAIL {
                assert_eq!(
                    q.peek_contents(&mem),
                    vec![1],
                    "fail verdict but node linked (crash_after={crash_after})"
                );
            } else {
                assert_eq!(verdict, ACK);
                assert_eq!(
                    q.peek_contents(&mem),
                    vec![1, 2],
                    "ack verdict but node missing (crash_after={crash_after})"
                );
            }
        }
    }

    #[test]
    fn crash_deq_at_every_step() {
        // An uncontended deq takes ≤ 10 steps.
        for crash_after in 0..10 {
            let (mem, q) = world(2, 32);
            let p = Pid::new(0);
            run_op(&q, &mem, p, OpSpec::Enq(7));
            run_op(&q, &mem, p, OpSpec::Enq(8));
            q.prepare(&mem, p, &OpSpec::Deq);
            let mut m = q.invoke(p, &OpSpec::Deq);
            let mut completed = false;
            for _ in 0..crash_after {
                if m.step(&mem).is_ready() {
                    completed = true;
                    break;
                }
            }
            drop(m);
            if completed {
                assert_eq!(q.peek_contents(&mem), vec![8]);
                continue;
            }
            let mut rec = q.recover(p, &OpSpec::Deq);
            let verdict = run_to_completion(&mut *rec, &mem, 100_000).unwrap();
            if verdict == RESP_FAIL {
                assert_eq!(
                    q.peek_contents(&mem),
                    vec![7, 8],
                    "fail verdict but node claimed (crash_after={crash_after})"
                );
            } else {
                assert_eq!(verdict, 7, "deq recovery must return the claimed value");
                assert_eq!(q.peek_contents(&mem), vec![8]);
            }
        }
    }

    #[test]
    fn racing_deqs_take_distinct_values() {
        let (mem, q) = world(2, 32);
        let p = Pid::new(0);
        let r = Pid::new(1);
        run_op(&q, &mem, p, OpSpec::Enq(1));
        run_op(&q, &mem, p, OpSpec::Enq(2));
        q.prepare(&mem, p, &OpSpec::Deq);
        let mut mp = q.invoke(p, &OpSpec::Deq);
        // p stops right before its claim CAS (7 steps: seq, cp, head, tail,
        // next, recheck → claim).
        for _ in 0..6 {
            assert!(!mp.step(&mem).is_ready());
        }
        assert_eq!(run_op(&q, &mem, r, OpSpec::Deq), 1);
        assert_eq!(run_to_completion(&mut *mp, &mem, 100_000).unwrap(), 2);
        assert_eq!(run_op(&q, &mem, p, OpSpec::Deq), EMPTY);
    }

    #[test]
    fn recovery_after_completed_ops_returns_persisted_responses() {
        let (mem, q) = world(2, 32);
        let p = Pid::new(0);
        run_op(&q, &mem, p, OpSpec::Enq(4));
        let mut rec = q.recover(p, &OpSpec::Enq(4));
        assert_eq!(run_to_completion(&mut *rec, &mem, 100_000).unwrap(), ACK);

        assert_eq!(run_op(&q, &mem, p, OpSpec::Deq), 4);
        let mut rec2 = q.recover(p, &OpSpec::Deq);
        assert_eq!(run_to_completion(&mut *rec2, &mem, 100_000).unwrap(), 4);
        // Recovery must not have double-dequeued.
        assert_eq!(q.peek_contents(&mem), Vec::<u32>::new());
    }

    #[test]
    fn op_ids_are_unique_and_grow() {
        // The unbounded auxiliary state: sequence numbers increase per op.
        let (mem, q) = world(2, 32);
        let p = Pid::new(0);
        let s0 = mem.peek(q.inner.seq_loc(p));
        run_op(&q, &mem, p, OpSpec::Enq(1));
        run_op(&q, &mem, p, OpSpec::Deq);
        let s2 = mem.peek(q.inner.seq_loc(p));
        assert_eq!(s2, s0 + 2);
    }

    #[test]
    #[should_panic(expected = "arena too small")]
    fn tiny_arena_rejected() {
        let mut b = LayoutBuilder::new();
        let _ = DetectableQueue::new(&mut b, 4, 3);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn rejects_foreign_ops() {
        let (_, q) = world(2, 16);
        let _ = q.invoke(Pid::new(0), &OpSpec::Read);
    }
}
