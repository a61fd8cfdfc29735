//! The detectable counter, fetch-and-add, swap and resettable test-and-set:
//! one capsule engine over the detectable CAS, driven by a rule per
//! operation.
//!
//! The paper's Section 6 observes that detectability is what makes
//! recoverable operations *composable*, and recalls the capsule pattern of
//! Ben-David et al.: "partition the code into capsules, each containing a
//! single CAS followed by several reads, and replace each CAS with its
//! recoverable version". Every update operation here is a loop of such
//! capsules. One attempt is:
//!
//! ```text
//!   v := value of C                  one raw read of the inner CAS object
//!   inner Ann_p.resp := ⊥            caller protocol for the inner CAS,
//!   inner Ann_p.CP   := 0            one write per step
//!   ARG_p := v                       the recovery argument, if the object has one
//!   Ann_p.CP := 1                    outer checkpoint: the inner CAS is announced
//!   inner Cas(old, new)              the detectable CAS of Algorithm 2
//!   Ann_p.resp := response           when the operation answers
//! ```
//!
//! Recovery returns a persisted response if there is one, answers `fail` if
//! the checkpoint was never set, reads back the persisted argument, and
//! asks the inner `Cas.Recover` whether the crashed attempt's CAS took
//! effect: the detectable CAS's verdict (`true` / `false` / `fail`) is
//! exactly what the outer recovery needs. `Read` is one raw read of `C`
//! whose response is persisted in the outer `Ann_p`.
//!
//! What differs between operations is data, a `Rule` picked from the
//! [`OpSpec`] at `invoke`, `recover` and `decode_op`:
//!
//! | operation | rule | CAS | answers at the read | lost CAS | cells |
//! |---|---|---|---|---|---|
//! | `Inc` | `Add { delta: 1 }` | `Cas(v, v + 1)` | never | retry | `ARG` |
//! | `Faa(d)` | `Add { delta: d }` | `Cas(v, v + d)` | never | retry | `ARG` |
//! | `Swap(x)` | `Swap(x)` | `Cas(v, x)` | `v == x`: `v` | retry | `ARG` |
//! | `TestAndSet` | `TestAndSet` | `Cas(0, 1)` | `v == 1`: 1 | answer 1 | — |
//! | `Reset` | `Reset` | `Cas(1, 0)` | `v == 0`: `ack` | retry | — |
//!
//! All four objects are doubly-perturbing (paper Lemmas 5 and 7, and §5 for
//! swap), so by Theorem 2 they must receive auxiliary state: here the outer
//! `Ann_p`, which `prepare` resets, and the caller-reset inner announcement.
//! The test-and-set sidesteps the unbounded-space lower bound of Attiya et
//! al. for detectable test-and-set built from non-recoverable test-and-set
//! objects (paper Section 1): it is built from the bounded-space detectable
//! CAS instead.
//!
//! `TestAndSet` and `Read` are wait-free: if `Cas(0, 1)` loses, some change
//! to 1 happened inside the operation's interval, so answering 1 linearizes
//! there. `Inc`, `Faa`, `Swap` and `Reset` are lock-free: other writers can
//! starve their retry loop.

use nvm::{
    AnnBank, LayoutBuilder, Loc, Machine, Memory, Pid, Poll, Word, ACK, FALSE, RESP_FAIL,
    RESP_NONE, TRUE,
};

use crate::cas::{CasMachine, CasRecoverMachine, DetectableCas};
use crate::object::{MemExt, ObjectKind, OpSpec, RecoverableObject};

/// The `K` of [`DetectableCounter`].
pub(crate) const COUNTER: u8 = 0;
/// The `K` of [`DetectableFaa`].
pub(crate) const FAA: u8 = 1;
/// The `K` of [`DetectableSwap`].
pub(crate) const SWAP: u8 = 2;
/// The `K` of [`DetectableTas`].
pub(crate) const TAS: u8 = 3;

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
pub type DetectableCounter = CapsuleObject<COUNTER>;

/// A detectable fetch-and-add (`Faa(d)` / `Read`) built on [`DetectableCas`].
///
/// `Faa(d)` returns the value the object held immediately before the
/// operation's linearization point.
pub type DetectableFaa = CapsuleObject<FAA>;

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
pub type DetectableSwap = CapsuleObject<SWAP>;

/// A detectable resettable test-and-set object (`TestAndSet` returns the
/// previous bit, `Reset` clears it, `Read` observes it) built on
/// [`DetectableCas`].
///
/// # Example
///
/// ```
/// use detectable::{DetectableTas, OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory};
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
pub type DetectableTas = CapsuleObject<TAS>;

/// An object run by the capsule engine (see the [module docs](self)); `K`
/// selects which one. Name it through its aliases: [`DetectableCounter`],
/// [`DetectableFaa`], [`DetectableSwap`] and [`DetectableTas`].
#[derive(Copy, Clone, Debug)]
pub struct CapsuleObject<const K: u8> {
    obj: Capsule,
}

/// The NVM locations of one capsule object, carried by value in every
/// machine.
#[derive(Copy, Clone, Debug)]
struct Capsule {
    cas: DetectableCas,
    /// `ARG_p`: the value `v` the in-flight attempt's CAS expects. Recovery
    /// reads it back because add and swap answer with it. Absent for TAS,
    /// whose CAS arguments are fixed. (`Cas.Recover` itself needs no CAS
    /// arguments, so nothing else about the attempt is persisted.)
    arg: Option<Loc>,
    ann: AnnBank,
    n: u32,
}

impl<const K: u8> CapsuleObject<K> {
    /// The sequential type, the default region-name prefix and the object
    /// name.
    const SPEC: (ObjectKind, &'static str, &'static str) = match K {
        COUNTER => (ObjectKind::Counter, "counter", "detectable-counter"),
        FAA => (ObjectKind::Faa, "faa", "detectable-faa"),
        SWAP => (ObjectKind::Swap, "swap", "detectable-swap"),
        TAS => (ObjectKind::Tas, "tas", "detectable-tas"),
        _ => panic!("no capsule object has this K"),
    };

    /// Allocates the object for `n` processes, initially 0.
    pub fn new(b: &mut LayoutBuilder, n: u32) -> Self {
        Self::with_name(b, Self::SPEC.1, n)
    }

    /// Like [`new`](Self::new) with a custom layout-region name prefix.
    ///
    /// The regions are `{name}.cas`, then `{name}.ARG` (not for TAS), then
    /// the outer `{name}.Ann`.
    pub fn with_name(b: &mut LayoutBuilder, name: &str, n: u32) -> Self {
        let cas = DetectableCas::with_name(b, &format!("{name}.cas"), n, 0);
        let arg = (K != TAS).then(|| b.private_array(&format!("{name}.ARG"), n, 1, 32));
        let ann = AnnBank::alloc(b, name, n, 1);
        CapsuleObject {
            obj: Capsule { cas, arg, ann, n },
        }
    }

    /// The current value (diagnostic helper).
    pub fn peek_value(&self, mem: &dyn Memory) -> u32 {
        self.obj.cas.peek_value(mem)
    }

    /// The rule running the update `op`, `None` for `Read` and for
    /// operations this object does not support.
    fn rule(op: &OpSpec) -> Option<Rule> {
        match (K, *op) {
            (COUNTER, OpSpec::Inc) => Some(Rule::Add {
                delta: 1,
                returns_prev: false,
            }),
            (FAA, OpSpec::Faa(delta)) => Some(Rule::Add {
                delta,
                returns_prev: true,
            }),
            (SWAP, OpSpec::Swap(x)) => Some(Rule::Swap(x)),
            (TAS, OpSpec::TestAndSet) => Some(Rule::TestAndSet),
            (TAS, OpSpec::Reset) => Some(Rule::Reset),
            _ => None,
        }
    }

    fn update(op: &OpSpec) -> Rule {
        Self::rule(op).unwrap_or_else(|| panic!("{} does not support {op}", Self::SPEC.2))
    }
}

impl<const K: u8> RecoverableObject for CapsuleObject<K> {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, _op: &OpSpec) {
        self.obj.ann.prepare(mem, pid);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match op {
            OpSpec::Read => Box::new(ReadMachine::new(self.obj, pid)),
            _ => Box::new(AttemptMachine::new(self.obj, pid, Self::update(op))),
        }
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        match op {
            OpSpec::Read => Box::new(ReadRecoverMachine {
                obj: self.obj,
                pid,
                checked: false,
                inner: None,
            }),
            _ => Box::new(RecoverMachine {
                obj: self.obj,
                pid,
                rule: Self::update(op),
                state: Recovery::CheckResp,
            }),
        }
    }

    fn processes(&self) -> u32 {
        self.obj.n
    }

    fn kind(&self) -> ObjectKind {
        Self::SPEC.0
    }

    fn name(&self) -> &'static str {
        Self::SPEC.2
    }

    /// The composition adds only pid-free private state (`ARG`, the outer
    /// `Ann`), all relocated generically; the inner CAS's toggle
    /// vector is the one packed encoding left.
    fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
        self.obj.cas.permute_memory(words, perm)
    }

    fn decodable(&self) -> bool {
        true
    }

    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        match op {
            OpSpec::Read => {
                ReadMachine::decode(self.obj, pid, words).map(|m| Box::new(m) as Box<dyn Machine>)
            }
            _ => AttemptMachine::decode(self.obj, pid, Self::rule(op)?, words)
                .map(|m| Box::new(m) as Box<dyn Machine>),
        }
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// What sets one update operation apart from another: which CAS an attempt
/// runs, whether it answers at the read, what a lost CAS or a recovery
/// verdict leads to, and the response.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Rule {
    /// `Inc` (`delta` 1, answers `ack`) and `Faa(delta)` (answers the
    /// previous value).
    Add { delta: u32, returns_prev: bool },
    /// `Swap(x)`: installs `x`, answers the previous value.
    Swap(u32),
    /// `TestAndSet`: answers the previous bit.
    TestAndSet,
    /// `Reset`: clears the bit, answers `ack`.
    Reset,
}

/// What follows once the outcome of a capsule's CAS is known.
enum Next {
    /// Persist the answer this word carries (see [`Rule::response`]).
    Answer(Word),
    /// Start a fresh attempt.
    Retry,
    /// Not linearized: answer `fail`.
    Fail,
}

impl Rule {
    /// The operation's argument in the machine encodings, so decoding can
    /// check the words against the operation it is given.
    fn word(self) -> Word {
        match self {
            Rule::Add { delta, .. } => u64::from(delta),
            Rule::Swap(x) => u64::from(x),
            Rule::TestAndSet => 0,
            Rule::Reset => 1,
        }
    }

    /// The inner CAS of an attempt that read `v`.
    fn cas_args(self, v: u32) -> (u32, u32) {
        match self {
            Rule::Add { delta, .. } => (v, v.wrapping_add(delta)),
            Rule::Swap(x) => (v, x),
            Rule::TestAndSet => (0, 1),
            Rule::Reset => (1, 0),
        }
    }

    /// The answer an attempt gives at its read of `v`, with no CAS, when
    /// the operation would not change the value.
    fn at_read(self, v: u32) -> Option<Word> {
        match self {
            // Installing the value already present: linearize at the read
            // (the inner `Cas(x, x)` fast path would succeed without any
            // change).
            Rule::Swap(x) if v == x => Some(u64::from(v)),
            Rule::TestAndSet if v == 1 => Some(1),
            Rule::Reset if v == 0 => Some(ACK),
            _ => None,
        }
    }

    /// What follows the capsule's CAS for an attempt that read `v`: the
    /// inner `Cas` returned `outcome` (`TRUE` or `FALSE`), or the inner
    /// `Cas.Recover` did (which may also be `RESP_FAIL`).
    fn after_cas(self, outcome: Word, v: u32) -> Next {
        match (self, outcome) {
            (Rule::Reset, TRUE) => Next::Answer(ACK),
            // TAS wins only from `v == 0`.
            (_, TRUE) => Next::Answer(u64::from(v)),
            // A lost `Cas(0, 1)`: a 1-state existed inside the operation's
            // interval (possibly 0→1→0), so the TAS linearizes there.
            (Rule::TestAndSet, FALSE) => Next::Answer(1),
            // The TAS's CAS never ran, or ran and lost: a failed TAS has no
            // effect, so "not linearized" is always sound.
            (Rule::TestAndSet, _) => Next::Fail,
            // The update did not happen: finish it with fresh attempts
            // (NRL-style), so the caller gets exactly-once semantics with
            // no retry logic of its own.
            _ => Next::Retry,
        }
    }

    /// The response for the word a `PersistResp` state carries. Add and
    /// swap carry the value `v` their CAS expected; TAS and reset carry
    /// the response itself. So states that answer alike are alike, and
    /// the states that differ in `v` stay apart.
    fn response(self, carried: Word) -> Word {
        match self {
            Rule::Add {
                returns_prev: false,
                ..
            } => ACK,
            _ => carried,
        }
    }
}

// ---------------------------------------------------------------------------
// The attempt loop (Inc, Faa, Swap, TestAndSet, Reset)
// ---------------------------------------------------------------------------

/// The attempt loop's control state. `u32` payloads are the value `v` the
/// attempt read, kept only where it is the `ARG_p` recovery argument (0 for
/// TAS); `PersistResp` carries the word [`Rule::response`] maps.
#[derive(Clone)]
enum Attempt {
    ReadValue,
    ResetInnerResp(u32),
    ResetInnerCp(u32),
    PersistArg(u32),
    OuterCheckpoint(u32),
    RunCas(u32, CasMachine),
    PersistResp(Word),
    Done,
}

/// An in-flight update operation: the attempt loop under its rule.
#[derive(Clone)]
struct AttemptMachine {
    obj: Capsule,
    pid: Pid,
    rule: Rule,
    state: Attempt,
}

impl AttemptMachine {
    fn new(obj: Capsule, pid: Pid, rule: Rule) -> Self {
        AttemptMachine {
            obj,
            pid,
            rule,
            state: Attempt::ReadValue,
        }
    }

    /// Inverse of [`Machine::encode`]. A nested CAS attempt decodes through
    /// the inner object's own decoder, which checks its `old`/`new` against
    /// the CAS this rule runs for the attempt's `v`.
    fn decode(obj: Capsule, pid: Pid, rule: Rule, words: &[Word]) -> Option<AttemptMachine> {
        let (&[word, s, payload], nested) = words.split_first_chunk::<3>()?;
        if word != rule.word() {
            return None;
        }
        let v = u32::try_from(payload).ok();
        let flat = nested.is_empty();
        let state = match s {
            1 if flat && payload == 0 => Attempt::ReadValue,
            2 if flat => Attempt::ResetInnerResp(v?),
            3 if flat => Attempt::ResetInnerCp(v?),
            4 if flat && obj.arg.is_some() => Attempt::PersistArg(v?),
            5 if flat => Attempt::OuterCheckpoint(v?),
            6 => {
                let (old, new) = rule.cas_args(v?);
                Attempt::RunCas(
                    v?,
                    CasMachine::decode(obj.cas.inner, pid, old, new, nested)?,
                )
            }
            7 if flat => Attempt::PersistResp(payload),
            8 if flat && payload == 0 => Attempt::Done,
            _ => return None,
        };
        Some(AttemptMachine {
            obj,
            pid,
            rule,
            state,
        })
    }
}

impl Machine for AttemptMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let (o, p, rule) = (&self.obj, self.pid, self.rule);
        match &mut self.state {
            Attempt::ReadValue => {
                // Raw read of C: the inner announcement belongs to the
                // in-flight inner CAS attempt and stays untouched.
                let v = o.cas.read_value_raw(mem, p);
                self.state = match rule.at_read(v) {
                    Some(carried) => Attempt::PersistResp(carried),
                    None => Attempt::ResetInnerResp(if o.arg.is_some() { v } else { 0 }),
                };
            }
            Attempt::ResetInnerResp(v) => {
                mem.write_pp(p, o.cas.ann().resp_loc(p), RESP_NONE);
                self.state = Attempt::ResetInnerCp(*v);
            }
            Attempt::ResetInnerCp(v) => {
                mem.write_pp(p, o.cas.ann().cp_loc(p), 0);
                self.state = match o.arg {
                    Some(_) => Attempt::PersistArg(*v),
                    None => Attempt::OuterCheckpoint(*v),
                };
            }
            Attempt::PersistArg(v) => {
                if let Some(arg) = o.arg {
                    mem.write_pp(p, arg.at(p.idx()), u64::from(*v));
                }
                self.state = Attempt::OuterCheckpoint(*v);
            }
            Attempt::OuterCheckpoint(v) => {
                o.ann.write_cp(mem, p, 1);
                let (old, new) = rule.cas_args(*v);
                self.state = Attempt::RunCas(*v, CasMachine::new(o.cas.inner, p, old, new));
            }
            Attempt::RunCas(v, m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    self.state = match rule.after_cas(w, *v) {
                        Next::Answer(carried) => Attempt::PersistResp(carried),
                        // A CAS answers only TRUE or FALSE: never `Fail`.
                        Next::Retry | Next::Fail => Attempt::ReadValue,
                    };
                }
            }
            Attempt::PersistResp(carried) => {
                let resp = rule.response(*carried);
                o.ann.write_resp(mem, p, resp);
                self.state = Attempt::Done;
                return Poll::Ready(resp);
            }
            Attempt::Done => panic!("stepped a completed capsule machine"),
        }
        Poll::Pending
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            Attempt::ReadValue => "capsule:read",
            Attempt::ResetInnerResp(_) => "capsule:reset-resp",
            Attempt::ResetInnerCp(_) => "capsule:reset-cp",
            Attempt::PersistArg(_) => "capsule:arg",
            Attempt::OuterCheckpoint(_) => "capsule:cp",
            Attempt::RunCas(..) => "capsule:cas",
            Attempt::PersistResp(_) => "capsule:resp",
            Attempt::Done => "capsule:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    /// `[rule word, state, payload]`, then the nested CAS machine's words.
    fn encode(&self) -> Vec<Word> {
        let (s, payload) = match &self.state {
            Attempt::ReadValue => (1, 0),
            Attempt::ResetInnerResp(v) => (2, u64::from(*v)),
            Attempt::ResetInnerCp(v) => (3, u64::from(*v)),
            Attempt::PersistArg(v) => (4, u64::from(*v)),
            Attempt::OuterCheckpoint(v) => (5, u64::from(*v)),
            Attempt::RunCas(v, _) => (6, u64::from(*v)),
            Attempt::PersistResp(carried) => (7, *carried),
            Attempt::Done => (8, 0),
        };
        let mut out = vec![self.rule.word(), s, payload];
        if let Attempt::RunCas(_, m) = &self.state {
            out.extend(m.encode());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Recovery of an update
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Recovery {
    CheckResp,
    CheckCp,
    ReadArg,
    RunInnerRecover(u32, CasRecoverMachine),
    PersistResp(Word),
    Retry(AttemptMachine),
    Done,
}

#[derive(Clone)]
struct RecoverMachine {
    obj: Capsule,
    pid: Pid,
    rule: Rule,
    state: Recovery,
}

impl Machine for RecoverMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        let (o, p, rule) = (&self.obj, self.pid, self.rule);
        // `Cas.Recover` takes no CAS arguments; `v` only shapes the answer.
        let inner_recover =
            |v| Recovery::RunInnerRecover(v, CasRecoverMachine::new(o.cas.inner, p));
        match &mut self.state {
            Recovery::CheckResp => {
                let resp = o.ann.read_resp(mem, p);
                if resp != RESP_NONE {
                    self.state = Recovery::Done;
                    return Poll::Ready(resp);
                }
                self.state = Recovery::CheckCp;
            }
            Recovery::CheckCp => {
                if o.ann.read_cp(mem, p) == 0 {
                    // Crashed before any inner CAS was announced: nothing
                    // of this operation is visible, so it did not happen.
                    self.state = Recovery::Done;
                    return Poll::Ready(RESP_FAIL);
                }
                self.state = match o.arg {
                    Some(_) => Recovery::ReadArg,
                    None => inner_recover(0),
                };
            }
            Recovery::ReadArg => {
                let v = o
                    .arg
                    .map_or(0, |arg| mem.read_pp(p, arg.at(p.idx())) as u32);
                self.state = inner_recover(v);
            }
            Recovery::RunInnerRecover(v, m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    match rule.after_cas(w, *v) {
                        Next::Answer(carried) => self.state = Recovery::PersistResp(carried),
                        Next::Retry => {
                            self.state = Recovery::Retry(AttemptMachine::new(*o, p, rule));
                        }
                        Next::Fail => {
                            self.state = Recovery::Done;
                            return Poll::Ready(RESP_FAIL);
                        }
                    }
                }
            }
            Recovery::PersistResp(carried) => {
                let resp = rule.response(*carried);
                o.ann.write_resp(mem, p, resp);
                self.state = Recovery::Done;
                return Poll::Ready(resp);
            }
            Recovery::Retry(attempt) => {
                let poll = attempt.step(mem);
                if poll.is_ready() {
                    self.state = Recovery::Done;
                }
                return poll;
            }
            Recovery::Done => panic!("stepped a completed capsule recovery"),
        }
        Poll::Pending
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match &self.state {
            Recovery::CheckResp => "capsule.rec:resp",
            Recovery::CheckCp => "capsule.rec:cp",
            Recovery::ReadArg => "capsule.rec:arg",
            Recovery::RunInnerRecover(..) => "capsule.rec:inner",
            Recovery::PersistResp(_) => "capsule.rec:persist",
            Recovery::Retry(attempt) => attempt.label(),
            Recovery::Done => "capsule.rec:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        let mut out = vec![self.rule.word()];
        match &self.state {
            Recovery::CheckResp => out.push(1),
            Recovery::CheckCp => out.push(2),
            Recovery::ReadArg => out.push(3),
            Recovery::RunInnerRecover(v, m) => {
                out.extend([4, u64::from(*v)]);
                out.extend(m.encode());
            }
            Recovery::PersistResp(carried) => out.extend([5, *carried]),
            Recovery::Retry(attempt) => {
                out.push(6);
                out.extend(attempt.encode());
            }
            Recovery::Done => out.push(7),
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Read: a raw read of C, the response persisted in the outer Ann
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct ReadMachine {
    obj: Capsule,
    pid: Pid,
    val: Option<u32>,
}

impl ReadMachine {
    fn new(obj: Capsule, pid: Pid) -> Self {
        ReadMachine {
            obj,
            pid,
            val: None,
        }
    }

    /// Inverse of [`Machine::encode`] for `Read`.
    fn decode(obj: Capsule, pid: Pid, words: &[Word]) -> Option<ReadMachine> {
        let val = match *words {
            [RESP_NONE] => None,
            [w] => Some(u32::try_from(w).ok()?),
            _ => return None,
        };
        Some(ReadMachine { obj, pid, val })
    }
}

impl Machine for ReadMachine {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        match self.val {
            None => {
                // Raw read of C: the outer announcement records the
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
            "capsule.read:persist"
        } else {
            "capsule.read:inner"
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
    obj: Capsule,
    pid: Pid,
    checked: bool,
    inner: Option<ReadMachine>,
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
        "capsule.read.rec"
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
pub(crate) mod suite {
    //! The capsule engine's table-driven suite: one body per property,
    //! parameterized by object and operation. [`every_row_has_every_property`]
    //! runs the row-generic bodies over all five operation kinds; the crate
    //! root's `counter::tests`, `swap::tests` and `tas::tests` modules are
    //! per-object entry points into the same bodies.

    use super::*;
    use nvm::{run_to_completion, SimMemory};

    pub(crate) use super::{COUNTER, FAA, SWAP, TAS};
    pub(crate) use crate::object::OpSpec::*;
    pub(crate) use nvm::ACK;

    /// One operation kind: the op, the ops that set the object up for it,
    /// and its response and resulting value as functions of the value
    /// before it.
    #[derive(Copy, Clone)]
    pub(crate) struct Row {
        k: u8,
        op: OpSpec,
        setup: &'static [OpSpec],
        resp: fn(u32) -> Word,
        post: fn(u32) -> u32,
    }

    pub(crate) const INC: Row = Row {
        k: COUNTER,
        op: Inc,
        setup: &[Inc],
        resp: |_| ACK,
        post: |v| v + 1,
    };
    pub(crate) const FAA_3: Row = Row {
        k: FAA,
        op: Faa(3),
        setup: &[],
        resp: u64::from,
        post: |v| v + 3,
    };
    pub(crate) const SWAP_8: Row = Row {
        k: SWAP,
        op: Swap(8),
        setup: &[Swap(3)],
        resp: u64::from,
        post: |_| 8,
    };
    pub(crate) const TEST_AND_SET: Row = Row {
        k: TAS,
        op: TestAndSet,
        setup: &[Reset],
        resp: u64::from,
        post: |_| 1,
    };
    pub(crate) const RESET: Row = Row {
        k: TAS,
        op: Reset,
        setup: &[TestAndSet],
        resp: |_| ACK,
        post: |_| 0,
    };

    /// Memory, the object behind `dyn`, and its inner CAS for peeking.
    pub(crate) struct World {
        mem: SimMemory,
        obj: Box<dyn RecoverableObject>,
        cas: DetectableCas,
    }

    fn boxed<const K: u8>(
        b: &mut LayoutBuilder,
        n: u32,
    ) -> (Box<dyn RecoverableObject>, DetectableCas) {
        let o = CapsuleObject::<K>::new(b, n);
        (Box::new(o), o.obj.cas)
    }

    pub(crate) fn world(k: u8, n: u32) -> World {
        let mut b = LayoutBuilder::new();
        let (obj, cas) = match k {
            COUNTER => boxed::<COUNTER>(&mut b, n),
            FAA => boxed::<FAA>(&mut b, n),
            SWAP => boxed::<SWAP>(&mut b, n),
            _ => boxed::<TAS>(&mut b, n),
        };
        World {
            mem: SimMemory::new(b.finish()),
            obj,
            cas,
        }
    }

    impl World {
        fn run(&self, pid: u32, op: OpSpec) -> Word {
            let pid = Pid::new(pid);
            self.obj.prepare(&self.mem, pid, &op);
            run_to_completion(&mut *self.obj.invoke(pid, &op), &self.mem, 10_000).unwrap()
        }

        fn recover(&self, pid: u32, op: OpSpec) -> Word {
            let m = &mut *self.obj.recover(Pid::new(pid), &op);
            run_to_completion(m, &self.mem, 10_000).unwrap()
        }

        /// Prepares and invokes `op` for `pid` and runs `steps` steps of
        /// it, returning the machine, or the response if it finished.
        fn start(&self, pid: u32, op: OpSpec, steps: usize) -> Result<Box<dyn Machine>, Word> {
            let pid = Pid::new(pid);
            self.obj.prepare(&self.mem, pid, &op);
            let mut m = self.obj.invoke(pid, &op);
            for _ in 0..steps {
                if let Poll::Ready(w) = m.step(&self.mem) {
                    return Err(w);
                }
            }
            Ok(m)
        }

        fn value(&self) -> u32 {
            self.cas.peek_value(&self.mem)
        }
    }

    /// The handles and the descriptor are `Copy`, and no machine owns a
    /// reference count or a heap allocation: each carries its object's
    /// locations by value.
    pub(crate) const fn machines_carry_locations_by_value() {
        crate::object::assert_copy::<DetectableCounter>();
        crate::object::assert_copy::<DetectableFaa>();
        crate::object::assert_copy::<DetectableSwap>();
        crate::object::assert_copy::<DetectableTas>();
        crate::object::assert_copy::<Capsule>();
        crate::object::assert_copy::<Rule>();
        assert!(!std::mem::needs_drop::<AttemptMachine>());
        assert!(!std::mem::needs_drop::<RecoverMachine>());
        assert!(!std::mem::needs_drop::<ReadMachine>());
        assert!(!std::mem::needs_drop::<ReadRecoverMachine>());
    }

    /// Runs `(pid, op, response)` in order, then checks the final value.
    pub(crate) fn script(k: u8, ops: &[(u32, OpSpec, Word)], value: u32) {
        let w = world(k, 2);
        for &(pid, op, resp) in ops {
            assert_eq!(w.run(pid, op), resp, "{op} by p{pid}");
        }
        assert_eq!(w.value(), value);
    }

    /// Process 0 runs `steps` steps of `op` and stalls before its CAS;
    /// process 1 runs `other` to completion; then process 0 finishes with
    /// `resp`, leaving `value`. Its CAS loses, so it retries against the
    /// fresh value (or, for TAS, answers 1).
    pub(crate) fn contended(
        k: u8,
        op: OpSpec,
        steps: usize,
        other: (OpSpec, Word),
        resp: Word,
        value: u32,
    ) {
        let w = world(k, 2);
        let Ok(mut m) = w.start(0, op, steps) else {
            panic!("{op} finished within {steps} steps");
        };
        assert_eq!(w.run(1, other.0), other.1);
        assert_eq!(run_to_completion(&mut *m, &w.mem, 10_000).unwrap(), resp);
        assert_eq!(w.value(), value);
    }

    /// `op` must panic: the object does not support it.
    pub(crate) fn rejects(k: u8, op: OpSpec) {
        let _ = world(k, 2).obj.invoke(Pid::new(0), &op);
    }

    /// A crash after each step count of the row's op; recovery gives
    /// exactly-once semantics: `fail` with the value untouched, or the
    /// op's response with the op applied once. One memory serves every
    /// crash point, so recovery also runs on state earlier ones left.
    pub(crate) fn crash_at_every_step_exactly_once(row: Row) {
        let w = world(row.k, 2);
        for crash_after in 0..16 {
            for &op in row.setup {
                w.run(0, op);
            }
            let before = w.value();
            let resp = match w.start(0, row.op, crash_after) {
                Err(resp) => resp,
                Ok(m) => {
                    drop(m);
                    w.recover(0, row.op)
                }
            };
            let at = format!("{} after {crash_after} steps", row.op);
            if resp == RESP_FAIL {
                assert_eq!(w.value(), before, "fail verdict but op applied: {at}");
            } else {
                assert_eq!(resp, (row.resp)(before), "{at}");
                assert_eq!(w.value(), (row.post)(before), "{at}");
            }
        }
    }

    /// Recovery after the op completed returns its response again and
    /// applies nothing twice.
    pub(crate) fn recovery_after_completion_is_idempotent(row: Row) {
        let w = world(row.k, 2);
        for &op in row.setup {
            w.run(0, op);
        }
        let before = w.value();
        assert_eq!(w.run(0, row.op), (row.resp)(before));
        assert_eq!(w.recover(0, row.op), (row.resp)(before));
        assert_eq!(
            w.value(),
            (row.post)(before),
            "recovery must not double-apply"
        );
    }

    /// A `Read` crashed before or after its read of `C` recovers to the
    /// current value.
    pub(crate) fn read_recovers(row: Row) {
        let w = world(row.k, 2);
        for &op in row.setup.iter().chain([&row.op]) {
            w.run(0, op);
        }
        for crash_after in 0..2 {
            drop(w.start(0, Read, crash_after).unwrap());
            assert_eq!(w.recover(0, Read), u64::from(w.value()));
        }
    }

    /// Renaming processes maps executions onto executions: the op by p0
    /// then a `Read` by p2, permuted by (0 1), is the op by p1 then the
    /// same `Read`. The composition delegates to the inner CAS's toggle
    /// vector; its `ARG`/`Ann` words relocate generically.
    pub(crate) fn permute_memory_maps_executions_across_pids(row: Row) {
        let run = |pid| {
            let w = world(row.k, 3);
            w.run(pid, row.op);
            w.run(2, Read);
            w
        };
        let (a, b) = (run(0), run(1));
        let perm = [1u32, 0, 2];
        let mut words = Vec::new();
        assert!(a.mem.logical_words_permuted(&perm, true, &mut words));
        assert!(a.obj.permute_memory(&mut words, &perm));
        assert_eq!(words, b.mem.full_key(), "{}", row.op);
    }

    #[test]
    fn every_row_has_every_property() {
        for row in [INC, FAA_3, SWAP_8, TEST_AND_SET, RESET] {
            crash_at_every_step_exactly_once(row);
            recovery_after_completion_is_idempotent(row);
            read_recovers(row);
            permute_memory_maps_executions_across_pids(row);
        }
    }

    /// Declares `#[test]` entry points that call the suite's bodies.
    macro_rules! entry_points {
        ($($(#[$attr:meta])* $name:ident: $body:expr;)*) => {$(
            $(#[$attr])*
            #[test]
            fn $name() {
                $body;
            }
        )*};
    }
    pub(crate) use entry_points;
}
