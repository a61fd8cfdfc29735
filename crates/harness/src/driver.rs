//! The shared execution driver.
//!
//! Every component that runs operations against a [`RecoverableObject`] —
//! the randomized simulator ([`crate::sim`]), the exhaustive explorer
//! ([`crate::explore`](mod@crate::explore)), the configuration census
//! ([`crate::census`]) and the perturbation witness validator
//! ([`crate::perturb`]) — plays the same *system and caller* role from the
//! paper's Section 2:
//!
//! 1. run the announcement protocol ([`RecoverableObject::prepare`]) and
//!    record the invocation;
//! 2. step the operation machine one primitive at a time;
//! 3. on a system-wide crash, drop every in-flight machine (its fields are
//!    the process's volatile local variables) and remember that the process
//!    must run recovery;
//! 4. (re-)enter recovery machines — recovery may itself crash;
//! 5. when a recovery verdict is `fail`, optionally re-invoke the operation
//!    within a retry budget, as a fresh invocation in the history.
//!
//! This module centralizes that protocol in [`Driver`] so schedulers only
//! decide *which process acts next* (and when crashes happen), never how an
//! individual operation's life cycle unfolds.

use detectable::{OpSpec, RecoverableObject};
use nvm::{CrashPolicy, Machine, Memory, Pid, Poll, SimMemory, Word, RESP_FAIL};

use crate::history::{Event, History};

/// Fail-retry policy (paper: the caller may re-invoke an operation whose
/// recovery inferred it was never linearized).
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Re-invoke an operation whose recovery verdict was `fail` (a fresh
    /// invocation in the history).
    pub retry_on_fail: bool,
    /// Retry budget per process.
    pub max_retries: usize,
    /// Whether the budget refills at each new operation (the simulator's
    /// per-operation budget) or spans the whole execution (the explorer's
    /// per-process budget, which bounds fail/retry chains when crashes keep
    /// arriving).
    pub reset_per_op: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retry_on_fail: true,
            max_retries: 2,
            reset_per_op: false,
        }
    }
}

/// The life-cycle stage of one process's current operation.
#[derive(Clone)]
pub enum ProcState {
    /// No operation in flight.
    Idle,
    /// Executing `op` through machine `m`.
    Running {
        /// The operation.
        op: OpSpec,
        /// Its in-flight machine (the process's volatile local variables).
        m: Box<dyn Machine>,
    },
    /// Crashed while executing (or recovering) `op`; recovery must run
    /// before anything else.
    NeedRecovery {
        /// The crashed operation (recovery is called with its arguments).
        op: OpSpec,
    },
    /// Executing `op.Recover` through machine `m`.
    Recovering {
        /// The operation being recovered.
        op: OpSpec,
        /// The in-flight recovery machine.
        m: Box<dyn Machine>,
    },
    /// Finished its workload (scheduler bookkeeping; the driver never sets
    /// this itself — see [`Driver::mark_done`]).
    Done,
}

impl ProcState {
    /// Whether an operation or recovery machine is executing right now (a
    /// crash would destroy volatile state).
    pub fn in_flight(&self) -> bool {
        matches!(
            self,
            ProcState::Running { .. } | ProcState::Recovering { .. }
        )
    }

    /// Whether the process can accept a new operation.
    pub fn is_idle(&self) -> bool {
        matches!(self, ProcState::Idle)
    }

    /// Whether the process finished its workload.
    pub fn is_done(&self) -> bool {
        matches!(self, ProcState::Done)
    }

    /// The operation occupying this process, if any.
    pub fn pending_op(&self) -> Option<&OpSpec> {
        match self {
            ProcState::Idle | ProcState::Done => None,
            ProcState::Running { op, .. }
            | ProcState::NeedRecovery { op }
            | ProcState::Recovering { op, .. } => Some(op),
        }
    }
}

/// What one [`Driver::step`] accomplished.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The machine executed primitives and is still pending.
    Progress,
    /// The operation completed with this response.
    Returned(Word),
    /// The recovery machine was (re-)entered; it has not stepped yet.
    RecoveryEntered,
    /// Recovery completed with `verdict`; if `retried`, the driver already
    /// re-invoked the operation per the [`RetryPolicy`].
    Recovered {
        /// `fail` or the operation's response.
        verdict: Word,
        /// Whether a fresh invocation of the same operation was started.
        retried: bool,
    },
}

impl StepOutcome {
    /// Whether this step resolved an operation (a response or a recovery
    /// verdict reached the caller).
    pub fn resolved(&self) -> bool {
        matches!(
            self,
            StepOutcome::Returned(_) | StepOutcome::Recovered { .. }
        )
    }
}

/// Encodes an operation as a word for state-space visited-set keys: a
/// 4-bit variant tag in the top bits over a 60-bit payload.
///
/// Distinct operations map to distinct words for arguments below `2^30`
/// (every harness workload by a wide margin; the `Cas` payload packs both
/// arguments at 30 bits each).
pub fn op_key(op: &OpSpec) -> Word {
    const TAG: u32 = 60;
    match op {
        OpSpec::Read => 1u64 << TAG,
        OpSpec::Inc => 2u64 << TAG,
        OpSpec::TestAndSet => 3u64 << TAG,
        OpSpec::Reset => 4u64 << TAG,
        OpSpec::Deq => 5u64 << TAG,
        OpSpec::Write(v) => (6u64 << TAG) | u64::from(*v),
        OpSpec::Cas { old, new } => (7u64 << TAG) | (u64::from(*old) << 30) | u64::from(*new),
        OpSpec::WriteMax(v) => (8u64 << TAG) | u64::from(*v),
        OpSpec::Faa(d) => (10u64 << TAG) | u64::from(*d),
        OpSpec::Swap(v) => (11u64 << TAG) | u64::from(*v),
        OpSpec::Enq(v) => (12u64 << TAG) | u64::from(*v),
    }
}

/// Inverse of [`op_key`]: reconstructs the operation from its visited-set
/// word. Returns `None` for words that no [`OpSpec`] maps to.
pub fn op_from_key(key: Word) -> Option<OpSpec> {
    const TAG: u32 = 60;
    let payload = key & ((1u64 << TAG) - 1);
    let arg = u32::try_from(payload).ok();
    match key >> TAG {
        1 if payload == 0 => Some(OpSpec::Read),
        2 if payload == 0 => Some(OpSpec::Inc),
        3 if payload == 0 => Some(OpSpec::TestAndSet),
        4 if payload == 0 => Some(OpSpec::Reset),
        5 if payload == 0 => Some(OpSpec::Deq),
        6 => Some(OpSpec::Write(arg?)),
        7 => Some(OpSpec::Cas {
            old: (payload >> 30) as u32,
            new: (payload & ((1 << 30) - 1)) as u32,
        }),
        8 => Some(OpSpec::WriteMax(arg?)),
        10 => Some(OpSpec::Faa(arg?)),
        11 => Some(OpSpec::Swap(arg?)),
        12 => Some(OpSpec::Enq(arg?)),
        _ => None,
    }
}

/// Drives N processes' operation life cycles over a shared memory,
/// recording the execution [`History`].
///
/// The driver is cloneable — machines clone their volatile state — so
/// state-space explorers can branch whole system configurations.
#[derive(Clone)]
pub struct Driver {
    states: Vec<ProcState>,
    retries: Vec<usize>,
    history: History,
    record: bool,
}

impl Driver {
    /// A driver for `n` idle processes with an empty history.
    pub fn new(n: u32) -> Self {
        Driver {
            states: (0..n).map(|_| ProcState::Idle).collect(),
            retries: vec![0; n as usize],
            history: History::new(),
            record: true,
        }
    }

    /// A driver that records no history. For consumers that never read it —
    /// the breadth-first census (whose nodes are cloned per successor and
    /// must stay O(processes), not O(path)) and the throughput benches
    /// (where per-operation event pushes would be measured as algorithm
    /// cost).
    pub fn without_history(n: u32) -> Self {
        Driver {
            record: false,
            ..Self::new(n)
        }
    }

    /// A driver sized for `obj`'s process count.
    pub fn for_object(obj: &dyn RecoverableObject) -> Self {
        Self::new(obj.processes())
    }

    fn push_event(&mut self, e: Event) {
        if self.record {
            self.history.push(e);
        }
    }

    /// Number of processes driven.
    pub fn processes(&self) -> usize {
        self.states.len()
    }

    /// Process `i`'s current life-cycle stage.
    pub fn state(&self, i: usize) -> &ProcState {
        &self.states[i]
    }

    /// The history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Consumes the driver, yielding the recorded history.
    pub fn into_history(self) -> History {
        self.history
    }

    /// Fail-retries consumed by process `i` (under the current budget
    /// window — see [`RetryPolicy::reset_per_op`]).
    pub fn retries(&self, i: usize) -> usize {
        self.retries[i]
    }

    /// Whether every process is [`ProcState::Done`].
    pub fn all_done(&self) -> bool {
        self.states.iter().all(ProcState::is_done)
    }

    /// Whether any process is mid-operation or mid-recovery.
    pub fn any_in_flight(&self) -> bool {
        self.states.iter().any(ProcState::in_flight)
    }

    /// Marks an idle process as finished with its workload.
    ///
    /// # Panics
    ///
    /// Panics if the process has an operation in flight.
    pub fn mark_done(&mut self, i: usize) {
        assert!(
            self.states[i].is_idle(),
            "p{i} marked done with an operation in flight"
        );
        self.states[i] = ProcState::Done;
    }

    /// Marks an idle process as having crashed while executing `op`, so its
    /// next step enters recovery — the re-entry point for histories whose
    /// crash happened *outside* this driver (a SIGKILLed child process whose
    /// in-flight operations are read back from a durable log). The memory is
    /// untouched: the real crash already decided what survived.
    ///
    /// # Panics
    ///
    /// Panics if the process has an operation in flight in *this* driver.
    pub fn mark_crashed(&mut self, i: usize, op: OpSpec) {
        assert!(
            self.states[i].is_idle(),
            "p{i} marked crashed with an operation in flight"
        );
        self.states[i] = ProcState::NeedRecovery { op };
    }

    /// Runs the caller protocol for a new operation: the announcement
    /// ([`RecoverableObject::prepare`]), the history record, and the
    /// operation machine. The process must be idle.
    ///
    /// # Panics
    ///
    /// Panics if the process is not [`ProcState::Idle`].
    pub fn invoke(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        op: OpSpec,
        retry: &RetryPolicy,
    ) {
        assert!(
            self.states[i].is_idle(),
            "p{i} invoked {op} while {:?} an operation is in flight",
            self.states[i].pending_op()
        );
        if retry.reset_per_op {
            self.retries[i] = 0;
        }
        let pid = Pid::new(i as u32);
        obj.prepare(mem, pid, &op);
        self.push_event(Event::Invoke { pid, op });
        self.states[i] = ProcState::Running {
            m: obj.invoke(pid, &op),
            op,
        };
    }

    /// Advances process `i` by one scheduler action: one machine step
    /// (Running / Recovering) or one recovery entry (NeedRecovery).
    ///
    /// # Panics
    ///
    /// Panics if the process is idle or done — schedulers decide what idle
    /// processes do next.
    pub fn step(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        retry: &RetryPolicy,
    ) -> StepOutcome {
        self.advance(obj, mem, i, retry, |m, mem| m.step(mem))
    }

    /// Like [`step`](Self::step), but with the explorer's partial-order
    /// reduction: after the first machine step, subsequent steps that touch
    /// only the acting process's private cells are folded into the same
    /// action (they commute with every other process's actions, so
    /// exploring their interleavings separately adds nothing). A
    /// speculative extra step that turns out to touch shared memory is
    /// rewound through the memory's undo log and the machine's clone.
    pub fn step_merged(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &SimMemory,
        i: usize,
        retry: &RetryPolicy,
    ) -> StepOutcome {
        self.advance(obj, mem, i, retry, |m, mem_dyn| {
            let sim: &SimMemory = mem;
            let _ = mem_dyn;
            sim.reset_shared_touch();
            let mut r = m.step(sim);
            while matches!(r, Poll::Pending) {
                let cp = sim.checkpoint();
                let saved = m.clone_box();
                sim.reset_shared_touch();
                let speculative = m.step(sim);
                if sim.shared_touched() {
                    sim.rollback(cp);
                    *m = saved;
                    break;
                }
                sim.discard(cp);
                r = speculative;
            }
            r
        })
    }

    fn advance(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        retry: &RetryPolicy,
        poll: impl FnOnce(&mut Box<dyn Machine>, &dyn Memory) -> Poll,
    ) -> StepOutcome {
        let pid = Pid::new(i as u32);
        let cur = std::mem::replace(&mut self.states[i], ProcState::Idle);
        let (next, outcome) = match cur {
            ProcState::Idle | ProcState::Done => {
                panic!("p{i} stepped while idle/done; schedulers invoke first")
            }
            ProcState::Running { op, mut m } => match poll(&mut m, mem) {
                Poll::Ready(resp) => {
                    self.push_event(Event::Return { pid, resp });
                    (ProcState::Idle, StepOutcome::Returned(resp))
                }
                Poll::Pending => (ProcState::Running { op, m }, StepOutcome::Progress),
            },
            ProcState::NeedRecovery { op } => (
                ProcState::Recovering {
                    m: obj.recover(pid, &op),
                    op,
                },
                StepOutcome::RecoveryEntered,
            ),
            ProcState::Recovering { op, mut m } => match poll(&mut m, mem) {
                Poll::Ready(verdict) => {
                    self.push_event(Event::RecoveryReturn { pid, verdict });
                    if verdict == RESP_FAIL
                        && retry.retry_on_fail
                        && self.retries[i] < retry.max_retries
                    {
                        // The caller chooses to re-attempt: a fresh
                        // invocation of the same abstract operation.
                        self.retries[i] += 1;
                        obj.prepare(mem, pid, &op);
                        self.push_event(Event::Invoke { pid, op });
                        (
                            ProcState::Running {
                                m: obj.invoke(pid, &op),
                                op,
                            },
                            StepOutcome::Recovered {
                                verdict,
                                retried: true,
                            },
                        )
                    } else {
                        (
                            ProcState::Idle,
                            StepOutcome::Recovered {
                                verdict,
                                retried: false,
                            },
                        )
                    }
                }
                Poll::Pending => (ProcState::Recovering { op, m }, StepOutcome::Progress),
            },
        };
        self.states[i] = next;
        outcome
    }

    /// A system-wide crash: the memory applies `policy` to its dirty cache
    /// lines, every in-flight machine is destroyed (volatile state lost),
    /// and crashed processes are marked [`ProcState::NeedRecovery`].
    pub fn crash(&mut self, mem: &SimMemory, policy: CrashPolicy) {
        mem.crash(policy);
        self.push_event(Event::Crash);
        for st in self.states.iter_mut() {
            let cur = std::mem::replace(st, ProcState::Idle);
            *st = match cur {
                ProcState::Running { op, .. } | ProcState::Recovering { op, .. } => {
                    ProcState::NeedRecovery { op }
                }
                other => other,
            };
        }
    }

    /// Invokes `op` on an idle process and steps it to completion,
    /// crash-free. The solo building block of the census and the witness
    /// validator.
    ///
    /// # Panics
    ///
    /// Panics if the machine is still pending after `limit` steps (the
    /// paper's algorithms are wait-free; honest solo runs always finish).
    /// Callers that must *report* incompletion instead of aborting — the
    /// census drive flags it as truncation — use
    /// [`try_run_solo`](Self::try_run_solo).
    pub fn run_solo(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        op: OpSpec,
        limit: usize,
    ) -> Word {
        self.try_run_solo(obj, mem, i, op, limit)
            .unwrap_or_else(|| panic!("solo {op} by p{i} did not complete within {limit} steps"))
    }

    /// [`run_solo`](Self::run_solo) without the panic: returns `None` if the
    /// operation is still pending after `limit` steps, leaving it in flight
    /// (the process is not idle and the memory holds its partial effects —
    /// callers must treat the state as incomplete, not as a configuration).
    pub fn try_run_solo(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        op: OpSpec,
        limit: usize,
    ) -> Option<Word> {
        self.try_run_solo_counted(obj, mem, i, op, limit).0
    }

    /// [`try_run_solo`](Self::try_run_solo) that also reports how many
    /// machine steps the operation consumed (the census drive accounts
    /// scheduler work with it). On incompletion the count is `limit`.
    pub fn try_run_solo_counted(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        op: OpSpec,
        limit: usize,
    ) -> (Option<Word>, usize) {
        let retry = RetryPolicy {
            retry_on_fail: false,
            max_retries: 0,
            reset_per_op: false,
        };
        self.invoke(obj, mem, i, op, &retry);
        for used in 1..=limit {
            if let StepOutcome::Returned(resp) = self.step(obj, mem, i, &retry) {
                return (Some(resp), used);
            }
        }
        (None, limit)
    }

    /// Appends a canonical encoding of the driver's volatile state — per
    /// process: life-cycle stage, pending operation, machine state, and
    /// retry count — to `out`. Together with the memory's state this
    /// determines all future behavior, so explorers use it in visited-set
    /// keys. The history is deliberately excluded: callers that need
    /// path-sensitivity (the explorer's leaf checker does) hash it
    /// separately.
    pub fn encode_key(&self, out: &mut Vec<Word>) {
        for (st, retries) in self.states.iter().zip(&self.retries) {
            out.push(*retries as Word);
            match st {
                ProcState::Idle => out.push(0),
                ProcState::Done => out.push(1),
                ProcState::NeedRecovery { op } => {
                    out.push(2);
                    out.push(op_key(op));
                }
                ProcState::Running { op, m } => {
                    out.push(3);
                    out.push(op_key(op));
                    let e = m.encode();
                    out.push(e.len() as Word);
                    out.extend(e);
                }
                ProcState::Recovering { op, m } => {
                    out.push(4);
                    out.push(op_key(op));
                    let e = m.encode();
                    out.push(e.len() as Word);
                    out.extend(e);
                }
            }
        }
    }

    /// Serializes a crash-free frontier driver — every process `Idle` or
    /// `Running` with zero retries, as the census produces — into a flat
    /// word vector that [`decode_frontier`](Self::decode_frontier) can
    /// reconstruct. Returns `None` if any process is in another stage or
    /// has consumed retries (such drivers also carry history-recording
    /// state this codec deliberately does not capture).
    ///
    /// Per process: `0` for `Idle`, or `1, op_key, len, machine words…` for
    /// `Running`. The census's disk tier stores these words in its
    /// on-disk frontier instead of live machines.
    pub fn try_encode_frontier(&self, out: &mut Vec<Word>) -> bool {
        let start = out.len();
        for (st, retries) in self.states.iter().zip(&self.retries) {
            if *retries != 0 {
                out.truncate(start);
                return false;
            }
            match st {
                ProcState::Idle => out.push(0),
                ProcState::Running { op, m } => {
                    out.push(1);
                    out.push(op_key(op));
                    let e = m.encode();
                    out.push(e.len() as Word);
                    out.extend(e);
                }
                _ => {
                    out.truncate(start);
                    return false;
                }
            }
        }
        true
    }

    /// Reconstructs a history-less driver from
    /// [`try_encode_frontier`](Self::try_encode_frontier) words, rebuilding
    /// each `Running` machine through [`RecoverableObject::decode_op`].
    /// Returns `None` on malformed words or when the object cannot decode a
    /// machine — callers fall back to the in-RAM engine in that case.
    pub fn decode_frontier(obj: &dyn RecoverableObject, n: u32, words: &[Word]) -> Option<Driver> {
        let mut d = Driver::without_history(n);
        let mut at = 0usize;
        for i in 0..n as usize {
            match *words.get(at)? {
                0 => at += 1,
                1 => {
                    let op = op_from_key(*words.get(at + 1)?)?;
                    let len = usize::try_from(*words.get(at + 2)?).ok()?;
                    let enc = words.get(at + 3..at + 3 + len)?;
                    let m = obj.decode_op(Pid::new(i as u32), &op, enc)?;
                    d.states[i] = ProcState::Running { op, m };
                    at += 3 + len;
                }
                _ => return None,
            }
        }
        if at != words.len() {
            return None;
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build_world;
    use detectable::{DetectableCas, DetectableRegister};
    use nvm::{ACK, TRUE};

    #[test]
    fn solo_register_write_and_read() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let mut d = Driver::for_object(&reg);
        assert_eq!(d.run_solo(&reg, &mem, 0, OpSpec::Write(7), 1000), ACK);
        assert_eq!(d.run_solo(&reg, &mem, 1, OpSpec::Read, 1000), 7);
        let h = d.history().to_records();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn crash_demotes_in_flight_machines() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let mut d = Driver::for_object(&cas);
        let retry = RetryPolicy::default();
        d.invoke(&cas, &mem, 0, OpSpec::Cas { old: 0, new: 1 }, &retry);
        assert!(d.state(0).in_flight());
        d.crash(&mem, CrashPolicy::DropAll);
        assert!(matches!(d.state(0), ProcState::NeedRecovery { .. }));
        assert_eq!(d.history().crash_count(), 1);
        // Entering recovery is its own scheduler action…
        assert_eq!(d.step(&cas, &mem, 0, &retry), StepOutcome::RecoveryEntered);
        // …then recovery steps to a verdict.
        loop {
            match d.step(&cas, &mem, 0, &retry) {
                StepOutcome::Progress => continue,
                StepOutcome::Recovered { verdict, .. } => {
                    assert!(verdict == RESP_FAIL || verdict == TRUE);
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn retry_budget_is_enforced() {
        // Crash a CAS before its first step so recovery must say fail, then
        // check the retry budget bounds re-invocations.
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let mut d = Driver::for_object(&cas);
        let retry = RetryPolicy {
            retry_on_fail: true,
            max_retries: 1,
            reset_per_op: false,
        };
        d.invoke(&cas, &mem, 0, OpSpec::Cas { old: 5, new: 6 }, &retry);
        let mut retried = 0;
        for _round in 0..3 {
            d.crash(&mem, CrashPolicy::DropAll);
            assert_eq!(d.step(&cas, &mem, 0, &retry), StepOutcome::RecoveryEntered);
            loop {
                match d.step(&cas, &mem, 0, &retry) {
                    StepOutcome::Progress => continue,
                    StepOutcome::Recovered { retried: true, .. } => {
                        retried += 1;
                        break;
                    }
                    StepOutcome::Recovered { retried: false, .. } => {
                        assert_eq!(retried, 1, "budget of one retry");
                        assert_eq!(d.retries(0), 1);
                        return;
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        panic!("recovery never exhausted the retry budget");
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_invoke_panics() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let mut d = Driver::for_object(&reg);
        let retry = RetryPolicy::default();
        d.invoke(&reg, &mem, 0, OpSpec::Write(1), &retry);
        d.invoke(&reg, &mem, 0, OpSpec::Write(2), &retry);
    }

    #[test]
    fn encode_key_reflects_progress() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let mut d = Driver::for_object(&reg);
        let retry = RetryPolicy::default();
        let key = |d: &Driver| {
            let mut k = Vec::new();
            d.encode_key(&mut k);
            k
        };
        let idle = key(&d);
        d.invoke(&reg, &mem, 0, OpSpec::Write(1), &retry);
        let invoked = key(&d);
        assert_ne!(idle, invoked);
        let _ = d.step(&reg, &mem, 0, &retry);
        assert_ne!(key(&d), invoked);
    }

    #[test]
    fn without_history_records_nothing_but_drives_identically() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let mut d = Driver::without_history(2);
        assert_eq!(d.run_solo(&reg, &mem, 0, OpSpec::Write(5), 1000), ACK);
        assert_eq!(d.run_solo(&reg, &mem, 1, OpSpec::Read, 1000), 5);
        assert!(d.history().events().is_empty());
    }

    #[test]
    fn frontier_codec_roundtrips_running_and_idle() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 3, 0));
        let mut d = Driver::without_history(3);
        let retry = RetryPolicy::default();
        d.invoke(&reg, &mem, 0, OpSpec::Write(4), &retry);
        let _ = d.step(&reg, &mem, 0, &retry);
        d.invoke(&reg, &mem, 2, OpSpec::Read, &retry);

        let mut words = Vec::new();
        assert!(d.try_encode_frontier(&mut words));
        let d2 = Driver::decode_frontier(&reg, 3, &words).expect("decode");

        let key = |d: &Driver| {
            let mut k = Vec::new();
            d.encode_key(&mut k);
            k
        };
        assert_eq!(key(&d), key(&d2));

        // The decoded driver finishes the in-flight ops identically.
        let mut a = d.clone();
        let mut b = d2;
        for i in [0usize, 2] {
            let cp = mem.checkpoint();
            let ra = loop {
                if let StepOutcome::Returned(w) = a.step(&reg, &mem, i, &retry) {
                    break w;
                }
            };
            mem.rollback(cp);
            let rb = loop {
                if let StepOutcome::Returned(w) = b.step(&reg, &mem, i, &retry) {
                    break w;
                }
            };
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn frontier_codec_refuses_non_census_states() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let mut d = Driver::without_history(2);
        let retry = RetryPolicy::default();
        d.invoke(&cas, &mem, 0, OpSpec::Cas { old: 0, new: 1 }, &retry);
        d.crash(&mem, CrashPolicy::DropAll);
        let mut words = Vec::new();
        assert!(!d.try_encode_frontier(&mut words));
        assert!(words.is_empty());
        // Malformed words refuse to decode.
        assert!(Driver::decode_frontier(&cas, 2, &[9]).is_none());
        assert!(Driver::decode_frontier(&cas, 2, &[0]).is_none());
        assert!(Driver::decode_frontier(&cas, 2, &[0, 0, 7]).is_none());
    }

    #[test]
    fn op_key_inverts() {
        let ops = [
            OpSpec::Read,
            OpSpec::Inc,
            OpSpec::TestAndSet,
            OpSpec::Reset,
            OpSpec::Deq,
            OpSpec::Write(3),
            OpSpec::Cas { old: 2, new: 5 },
            OpSpec::WriteMax(9),
            OpSpec::Faa(7),
            OpSpec::Swap(1),
            OpSpec::Enq(6),
        ];
        for op in ops {
            assert_eq!(op_from_key(op_key(&op)), Some(op), "{op}");
        }
        assert_eq!(op_from_key(0), None);
        assert_eq!(op_from_key(u64::MAX), None);
        // A tag with a stray payload where none is allowed refuses.
        assert_eq!(op_from_key((1u64 << 60) | 5), None);
    }

    #[test]
    fn op_keys_are_distinct() {
        let ops = [
            OpSpec::Read,
            OpSpec::Write(0),
            OpSpec::Write(1),
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
            OpSpec::WriteMax(1),
            OpSpec::Inc,
            OpSpec::Faa(1),
            OpSpec::Swap(1),
            OpSpec::TestAndSet,
            OpSpec::Reset,
            OpSpec::Enq(1),
            OpSpec::Deq,
        ];
        let keys: std::collections::HashSet<Word> = ops.iter().map(op_key).collect();
        assert_eq!(keys.len(), ops.len());
    }
}
