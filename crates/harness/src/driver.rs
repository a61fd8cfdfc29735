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

/// The policy of drives that never re-invoke: the solo building blocks
/// and the census's successor primitives.
const NO_RETRY: RetryPolicy = RetryPolicy {
    retry_on_fail: false,
    max_retries: 0,
    reset_per_op: false,
};

/// One process's slot in a [`Driver`]: its life-cycle stage and the
/// fail-retries it consumed (under the current budget window — see
/// [`RetryPolicy::reset_per_op`]).
#[derive(Clone)]
pub(crate) struct Proc {
    /// The life-cycle stage.
    pub(crate) state: ProcState,
    /// Fail-retries consumed.
    pub(crate) retries: usize,
    /// Machine steps the current operation or recovery has taken
    /// (saturating); not part of the key.
    pub(crate) steps: u32,
}

impl Proc {
    /// Appends this process's key segment to `out`:
    /// `retries, stage[, op_key[, len, machine words…]]`, the stage `0`
    /// Idle, `1` Done, `2` NeedRecovery, `3` Running, `4` Recovering.
    /// [`Driver::encode_key`] is these segments in process order, so a
    /// caller that changes one process can splice a new key from the
    /// others' segments; [`Driver::decode_frontier`] inverts them for the
    /// census's drivers.
    pub(crate) fn encode_key(&self, out: &mut Vec<Word>) {
        out.push(self.retries as Word);
        match &self.state {
            ProcState::Idle => out.push(0),
            ProcState::Done => out.push(1),
            ProcState::NeedRecovery { op } => out.extend([2, op_key(op)]),
            ProcState::Running { op, m } => {
                out.extend([3, op_key(op)]);
                encode_machine(&**m, out);
            }
            ProcState::Recovering { op, m } => {
                out.extend([4, op_key(op)]);
                encode_machine(&**m, out);
            }
        }
    }
}

/// Appends `len, machine words…`: the words go straight into `out`
/// through [`Machine::encode_into`] and `len` is patched in after them.
fn encode_machine(m: &dyn Machine, out: &mut Vec<Word>) {
    let at = out.len();
    out.push(0);
    m.encode_into(out);
    out[at] = (out.len() - at - 1) as Word;
}

/// The caller protocol's invocation for process `pid`: the announcement
/// ([`RecoverableObject::prepare`]), then the operation machine.
fn start(obj: &dyn RecoverableObject, mem: &dyn Memory, pid: Pid, op: OpSpec) -> ProcState {
    obj.prepare(mem, pid, &op);
    ProcState::Running {
        m: obj.invoke(pid, &op),
        op,
    }
}

/// One scheduler action of process `pid`, whose slot is `p`: one machine
/// step (Running / Recovering, through `poll`), or one recovery entry
/// (NeedRecovery). A `fail` verdict re-invokes the operation when `retry`
/// allows, charging `p.retries`. The caller records the events the
/// returned outcome implies.
fn transition(
    obj: &dyn RecoverableObject,
    mem: &dyn Memory,
    pid: Pid,
    p: &mut Proc,
    retry: &RetryPolicy,
    poll: impl FnOnce(&mut Box<dyn Machine>, &dyn Memory) -> (Poll, u32),
) -> StepOutcome {
    let cur = std::mem::replace(&mut p.state, ProcState::Idle);
    let poll = |m: &mut Box<dyn Machine>| {
        let (r, steps) = poll(m, mem);
        p.steps = p.steps.saturating_add(steps);
        r
    };
    let (next, outcome) = match cur {
        ProcState::Idle | ProcState::Done => {
            panic!("{pid} stepped while idle/done; schedulers invoke first")
        }
        ProcState::Running { op, mut m } => match poll(&mut m) {
            Poll::Ready(resp) => (ProcState::Idle, StepOutcome::Returned(resp)),
            Poll::Pending => (ProcState::Running { op, m }, StepOutcome::Progress),
        },
        ProcState::NeedRecovery { op } => (
            ProcState::Recovering {
                m: obj.recover(pid, &op),
                op,
            },
            StepOutcome::RecoveryEntered,
        ),
        ProcState::Recovering { op, mut m } => match poll(&mut m) {
            Poll::Ready(verdict) => {
                // The caller may re-attempt: a fresh invocation of the
                // same abstract operation.
                let retried =
                    verdict == RESP_FAIL && retry.retry_on_fail && p.retries < retry.max_retries;
                let next = if retried {
                    p.retries += 1;
                    start(obj, mem, pid, op)
                } else {
                    ProcState::Idle
                };
                (next, StepOutcome::Recovered { verdict, retried })
            }
            Poll::Pending => (ProcState::Recovering { op, m }, StepOutcome::Progress),
        },
    };
    if !matches!(outcome, StepOutcome::Progress) {
        // A new machine, or none: its operation starts counting afresh.
        p.steps = 0;
    }
    p.state = next;
    outcome
}

/// The most private-only steps [`step_folded`] folds after a machine's
/// first step. The paper's algorithms take a handful of private steps
/// between shared accesses, so the bound only ever binds on a machine that
/// spins on its own cells forever; it keeps such a livelock from hanging
/// either search.
const FOLD_LIMIT: usize = 1 << 12;

/// One machine step, then — while the machine is pending — up to
/// [`FOLD_LIMIT`] more, as long as each touches only private cells
/// ([`SimMemory::shared_touched`]). A speculative step that touches shared
/// memory is rewound through the memory's undo log and the machine's
/// clone. Stopping early is always sound: it only leaves a private step
/// for a later action. Returns the last step's poll and the number of
/// steps taken.
fn step_folded(m: &mut Box<dyn Machine>, mem: &SimMemory) -> (Poll, u32) {
    let mut r = m.step(mem);
    let mut steps = 1;
    for _ in 0..FOLD_LIMIT {
        if !matches!(r, Poll::Pending) {
            break;
        }
        let cp = mem.checkpoint();
        let saved = m.clone_box();
        mem.reset_shared_touch();
        let speculative = m.step(mem);
        if mem.shared_touched() {
            mem.rollback(cp);
            *m = saved;
            break;
        }
        mem.discard(cp);
        r = speculative;
        steps += 1;
    }
    (r, steps)
}

/// Drives N processes' operation life cycles over a shared memory,
/// recording the execution [`History`].
///
/// The driver is cloneable — machines clone their volatile state — so
/// state-space explorers can branch whole system configurations. The
/// census, which branches one process at a time, need not: its successor
/// primitives (`step_successor`, `invoke_successor`) act on a copy of one
/// process's slot and leave the driver untouched, and `with_process`
/// builds the successor driver only when the census keeps it.
#[derive(Clone)]
pub struct Driver {
    procs: Vec<Proc>,
    history: History,
    record: bool,
}

impl Driver {
    /// A driver for `n` idle processes with an empty history.
    pub fn new(n: u32) -> Self {
        Driver {
            procs: (0..n)
                .map(|_| Proc {
                    state: ProcState::Idle,
                    retries: 0,
                    steps: 0,
                })
                .collect(),
            history: History::new(),
            record: true,
        }
    }

    /// A driver that records no history. For consumers that never read it —
    /// the breadth-first census (whose nodes must stay O(processes), not
    /// O(path)) and the throughput benches (where per-operation event
    /// pushes would be measured as algorithm cost).
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
        self.procs.len()
    }

    /// Process `i`'s slot: its stage and retry count.
    pub(crate) fn process(&self, i: usize) -> &Proc {
        &self.procs[i]
    }

    /// Process `i`'s current life-cycle stage.
    pub fn state(&self, i: usize) -> &ProcState {
        &self.procs[i].state
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
        self.procs[i].retries
    }

    /// Machine steps process `i`'s current operation (or recovery) has
    /// taken, folded steps included; 0 while it is idle, done or waiting to
    /// recover.
    pub(crate) fn op_steps(&self, i: usize) -> u32 {
        self.procs[i].steps
    }

    /// Whether every process is [`ProcState::Done`].
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|p| p.state.is_done())
    }

    /// Whether any process is mid-operation or mid-recovery.
    pub fn any_in_flight(&self) -> bool {
        self.procs.iter().any(|p| p.state.in_flight())
    }

    /// Marks an idle process as finished with its workload.
    ///
    /// # Panics
    ///
    /// Panics if the process has an operation in flight.
    pub fn mark_done(&mut self, i: usize) {
        assert!(
            self.procs[i].state.is_idle(),
            "p{i} marked done with an operation in flight"
        );
        self.procs[i].state = ProcState::Done;
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
            self.procs[i].state.is_idle(),
            "p{i} marked crashed with an operation in flight"
        );
        self.procs[i].state = ProcState::NeedRecovery { op };
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
        self.assert_idle(i, op);
        if retry.reset_per_op {
            self.procs[i].retries = 0;
        }
        let pid = Pid::new(i as u32);
        self.procs[i].state = start(obj, mem, pid, op);
        self.procs[i].steps = 0;
        self.push_event(Event::Invoke { pid, op });
    }

    fn assert_idle(&self, i: usize, op: OpSpec) {
        assert!(
            self.procs[i].state.is_idle(),
            "p{i} invoked {op} while {:?} an operation is in flight",
            self.procs[i].state.pending_op()
        );
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
        self.advance(obj, mem, i, retry, |m, mem| (m.step(mem), 1))
    }

    /// Like [`step`](Self::step), but with the partial-order reduction both
    /// searches share: after the first machine step, subsequent steps that
    /// touch only the acting process's private cells are folded into the
    /// same action (they commute with every other process's actions, so
    /// exploring their interleavings separately adds nothing). At most
    /// 4,096 steps are folded, so a machine spinning on its own cells
    /// cannot hang the caller.
    pub fn step_merged(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &SimMemory,
        i: usize,
        retry: &RetryPolicy,
    ) -> StepOutcome {
        self.advance(obj, mem, i, retry, |m, _| step_folded(m, mem))
    }

    /// Runs [`transition`] on process `i` in place and records the events
    /// its outcome implies.
    fn advance(
        &mut self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        retry: &RetryPolicy,
        poll: impl FnOnce(&mut Box<dyn Machine>, &dyn Memory) -> (Poll, u32),
    ) -> StepOutcome {
        let pid = Pid::new(i as u32);
        let outcome = transition(obj, mem, pid, &mut self.procs[i], retry, poll);
        match outcome {
            StepOutcome::Returned(resp) => self.push_event(Event::Return { pid, resp }),
            StepOutcome::Recovered { verdict, retried } => {
                self.push_event(Event::RecoveryReturn { pid, verdict });
                if retried {
                    let op = *self.procs[i]
                        .state
                        .pending_op()
                        .expect("a retried operation is running");
                    self.push_event(Event::Invoke { pid, op });
                }
            }
            StepOutcome::Progress | StepOutcome::RecoveryEntered => {}
        }
        outcome
    }

    /// Process `i`'s slot after one [`step`](Self::step) — or, if `fold`,
    /// one [`step_merged`](Self::step_merged) — under a policy that never
    /// retries, computed on a copy: the driver is untouched and only
    /// process `i`'s machine is cloned. The memory takes the step's
    /// effects. Records nothing — the census's drivers keep no history —
    /// so combine with [`with_process`](Self::with_process) only on
    /// history-less drivers.
    ///
    /// # Panics
    ///
    /// Panics if the process is idle or done.
    pub(crate) fn step_successor(
        &self,
        obj: &dyn RecoverableObject,
        mem: &SimMemory,
        i: usize,
        fold: bool,
    ) -> (Proc, StepOutcome) {
        let mut p = self.procs[i].clone();
        let outcome = transition(obj, mem, Pid::new(i as u32), &mut p, &NO_RETRY, |m, _| {
            if fold {
                step_folded(m, mem)
            } else {
                (m.step(mem), 1)
            }
        });
        (p, outcome)
    }

    /// Process `i`'s slot after [`invoke`](Self::invoke)ing `op` under a
    /// policy that never retries, leaving the driver untouched (the memory
    /// takes the announcement). Records nothing, as
    /// [`step_successor`](Self::step_successor).
    ///
    /// # Panics
    ///
    /// Panics if the process is not [`ProcState::Idle`].
    pub(crate) fn invoke_successor(
        &self,
        obj: &dyn RecoverableObject,
        mem: &dyn Memory,
        i: usize,
        op: OpSpec,
    ) -> Proc {
        self.assert_idle(i, op);
        Proc {
            state: start(obj, mem, Pid::new(i as u32), op),
            retries: self.procs[i].retries,
            steps: 0,
        }
    }

    /// A copy of this driver with process `i`'s slot replaced by `p`: the
    /// other processes' machines are cloned, process `i`'s is moved in.
    pub(crate) fn with_process(&self, i: usize, p: Proc) -> Driver {
        let mut procs = Vec::with_capacity(self.procs.len());
        procs.extend_from_slice(&self.procs[..i]);
        procs.push(p);
        procs.extend_from_slice(&self.procs[i + 1..]);
        Driver {
            procs,
            history: self.history.clone(),
            record: self.record,
        }
    }

    /// A system-wide crash: the memory applies `policy` to its dirty cache
    /// lines, every in-flight machine is destroyed (volatile state lost),
    /// and crashed processes are marked [`ProcState::NeedRecovery`].
    pub fn crash(&mut self, mem: &SimMemory, policy: CrashPolicy) {
        mem.crash(policy);
        self.push_event(Event::Crash);
        for p in self.procs.iter_mut() {
            let cur = std::mem::replace(&mut p.state, ProcState::Idle);
            p.state = match cur {
                ProcState::Running { op, .. } | ProcState::Recovering { op, .. } => {
                    ProcState::NeedRecovery { op }
                }
                other => other,
            };
            p.steps = 0;
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
        self.invoke(obj, mem, i, op, &NO_RETRY);
        for used in 1..=limit {
            if let StepOutcome::Returned(resp) = self.step(obj, mem, i, &NO_RETRY) {
                return (Some(resp), used);
            }
        }
        (None, limit)
    }

    /// Appends a canonical encoding of the driver's volatile state — per
    /// process, a segment of retry count, life-cycle stage, pending
    /// operation and machine state (`retries, stage[, op_key[, len,
    /// machine words…]]`) — to `out`. Together
    /// with the memory's state this determines all future behavior, so
    /// explorers use it in visited-set keys. The history is deliberately
    /// excluded: callers that need path-sensitivity (the explorer's leaf
    /// checker does) hash it separately.
    pub fn encode_key(&self, out: &mut Vec<Word>) {
        for p in &self.procs {
            p.encode_key(out);
        }
    }

    /// [`encode_key`](Self::encode_key) into a fresh vector.
    pub(crate) fn key(&self) -> Vec<Word> {
        let mut k = Vec::new();
        self.encode_key(&mut k);
        k
    }

    /// Inverse of [`encode_key`](Self::encode_key) for the drivers a
    /// crash-free census produces: every process `Idle` (stage `0`) or
    /// `Running` (stage `3`) with zero retries. Returns a history-less
    /// driver, rebuilding each `Running` machine through
    /// [`RecoverableObject::decode_op`]. Returns `None` for any other
    /// stage, consumed retries, truncated or trailing words, or a machine
    /// the object cannot decode. The census's disk tier stores node keys
    /// in its frontier files and resumes them through this.
    pub fn decode_frontier(obj: &dyn RecoverableObject, n: u32, words: &[Word]) -> Option<Driver> {
        let mut d = Driver::without_history(n);
        let mut at = 0usize;
        for i in 0..n as usize {
            match *words.get(at..at + 2)? {
                [0, 0] => at += 2,
                [0, 3] => {
                    let op = op_from_key(*words.get(at + 2)?)?;
                    let len = usize::try_from(*words.get(at + 3)?).ok()?;
                    let end = (at + 4).checked_add(len)?;
                    let m = obj.decode_op(Pid::new(i as u32), &op, words.get(at + 4..end)?)?;
                    d.procs[i].state = ProcState::Running { op, m };
                    at = end;
                }
                _ => return None,
            }
        }
        (at == words.len()).then_some(d)
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
        let idle = d.key();
        d.invoke(&reg, &mem, 0, OpSpec::Write(1), &retry);
        let invoked = d.key();
        assert_ne!(idle, invoked);
        let _ = d.step(&reg, &mem, 0, &retry);
        assert_ne!(d.key(), invoked);
    }

    #[test]
    fn without_history_records_nothing_but_drives_identically() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 2, 0));
        let mut d = Driver::without_history(2);
        assert_eq!(d.run_solo(&reg, &mem, 0, OpSpec::Write(5), 1000), ACK);
        assert_eq!(d.run_solo(&reg, &mem, 1, OpSpec::Read, 1000), 5);
        assert!(d.history().events().is_empty());
    }

    /// `encode_key` → `decode_frontier` → `encode_key` gives back the same
    /// words, and the decoded driver finishes every in-flight operation
    /// with the same response and memory as the original.
    fn assert_key_roundtrips(obj: &dyn RecoverableObject, mem: &SimMemory, d: &Driver) {
        let n = d.processes() as u32;
        let words = d.key();
        let decoded = Driver::decode_frontier(obj, n, &words).expect("census key decodes");
        assert_eq!(decoded.key(), words);
        let (mut a, mut b) = (d.clone(), decoded);
        for i in (0..d.processes()).filter(|&i| d.state(i).in_flight()) {
            let finish = |d: &mut Driver| {
                let cp = mem.checkpoint();
                let resp = loop {
                    if let StepOutcome::Returned(w) = d.step(obj, mem, i, &NO_RETRY) {
                        break w;
                    }
                };
                let mut image = Vec::new();
                mem.logical_words_into(&mut image);
                mem.rollback(cp);
                (resp, image)
            };
            assert_eq!(finish(&mut a), finish(&mut b), "p{i}");
        }
    }

    #[test]
    fn frontier_decode_inverts_census_keys() {
        let (reg, mem) = build_world(|b| DetectableRegister::new(b, 3, 0));
        let mut d = Driver::without_history(3);
        assert_key_roundtrips(&reg, &mem, &d);
        d.invoke(&reg, &mem, 0, OpSpec::Write(4), &NO_RETRY);
        let _ = d.step(&reg, &mem, 0, &NO_RETRY);
        d.invoke(&reg, &mem, 2, OpSpec::Read, &NO_RETRY);
        assert_key_roundtrips(&reg, &mem, &d);

        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let mut d = Driver::without_history(2);
        d.invoke(&cas, &mem, 1, OpSpec::Cas { old: 0, new: 1 }, &NO_RETRY);
        assert_key_roundtrips(&cas, &mem, &d);
        while !d.step(&cas, &mem, 1, &NO_RETRY).resolved() {
            assert_key_roundtrips(&cas, &mem, &d);
        }
        d.invoke(&cas, &mem, 0, OpSpec::Cas { old: 1, new: 0 }, &NO_RETRY);
        assert_key_roundtrips(&cas, &mem, &d);
    }

    #[test]
    fn frontier_decode_refuses_non_census_keys() {
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let decode = |words: &[Word]| Driver::decode_frontier(&cas, 2, words);
        let op = OpSpec::Cas { old: 0, new: 1 };
        let mut d = Driver::without_history(2);
        d.invoke(&cas, &mem, 0, op, &NO_RETRY);
        let running = d.key();
        assert!(decode(&running).is_some());

        // Truncated anywhere, or followed by trailing words.
        for cut in 0..running.len() {
            assert!(decode(&running[..cut]).is_none(), "cut at {cut}");
        }
        assert!(decode(&[running.as_slice(), &[0]].concat()).is_none());
        // A machine length running past the end of the words.
        let mut long = running.clone();
        long[3] = Word::MAX;
        assert!(decode(&long).is_none());
        // Consumed retries, or a stage no crash-free census reaches.
        let mut retried = running.clone();
        retried[0] = 1;
        assert!(decode(&retried).is_none());
        for stage in [1, 2, 4, 5] {
            let mut k = running.clone();
            k[1] = stage;
            assert!(decode(&k).is_none(), "stage {stage}");
        }

        // A crashed driver's key (NeedRecovery), and a Recovering one.
        d.crash(&mem, CrashPolicy::DropAll);
        assert!(decode(&d.key()).is_none());
        assert_eq!(
            d.step(&cas, &mem, 0, &NO_RETRY),
            StepOutcome::RecoveryEntered
        );
        assert!(matches!(d.state(0), ProcState::Recovering { .. }));
        assert!(decode(&d.key()).is_none());
    }

    #[test]
    fn successor_primitives_match_step_and_invoke() {
        // Acting on a copy of one slot and rebuilding the driver must equal
        // acting on a clone of the whole driver: same outcome, same key,
        // same memory, and the original untouched.
        let (cas, mem) = build_world(|b| DetectableCas::new(b, 2, 0));
        let image = |mem: &SimMemory| {
            let mut w = Vec::new();
            mem.logical_words_into(&mut w);
            w
        };
        let op = OpSpec::Cas { old: 0, new: 1 };
        let mut d = Driver::without_history(2);
        d.invoke(&cas, &mem, 1, OpSpec::Read, &NO_RETRY);

        let before = d.key();
        let cp = mem.checkpoint();
        let p = d.invoke_successor(&cas, &mem, 0, op);
        let (copy, copy_mem) = (d.with_process(0, p), image(&mem));
        mem.rollback(cp);
        assert_eq!(d.key(), before, "the node is only borrowed");
        d.invoke(&cas, &mem, 0, op, &NO_RETRY);
        assert_eq!((copy.key(), copy_mem), (d.key(), image(&mem)));

        loop {
            // A folded successor is the node after `step_merged`.
            let cp = mem.checkpoint();
            let (p, folded) = d.step_successor(&cas, &mem, 0, true);
            let (copy, copy_mem) = (d.with_process(0, p), image(&mem));
            mem.rollback(cp);
            let cp = mem.checkpoint();
            let mut merged = d.clone();
            assert_eq!(merged.step_merged(&cas, &mem, 0, &NO_RETRY), folded);
            assert_eq!((copy.key(), copy_mem), (merged.key(), image(&mem)));
            mem.rollback(cp);

            let before = d.key();
            let cp = mem.checkpoint();
            let (p, outcome) = d.step_successor(&cas, &mem, 0, false);
            let mut seg = Vec::new();
            p.encode_key(&mut seg);
            let (copy, copy_mem) = (d.with_process(0, p), image(&mem));
            mem.rollback(cp);
            assert_eq!(d.key(), before, "the node is only borrowed");
            assert_eq!(d.step(&cas, &mem, 0, &NO_RETRY), outcome);
            assert_eq!((copy.key(), copy_mem), (d.key(), image(&mem)));
            let mut expect = Vec::new();
            d.process(0).encode_key(&mut expect);
            assert_eq!(seg, expect);
            if outcome.resolved() {
                break;
            }
        }
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
