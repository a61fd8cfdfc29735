//! Execution histories: invocations, responses, crashes and recovery
//! verdicts, plus compilation into the operation records the checker
//! consumes.

use std::fmt;

use detectable::OpSpec;
use nvm::{Pid, Word, RESP_FAIL};

/// One event of an execution, in global time order.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Event {
    /// Process `pid` invoked `op` (the caller protocol ran just before).
    Invoke {
        /// Invoking process.
        pid: Pid,
        /// The operation.
        op: OpSpec,
    },
    /// Process `pid`'s operation returned `resp` without crashing.
    Return {
        /// Returning process.
        pid: Pid,
        /// Response word.
        resp: Word,
    },
    /// A system-wide crash: all in-flight operations lose volatile state.
    Crash,
    /// Process `pid`'s recovery function completed with `verdict` —
    /// [`RESP_FAIL`] ("not linearized") or the operation's response.
    RecoveryReturn {
        /// Recovering process.
        pid: Pid,
        /// `fail` or the response.
        verdict: Word,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Invoke { pid, op } => write!(f, "{pid} invokes {op}"),
            Event::Return { pid, resp } => write!(f, "{pid} returns {resp}"),
            Event::Crash => write!(f, "CRASH"),
            Event::RecoveryReturn { pid, verdict } => {
                if *verdict == RESP_FAIL {
                    write!(f, "{pid} recovery: fail")
                } else {
                    write!(f, "{pid} recovery: {verdict}")
                }
            }
        }
    }
}

/// How an operation ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Returned `resp` — either directly or through a recovery verdict. The
    /// operation **must** be linearized within its interval, with exactly
    /// this response.
    Completed(Word),
    /// Recovery returned `fail`: the object asserts the operation was never
    /// linearized. The checker excludes it and the exclusion must make the
    /// history explainable — if only *including* it works, detectability is
    /// violated.
    RecoveredFail,
    /// Still in flight when the history ends (crashed and never recovered,
    /// or simply unfinished). May be linearized with any legal response, or
    /// not at all.
    Pending,
    /// Resolved at a known time but with an effect the object could not
    /// report (non-detectable recovery): may be linearized with any legal
    /// response **within its interval**, or not at all.
    Unresolved,
}

/// One operation instance extracted from a history.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OpRecord {
    /// Executing process.
    pub pid: Pid,
    /// The operation.
    pub op: OpSpec,
    /// How it ended.
    pub outcome: Outcome,
    /// Index of the `Invoke` event.
    pub invoked_at: usize,
    /// Index of the resolving event (`Return` / `RecoveryReturn`), or
    /// `usize::MAX` while pending.
    pub resolved_at: usize,
}

impl OpRecord {
    /// Real-time precedence: `self` finished before `other` was invoked.
    pub fn precedes(&self, other: &OpRecord) -> bool {
        self.resolved_at < other.invoked_at
    }
}

/// An [`OpRecord`] plus the dense ranks of its interval endpoints.
///
/// Every event except a crash is an interval endpoint: an `Invoke` opens a
/// record and a `Return`/`RecoveryReturn` closes one. So an endpoint's rank
/// among all endpoints is its event index minus the crashes before it.
/// Ranks order endpoints exactly as the event indices do, but two histories
/// that differ only in where crashes fell between endpoints get equal ranks
/// — the form the explorer's memo key uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct RankedRecord {
    /// The record, with event indices.
    pub record: OpRecord,
    /// Ranks of `invoked_at` and `resolved_at` (`u64::MAX` while pending).
    pub ranks: [u64; 2],
}

/// A recorded execution.
#[derive(Clone, Debug, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// The events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of crashes recorded.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Crash))
            .count()
    }

    /// Compiles the event list into per-operation records.
    ///
    /// # Panics
    ///
    /// Panics on malformed histories (response without invocation, two
    /// in-flight operations for one process) — these indicate harness bugs.
    pub fn to_records(&self) -> Vec<OpRecord> {
        self.plain_records(false)
    }

    /// Like [`to_records`](Self::to_records) but for **non-detectable**
    /// objects: recovery verdicts carry no linearization claim, so every
    /// recovered operation becomes [`Outcome::Unresolved`] — it may have
    /// taken effect within its interval, or not. Only durable
    /// linearizability remains checkable.
    pub fn to_records_relaxed(&self) -> Vec<OpRecord> {
        self.plain_records(true)
    }

    fn plain_records(&self, relaxed: bool) -> Vec<OpRecord> {
        let mut ranked = Vec::new();
        self.records_into(relaxed, &mut ranked);
        ranked.iter().map(|r| r.record).collect()
    }

    /// The record compiler behind [`to_records`](Self::to_records)
    /// (`relaxed == false`) and [`to_records_relaxed`](Self::to_records_relaxed)
    /// (`relaxed == true`): one pass over the events into `out` (cleared
    /// first), with each record's endpoint [ranks](RankedRecord::ranks).
    /// Allocation-free once `out` has grown, for callers that compile a
    /// history per search node.
    ///
    /// # Panics
    ///
    /// As [`to_records`](Self::to_records).
    pub(crate) fn records_into(&self, relaxed: bool, out: &mut Vec<RankedRecord>) {
        out.clear();
        let mut crashes = 0;
        for (i, e) in self.events.iter().enumerate() {
            let rank = (i - crashes) as u64;
            let (pid, outcome, what) = match *e {
                Event::Invoke { pid, op } => {
                    assert!(
                        open_record(out, pid).is_none(),
                        "{pid} invoked {op} while another op is in flight"
                    );
                    out.push(RankedRecord {
                        record: OpRecord {
                            pid,
                            op,
                            outcome: Outcome::Pending,
                            invoked_at: i,
                            resolved_at: usize::MAX,
                        },
                        ranks: [rank, u64::MAX],
                    });
                    continue;
                }
                Event::Crash => {
                    crashes += 1;
                    continue;
                }
                Event::Return { pid, resp } => (pid, Outcome::Completed(resp), "return"),
                Event::RecoveryReturn { pid, verdict } => {
                    let outcome = if relaxed {
                        Outcome::Unresolved
                    } else if verdict == RESP_FAIL {
                        Outcome::RecoveredFail
                    } else {
                        Outcome::Completed(verdict)
                    };
                    (pid, outcome, "recovery")
                }
            };
            let r = open_record(out, pid).unwrap_or_else(|| panic!("{what} without invocation"));
            r.record.outcome = outcome;
            r.record.resolved_at = i;
            r.ranks[1] = rank;
        }
    }
}

/// The in-flight record of `pid`, if any. A process has at most one
/// operation in flight and records are appended in invocation order, so
/// it can only be the process's latest record.
fn open_record(records: &mut [RankedRecord], pid: Pid) -> Option<&mut RankedRecord> {
    records
        .iter_mut()
        .rev()
        .find(|r| r.record.pid == pid)
        .filter(|r| r.record.resolved_at == usize::MAX)
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "{i:4}: {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::ACK;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn records_from_plain_history() {
        let mut h = History::new();
        let p = Pid::new(0);
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Write(1),
        });
        h.push(Event::Return { pid: p, resp: ACK });
        let r = h.to_records();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].outcome, Outcome::Completed(ACK));
        assert_eq!((r[0].invoked_at, r[0].resolved_at), (0, 1));
    }

    #[test]
    fn records_through_crash_and_recovery() {
        let mut h = History::new();
        let p = Pid::new(0);
        let q = Pid::new(1);
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Write(1),
        });
        h.push(Event::Invoke {
            pid: q,
            op: OpSpec::Read,
        });
        h.push(Event::Crash);
        h.push(Event::RecoveryReturn {
            pid: p,
            verdict: RESP_FAIL,
        });
        h.push(Event::RecoveryReturn { pid: q, verdict: 0 });
        let r = h.to_records();
        assert_eq!(r[0].outcome, Outcome::RecoveredFail);
        assert_eq!(r[1].outcome, Outcome::Completed(0));
        assert_eq!(h.crash_count(), 1);
    }

    #[test]
    fn pending_ops_stay_pending() {
        let mut h = History::new();
        h.push(Event::Invoke {
            pid: Pid::new(0),
            op: OpSpec::Read,
        });
        let r = h.to_records();
        assert_eq!(r[0].outcome, Outcome::Pending);
        assert_eq!(r[0].resolved_at, usize::MAX);
    }

    #[test]
    fn precedence() {
        let mut h = History::new();
        let p = Pid::new(0);
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Write(1),
        });
        h.push(Event::Return { pid: p, resp: ACK });
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Write(2),
        });
        h.push(Event::Return { pid: p, resp: ACK });
        let r = h.to_records();
        assert!(r[0].precedes(&r[1]));
        assert!(!r[1].precedes(&r[0]));
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_invoke_panics() {
        let mut h = History::new();
        let p = Pid::new(0);
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Read,
        });
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Read,
        });
        let _ = h.to_records();
    }

    #[test]
    fn relaxed_records_turn_recovery_verdicts_into_unresolved() {
        let mut h = History::new();
        let p = Pid::new(0);
        let q = Pid::new(1);
        // p: normal return — stays Completed even in relaxed mode.
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Write(1),
        });
        h.push(Event::Return { pid: p, resp: ACK });
        // q: crashed, recovery said fail — becomes Unresolved.
        h.push(Event::Invoke {
            pid: q,
            op: OpSpec::Write(2),
        });
        h.push(Event::Crash);
        h.push(Event::RecoveryReturn {
            pid: q,
            verdict: RESP_FAIL,
        });
        // p again: crashed, recovery claimed a response — also Unresolved
        // (non-detectable verdicts are not trusted either way).
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Write(3),
        });
        h.push(Event::Crash);
        h.push(Event::RecoveryReturn {
            pid: p,
            verdict: ACK,
        });

        let r = h.to_records_relaxed();
        assert_eq!(r[0].outcome, Outcome::Completed(ACK));
        assert_eq!(r[1].outcome, Outcome::Unresolved);
        assert_eq!(r[2].outcome, Outcome::Unresolved);
        // Intervals are preserved for real-time ordering.
        assert_eq!(r[1].resolved_at, 4);
        assert_eq!(r[2].resolved_at, 7);
    }

    #[test]
    fn relaxed_records_keep_pending_pending() {
        let mut h = History::new();
        h.push(Event::Invoke {
            pid: Pid::new(0),
            op: OpSpec::Read,
        });
        let r = h.to_records_relaxed();
        assert_eq!(r[0].outcome, Outcome::Pending);
    }

    /// The record compiler as it was before ranks came out of the compile
    /// pass: open records in a `HashMap`, relaxed outcomes in a second
    /// pass, endpoint ranks by binary search in the sorted endpoint list.
    fn oracle_records(h: &History, relaxed: bool) -> Vec<RankedRecord> {
        let mut records: Vec<OpRecord> = Vec::new();
        let mut open = std::collections::HashMap::new();
        for (i, e) in h.events().iter().enumerate() {
            match *e {
                Event::Invoke { pid, op } => {
                    assert!(open.insert(pid, records.len()).is_none());
                    records.push(OpRecord {
                        pid,
                        op,
                        outcome: Outcome::Pending,
                        invoked_at: i,
                        resolved_at: usize::MAX,
                    });
                }
                Event::Return { pid, resp } => {
                    let idx = open.remove(&pid).expect("return without invocation");
                    records[idx].outcome = Outcome::Completed(resp);
                    records[idx].resolved_at = i;
                }
                Event::Crash => {}
                Event::RecoveryReturn { pid, verdict } => {
                    let idx = open.remove(&pid).expect("recovery without invocation");
                    records[idx].outcome = if verdict == RESP_FAIL {
                        Outcome::RecoveredFail
                    } else {
                        Outcome::Completed(verdict)
                    };
                    records[idx].resolved_at = i;
                }
            }
        }
        if relaxed {
            for r in &mut records {
                if r.resolved_at != usize::MAX
                    && matches!(h.events()[r.resolved_at], Event::RecoveryReturn { .. })
                {
                    r.outcome = Outcome::Unresolved;
                }
            }
        }
        let mut endpoints: Vec<usize> = records
            .iter()
            .flat_map(|r| [r.invoked_at, r.resolved_at])
            .filter(|&i| i != usize::MAX)
            .collect();
        endpoints.sort_unstable();
        let rank = |i: usize| {
            if i == usize::MAX {
                u64::MAX
            } else {
                endpoints.binary_search(&i).expect("endpoint present") as u64
            }
        };
        records
            .iter()
            .map(|&record| RankedRecord {
                record,
                ranks: [rank(record.invoked_at), rank(record.resolved_at)],
            })
            .collect()
    }

    /// A well-formed random history over 1–4 processes: invocations,
    /// returns, crashes (every running op then needs recovery), recovery
    /// verdicts (fail or a response), re-invocations after a verdict, and
    /// whatever is still in flight at the end left pending.
    fn random_history(rng: &mut StdRng) -> History {
        #[derive(Copy, Clone)]
        enum Stage {
            Idle,
            Running,
            Crashed,
        }
        let procs = rng.gen_range(1..5u32);
        let mut stage = vec![Stage::Idle; procs as usize];
        let ops = [
            OpSpec::Read,
            OpSpec::Write(1),
            OpSpec::Cas { old: 0, new: 1 },
        ];
        let words = [0, 1, ACK, RESP_FAIL];
        let mut h = History::new();
        for _ in 0..rng.gen_range(0..40usize) {
            if rng.gen_range(0..6u32) == 0 {
                h.push(Event::Crash);
                for s in &mut stage {
                    if matches!(s, Stage::Running) {
                        *s = Stage::Crashed;
                    }
                }
                continue;
            }
            let p = rng.gen_range(0..procs);
            let pid = Pid::new(p);
            let word = words[rng.gen_range(0..words.len())];
            let s = &mut stage[p as usize];
            match s {
                Stage::Idle => {
                    let op = ops[rng.gen_range(0..ops.len())];
                    h.push(Event::Invoke { pid, op });
                    *s = Stage::Running;
                }
                Stage::Running => {
                    h.push(Event::Return { pid, resp: word });
                    *s = Stage::Idle;
                }
                Stage::Crashed => {
                    h.push(Event::RecoveryReturn { pid, verdict: word });
                    *s = Stage::Idle;
                }
            }
        }
        h
    }

    #[test]
    fn record_compiler_matches_the_sort_and_search_oracle() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut out = Vec::new();
        let (mut crashes, mut pending, mut recovered) = (0, 0, 0);
        for _ in 0..5_000 {
            let h = random_history(&mut rng);
            for relaxed in [false, true] {
                h.records_into(relaxed, &mut out);
                assert_eq!(out, oracle_records(&h, relaxed), "relaxed {relaxed}:\n{h}");
            }
            let plain: Vec<OpRecord> = out.iter().map(|r| r.record).collect();
            assert_eq!(h.to_records_relaxed(), plain);
            crashes += h.crash_count();
            pending += plain
                .iter()
                .filter(|r| r.outcome == Outcome::Pending)
                .count();
            recovered += plain
                .iter()
                .filter(|r| r.outcome == Outcome::Unresolved)
                .count();
        }
        // The generator reaches every shape the compiler distinguishes.
        assert!(crashes > 0 && pending > 0 && recovered > 0);
    }

    #[test]
    fn ranks_skip_crashes() {
        let mut h = History::new();
        let p = Pid::new(0);
        h.push(Event::Crash);
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Read,
        });
        h.push(Event::Crash);
        h.push(Event::RecoveryReturn { pid: p, verdict: 0 });
        h.push(Event::Invoke {
            pid: p,
            op: OpSpec::Read,
        });
        let mut out = Vec::new();
        h.records_into(false, &mut out);
        assert_eq!(out[0].ranks, [0, 1]);
        assert_eq!(out[1].ranks, [2, u64::MAX]);
        assert_eq!(
            (out[0].record.invoked_at, out[0].record.resolved_at),
            (1, 3)
        );
    }

    #[test]
    fn display_is_readable() {
        let mut h = History::new();
        h.push(Event::Invoke {
            pid: Pid::new(0),
            op: OpSpec::Write(3),
        });
        h.push(Event::Crash);
        h.push(Event::RecoveryReturn {
            pid: Pid::new(0),
            verdict: RESP_FAIL,
        });
        let s = h.to_string();
        assert!(s.contains("p0 invokes Write(3)"));
        assert!(s.contains("CRASH"));
        assert!(s.contains("recovery: fail"));
    }
}
