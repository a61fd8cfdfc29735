//! The step-machine execution framework.
//!
//! Every algorithm in this reproduction is compiled by hand into a state
//! machine whose [`Machine::step`] executes **at most one primitive memory
//! operation** and then returns. This gives the harness three capabilities
//! the paper's model requires:
//!
//! 1. **Crash injection between any two lines** — the driver may simply drop
//!    a machine (its fields are the process's volatile local variables) and
//!    later construct the recovery machine.
//! 2. **Arbitrary interleavings** — a scheduler chooses which process steps
//!    next, at primitive-operation granularity, matching the atomicity unit
//!    of the model.
//! 3. **State-space exploration** — machines are clonable and encodable, so
//!    the exhaustive explorer and the Theorem 1 census can snapshot whole
//!    system configurations.

use std::fmt;

use crate::memory::Memory;
use crate::word::{Pid, Word};

/// The result of one machine step.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Poll {
    /// The operation has more steps to run.
    Pending,
    /// The operation completed with this response word.
    ///
    /// For recovery machines the response may be [`crate::RESP_FAIL`],
    /// meaning the recovery function inferred that the crashed operation was
    /// *not* linearized.
    Ready(Word),
}

impl Poll {
    /// Whether this is `Ready`.
    pub fn is_ready(&self) -> bool {
        matches!(self, Poll::Ready(_))
    }
}

/// A recoverable operation (or recovery function) in flight.
///
/// A machine's fields model the process's *volatile local variables*: a
/// system-wide crash destroys them (the driver drops the machine). Anything
/// an algorithm needs across a crash must be written to NVM through the
/// [`Memory`] passed to [`step`](Machine::step).
///
/// Machines are `Send` so the multi-threaded benchmark harness can drive one
/// per thread over an [`crate::AtomicMemory`].
///
/// **Ownership.** A machine owns a `Copy` descriptor of its object's
/// locations (`Loc`, `Field`, [`crate::AnnBank`]), not an `Arc` to a shared
/// object, and a composed machine holds its nested machine by value. So no
/// step touches a reference count that other threads also write, and
/// cloning a machine is a plain copy of its fields. (The NRL adapter in the
/// `detectable` crate, which wraps objects of any type, is the exception.)
pub trait Machine: Send {
    /// Executes the next line of the algorithm: at most one primitive memory
    /// operation plus local computation.
    ///
    /// Calling `step` again after `Ready` is a bug; implementations may
    /// panic.
    fn step(&mut self, mem: &dyn Memory) -> Poll;

    /// The process executing this operation.
    fn pid(&self) -> Pid;

    /// A human-readable label of the *next* line to execute (paper line
    /// numbers where applicable), for traces and debugging.
    fn label(&self) -> &'static str;

    /// Clones the machine (volatile local state included) for state-space
    /// exploration.
    fn clone_box(&self) -> Box<dyn Machine>;

    /// Encodes the complete volatile state (control location + locals) as
    /// words, for configuration-census visited-set keys. Two machines with
    /// equal encodings must behave identically from here on.
    fn encode(&self) -> Vec<Word>;

    /// Appends exactly the words of [`encode`](Machine::encode) to `out`.
    ///
    /// The default goes through `encode`'s fresh vector. Machines on the
    /// search engines' hot paths override it to push their words straight
    /// into the caller's key buffer, and then implement `encode` as
    /// [`encode_to_vec`]`(self)`; a machine must never do the latter
    /// without the former, or the two defaults call each other forever.
    fn encode_into(&self, out: &mut Vec<Word>) {
        out.extend(self.encode());
    }
}

/// [`Machine::encode`] for a machine that overrides
/// [`Machine::encode_into`]: its words in a fresh vector.
pub fn encode_to_vec<M: Machine + ?Sized>(m: &M) -> Vec<Word> {
    let mut out = Vec::new();
    m.encode_into(&mut out);
    out
}

impl Clone for Box<dyn Machine> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl fmt::Debug for dyn Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Machine({} at {})", self.pid(), self.label())
    }
}

/// Error returned by [`run_to_completion`] when the step budget is exhausted
/// — used to detect accidental non-termination (the paper's algorithms are
/// wait-free, so honest runs always finish).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StepLimitError {
    /// The budget that was exhausted.
    pub limit: usize,
}

impl fmt::Display for StepLimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine did not complete within {} steps", self.limit)
    }
}

impl std::error::Error for StepLimitError {}

/// Runs a machine solo until it completes, with a step budget.
///
/// # Errors
///
/// Returns [`StepLimitError`] if the machine is still pending after `limit`
/// steps.
///
/// # Example
///
/// ```
/// # use nvm::{run_to_completion, LayoutBuilder, Machine, Memory, Pid, Poll, SimMemory, Word};
/// # #[derive(Clone)]
/// # struct Nop(Pid);
/// # impl Machine for Nop {
/// #     fn step(&mut self, _m: &dyn Memory) -> Poll { Poll::Ready(7) }
/// #     fn pid(&self) -> Pid { self.0 }
/// #     fn label(&self) -> &'static str { "done" }
/// #     fn clone_box(&self) -> Box<dyn Machine> { Box::new(self.clone()) }
/// #     fn encode(&self) -> Vec<Word> { vec![] }
/// # }
/// let mut b = LayoutBuilder::new();
/// b.shared("pad", 1, 1);
/// let mem = SimMemory::new(b.finish());
/// let mut m = Nop(Pid::new(0));
/// assert_eq!(run_to_completion(&mut m, &mem, 10).unwrap(), 7);
/// ```
pub fn run_to_completion(
    m: &mut dyn Machine,
    mem: &dyn Memory,
    limit: usize,
) -> Result<Word, StepLimitError> {
    for _ in 0..limit {
        if let Poll::Ready(w) = m.step(mem) {
            return Ok(w);
        }
    }
    Err(StepLimitError { limit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use crate::memory::SimMemory;

    /// A machine that increments a cell `k` times, one write per step.
    #[derive(Clone)]
    struct Incr {
        pid: Pid,
        loc: crate::Loc,
        left: u32,
    }

    impl Machine for Incr {
        fn step(&mut self, mem: &dyn Memory) -> Poll {
            if self.left == 0 {
                return Poll::Ready(0);
            }
            let v = mem.read(self.pid, self.loc);
            mem.write(self.pid, self.loc, v + 1);
            self.left -= 1;
            if self.left == 0 {
                Poll::Ready(1)
            } else {
                Poll::Pending
            }
        }
        fn pid(&self) -> Pid {
            self.pid
        }
        fn label(&self) -> &'static str {
            if self.left == 0 {
                "done"
            } else {
                "incr"
            }
        }
        fn clone_box(&self) -> Box<dyn Machine> {
            Box::new(self.clone())
        }
        fn encode(&self) -> Vec<Word> {
            vec![u64::from(self.left)]
        }
    }

    fn setup() -> (SimMemory, crate::Loc) {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 1, 64);
        (SimMemory::new(b.finish()), x)
    }

    #[test]
    fn run_to_completion_finishes() {
        let (mem, x) = setup();
        let mut m = Incr {
            pid: Pid::new(0),
            loc: x,
            left: 3,
        };
        assert_eq!(run_to_completion(&mut m, &mem, 100).unwrap(), 1);
        assert_eq!(mem.peek(x), 3);
    }

    #[test]
    fn run_to_completion_respects_limit() {
        let (mem, x) = setup();
        let mut m = Incr {
            pid: Pid::new(0),
            loc: x,
            left: 50,
        };
        let err = run_to_completion(&mut m, &mem, 10).unwrap_err();
        assert_eq!(err.limit, 10);
        assert_eq!(err.to_string(), "machine did not complete within 10 steps");
    }

    #[test]
    fn cloned_machine_is_independent() {
        let (mem, x) = setup();
        let mut m = Incr {
            pid: Pid::new(0),
            loc: x,
            left: 2,
        };
        let _ = m.step(&mem);
        let mut copy = m.clone_box();
        assert_eq!(copy.encode(), m.encode());
        let _ = m.step(&mem); // finish original
        assert_ne!(copy.encode(), m.encode());
        let _ = copy.step(&mem);
        assert_eq!(mem.peek(x), 3); // both completed their remaining steps
    }

    #[test]
    fn default_encode_into_appends_encode() {
        let m = Incr {
            pid: Pid::new(0),
            loc: setup().1,
            left: 4,
        };
        let mut out = vec![9];
        m.encode_into(&mut out);
        assert_eq!(out, [9, 4]);
        assert_eq!(encode_to_vec(&m), m.encode());
    }

    #[test]
    fn dropping_a_machine_models_a_crash() {
        let (mem, x) = setup();
        let mut m = Incr {
            pid: Pid::new(0),
            loc: x,
            left: 5,
        };
        let _ = m.step(&mem);
        let _ = m.step(&mem);
        let _ = m; // crash: local state gone, NVM retains partial effects
        assert_eq!(mem.peek(x), 2);
    }

    #[test]
    fn poll_is_ready() {
        assert!(Poll::Ready(3).is_ready());
        assert!(!Poll::Pending.is_ready());
    }
}
