//! The NRL transformation (paper Section 6).
//!
//! *Nesting-safe recoverable linearizability* (NRL, Attiya et al.) requires
//! `Op.Recover` to **complete** the crashed operation and persist its
//! response before returning — it never returns `fail`. The paper observes
//! that any implementation satisfying durable linearizability plus
//! detectability can be transformed to satisfy NRL "by having the recovery
//! function invoke `Op` again instead of returning a `fail` response". The
//! [`NrlAdapter`] is that transformation, applicable to any
//! [`RecoverableObject`].

use std::sync::Arc;

use nvm::{Machine, Memory, Pid, Poll, Word, RESP_FAIL};

use crate::object::{ObjectKind, OpSpec, RecoverableObject};

/// Wraps a detectable object so that recovery always completes the crashed
/// operation (NRL semantics) instead of possibly returning `fail`.
///
/// Unlike the paper's objects, whose machines carry a `Copy` descriptor of
/// their locations, the adapter shares the wrapped object through an `Arc`:
/// `O` may be any object, `Copy` or not. Its recovery machines therefore pay
/// a reference count per recovery; no benchmark workload runs the adapter.
///
/// # Example
///
/// ```
/// use detectable::{DetectableCas, NrlAdapter, OpSpec, RecoverableObject};
/// use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, RESP_FAIL};
///
/// let mut b = LayoutBuilder::new();
/// let cas = DetectableCas::new(&mut b, 2, 0);
/// let obj = NrlAdapter::new(cas);
/// let mem = SimMemory::new(b.finish());
/// let p = Pid::new(0);
///
/// let op = OpSpec::Cas { old: 0, new: 3 };
/// obj.prepare(&mem, p, &op);
/// let m = obj.invoke(p, &op);
/// drop(m); // crash before a single step
///
/// // Plain detectable recovery would say `fail`; NRL recovery re-invokes
/// // and completes the operation.
/// let mut rec = obj.recover(p, &op);
/// let resp = run_to_completion(&mut *rec, &mem, 1000).unwrap();
/// assert_ne!(resp, RESP_FAIL);
/// ```
#[derive(Clone, Debug)]
pub struct NrlAdapter<O> {
    inner: Arc<O>,
}

impl<O: RecoverableObject> NrlAdapter<O> {
    /// Wraps `inner` with NRL recovery semantics.
    pub fn new(inner: O) -> Self {
        NrlAdapter {
            inner: Arc::new(inner),
        }
    }

    /// The wrapped object.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: RecoverableObject + 'static> RecoverableObject for NrlAdapter<O> {
    fn prepare(&self, mem: &dyn Memory, pid: Pid, op: &OpSpec) {
        self.inner.prepare(mem, pid, op);
    }

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        self.inner.invoke(pid, op)
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        Box::new(NrlRecoverMachine {
            obj: Arc::clone(&self.inner),
            pid,
            op: *op,
            state: NrlState::Recovering(self.inner.recover(pid, op)),
        })
    }

    fn processes(&self) -> u32 {
        self.inner.processes()
    }

    fn kind(&self) -> ObjectKind {
        self.inner.kind()
    }

    fn detectable(&self) -> bool {
        self.inner.detectable()
    }

    fn name(&self) -> &'static str {
        "nrl-adapter"
    }
}

#[derive(Clone)]
enum NrlState {
    /// Running the inner recovery function.
    Recovering(Box<dyn Machine>),
    /// Inner recovery said `fail`: run the caller protocol, then re-invoke.
    Reinvoke,
    /// Running the re-invoked operation.
    Running(Box<dyn Machine>),
    Done,
}

struct NrlRecoverMachine<O> {
    obj: Arc<O>,
    pid: Pid,
    op: OpSpec,
    state: NrlState,
}

// Manual impl: `O` itself need not be `Clone`, only the `Arc` is cloned.
impl<O> Clone for NrlRecoverMachine<O> {
    fn clone(&self) -> Self {
        NrlRecoverMachine {
            obj: Arc::clone(&self.obj),
            pid: self.pid,
            op: self.op,
            state: self.state.clone(),
        }
    }
}

impl<O: RecoverableObject + 'static> Machine for NrlRecoverMachine<O> {
    fn step(&mut self, mem: &dyn Memory) -> Poll {
        match &mut self.state {
            NrlState::Recovering(m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    if w == RESP_FAIL {
                        self.state = NrlState::Reinvoke;
                    } else {
                        self.state = NrlState::Done;
                        return Poll::Ready(w);
                    }
                }
                Poll::Pending
            }
            NrlState::Reinvoke => {
                // The NRL recovery acts as the operation's caller: it resets
                // the auxiliary state before re-invoking. If a crash lands
                // inside this (bundled) step, re-entering recovery yields
                // `fail` again and we arrive back here — no progress is lost.
                self.obj.prepare(mem, self.pid, &self.op);
                self.state = NrlState::Running(self.obj.invoke(self.pid, &self.op));
                Poll::Pending
            }
            NrlState::Running(m) => {
                if let Poll::Ready(w) = m.step(mem) {
                    self.state = NrlState::Done;
                    return Poll::Ready(w);
                }
                Poll::Pending
            }
            NrlState::Done => panic!("stepped a completed NRL recovery machine"),
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn label(&self) -> &'static str {
        match self.state {
            NrlState::Recovering(_) => "nrl:recover",
            NrlState::Reinvoke => "nrl:reinvoke",
            NrlState::Running(_) => "nrl:run",
            NrlState::Done => "nrl:done",
        }
    }

    fn clone_box(&self) -> Box<dyn Machine> {
        Box::new(self.clone())
    }

    fn encode(&self) -> Vec<Word> {
        match &self.state {
            NrlState::Recovering(m) => {
                let mut v = vec![1];
                m.encode_into(&mut v);
                v
            }
            NrlState::Reinvoke => vec![2],
            NrlState::Running(m) => {
                let mut v = vec![3];
                m.encode_into(&mut v);
                v
            }
            NrlState::Done => vec![4],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::DetectableCas;
    use crate::register::DetectableRegister;
    use nvm::{run_to_completion, LayoutBuilder, SimMemory, ACK, TRUE};

    #[test]
    fn completes_unstarted_write() {
        let mut b = LayoutBuilder::new();
        let reg = DetectableRegister::new(&mut b, 2, 0);
        let obj = NrlAdapter::new(reg);
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);

        obj.prepare(&mem, p, &OpSpec::Write(5));
        let m = obj.invoke(p, &OpSpec::Write(5));
        drop(m); // crash immediately

        let mut rec = obj.recover(p, &OpSpec::Write(5));
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), ACK);
        assert_eq!(obj.inner().peek_value(&mem), 5);
    }

    #[test]
    fn passes_through_successful_verdicts() {
        let mut b = LayoutBuilder::new();
        let cas = DetectableCas::new(&mut b, 2, 0);
        let obj = NrlAdapter::new(cas);
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);
        let op = OpSpec::Cas { old: 0, new: 7 };

        obj.prepare(&mem, p, &op);
        let mut m = obj.invoke(p, &op);
        for _ in 0..4 {
            let _ = m.step(&mem); // through the CAS itself
        }
        drop(m);

        let mut rec = obj.recover(p, &op);
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), TRUE);
        assert_eq!(obj.inner().peek_value(&mem), 7);
    }

    #[test]
    fn reinvoked_cas_may_legitimately_fail() {
        // NRL completes the operation; completing a CAS whose expected value
        // is stale yields `false`, not `fail`.
        let mut b = LayoutBuilder::new();
        let cas = DetectableCas::new(&mut b, 2, 0);
        let obj = NrlAdapter::new(cas);
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);
        let q = Pid::new(1);

        let op = OpSpec::Cas { old: 0, new: 7 };
        obj.prepare(&mem, p, &op);
        let m = obj.invoke(p, &op);
        drop(m); // crash before any step

        // q changes the value so p's re-invocation must fail cleanly.
        let opq = OpSpec::Cas { old: 0, new: 9 };
        obj.prepare(&mem, q, &opq);
        let mut mq = obj.invoke(q, &opq);
        assert_eq!(run_to_completion(&mut *mq, &mem, 1000).unwrap(), TRUE);

        let mut rec = obj.recover(p, &op);
        assert_eq!(
            run_to_completion(&mut *rec, &mem, 1000).unwrap(),
            nvm::FALSE
        );
    }

    #[test]
    fn crash_inside_nrl_recovery_is_reenterable() {
        let mut b = LayoutBuilder::new();
        let reg = DetectableRegister::new(&mut b, 2, 0);
        let obj = NrlAdapter::new(reg);
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);

        obj.prepare(&mem, p, &OpSpec::Write(5));
        drop(obj.invoke(p, &OpSpec::Write(5))); // crash at once

        for crash_after in 0..10 {
            let mut rec = obj.recover(p, &OpSpec::Write(5));
            let mut finished = false;
            for _ in 0..crash_after {
                if rec.step(&mem).is_ready() {
                    finished = true;
                    break;
                }
            }
            drop(rec);
            if finished {
                break;
            }
        }
        let mut rec = obj.recover(p, &OpSpec::Write(5));
        assert_eq!(run_to_completion(&mut *rec, &mem, 1000).unwrap(), ACK);
        assert_eq!(obj.inner().peek_value(&mem), 5);
    }

    #[test]
    fn metadata_passthrough() {
        let mut b = LayoutBuilder::new();
        let cas = DetectableCas::new(&mut b, 3, 0);
        let obj = NrlAdapter::new(cas);
        assert_eq!(obj.processes(), 3);
        assert_eq!(obj.kind(), ObjectKind::Cas);
        assert!(obj.detectable());
    }
}
