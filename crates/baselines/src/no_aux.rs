//! The adversarial wrapper for the Theorem 2 experiment: a detectable object
//! **deprived of its auxiliary state**.
//!
//! Theorem 2 (Definition 1): auxiliary state is provided to an operation
//! either via NVM — "in-between every two successive invocations of Op, a
//! write is made to a non-volatile variable that can be accessed by Op" — or
//! via operation arguments. In this reproduction all externally provided
//! writes happen in [`RecoverableObject::prepare`] (the caller protocol:
//! `Ann_p.resp := ⊥`, `Ann_p.CP := 0`, tag counters). [`WithoutPrepare`]
//! forwards everything *except* `prepare`, which becomes a no-op: between
//! two invocations nothing is written on the operation's behalf, and the
//! arguments carry only the abstract operation — precisely the
//! implementation class Theorem 2 proves cannot be detectable.
//!
//! The object still *claims* detectability through its recovery verdicts;
//! the claims are now wrong in Figure 2-shaped executions — a crashed
//! re-invocation of an operation is indistinguishable from its completed
//! first instance, so recovery returns the stale persisted response. The
//! harness's `probe_aux_state` finds the resulting durable-linearizability
//! violation automatically.

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use nvm::{Machine, Memory, Pid};

/// Wraps a detectable object, withholding the externally provided auxiliary
/// state (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use baselines::WithoutPrepare;
/// use detectable::{DetectableRegister, RecoverableObject, OpSpec};
/// use nvm::{LayoutBuilder, SimMemory, Pid};
///
/// let mut b = LayoutBuilder::new();
/// let honest = DetectableRegister::new(&mut b, 2, 0);
/// let deprived = WithoutPrepare::new(honest);
/// let mem = SimMemory::new(b.finish());
///
/// // prepare is now a no-op: no NVM write occurs between invocations.
/// let before = mem.stats();
/// deprived.prepare(&mem, Pid::new(0), &OpSpec::Write(1));
/// assert_eq!(mem.stats(), before);
/// ```
#[derive(Clone, Debug)]
pub struct WithoutPrepare<O> {
    inner: O,
}

impl<O: RecoverableObject> WithoutPrepare<O> {
    /// Deprives `inner` of its auxiliary state.
    pub fn new(inner: O) -> Self {
        WithoutPrepare { inner }
    }

    /// The wrapped object.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: RecoverableObject> RecoverableObject for WithoutPrepare<O> {
    /// **Withheld.** Nothing is written to NVM between invocations and no
    /// auxiliary arguments are generated.
    fn prepare(&self, _mem: &dyn Memory, _pid: Pid, _op: &OpSpec) {}

    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        self.inner.invoke(pid, op)
    }

    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine> {
        self.inner.recover(pid, op)
    }

    fn processes(&self) -> u32 {
        self.inner.processes()
    }

    fn kind(&self) -> ObjectKind {
        self.inner.kind()
    }

    /// Still `true`: the wrapped object keeps making detectability claims —
    /// which is the point; Theorem 2 says they can no longer all be honest.
    fn detectable(&self) -> bool {
        self.inner.detectable()
    }

    fn name(&self) -> &'static str {
        "without-prepare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detectable::DetectableRegister;
    use nvm::{run_to_completion, LayoutBuilder, SimMemory, ACK, RESP_NONE};

    #[test]
    fn operations_still_work_without_crashes() {
        let mut b = LayoutBuilder::new();
        let obj = WithoutPrepare::new(DetectableRegister::new(&mut b, 2, 0));
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);
        // First invocation: fresh memory happens to be acceptable (resp=0 is
        // not ⊥ though — so even completion-free flows differ; the wrapper
        // is only meaningful under the harness, which tolerates this).
        obj.prepare(&mem, p, &OpSpec::Write(5));
        let mut m = obj.invoke(p, &OpSpec::Write(5));
        assert_eq!(run_to_completion(&mut *m, &mem, 100).unwrap(), ACK);
        assert_eq!(obj.inner().peek_value(&mem), 5);
    }

    #[test]
    fn stale_announcement_survives_between_invocations() {
        // The mechanism of the Theorem 2 violation: after a completed write,
        // Ann_p.resp keeps its value into the next invocation.
        let mut b = LayoutBuilder::new();
        let honest = DetectableRegister::new(&mut b, 2, 0);
        let deprived = WithoutPrepare::new(honest);
        let mem = SimMemory::new(b.finish());
        let p = Pid::new(0);

        // Run one write with the honest caller protocol.
        honest.prepare(&mem, p, &OpSpec::Write(1));
        let mut m = honest.invoke(p, &OpSpec::Write(1));
        assert_eq!(run_to_completion(&mut *m, &mem, 100).unwrap(), ACK);

        // Second invocation via the deprived wrapper: crash immediately.
        deprived.prepare(&mem, p, &OpSpec::Write(1));
        drop(deprived.invoke(p, &OpSpec::Write(1)));

        // Recovery consults the stale response and wrongly reports the
        // (never-executed) second write as linearized.
        let mut rec = deprived.recover(p, &OpSpec::Write(1));
        let verdict = run_to_completion(&mut *rec, &mem, 100).unwrap();
        assert_eq!(verdict, ACK, "stale resp misleads recovery");
        assert_ne!(verdict, RESP_NONE);
    }
}
