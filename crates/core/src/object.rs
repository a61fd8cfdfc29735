//! The common interface of recoverable objects.
//!
//! Every object in this reproduction — the paper's Algorithms 1–3, the
//! derived detectable objects, and the baseline comparators — implements
//! [`RecoverableObject`]. The harness drives them uniformly: it plays the
//! role of the *system and caller* from the paper's Section 2, executing the
//! announcement protocol ([`RecoverableObject::prepare`]), invoking
//! operations, injecting crashes, and running recovery functions.

use std::fmt;

use nvm::{Machine, Memory, Pid, Word};

/// Response sentinel for `Deq` on an empty queue.
pub const EMPTY: Word = u64::MAX - 2;

/// An abstract operation on some object, with its *abstract* arguments only.
///
/// Definition 1 of the paper distinguishes auxiliary state passed "via
/// operation arguments" from the object's abstract arguments; `OpSpec`
/// carries exactly the abstract ones. Implementations that need per-operation
/// tags (e.g. the unbounded baselines) must obtain them through
/// [`RecoverableObject::prepare`] — which is precisely what makes them
/// consumers of auxiliary state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpSpec {
    /// Read the current value (register, CAS object, max register, counter).
    Read,
    /// Write a value to a read/write register.
    Write(u32),
    /// Compare-and-swap.
    Cas {
        /// Expected value.
        old: u32,
        /// Replacement value.
        new: u32,
    },
    /// Write to a max register (takes effect only if larger).
    WriteMax(u32),
    /// Increment a counter by one.
    Inc,
    /// Fetch-and-add, returning the previous value.
    Faa(u32),
    /// Swap (fetch-and-store): installs the value, returns the previous one.
    Swap(u32),
    /// Test-and-set; returns the previous bit.
    TestAndSet,
    /// Reset a test-and-set object.
    Reset,
    /// Enqueue a value.
    Enq(u32),
    /// Dequeue; returns [`EMPTY`] if the queue is empty.
    Deq,
}

impl fmt::Display for OpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpSpec::Read => write!(f, "Read()"),
            OpSpec::Write(v) => write!(f, "Write({v})"),
            OpSpec::Cas { old, new } => write!(f, "Cas({old},{new})"),
            OpSpec::WriteMax(v) => write!(f, "WriteMax({v})"),
            OpSpec::Inc => write!(f, "Inc()"),
            OpSpec::Faa(d) => write!(f, "Faa({d})"),
            OpSpec::Swap(v) => write!(f, "Swap({v})"),
            OpSpec::TestAndSet => write!(f, "TestAndSet()"),
            OpSpec::Reset => write!(f, "Reset()"),
            OpSpec::Enq(v) => write!(f, "Enq({v})"),
            OpSpec::Deq => write!(f, "Deq()"),
        }
    }
}

/// The sequential type an object implements, so the harness can pick the
/// matching specification.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ObjectKind {
    /// Read/write register.
    Register,
    /// Compare-and-swap object (also supports `Read`).
    Cas,
    /// Max register.
    MaxRegister,
    /// Counter supporting `Inc`/`Read`.
    Counter,
    /// Fetch-and-add object.
    Faa,
    /// Swap (fetch-and-store) object.
    Swap,
    /// Resettable test-and-set.
    Tas,
    /// FIFO queue.
    Queue,
}

/// A recoverable concurrent object driven through step machines.
///
/// The life cycle of one operation by process `p` (paper Section 2):
///
/// 1. the caller runs [`prepare`](Self::prepare) — announcing the operation
///    and resetting `Ann_p.resp := ⊥`, `Ann_p.CP := 0`;
/// 2. the caller obtains the operation machine from
///    [`invoke`](Self::invoke) and steps it until `Ready`;
/// 3. if a crash destroys the machine, the caller obtains a **recovery**
///    machine from [`recover`](Self::recover) (with the same `OpSpec`) and
///    steps it to completion; recovery may itself crash and be re-entered;
/// 4. a recovery result of [`nvm::RESP_FAIL`] means the operation was not
///    linearized; anything else is the operation's response.
///
/// The paper's objects and the tagged baselines are `Copy` handles over a
/// `Copy` descriptor of their NVM locations. [`invoke`](Self::invoke),
/// [`recover`](Self::recover) and [`decode_op`](Self::decode_op) copy that
/// descriptor into the machine, so neither they nor any step touch a shared
/// reference count (see [`nvm::Machine`], "Ownership").
pub trait RecoverableObject: Send + Sync {
    /// The caller/system protocol executed immediately before an invocation.
    /// This is the only place auxiliary state (Theorem 2) may be written.
    fn prepare(&self, mem: &dyn Memory, pid: Pid, op: &OpSpec);

    /// Creates the machine executing `op` for `pid`.
    fn invoke(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine>;

    /// Creates the machine executing `Op.Recover` for `pid`, called with the
    /// same arguments as the crashed invocation.
    fn recover(&self, pid: Pid, op: &OpSpec) -> Box<dyn Machine>;

    /// Number of processes the object was built for.
    fn processes(&self) -> u32;

    /// The sequential type implemented.
    fn kind(&self) -> ObjectKind;

    /// Whether the object claims detectability: a recovery verdict of
    /// `RESP_FAIL` asserts "not linearized", anything else asserts
    /// "linearized with this response". Non-detectable baselines return
    /// `false` and the checker relaxes accordingly.
    fn detectable(&self) -> bool {
        true
    }

    /// Rewrites the object's pid-dependent NVM encoding under the process-id
    /// permutation `perm` (`perm[p]` is process `p`'s new identity),
    /// operating on a full logical word vector whose **private regions have
    /// already been relocated** by the layout-generic half
    /// (`SimMemory::logical_words_permuted` in the `nvm` crate).
    /// Implementations handle exactly what that relocation cannot see:
    /// pid-indexed *shared* cells (move the cell for `p` onto the cell for
    /// `perm[p]`) and process ids packed *inside* words — wherever those
    /// words now live.
    ///
    /// Implementing this hook is a **semantic assertion**, not just a data
    /// transform: renaming processes (with memory relocated and rewritten
    /// as above) must be an *automorphism of the object's step relation* —
    /// from renamed states, renamed executions take identical step counts
    /// and branch identically. That holds for the CAS family (every
    /// primitive touches either the single word `C`, compared as a whole,
    /// or the acting process's own cells) but **fails** for algorithms
    /// that scan per-process arrays in fixed index order: the max
    /// register's double collect and the register's toggle-matrix loop
    /// observe relocated slots at different scan points, changing subtree
    /// shapes — so those objects stay opaque. The hook must also be a
    /// group action (applying `perm` then its inverse restores `words`).
    ///
    /// Returning `false` (the default) declares the object opaque to
    /// permutation; the explorer then falls back to the plain un-reduced
    /// search. Objects whose layout breaks the uniform private-array
    /// pattern (e.g. the queue's per-process arena slabs, whose shared
    /// node indices encode the allocating process) must stay opaque too.
    fn permute_memory(&self, words: &mut [Word], perm: &[u32]) -> bool {
        let _ = (words, perm);
        false
    }

    /// Whether [`decode_op`](Self::decode_op) can reconstruct every machine
    /// this object hands out for census-alphabet operations. The census's
    /// disk tier stores frontier nodes as their driver keys, whose machine
    /// words are [`encode`](nvm::Machine::encode) output, and needs this
    /// inverse to resume them; the harness routes objects that return
    /// `false` (the default) to the in-RAM engine instead — the same
    /// graceful-fallback convention as [`permute_memory`](Self::permute_memory).
    fn decodable(&self) -> bool {
        false
    }

    /// Reconstructs an in-flight operation machine from its
    /// [`encode`](nvm::Machine::encode) words: the inverse of stepping
    /// [`invoke`](Self::invoke)`(pid, op)` some number of times and encoding.
    /// The contract is exact round-tripping — the returned machine must
    /// encode identically and behave identically from here on (the machine
    /// encode contract already guarantees the latter given the former).
    /// Returns `None` for unrecognized words or unsupported operations; the
    /// default implementation recognizes nothing, matching
    /// [`decodable`](Self::decodable)` == false`.
    fn decode_op(&self, pid: Pid, op: &OpSpec, words: &[Word]) -> Option<Box<dyn Machine>> {
        let _ = (pid, op, words);
        None
    }

    /// A short name for tables and traces.
    fn name(&self) -> &'static str;
}

/// Memory helpers bundling each primitive with the explicit persist
/// instruction of the Izraelevitz et al. transformation (paper Section 6).
///
/// In the private-cache model `persist` is a no-op, so code written with
/// these helpers is correct in both models. Bundling read-plus-persist as one
/// step models flush-on-read: a value observed by any process is persisted
/// before the observer can act on it, which is what the syntactic
/// transformation needs to preserve durable linearizability.
pub trait MemExt {
    /// Read and persist the line.
    fn read_pp(&self, pid: Pid, loc: nvm::Loc) -> Word;
    /// Write and persist the line.
    fn write_pp(&self, pid: Pid, loc: nvm::Loc, w: Word);
    /// CAS and persist the line.
    fn cas_pp(&self, pid: Pid, loc: nvm::Loc, old: Word, new: Word) -> bool;
}

impl MemExt for dyn Memory + '_ {
    fn read_pp(&self, pid: Pid, loc: nvm::Loc) -> Word {
        let w = self.read(pid, loc);
        self.persist(pid, loc);
        w
    }

    fn write_pp(&self, pid: Pid, loc: nvm::Loc, w: Word) {
        self.write(pid, loc, w);
        self.persist(pid, loc);
    }

    fn cas_pp(&self, pid: Pid, loc: nvm::Loc, old: Word, new: Word) -> bool {
        let ok = self.cas(pid, loc, old, new);
        self.persist(pid, loc);
        ok
    }
}

/// Compiles only for `Copy` types: the ownership guard tests call it in a
/// `const` block on every handle and descriptor.
#[cfg(test)]
pub(crate) const fn assert_copy<T: Copy>() {}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{CacheMode, CrashPolicy, LayoutBuilder, SimMemory};

    #[test]
    fn opspec_display() {
        assert_eq!(OpSpec::Write(3).to_string(), "Write(3)");
        assert_eq!(OpSpec::Cas { old: 1, new: 2 }.to_string(), "Cas(1,2)");
        assert_eq!(OpSpec::Deq.to_string(), "Deq()");
    }

    #[test]
    fn memext_persists_through_crash() {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 1, 64);
        let mem = SimMemory::with_mode(b.finish(), CacheMode::SharedCache);
        let m: &dyn Memory = &mem;
        let p = Pid::new(0);
        m.write_pp(p, x, 5);
        mem.crash(CrashPolicy::DropAll);
        assert_eq!(m.read_pp(p, x), 5);
        assert!(m.cas_pp(p, x, 5, 6));
        mem.crash(CrashPolicy::DropAll);
        assert_eq!(mem.peek(x), 6);
    }

    #[test]
    fn memext_read_flushes_foreign_dirty_line() {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 1, 64);
        let mem = SimMemory::with_mode(b.finish(), CacheMode::SharedCache);
        let m: &dyn Memory = &mem;
        // p0 writes without persisting (raw primitive).
        m.write(Pid::new(0), x, 9);
        // p1 reads with flush-on-read: the observed value is now durable.
        assert_eq!(m.read_pp(Pid::new(1), x), 9);
        mem.crash(CrashPolicy::DropAll);
        assert_eq!(mem.peek(x), 9);
    }

    #[test]
    fn empty_sentinel_is_distinct() {
        assert_ne!(EMPTY, nvm::RESP_NONE);
        assert_ne!(EMPTY, nvm::RESP_FAIL);
        assert!(EMPTY > u64::from(u32::MAX));
    }
}
