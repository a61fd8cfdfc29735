//! The per-process announcement structure `Ann_p` (paper Section 2).
//!
//! Each process `p` owns a private non-volatile structure with three fields:
//!
//! * `Ann_p.op` — which recoverable operation `p` is performing, with its
//!   arguments. In this reproduction the *driver* (the harness acting as the
//!   system/caller) retains this information, exactly as the model allows:
//!   "it is accessed only by the caller of the recoverable operation".
//! * `Ann_p.resp` — the operation's persisted response, initialized to ⊥
//!   ([`RESP_NONE`]) by the caller immediately before invocation.
//! * `Ann_p.CP` — the checkpoint counter, set to 0 by the caller immediately
//!   before invocation; read and written by operations and recovery
//!   functions.
//!
//! The caller-side resets performed by [`AnnBank::prepare`] are precisely the
//! **auxiliary state** of Theorem 2: NVM writes made between successive
//! invocations by someone other than the operation itself. The adversarial
//! baseline used by the Theorem 2 experiment is the same algorithm run
//! *without* these resets.

use crate::layout::{LayoutBuilder, Loc};
use crate::memory::Memory;
use crate::word::{Pid, Word, RESP_NONE};

/// The `resp` and `CP` fields of `Ann_p` for all `N` processes of one object.
#[derive(Copy, Clone, Debug)]
pub struct AnnBank {
    resp: Loc,
    cp: Loc,
    n: u32,
}

impl AnnBank {
    /// Allocates `resp` and `CP` cells for `n` processes.
    ///
    /// `resp` cells are full words (they hold response values or ⊥); `CP`
    /// cells are counted at `cp_bits` logical bits (the paper's algorithms
    /// need only values {0, 1, 2}, i.e. 2 bits).
    pub fn alloc(b: &mut LayoutBuilder, name: &str, n: u32, cp_bits: u32) -> Self {
        let resp = b.private_array(&format!("{name}.Ann.resp"), n, 1, 64);
        let cp = b.private_array(&format!("{name}.Ann.CP"), n, 1, cp_bits);
        AnnBank { resp, cp, n }
    }

    /// Number of processes this bank serves.
    pub fn processes(&self) -> u32 {
        self.n
    }

    /// Location of `Ann_p.resp`.
    pub fn resp_loc(&self, pid: Pid) -> Loc {
        debug_assert!((pid.idx() as u32) < self.n);
        self.resp.at(pid.idx())
    }

    /// Location of `Ann_p.CP`.
    pub fn cp_loc(&self, pid: Pid) -> Loc {
        debug_assert!((pid.idx() as u32) < self.n);
        self.cp.at(pid.idx())
    }

    /// The caller protocol from Section 2, executed immediately before
    /// invoking a recoverable operation: `resp := ⊥; CP := 0`, persisted.
    ///
    /// This is the externally provided auxiliary state of Theorem 2.
    pub fn prepare(&self, mem: &dyn Memory, pid: Pid) {
        mem.write(pid, self.resp_loc(pid), RESP_NONE);
        mem.persist(pid, self.resp_loc(pid));
        mem.write(pid, self.cp_loc(pid), 0);
        mem.persist(pid, self.cp_loc(pid));
    }

    /// Reads `Ann_p.resp`.
    pub fn read_resp(&self, mem: &dyn Memory, pid: Pid) -> Word {
        mem.read(pid, self.resp_loc(pid))
    }

    /// Writes and persists `Ann_p.resp`.
    pub fn write_resp(&self, mem: &dyn Memory, pid: Pid, w: Word) {
        mem.write(pid, self.resp_loc(pid), w);
        mem.persist(pid, self.resp_loc(pid));
    }

    /// Reads `Ann_p.CP`.
    pub fn read_cp(&self, mem: &dyn Memory, pid: Pid) -> Word {
        mem.read(pid, self.cp_loc(pid))
    }

    /// Writes and persists `Ann_p.CP`.
    pub fn write_cp(&self, mem: &dyn Memory, pid: Pid, w: Word) {
        mem.write(pid, self.cp_loc(pid), w);
        mem.persist(pid, self.cp_loc(pid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{CacheMode, CrashPolicy, SimMemory};

    fn setup() -> (SimMemory, AnnBank) {
        let mut b = LayoutBuilder::new();
        let ann = AnnBank::alloc(&mut b, "O", 3, 2);
        (SimMemory::new(b.finish()), ann)
    }

    #[test]
    fn prepare_resets_fields() {
        let (mem, ann) = setup();
        let p = Pid::new(1);
        ann.write_resp(&mem, p, 7);
        ann.write_cp(&mem, p, 2);
        ann.prepare(&mem, p);
        assert_eq!(ann.read_resp(&mem, p), RESP_NONE);
        assert_eq!(ann.read_cp(&mem, p), 0);
    }

    #[test]
    fn cells_are_per_process() {
        let (mem, ann) = setup();
        ann.write_cp(&mem, Pid::new(0), 1);
        ann.write_cp(&mem, Pid::new(2), 2);
        assert_eq!(ann.read_cp(&mem, Pid::new(0)), 1);
        assert_eq!(ann.read_cp(&mem, Pid::new(2)), 2);
    }

    #[test]
    fn ann_cells_are_private() {
        let (mem, ann) = setup();
        assert_eq!(
            mem.layout().owner_of(ann.resp_loc(Pid::new(2))),
            Some(Pid::new(2))
        );
        assert_eq!(
            mem.layout().owner_of(ann.cp_loc(Pid::new(0))),
            Some(Pid::new(0))
        );
    }

    #[test]
    fn writes_are_persisted_in_shared_cache_mode() {
        let mut b = LayoutBuilder::new();
        let ann = AnnBank::alloc(&mut b, "O", 1, 2);
        let mem = SimMemory::with_mode(b.finish(), CacheMode::SharedCache);
        let p = Pid::new(0);
        ann.prepare(&mem, p);
        ann.write_resp(&mem, p, 5);
        ann.write_cp(&mem, p, 1);
        mem.crash(CrashPolicy::DropAll);
        assert_eq!(ann.read_resp(&mem, p), 5);
        assert_eq!(ann.read_cp(&mem, p), 1);
    }

    #[test]
    fn initial_resp_is_zero_until_prepared() {
        // Fresh memory is all-zeros; the caller protocol must run before the
        // first invocation, establishing the ⊥ sentinel.
        let (mem, ann) = setup();
        let p = Pid::new(0);
        assert_eq!(ann.read_resp(&mem, p), 0);
        ann.prepare(&mem, p);
        assert_eq!(ann.read_resp(&mem, p), RESP_NONE);
    }
}
