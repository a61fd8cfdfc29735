//! Simulated non-volatile main memory (NVM) substrate for recoverable and
//! detectable concurrent objects.
//!
//! This crate implements the system model of Ben-Baruch, Hendler and
//! Rusanovsky, *Upper and Lower Bounds on the Space Complexity of Detectable
//! Objects* (PODC 2020), Section 2:
//!
//! * a flat word-addressed memory split into **shared** and **per-process
//!   private** non-volatile regions ([`layout`]),
//! * atomic `read` / `write` / `CAS` primitive operations ([`Memory`]),
//! * both persistence models discussed by the paper: the **private-cache
//!   model**, where primitives are applied directly to NVM, and the
//!   **shared-cache model**, where writes land in a volatile cache and must be
//!   persisted explicitly ([`CacheMode`], [`Memory::persist`]),
//! * **system-wide crash-failures** that reset all volatile state while
//!   preserving NVM ([`SimMemory::crash`]),
//! * the per-process announcement structure `Ann_p = {op, resp, CP}` used to
//!   pass auxiliary state to recoverable operations ([`ann`]), and
//! * a **step-machine** execution framework ([`machine`]) in which every
//!   algorithm is compiled to a line-level state machine executing one
//!   primitive operation per step, so a crash can be injected between any two
//!   lines of pseudo-code.
//!
//! Two interchangeable memory back-ends are provided:
//!
//! * [`SimMemory`] — deterministic, single-threaded, forkable, with LIFO
//!   checkpoint/rollback; used by the randomized simulator, the exhaustive explorer and the
//!   reachable-configuration census.
//! * [`AtomicMemory`] — `AtomicU64`-backed, sequentially consistent; used by
//!   the multi-threaded throughput benchmarks.
//!
//! A third backing, [`MappedMemory`] (and the [`MappedFile`]s it maps), puts
//! the NVM half of the model in a `MAP_SHARED` file — and, in the
//! shared-cache model, the volatile cache in a second one every process
//! maps — so a *real* `SIGKILL` decides what survives a crash. See
//! [`mapped`].
//!
//! # Example
//!
//! ```
//! use nvm::{LayoutBuilder, Memory, Pid, SimMemory};
//!
//! let mut b = LayoutBuilder::new();
//! let r = b.shared("R", 1, 64);
//! let layout = b.finish();
//! let mem = SimMemory::new(layout);
//!
//! let p = Pid::new(0);
//! mem.write(p, r, 42);
//! assert_eq!(mem.read(p, r), 42);
//! assert!(mem.cas(p, r, 42, 43));
//! assert_eq!(mem.read(p, r), 43);
//! ```

// `deny` (not `forbid`) so the one FFI module of [`mapped`] — the `mmap`
// bindings behind `MappedFile` — can opt in with a scoped `allow`; every
// other module still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
pub mod hash;
pub mod layout;
pub mod machine;
pub mod mapped;
pub mod memory;
pub mod stats;
pub mod word;

pub use ann::AnnBank;
pub use layout::{Layout, LayoutBuilder, Loc, Region, Space};
pub use machine::{encode_to_vec, run_to_completion, Machine, Poll, StepLimitError};
pub use mapped::{MappedFile, MappedMemory};
pub use memory::{AtomicMemory, CacheMode, Checkpoint, CrashPolicy, Memory, SimMemory};
pub use stats::Stats;
pub use word::{Field, FieldBuilder, Pid, Word, ACK, FALSE, RESP_FAIL, RESP_NONE, TRUE};
