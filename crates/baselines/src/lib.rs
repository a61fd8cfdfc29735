//! Baseline and adversarial comparators for the detectable-objects
//! reproduction.
//!
//! The paper positions its bounded-space algorithms against prior detectable
//! implementations that use **unbounded** space, and proves (Theorem 2) that
//! detectability is impossible without externally provided auxiliary state.
//! This crate supplies the executable counterparts of all of those:
//!
//! * [`TaggedRegister`] — Attiya-et-al-style detectable register that avoids
//!   ABA by making all written values distinct via unbounded per-operation
//!   tags (the paper's Section 3 contrast);
//! * [`TaggedCas`] — Ben-David-et-al-style detectable CAS using unbounded
//!   tags plus an `N × N` overwrite-announcement matrix (the Section 4
//!   contrast);
//! * [`NonDetectableRegister`], [`NonDetectableCas`] — recoverable, durably
//!   linearizable, but **not** detectable: recovery cannot tell whether the
//!   crashed operation was linearized. Their shared space is just the value
//!   — the census ablation isolating detectability as the cause of the
//!   Θ(N)-bit cost;
//! * [`WithoutPrepare`] — wraps any detectable object and withholds the
//!   caller protocol (no announcement resets between invocations): the
//!   implementation Theorem 2 proves impossible. The harness's Figure 2
//!   probe finds its durable-linearizability violation;
//! * [`PlainRegister`], [`PlainCas`] — volatile, non-recoverable objects for
//!   throughput baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod no_aux;
pub mod nondetectable;
pub mod plain;
pub mod tagged_cas;
pub mod tagged_register;

pub use no_aux::WithoutPrepare;
pub use nondetectable::{NonDetectableCas, NonDetectableRegister};
pub use plain::{PlainCas, PlainRegister};
pub use tagged_cas::TaggedCas;
pub use tagged_register::TaggedRegister;

/// Compiles only for `Copy` types: the ownership guard tests call it in a
/// `const` block on every handle and descriptor.
#[cfg(test)]
pub(crate) const fn assert_copy<T: Copy>() {}
