//! Bounded-space **detectable** recoverable objects — a reproduction of
//! Ben-Baruch, Hendler & Rusanovsky, *Upper and Lower Bounds on the Space
//! Complexity of Detectable Objects* (PODC 2020).
//!
//! A *recoverable* object survives system-wide crash-failures using state
//! retained in non-volatile memory. A *detectable* one additionally lets the
//! recovery code of a crashed operation infer whether the operation was
//! linearized, and obtain its response if so. This crate implements the
//! paper's three algorithms plus detectable objects derived from them:
//!
//! * [`DetectableRegister`] — Algorithm 1, the first wait-free,
//!   bounded-space detectable read/write register;
//! * [`DetectableCas`] — Algorithm 2, the first wait-free, bounded-space
//!   detectable CAS object, using Θ(N) shared bits beyond the value
//!   (asymptotically optimal by the paper's Theorem 1);
//! * [`MaxRegister`] — Algorithm 3, a detectable max register needing **no
//!   auxiliary state**, separating doubly-perturbing objects (Theorem 2)
//!   from merely perturbable ones;
//! * [`DetectableCounter`], [`DetectableFaa`], [`DetectableSwap`],
//!   [`DetectableTas`] — members of the paper's "large class" of
//!   doubly-perturbing objects, built compositionally on the detectable CAS
//!   (the composability detectability exists to enable). One [`capsule`]
//!   engine runs all four: every update operation is a loop of capsules (a
//!   read of `C`, a persisted checkpoint, one detectable CAS) with one
//!   recovery that asks the inner `Cas.Recover`, and a small rule per
//!   operation supplies the CAS arguments, the fast paths, what a lost CAS
//!   means and the response;
//! * [`DetectableQueue`] — a durable FIFO queue in the style of Friedman et
//!   al. \[9\], whose detectability relies on unbounded per-operation
//!   identifiers — the paper's standing example of auxiliary state passed
//!   via arguments;
//! * [`NrlAdapter`] — the Section 6 transformation from durable
//!   linearizability + detectability to nesting-safe recoverable
//!   linearizability (re-invoke on `fail`).
//!
//! All objects implement [`RecoverableObject`] and execute as line-level
//! step machines over the [`nvm`] substrate, so the accompanying `harness`
//! crate can inject crashes between any two instructions, model-check small
//! configurations exhaustively, and reproduce both of the paper's theorems
//! as executable experiments.
//!
//! # Quick start
//!
//! ```
//! use detectable::{DetectableCas, OpSpec, RecoverableObject};
//! use nvm::{run_to_completion, LayoutBuilder, Pid, SimMemory, RESP_FAIL, TRUE};
//!
//! // Build a world: layout first, then memory.
//! let mut b = LayoutBuilder::new();
//! let cas = DetectableCas::new(&mut b, 2, 0);
//! let mem = SimMemory::new(b.finish());
//! let p = Pid::new(0);
//!
//! // The caller protocol (announce + reset auxiliary state), then invoke.
//! let op = OpSpec::Cas { old: 0, new: 42 };
//! cas.prepare(&mem, p, &op);
//! let mut m = cas.invoke(p, &op);
//!
//! // Crash after two steps: the machine (volatile state) is dropped.
//! let _ = m.step(&mem);
//! let _ = m.step(&mem);
//! drop(m);
//!
//! // Recovery tells us whether the CAS took effect.
//! let mut rec = cas.recover(p, &op);
//! let verdict = run_to_completion(&mut *rec, &mem, 100).unwrap();
//! assert!(verdict == RESP_FAIL || verdict == TRUE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capsule;
pub mod cas;
pub mod max_register;
pub mod nrl;
pub mod object;
pub mod queue;
pub mod register;

pub use capsule::{DetectableCounter, DetectableFaa, DetectableSwap, DetectableTas};
pub use cas::{DetectableCas, MAX_CAS_PROCESSES};
pub use max_register::MaxRegister;
pub use nrl::NrlAdapter;
pub use object::{MemExt, ObjectKind, OpSpec, RecoverableObject, EMPTY};
pub use queue::DetectableQueue;
pub use register::{DetectableRegister, MAX_REGISTER_PROCESSES};

// Per-object entry points into the capsule engine's table-driven suite
// (`capsule::suite`), one module per object so each test keeps its
// object's name.
#[cfg(test)]
mod counter {
    mod tests {
        use crate::capsule::suite::{self, *};

        entry_points! {
            increments_accumulate: suite::script(
                COUNTER,
                &[
                    (0, Inc, ACK), (0, Inc, ACK), (0, Inc, ACK), (0, Inc, ACK), (0, Inc, ACK),
                    (1, Read, 5),
                ],
                5,
            );
            faa_returns_previous_value:
                suite::script(FAA, &[(0, Faa(10), 0), (1, Faa(5), 10), (0, Read, 15)], 15);
            interleaved_increments_both_count:
                suite::contended(COUNTER, Inc, 6, (Inc, ACK), ACK, 2);
            crash_at_every_step_exactly_once: suite::crash_at_every_step_exactly_once(INC);
            faa_crash_recovery_exactly_once: suite::crash_at_every_step_exactly_once(FAA_3);
            recovery_after_completion_returns_response:
                suite::recovery_after_completion_is_idempotent(INC);
            read_recovery_paths: suite::read_recovers(INC);
            permute_memory_maps_executions_across_pids:
                suite::permute_memory_maps_executions_across_pids(INC);
            machines_carry_locations_by_value:
                { const { suite::machines_carry_locations_by_value() } };
            #[should_panic(expected = "does not support")]
            counter_rejects_foreign_ops: suite::rejects(COUNTER, Write(1));
            #[should_panic(expected = "does not support")]
            faa_rejects_inc: suite::rejects(FAA, Inc);
        }
    }
}

#[cfg(test)]
mod swap {
    mod tests {
        use crate::capsule::suite::{self, *};

        entry_points! {
            swap_returns_previous_value:
                suite::script(SWAP, &[(0, Swap(5), 0), (1, Swap(9), 5), (0, Read, 9)], 9);
            swap_to_same_value_is_effect_free:
                suite::script(SWAP, &[(0, Swap(4), 0), (1, Swap(4), 4)], 4);
            contended_swaps_chain: suite::contended(SWAP, Swap(10), 5, (Swap(20), 0), 20, 10);
            crash_at_every_step_exactly_once: suite::crash_at_every_step_exactly_once(SWAP_8);
            recovery_after_completion_is_idempotent:
                suite::recovery_after_completion_is_idempotent(SWAP_8);
            machines_carry_locations_by_value:
                { const { suite::machines_carry_locations_by_value() } };
            #[should_panic(expected = "does not support")]
            rejects_foreign_ops: suite::rejects(SWAP, Inc);
        }
    }
}

#[cfg(test)]
mod tas {
    mod tests {
        use crate::capsule::suite::{self, *};

        entry_points! {
            first_tas_wins_second_loses:
                suite::script(TAS, &[(0, TestAndSet, 0), (1, TestAndSet, 1), (0, Read, 1)], 1);
            reset_clears: suite::script(
                TAS,
                &[(0, TestAndSet, 0), (1, Reset, ACK), (0, Read, 0), (1, TestAndSet, 0)],
                1,
            );
            reset_on_clear_object_is_noop: suite::script(TAS, &[(0, Reset, ACK)], 0);
            racing_tas_exactly_one_winner:
                suite::contended(TAS, TestAndSet, 4, (TestAndSet, 0), 1, 1);
            crash_at_every_step_tas: suite::crash_at_every_step_exactly_once(TEST_AND_SET);
            crash_during_reset_recovers: suite::crash_at_every_step_exactly_once(RESET);
            read_recovery: suite::read_recovers(TEST_AND_SET);
            machines_carry_locations_by_value:
                { const { suite::machines_carry_locations_by_value() } };
            #[should_panic(expected = "does not support")]
            rejects_foreign_ops: suite::rejects(TAS, Inc);
        }
    }
}
