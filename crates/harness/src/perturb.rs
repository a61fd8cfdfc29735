//! Machine-checking the *doubly-perturbing* classification (paper
//! Definition 3, Lemmas 3–8).
//!
//! An operation `Opp` witnesses that an object is doubly-perturbing if
//!
//! 1. `Opp` is perturbing w.r.t. some `Op′` after some sequential history
//!    `H1`: `Op′` returns different responses in `H1 ∘ Opp ∘ Op′` and
//!    `H1 ∘ Op′`; and
//! 2. `H1 ∘ Opp ∘ Op′` has a (p-free) extension to `H2` after which (a
//!    second instance of) `Opp` is again perturbing w.r.t. some `Opq`.
//!
//! This module searches bounded sequential histories over a per-kind
//! operation alphabet for such witnesses, confirming Lemmas 3 and 5–8
//! (register, counter, CAS, fetch-and-add, FIFO queue are doubly-perturbing)
//! and Lemma 4 (the max register is **not** — the exhaustive search over the
//! bounded space finds no witness). The specs are process-oblivious, so
//! "a different process" and "p-free" reduce to op-sequence conditions.

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use nvm::SimMemory;

use crate::driver::Driver;
use crate::spec::{spec_apply, spec_run};

/// A found witness (the paper's Definition 3 instantiated).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerturbWitness {
    /// The doubly-perturbing operation `Opp`.
    pub opp: OpSpec,
    /// The history `H1` after which condition 1 holds.
    pub h1: Vec<OpSpec>,
    /// The operation `Op′` perturbed after `H1`.
    pub op_prime: OpSpec,
    /// The p-free extension turning `H1 ∘ Opp ∘ Op′` into `H2`.
    pub extension: Vec<OpSpec>,
    /// The operation `Opq` perturbed after `H2`.
    pub opq: OpSpec,
}

/// Renders a witness compactly (`Opp | H1 | Op' | ext | Opq`) for table
/// cells and JSON output.
pub fn render_witness(w: &PerturbWitness) -> String {
    let ops = |seq: &[OpSpec]| -> String {
        if seq.is_empty() {
            "ε".into()
        } else {
            seq.iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(" ∘ ")
        }
    };
    format!(
        "Opp = {}; H1 = {}; Op' = {}; ext = {}; Opq = {}",
        w.opp,
        ops(&w.h1),
        w.op_prime,
        ops(&w.extension),
        w.opq
    )
}

/// Is `opp` perturbing w.r.t. `observer` after the (valid) history `prefix`?
fn perturbs_after(kind: ObjectKind, prefix: &[OpSpec], opp: &OpSpec, observer: &OpSpec) -> bool {
    let Some((state, _)) = spec_run(kind, prefix) else {
        return false;
    };
    let Some((with_opp, _)) = spec_apply(kind, &state, opp) else {
        return false;
    };
    let (Some((_, resp_with)), Some((_, resp_without))) = (
        spec_apply(kind, &with_opp, observer),
        spec_apply(kind, &state, observer),
    ) else {
        return false;
    };
    resp_with != resp_without
}

/// Enumerates op sequences of length `0..=max_len` over `alphabet`.
fn sequences(alphabet: &[OpSpec], max_len: usize) -> Vec<Vec<OpSpec>> {
    let mut out: Vec<Vec<OpSpec>> = vec![vec![]];
    let mut frontier: Vec<Vec<OpSpec>> = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &frontier {
            for op in alphabet {
                let mut s = seq.clone();
                s.push(*op);
                next.push(s.clone());
                out.push(s);
            }
        }
        frontier = next;
    }
    out
}

/// Searches bounded sequential histories for a doubly-perturbing witness:
/// returns the first witness found, or `None` if no witness exists within
/// the bounds (for max registers this is the Lemma 4 claim, verified
/// exhaustively over the bounded space). The engine beneath
/// [`Scenario::perturb`](crate::Scenario::perturb); public for
/// engine-level equivalence tests.
pub fn witness_search(
    kind: ObjectKind,
    alphabet: &[OpSpec],
    max_h1: usize,
    max_ext: usize,
) -> Option<PerturbWitness> {
    let h1s = sequences(alphabet, max_h1);
    let exts = sequences(alphabet, max_ext);
    for opp in alphabet {
        for h1 in &h1s {
            for op_prime in alphabet {
                // Condition 1: Opp perturbs Op′ after H1.
                if !perturbs_after(kind, h1, opp, op_prime) {
                    continue;
                }
                // Condition 2: some extension of H1 ∘ Opp ∘ Op′ makes a
                // second Opp perturbing again.
                let mut base = h1.clone();
                base.push(*opp);
                base.push(*op_prime);
                for ext in &exts {
                    let mut h2 = base.clone();
                    h2.extend(ext.iter().copied());
                    if spec_run(kind, &h2).is_none() {
                        continue;
                    }
                    for opq in alphabet {
                        if perturbs_after(kind, &h2, opp, opq) {
                            return Some(PerturbWitness {
                                opp: *opp,
                                h1: h1.clone(),
                                op_prime: *op_prime,
                                extension: ext.clone(),
                                opq: *opq,
                            });
                        }
                    }
                }
            }
        }
    }
    None
}

/// Confirms a spec-level [`PerturbWitness`] against a real implementation:
/// replays the witness's histories on `obj` through the shared
/// [`Driver`] (solo, crash-free) and checks that both perturbation
/// conditions hold for the *implementation's* responses, not just the
/// specification's.
///
/// Branching between "with `Opp`" and "without `Opp`" runs uses the
/// memory's undo-log [`checkpoint`](SimMemory::checkpoint) /
/// [`rollback`](SimMemory::rollback), so the whole validation runs on one
/// world. The memory is left exactly as it was on entry.
///
/// Process roles: process 0 plays the perturber `p` (it alone executes
/// `Opp`), process 1 plays the observer (`H1`, `Op′`, the p-free
/// extension, and `Opq`) — so `obj` needs at least two processes.
///
/// # Panics
///
/// Panics if `obj` has fewer than two processes, or if any solo operation
/// fails to terminate (the paper's algorithms are wait-free).
pub fn validate_witness_on_impl(
    w: &PerturbWitness,
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
) -> bool {
    assert!(
        obj.processes() >= 2,
        "perturbation needs a perturber and an observer"
    );
    const LIMIT: usize = 1_000_000;
    let outer = mem.checkpoint();
    let mut d = Driver::for_object(obj);
    // Replay H1 (observer process).
    for op in &w.h1 {
        d.run_solo(obj, mem, 1, *op, LIMIT);
    }
    // Condition 1: Opp changes Op′'s response after H1.
    let cp = mem.checkpoint();
    d.run_solo(obj, mem, 0, w.opp, LIMIT);
    let with_opp = d.run_solo(obj, mem, 1, w.op_prime, LIMIT);
    mem.rollback(cp);
    let cp = mem.checkpoint();
    let without_opp = d.run_solo(obj, mem, 1, w.op_prime, LIMIT);
    mem.rollback(cp);
    let condition1 = with_opp != without_opp;
    let condition2 = condition1 && {
        // Rebuild H2 = H1 ∘ Opp ∘ Op′ ∘ extension…
        d.run_solo(obj, mem, 0, w.opp, LIMIT);
        d.run_solo(obj, mem, 1, w.op_prime, LIMIT);
        for op in &w.extension {
            d.run_solo(obj, mem, 1, *op, LIMIT);
        }
        // …after which a second Opp must change Opq's response.
        let cp = mem.checkpoint();
        d.run_solo(obj, mem, 0, w.opp, LIMIT);
        let with_opp = d.run_solo(obj, mem, 1, w.opq, LIMIT);
        mem.rollback(cp);
        let cp = mem.checkpoint();
        let without_opp = d.run_solo(obj, mem, 1, w.opq, LIMIT);
        mem.rollback(cp);
        with_opp != without_opp
    };
    mem.rollback(outer);
    condition1 && condition2
}

/// The standard search alphabet for each object kind (small argument
/// domains, as in the paper's lemma proofs).
pub fn default_alphabet(kind: ObjectKind) -> Vec<OpSpec> {
    match kind {
        ObjectKind::Register => vec![OpSpec::Read, OpSpec::Write(0), OpSpec::Write(1)],
        ObjectKind::Cas => vec![
            OpSpec::Read,
            OpSpec::Cas { old: 0, new: 1 },
            OpSpec::Cas { old: 1, new: 0 },
        ],
        ObjectKind::MaxRegister => vec![
            OpSpec::Read,
            OpSpec::WriteMax(0),
            OpSpec::WriteMax(1),
            OpSpec::WriteMax(2),
        ],
        ObjectKind::Counter => vec![OpSpec::Read, OpSpec::Inc],
        ObjectKind::Faa => vec![OpSpec::Read, OpSpec::Faa(1)],
        ObjectKind::Swap => vec![OpSpec::Read, OpSpec::Swap(0), OpSpec::Swap(1)],
        ObjectKind::Tas => vec![OpSpec::Read, OpSpec::TestAndSet, OpSpec::Reset],
        ObjectKind::Queue => vec![OpSpec::Enq(0), OpSpec::Enq(1), OpSpec::Deq],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn witness(kind: ObjectKind) -> Option<PerturbWitness> {
        witness_search(kind, &default_alphabet(kind), 3, 3)
    }

    #[test]
    fn register_is_doubly_perturbing_lemma_3() {
        let w = witness(ObjectKind::Register).expect("Lemma 3");
        // The paper's witness is a Write; reads cannot perturb anything.
        assert!(matches!(w.opp, OpSpec::Write(_)));
    }

    #[test]
    fn counter_is_doubly_perturbing_lemma_5() {
        let w = witness(ObjectKind::Counter).expect("Lemma 5");
        assert_eq!(w.opp, OpSpec::Inc);
    }

    #[test]
    fn cas_is_doubly_perturbing_lemma_6() {
        let w = witness(ObjectKind::Cas).expect("Lemma 6");
        assert!(matches!(w.opp, OpSpec::Cas { .. }));
    }

    #[test]
    fn faa_is_doubly_perturbing_lemma_7() {
        let w = witness(ObjectKind::Faa).expect("Lemma 7");
        assert_eq!(w.opp, OpSpec::Faa(1));
    }

    #[test]
    fn queue_is_doubly_perturbing_lemma_8() {
        let w = witness(ObjectKind::Queue).expect("Lemma 8");
        assert!(matches!(w.opp, OpSpec::Deq | OpSpec::Enq(_)));
    }

    #[test]
    fn swap_is_doubly_perturbing() {
        // Swap is in the paper's §5 list of common objects in the class.
        let w = witness(ObjectKind::Swap).expect("swap");
        assert!(matches!(w.opp, OpSpec::Swap(_)));
    }

    #[test]
    fn tas_is_doubly_perturbing() {
        // Resettable test-and-set is in the paper's "large class" (§5).
        let w = witness(ObjectKind::Tas).expect("resettable TAS");
        assert!(matches!(w.opp, OpSpec::TestAndSet | OpSpec::Reset));
    }

    #[test]
    fn max_register_is_not_doubly_perturbing_lemma_4() {
        assert_eq!(witness(ObjectKind::MaxRegister), None, "Lemma 4");
    }

    #[test]
    fn paper_witness_for_register_validates() {
        // Lemma 3's explicit witness: writep(v1) with H1 = ε, Op′ = readq,
        // extension writeq(v0).
        assert!(perturbs_after(
            ObjectKind::Register,
            &[],
            &OpSpec::Write(1),
            &OpSpec::Read
        ));
        let h2 = [OpSpec::Write(1), OpSpec::Read, OpSpec::Write(0)];
        assert!(perturbs_after(
            ObjectKind::Register,
            &h2,
            &OpSpec::Write(1),
            &OpSpec::Read
        ));
    }

    #[test]
    fn max_register_second_write_never_perturbs() {
        // The Lemma 4 argument, checked directly: after WriteMax(v) is
        // applied, a second WriteMax(v) cannot change any response.
        let h = [OpSpec::WriteMax(2), OpSpec::Read];
        assert!(!perturbs_after(
            ObjectKind::MaxRegister,
            &h,
            &OpSpec::WriteMax(2),
            &OpSpec::Read
        ));
    }

    #[test]
    fn sequences_enumerate_expected_counts() {
        let a = [OpSpec::Read, OpSpec::Inc];
        // lengths 0,1,2: 1 + 2 + 4 = 7.
        assert_eq!(sequences(&a, 2).len(), 7);
    }

    #[test]
    fn spec_witnesses_validate_on_the_real_algorithms() {
        use crate::sim::build_world;

        let w = witness(ObjectKind::Register).expect("Lemma 3");
        let (reg, mem) = build_world(|b| detectable::DetectableRegister::new(b, 2, 0));
        assert!(validate_witness_on_impl(&w, &reg, &mem));

        let w = witness(ObjectKind::Cas).expect("Lemma 6");
        let (cas, mem) = build_world(|b| detectable::DetectableCas::new(b, 2, 0));
        assert!(validate_witness_on_impl(&w, &cas, &mem));

        let w = witness(ObjectKind::Counter).expect("Lemma 5");
        let (ctr, mem) = build_world(|b| detectable::DetectableCounter::new(b, 2));
        assert!(validate_witness_on_impl(&w, &ctr, &mem));
    }

    #[test]
    fn fabricated_witness_fails_on_the_max_register() {
        // Lemma 4 in executable form: no WriteMax can be doubly-perturbing
        // on the real Algorithm 3 either.
        use crate::sim::build_world;
        let fake = PerturbWitness {
            opp: OpSpec::WriteMax(2),
            h1: vec![OpSpec::WriteMax(2), OpSpec::Read],
            op_prime: OpSpec::Read,
            extension: vec![],
            opq: OpSpec::Read,
        };
        let (mr, mem) = build_world(|b| detectable::MaxRegister::new(b, 2));
        assert!(!validate_witness_on_impl(&fake, &mr, &mem));
    }

    #[test]
    fn validation_leaves_the_memory_untouched() {
        use crate::sim::build_world;
        let w = witness(ObjectKind::Register).expect("Lemma 3");
        let (reg, mem) = build_world(|b| detectable::DetectableRegister::new(b, 2, 0));
        let state = || {
            let mut out = Vec::new();
            mem.state_words_into(&mut out);
            out
        };
        let before = state();
        let _ = validate_witness_on_impl(&w, &reg, &mem);
        assert_eq!(state(), before);
    }
}
