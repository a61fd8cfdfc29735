//! Decode round-trip pins for every detectable object.
//!
//! The external-memory census engine reconstructs in-flight machines from
//! their [`Machine::encode`] words via [`RecoverableObject::decode_op`]. The
//! encode contract says two machines with equal encodings must behave
//! identically from there on; these tests pin the stronger property the
//! engine relies on:
//!
//! * `decode_op(encode(m))` succeeds at **every** reachable step of every
//!   supported operation,
//! * the decoded machine re-encodes to exactly the same words, and
//! * stepping the decoded machine produces the same poll result, the same
//!   next encoding, and the same logical memory image as stepping the
//!   original.
//!
//! Every machine state those runs reach, and every state of the recovery
//! machines entered after a crash at each step, also pins
//! [`Machine::encode_into`]: on a non-empty buffer it appends exactly
//! `encode()` and leaves the prefix alone (the search engines splice keys
//! from it).

use detectable::{
    DetectableCas, DetectableCounter, DetectableFaa, DetectableQueue, DetectableRegister,
    DetectableSwap, DetectableTas, MaxRegister, OpSpec, RecoverableObject,
};
use nvm::{run_to_completion, LayoutBuilder, Machine, Pid, Poll, SimMemory};

/// `m.encode_into` appends exactly `m.encode()` to a non-empty buffer.
fn pin_encode_into(m: &dyn Machine, what: &str) {
    let prefix = [u64::MAX, 7];
    let mut out = prefix.to_vec();
    m.encode_into(&mut out);
    assert_eq!(out[..2], prefix, "{what}: encode_into touched the prefix");
    assert_eq!(out[2..], m.encode(), "{what}: encode_into != encode");
}

/// Runs `script` sequentially, checking the decode round-trip before every
/// step and the behavioral equivalence of the decoded machine across it,
/// then the recovery machines' `encode_into`.
fn pin_roundtrip(obj: &dyn RecoverableObject, mem: &SimMemory, script: &[(u32, OpSpec)]) {
    pin_recovery_encode_into(obj, mem, script);
    assert!(obj.decodable(), "{} must be decodable", obj.name());
    for (opno, &(pidx, ref op)) in script.iter().enumerate() {
        let pid = Pid::new(pidx);
        obj.prepare(mem, pid, op);
        let mut m = obj.invoke(pid, op);
        let mut steps = 0u32;
        loop {
            let what = format!("{}: op #{opno} {op} at step {steps}", obj.name());
            pin_encode_into(&*m, &what);
            let enc = m.encode();
            let mut dm = obj.decode_op(pid, op, &enc).unwrap_or_else(|| {
                panic!(
                    "{}: op #{opno} {op} failed to decode at step {steps}: {enc:?}",
                    obj.name()
                )
            });
            assert_eq!(
                dm.encode(),
                enc,
                "{}: op #{opno} {op} re-encode mismatch at step {steps}",
                obj.name()
            );

            // Step the decoded machine under a checkpoint and rewind, then
            // step the original from the same state; they must agree on
            // everything.
            let cp = mem.checkpoint();
            let dpoll = dm.step(mem);
            pin_encode_into(&*dm, &what);
            let denc = dm.encode();
            let mut dimg = Vec::new();
            mem.logical_words_into(&mut dimg);
            mem.rollback(cp);

            let poll = m.step(mem);
            assert_eq!(
                poll,
                dpoll,
                "{}: op #{opno} {op} decoded step diverged at step {steps}",
                obj.name()
            );
            assert_eq!(
                m.encode(),
                denc,
                "{}: op #{opno} {op} post-step encodings diverged at step {steps}",
                obj.name()
            );
            let mut img = Vec::new();
            mem.logical_words_into(&mut img);
            assert_eq!(
                img,
                dimg,
                "{}: op #{opno} {op} memory images diverged at step {steps}",
                obj.name()
            );

            steps += 1;
            assert!(steps < 10_000, "{}: op {op} did not complete", obj.name());
            if let Poll::Ready(_) = poll {
                break;
            }
        }
        // The completed (Done) state must round-trip too.
        pin_encode_into(&*m, &format!("{}: op #{opno} {op} done", obj.name()));
        let enc = m.encode();
        let dm = obj
            .decode_op(pid, op, &enc)
            .unwrap_or_else(|| panic!("{}: {op} Done state failed to decode", obj.name()));
        assert_eq!(dm.encode(), enc);
    }
}

/// For each operation of `script` and each crash point `k` (after `k`
/// steps, every write persisted), pins `encode_into` at every step of the
/// operation's recovery machine, then rewinds; the script's operations run
/// to completion in between, so later recoveries start from later states.
/// `mem` is left as the script leaves it.
fn pin_recovery_encode_into(
    obj: &dyn RecoverableObject,
    mem: &SimMemory,
    script: &[(u32, OpSpec)],
) {
    let start = mem.checkpoint();
    for (opno, &(pidx, ref op)) in script.iter().enumerate() {
        let pid = Pid::new(pidx);
        for crash_after in 0.. {
            let cp = mem.checkpoint();
            obj.prepare(mem, pid, op);
            let mut m = obj.invoke(pid, op);
            let completed = (0..crash_after).any(|_| m.step(mem).is_ready());
            let mut r = obj.recover(pid, op);
            for step in 0.. {
                let what = format!(
                    "{}: op #{opno} {op} recovering from step {crash_after}, at step {step}",
                    obj.name()
                );
                pin_encode_into(&*r, &what);
                if r.step(mem).is_ready() {
                    pin_encode_into(&*r, &what);
                    break;
                }
                assert!(step < 10_000, "{what}: recovery did not complete");
            }
            mem.rollback(cp);
            if completed {
                break;
            }
        }
        obj.prepare(mem, pid, op);
        run_to_completion(&mut *obj.invoke(pid, op), mem, 10_000).expect("solo op completes");
    }
    mem.rollback(start);
}

fn garbage_is_rejected(obj: &dyn RecoverableObject, op: &OpSpec) {
    let pid = Pid::new(0);
    assert!(obj.decode_op(pid, op, &[]).is_none());
    assert!(obj.decode_op(pid, op, &[u64::MAX - 7; 40]).is_none());
}

#[test]
fn cas_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableCas::new(&mut b, 2, 0);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::Cas { old: 0, new: 1 }),
            (1, OpSpec::Read),
            (1, OpSpec::Cas { old: 1, new: 2 }),
            (0, OpSpec::Cas { old: 9, new: 3 }), // failing CAS
            (0, OpSpec::Read),
        ],
    );
    garbage_is_rejected(&o, &OpSpec::Cas { old: 0, new: 1 });
    garbage_is_rejected(&o, &OpSpec::Read);
}

#[test]
fn counter_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableCounter::new(&mut b, 2);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::Inc),
            (1, OpSpec::Inc),
            (0, OpSpec::Read),
            (1, OpSpec::Inc),
        ],
    );
    garbage_is_rejected(&o, &OpSpec::Inc);
}

#[test]
fn faa_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableFaa::new(&mut b, 2);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[(0, OpSpec::Faa(3)), (1, OpSpec::Faa(5)), (0, OpSpec::Read)],
    );
    garbage_is_rejected(&o, &OpSpec::Faa(3));
}

#[test]
fn tas_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableTas::new(&mut b, 2);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::TestAndSet),
            (1, OpSpec::TestAndSet), // losing TAS
            (1, OpSpec::Read),
            (0, OpSpec::Reset),
            (1, OpSpec::TestAndSet),
        ],
    );
    garbage_is_rejected(&o, &OpSpec::TestAndSet);
    garbage_is_rejected(&o, &OpSpec::Reset);
}

#[test]
fn swap_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableSwap::new(&mut b, 2);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::Swap(4)),
            (1, OpSpec::Swap(7)),
            (0, OpSpec::Read),
        ],
    );
    garbage_is_rejected(&o, &OpSpec::Swap(4));
}

#[test]
fn register_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableRegister::new(&mut b, 2, 0);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::Write(3)),
            (1, OpSpec::Read),
            (1, OpSpec::Write(5)),
            (0, OpSpec::Read),
        ],
    );
    garbage_is_rejected(&o, &OpSpec::Write(3));
    garbage_is_rejected(&o, &OpSpec::Read);
}

#[test]
fn max_register_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = MaxRegister::new(&mut b, 2);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::WriteMax(6)),
            (1, OpSpec::WriteMax(2)), // non-improving write
            (1, OpSpec::Read),
            (0, OpSpec::Read),
        ],
    );
    garbage_is_rejected(&o, &OpSpec::WriteMax(6));
    garbage_is_rejected(&o, &OpSpec::Read);
}

#[test]
fn queue_roundtrips() {
    let mut b = LayoutBuilder::new();
    let o = DetectableQueue::new(&mut b, 2, 32);
    let mem = SimMemory::new(b.finish());
    pin_roundtrip(
        &o,
        &mem,
        &[
            (0, OpSpec::Enq(1)),
            (1, OpSpec::Enq(2)),
            (0, OpSpec::Deq),
            (1, OpSpec::Deq),
            (1, OpSpec::Deq), // empty dequeue
        ],
    );
    garbage_is_rejected(&o, &OpSpec::Enq(1));
    garbage_is_rejected(&o, &OpSpec::Deq);
}

#[test]
fn decode_rejects_mismatched_op_arguments() {
    let mut b = LayoutBuilder::new();
    let o = DetectableRegister::new(&mut b, 2, 0);
    let mem = SimMemory::new(b.finish());
    let pid = Pid::new(0);
    let op = OpSpec::Write(3);
    o.prepare(&mem, pid, &op);
    let m = o.invoke(pid, &op);
    let enc = m.encode();
    // Same words, different claimed argument: must refuse.
    assert!(o.decode_op(pid, &OpSpec::Write(4), &enc).is_none());
    // Unsupported op kinds refuse outright.
    assert!(o.decode_op(pid, &OpSpec::Inc, &enc).is_none());
}
