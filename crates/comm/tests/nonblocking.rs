//! Integration: the non-blocking point-to-point surface
//! (`recv_begin` / `shift_begin` with handle `poll`/`wait`)
//! behaves identically to its blocking counterparts — same values, same
//! word/message/modeled accounting — on every conformance backend, and
//! enforces its completion contract (in-posting-order waits, no silently
//! dropped handles) at runtime.

mod common;

use common::worlds;
use dsk_comm::{BackendKind, MachineModel, Phase, RankStats, SimWorld};

/// Counters that must be bit-identical between a blocking program and
/// its pipelined rewrite (stall/wall are measured, everything else is
/// modeled and must not move).
fn modeled_fingerprint(stats: &RankStats, p: Phase) -> (u64, u64, u64, u64, u64, u64, u64) {
    let c = stats.phase(p);
    (
        c.msgs_sent,
        c.words_sent,
        c.msgs_recv,
        c.words_recv,
        c.wire_bytes_sent,
        c.flops,
        c.modeled_s.to_bits(),
    )
}

#[test]
fn send_recv_begin_roundtrip() {
    for world in worlds(3) {
        let out = world.run(|c| {
            let _g = c.phase(Phase::Propagation);
            let p = c.size();
            let dst = (c.rank() + 1) % p;
            let src = (c.rank() + p - 1) % p;
            c.send(dst, 5, vec![c.rank() as f64; 4]);
            let r = c.recv_begin::<Vec<f64>>(src, 5);
            r.wait()
        });
        for o in &out {
            let expect = (o.rank + 2) % 3;
            assert_eq!(o.value, vec![expect as f64; 4]);
        }
    }
}

#[test]
fn nonblocking_accounting_matches_blocking_exactly() {
    // The same ring exchange, written blocking and written with handles:
    // every modeled counter must be bit-identical. Only wall/stall may
    // differ (they measure real time).
    let blocking = |c: &mut dsk_comm::Comm| {
        let _g = c.phase(Phase::Propagation);
        let p = c.size();
        c.send((c.rank() + 1) % p, 9, vec![1.0f64; 7]);
        let v: Vec<f64> = c.recv((c.rank() + p - 1) % p, 9);
        let w = c.shift(1, 10, vec![2.0f64; 11]);
        v[0] + w[0]
    };
    let pipelined = |c: &mut dsk_comm::Comm| {
        let _g = c.phase(Phase::Propagation);
        let p = c.size();
        c.send((c.rank() + 1) % p, 9, vec![1.0f64; 7]);
        let r = c.recv_begin::<Vec<f64>>((c.rank() + p - 1) % p, 9);
        let v = r.wait();
        let h = c.shift_begin(1, 10, vec![2.0f64; 11]);
        let w = h.wait();
        v[0] + w[0]
    };
    for (wa, wb) in worlds(4).zip(worlds(4)) {
        let a = wa.run(blocking);
        let b = wb.run(pipelined);
        for (oa, ob) in a.iter().zip(&b) {
            assert_eq!(oa.value, ob.value);
            assert_eq!(
                modeled_fingerprint(&oa.stats, Phase::Propagation),
                modeled_fingerprint(&ob.stats, Phase::Propagation),
                "rank {}: pipelined rewrite changed modeled accounting",
                oa.rank
            );
        }
    }
}

#[test]
fn shift_begin_on_single_rank_returns_value_unaccounted() {
    for world in worlds(1) {
        let out = world.run(|c| {
            let _g = c.phase(Phase::Propagation);
            let h = c.shift_begin(1, 3, vec![4.0f64; 6]);
            assert!(h.poll());
            h.wait()
        });
        assert_eq!(out[0].value, vec![4.0f64; 6]);
        let ph = out[0].stats.phase(Phase::Propagation);
        assert_eq!(ph.msgs_sent, 0);
        assert_eq!(ph.words_sent, 0);
        assert_eq!(ph.words_recv, 0);
        assert_eq!(ph.modeled_s, 0.0);
    }
}

#[test]
fn poll_respects_arrival_and_posting_order() {
    // Rank 1 delays its sends; rank 0 posts two receives on one stream
    // and observes: not ready before arrival, and the second handle not
    // ready until the first is waited even once both messages are queued.
    let world = SimWorld::new(2, MachineModel::bandwidth_only());
    let out = world.run(|c| {
        if c.rank() == 1 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            c.send(0, 1, vec![10.0f64]);
            c.send(0, 1, vec![20.0f64]);
            return 0.0;
        }
        let first = c.recv_begin::<Vec<f64>>(1, 1);
        let second = c.recv_begin::<Vec<f64>>(1, 1);
        // Nothing has arrived yet (the sender is asleep).
        assert!(!first.poll(), "poll must not report ready before arrival");
        // Wait for both messages to be queued.
        while !first.poll() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(
            !second.poll(),
            "second handle must not poll ready while the first is pending"
        );
        let a = first.wait();
        assert!(second.poll(), "head of stream advanced after wait");
        let b = second.wait();
        a[0] + b[0]
    });
    assert_eq!(out[0].value, 30.0);
}

#[test]
fn wait_blocked_on_late_sender_records_stall() {
    let world = SimWorld::new(2, MachineModel::bandwidth_only());
    let out = world.run(|c| {
        let _g = c.phase(Phase::Propagation);
        if c.rank() == 1 {
            std::thread::sleep(std::time::Duration::from_millis(40));
            c.send(0, 2, vec![1.0f64; 3]);
            return;
        }
        let h = c.recv_begin::<Vec<f64>>(1, 2);
        let _ = h.wait();
    });
    let stalled = out[0].stats.phase(Phase::Propagation).stall_s;
    assert!(
        stalled >= 0.030,
        "rank 0 was blocked ~40ms in wait but recorded only {stalled}s of stall"
    );
    // Stall is a measured diagnostic; it must never leak into modeled
    // time, which stays exactly β·words = 3.0 under bandwidth_only.
    let modeled = out[0].stats.phase(Phase::Propagation).modeled_s;
    assert_eq!(modeled, 3.0, "modeled time must not include stall");
}

/// Stall is recorded for every blocked receive, not only for handles:
/// a blocking `sendrecv` whose partner shows up 40 ms late was blocked
/// in the backend's `take` for that long.
#[test]
fn blocking_sendrecv_against_a_late_partner_records_stall() {
    let world = SimWorld::new(2, MachineModel::bandwidth_only());
    let out = world.run(|c| {
        let _g = c.phase(Phase::Propagation);
        if c.rank() == 1 {
            std::thread::sleep(std::time::Duration::from_millis(40));
        }
        let other = 1 - c.rank();
        let got: Vec<f64> = c.sendrecv(other, other, 3, vec![c.rank() as f64; 5]);
        assert_eq!(got, vec![other as f64; 5]);
    });
    let ph = out[0].stats.phase(Phase::Propagation);
    assert!(
        ph.stall_s >= 0.030,
        "rank 0 was blocked ~40ms in a blocking sendrecv but recorded only {}s of stall",
        ph.stall_s
    );
    // α + β·max(5, 5) = 5.0 under bandwidth_only, to the bit.
    assert_eq!(ph.modeled_s, 5.0, "modeled time must not include stall");
}

/// Stall is the wait for the message, not its decode: a 32 MiB vector
/// that already polls ready on a serializing backend costs (almost) no
/// stall, however long turning its bytes back into a `Vec<f64>` takes.
#[test]
fn decoding_an_arrived_message_is_not_stall() {
    const WORDS: usize = 4 << 20;
    let world = SimWorld::new(2, MachineModel::bandwidth_only()).backend(BackendKind::Wire);
    let out = world.run(|c| {
        let _g = c.phase(Phase::Propagation);
        if c.rank() == 1 {
            c.send(0, 2, vec![1.5f64; WORDS]);
            return;
        }
        let h = c.recv_begin::<Vec<f64>>(1, 2);
        while !h.poll() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.wait().len(), WORDS);
    });
    let ph = out[0].stats.phase(Phase::Propagation);
    assert!(
        ph.stall_s <= 0.001,
        "the message had arrived before wait(), yet {}s of stall were recorded \
         (decode time must not count)",
        ph.stall_s
    );
    assert_eq!(ph.modeled_s, WORDS as f64, "modeled time is β·words");
}

#[test]
fn out_of_order_wait_panics() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let world = SimWorld::new(2, MachineModel::bandwidth_only());
        let _ = world.run(|c| {
            if c.rank() == 1 {
                c.send(0, 4, vec![1.0f64]);
                c.send(0, 4, vec![2.0f64]);
                return;
            }
            let first = c.recv_begin::<Vec<f64>>(1, 4);
            let second = c.recv_begin::<Vec<f64>>(1, 4);
            // Awaiting the younger handle first would steal the older
            // handle's message — contract violation.
            let _ = second.wait();
            let _ = first.wait();
        });
    }));
    assert!(result.is_err(), "out-of-order wait must panic");
}

/// Blocking calls take a ticket like any handle, so a blocking `recv`
/// issued behind a still-pending handle on the same stream panics
/// instead of silently taking the message the handle was posted for.
#[test]
fn blocking_recv_overtaking_a_pending_handle_panics() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let world = SimWorld::new(2, MachineModel::bandwidth_only());
        let _ = world.run(|c| {
            if c.rank() == 1 {
                c.send(0, 4, vec![1.0f64]);
                c.send(0, 4, vec![2.0f64]);
                return;
            }
            let h = c.recv_begin::<Vec<f64>>(1, 4);
            let _stolen: Vec<f64> = c.recv(1, 4);
            let _ = h.wait();
        });
    }));
    assert!(
        result.is_err(),
        "a blocking recv behind a pending handle must panic"
    );
}

#[test]
fn dropping_unawaited_recv_handle_panics() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let world = SimWorld::new(2, MachineModel::bandwidth_only());
        let _ = world.run(|c| {
            if c.rank() == 1 {
                c.send(0, 6, vec![1.0f64]);
                return;
            }
            let h = c.recv_begin::<Vec<f64>>(1, 6);
            drop(h);
        });
    }));
    assert!(result.is_err(), "dropping a pending RecvHandle must panic");
}

#[test]
fn handles_work_across_communicator_splits() {
    // Same tag on world and sub-communicator: contexts isolate the
    // streams, and each communicator tracks its own posting order.
    for world in worlds(4) {
        let out = world.run(|c| {
            let _g = c.phase(Phase::Propagation);
            let sub = c.split_by(|r| (r % 2) as u64);
            let h_world = c.shift_begin(1, 8, vec![c.rank() as f64]);
            let h_sub = sub.shift_begin(1, 8, vec![100.0 + c.rank() as f64]);
            let a = h_world.wait();
            let b = h_sub.wait();
            (a[0], b[0])
        });
        for o in &out {
            assert_eq!(o.value.0, ((o.rank + 3) % 4) as f64);
            // sub rings are {0,2} and {1,3}: the sub-predecessor is
            // rank+2 mod 4 shifted within the pair.
            let sub_pred = (o.rank + 2) % 4;
            assert_eq!(o.value.1, 100.0 + sub_pred as f64);
        }
    }
}
