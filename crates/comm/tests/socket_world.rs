//! Integration: `BackendKind::Socket` runs every rank as a separate OS
//! process exchanging frames over real Unix-domain sockets, while the
//! `SimWorld::run` surface — values, statistics, panic propagation —
//! stays identical to the in-memory backends.
//!
//! Each test uses a single socket world (or a deterministic sequence of
//! them); under the hood the first socket world spawns this test binary
//! once per extra rank with `<test-name> --exact`, and all processes
//! stay in SPMD lockstep through the outcome broadcast.

use std::time::Duration;

use dsk_comm::frame::FRAME_HEADER_LEN;
use dsk_comm::{BackendKind, MachineModel, Phase, SimWorld};

fn socket_world(p: usize) -> SimWorld {
    SimWorld::new(p, MachineModel::bandwidth_only()).backend(BackendKind::Socket)
}

#[test]
fn ranks_are_separate_processes() {
    let out = socket_world(4).run(|c| {
        assert_eq!(c.backend_name(), "socket");
        // Each rank reports its own pid; distinct pids prove real
        // multi-process execution (threads would share one).
        (c.rank(), std::process::id() as u64)
    });
    let mut pids: Vec<u64> = out.iter().map(|o| o.value.1).collect();
    assert_eq!(
        out.iter().map(|o| o.value.0).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids.len(), 4, "every rank must be its own OS process");
}

#[test]
fn ring_shift_crosses_process_boundaries() {
    let p = 5;
    let out = socket_world(p).run(|c| {
        let _g = c.phase(Phase::Propagation);
        c.shift(1, 0, vec![c.rank() as f64, 10.0 + c.rank() as f64])
    });
    for o in &out {
        let expect = (o.rank + p - 1) % p;
        assert_eq!(o.value, vec![expect as f64, 10.0 + expect as f64]);
    }
}

#[test]
fn word_counts_match_inproc_exactly() {
    // The same program on inproc and socket: identical word/message
    // accounting (the backend-invariance contract), on every rank.
    let program = |c: &mut dsk_comm::Comm| {
        let _g = c.phase(Phase::Replication);
        let all = c.allgather(vec![c.rank() as f64; 3]);
        let _g2 = c.phase(Phase::Propagation);
        let v = c.shift(1, 7, vec![1.0f64; 5]);
        all.len() as f64 + v[0]
    };
    let inproc = SimWorld::new(4, MachineModel::bandwidth_only()).run(program);
    let socket = socket_world(4).run(program);
    for (i, s) in inproc.iter().zip(&socket) {
        assert_eq!(i.value, s.value);
        for ph in [Phase::Replication, Phase::Propagation] {
            assert_eq!(
                i.stats.phase(ph).words_sent,
                s.stats.phase(ph).words_sent,
                "{ph:?}"
            );
            assert_eq!(
                i.stats.phase(ph).msgs_sent,
                s.stats.phase(ph).msgs_sent,
                "{ph:?}"
            );
            assert_eq!(
                i.stats.phase(ph).words_recv,
                s.stats.phase(ph).words_recv,
                "{ph:?}"
            );
        }
    }
}

#[test]
fn wire_bytes_equal_bytes_actually_written() {
    // One shift of 16 f64 per rank: payload = 8 (length) + 16·8 bytes,
    // plus the 28-byte frame header — and the stats must report exactly
    // what went onto the socket.
    let out = socket_world(3).run(|c| {
        let _g = c.phase(Phase::Propagation);
        let _ = c.shift(1, 0, vec![0.0f64; 16]);
    });
    let expect = (FRAME_HEADER_LEN + 8 + 16 * 8) as u64;
    for o in &out {
        assert_eq!(o.stats.phase(Phase::Propagation).wire_bytes_sent, expect);
    }
}

#[test]
fn collectives_and_splits_work_across_processes() {
    let p = 6;
    let out = socket_world(p).run(|c| {
        let _g = c.phase(Phase::OutsideComm);
        let sum = c.allreduce_scalar(c.rank() as f64);
        let sub = c.split_by(|r| (r % 2) as u64);
        let sub_sum: f64 = sub
            .allgather(vec![c.rank() as f64])
            .iter()
            .map(|v| v[0])
            .sum();
        c.barrier();
        (sum, sub_sum)
    });
    let total: f64 = (0..p).map(|r| r as f64).sum();
    for o in &out {
        assert_eq!(o.value.0, total);
        let expect = if o.rank % 2 == 0 {
            0.0 + 2.0 + 4.0
        } else {
            1.0 + 3.0 + 5.0
        };
        assert_eq!(o.value.1, expect);
    }
}

#[test]
fn sequential_epochs_reuse_the_process_pool() {
    // Three socket worlds in one test: the pool spawns once, then every
    // process advances epoch-by-epoch in lockstep, including a narrower
    // world (extra ranks become observers) in the middle.
    let first = socket_world(4).run(|c| c.allreduce_scalar(1.0));
    assert!(first.iter().all(|o| o.value == 4.0));
    let narrower = socket_world(2).run(|c| c.allreduce_scalar(1.0));
    assert!(narrower.iter().all(|o| o.value == 2.0));
    let third = socket_world(4).run(|c| {
        let _g = c.phase(Phase::Propagation);
        c.shift(1, 3, c.rank() as f64)
    });
    for o in &third {
        assert_eq!(o.value, ((o.rank + 3) % 4) as f64);
    }
}

#[test]
fn single_rank_socket_world_runs_peerless() {
    let out = socket_world(1).run(|c| {
        assert_eq!(c.size(), 1);
        c.rank() as f64 + 7.0
    });
    assert_eq!(out[0].value, 7.0);
}

#[test]
#[should_panic(expected = "rank 1 panicked: child boom")]
fn child_panic_propagates_with_rank_id() {
    let _ = socket_world(2).run(|c| {
        if c.rank() == 1 {
            panic!("child boom");
        }
    });
}

#[test]
#[should_panic(expected = "rank 0 panicked: launcher boom")]
fn launcher_panic_is_wrapped_and_pool_torn_down() {
    let _ = socket_world(2).run(|c| {
        if c.rank() == 0 {
            panic!("launcher boom");
        }
    });
}

#[test]
#[should_panic(expected = "never received")]
fn leaked_message_is_detected_across_processes() {
    let _ = socket_world(2).run(|c| {
        if c.rank() == 0 {
            c.send(1, 0, vec![1.0f64]);
        }
        // Rank 1 (a separate process) never receives.
    });
}

#[test]
fn watchdog_fires_across_processes() {
    // A receive nobody matches must fail (quickly, via the watchdog)
    // rather than hang the process mesh.
    let world = socket_world(2).with_recv_timeout(Duration::from_millis(200));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = world.run(|c| {
            if c.rank() == 0 {
                let _: Vec<f64> = c.recv(1, 42);
            }
        });
    }));
    assert!(result.is_err(), "mismatched receive must panic");
}

#[test]
fn stats_travel_back_bit_exact() {
    let out = socket_world(3).run(|c| {
        let _g = c.phase(Phase::Computation);
        c.record_flops(1234);
        let _p = c.phase(Phase::Propagation);
        let _ = c.shift(1, 0, vec![2.0f64; 8]);
    });
    for o in &out {
        assert_eq!(o.stats.phase(Phase::Computation).flops, 1234);
        assert_eq!(o.stats.phase(Phase::Propagation).words_sent, 8);
        // Real wall time was spent while the socket exchange ran.
        assert!(o.stats.phase(Phase::Propagation).wall_s >= 0.0);
    }
}

#[test]
fn run_and_try_run_are_one_epoch_on_success() {
    // The same closure through both entry points on one pool: identical
    // values and bit-identical modeled accounting in every phase.
    let program = |c: &mut dsk_comm::Comm| {
        let shifted = {
            let _g = c.phase(Phase::Propagation);
            c.shift(1, 4, vec![c.rank() as f64; 6])
        };
        let _g = c.phase(Phase::OutsideComm);
        let mut sum = vec![c.rank() as f64 + 1.0; 3];
        c.allreduce_sum(&mut sum);
        (shifted, sum)
    };
    let world = socket_world(4);
    let ran = world.run(program);
    let tried = world
        .try_run(program)
        .expect("a clean epoch is Ok under try_run");
    assert_eq!(ran.len(), tried.len());
    for (a, b) in ran.iter().zip(&tried) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.value, b.value);
        assert_eq!(a.value.0, vec![((a.rank + 3) % 4) as f64; 6]);
        assert_eq!(a.value.1, vec![10.0; 3]);
        for ph in [Phase::Propagation, Phase::OutsideComm] {
            let (x, y) = (a.stats.phase(ph), b.stats.phase(ph));
            assert_eq!(x.msgs_sent, y.msgs_sent, "{ph:?}");
            assert_eq!(x.words_sent, y.words_sent, "{ph:?}");
            assert_eq!(x.words_recv, y.words_recv, "{ph:?}");
            assert_eq!(x.modeled_s.to_bits(), y.modeled_s.to_bits(), "{ph:?}");
            assert!(x.msgs_sent > 0, "{ph:?} must carry traffic");
        }
    }
}

#[test]
fn a_middle_death_renumbers_the_survivors() {
    // Pool id 1 dies mid-epoch; the survivors keep their processes and
    // are renumbered densely, a narrower world leaves pool id 3 as an
    // observer, and a wider one makes it a member again.
    let ranks_and_pids = |p: usize| {
        let out = socket_world(p).run(|c| (c.rank(), std::process::id() as u64));
        assert_eq!(
            out.iter().map(|o| o.value.0).collect::<Vec<_>>(),
            (0..p).collect::<Vec<_>>()
        );
        out.iter().map(|o| o.value.1).collect::<Vec<u64>>()
    };
    let pids = ranks_and_pids(4);
    let err = socket_world(4)
        .try_run(|c| {
            if c.rank() == 1 && dsk_comm::launch::is_worker_process() {
                std::process::exit(3);
            }
            // Survivors block on a reduction the dead rank never joins.
            let _ = c.allreduce_scalar(1.0);
            (c.rank(), std::process::id() as u64)
        })
        .expect_err("the epoch must abort when a rank dies");
    assert_eq!(err.dead, vec![1], "{err}");
    let survivors = vec![pids[0], pids[2], pids[3]];
    assert_eq!(ranks_and_pids(3), survivors);
    assert_eq!(ranks_and_pids(2), survivors[..2].to_vec());
    assert_eq!(ranks_and_pids(3), survivors);
}

/// The world `no_rendezvous_dir_survives_the_process` runs in a process
/// of its own.
#[test]
fn two_rank_world_in_its_own_process() {
    let out = socket_world(2).run(|c| c.allreduce_scalar(1.0));
    assert!(out.iter().all(|o| o.value == 2.0));
}

/// The launcher makes one rendezvous dir (`dsk-sock-<pid>-<seq>`) per
/// socket pool in the temp dir; none may outlive the process. The test
/// binary is re-executed with a private `TMPDIR` to run one 2-rank
/// socket world, and the dir is empty once that process has exited.
#[test]
fn no_rendezvous_dir_survives_the_process() {
    let tmp = std::env::temp_dir().join(format!("dsk-leak-probe-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args([
            "two_rank_world_in_its_own_process",
            "--exact",
            "--test-threads=1",
            "-q",
        ])
        .env("TMPDIR", &tmp)
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let pid = child.id();
    let status = child.wait().unwrap();
    let left: Vec<String> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("dsk-sock-"))
        .collect();
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(status.success(), "the re-executed test failed: {status}");
    assert!(left.is_empty(), "process {pid} left {left:?} behind");
}
