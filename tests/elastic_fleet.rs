//! Integration: the elastic fleet end to end. An ALS-style sweep loop
//! loses a rank mid-epoch; the epoch aborts with a typed
//! [`EpochError`] on every survivor, the *pool survives*, and the next
//! epoch rendezvouses a smaller world onto which the session restores
//! its checkpoint and resizes — finishing with a continuous loss
//! trajectory.
//!
//! Under the socket backend (the `DSK_COMM_BACKEND=socket` CI leg) the
//! victim is a real OS process calling `process::exit(3)` mid-epoch:
//! the coordinator detects the death, broadcasts the dead pool id, and
//! the surviving processes carry on. Under the in-memory backends the
//! victim panics; the abort classification must name the same dead
//! rank either way.
//!
//! The last two tests pin the pool's growth on an explicit socket
//! backend, so every leg runs them: a worker spawned late catches up by
//! reading the verdicts of the epochs it missed, also after a death.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::comm::{BackendKind, MachineModel, SimWorld};
use distributed_sparse_kernels::core::common::block_range;
use distributed_sparse_kernels::core::session::Session;
use distributed_sparse_kernels::core::GlobalProblem;
use distributed_sparse_kernels::dense::Mat;

const M: usize = 48;
const N: usize = 48;
const R: usize = 6;

fn continuous(before: f64, after: f64) -> bool {
    (before - after).abs() <= 1e-9 * before.abs().max(1.0)
}

/// One damped ALS-style sweep: pull both right-hand sides and relax the
/// iterates toward them. Deterministic and bounded — the point is state
/// evolution through real communication, not convergence.
fn sweep(s: &mut Session) {
    let rhs = s.rhs_a();
    let a = s.a_iterate();
    let x = Mat::from_fn(a.nrows(), a.ncols(), |i, j| {
        0.8 * a.get(i, j) + 0.05 * rhs.get(i, j)
    });
    s.commit_a(&x);
    let rhs = s.rhs_b();
    let b = s.b_iterate();
    let y = Mat::from_fn(b.nrows(), b.ncols(), |i, j| {
        0.8 * b.get(i, j) + 0.05 * rhs.get(i, j)
    });
    s.commit_b(&y);
}

/// Reassemble the global factors from per-rank outcome tiles (baseline
/// iterate layout: contiguous row blocks in rank order).
fn assemble(tiles: &[(Vec<f64>, usize)], cols: usize) -> Mat {
    let blocks: Vec<Mat> = tiles
        .iter()
        .map(|(data, rows)| Mat::from_vec(*rows, cols, data.clone()))
        .collect();
    Mat::vstack(&blocks)
}

/// World 4 checkpoints a swept state; world 4 loses rank 3 mid-sweep
/// (`Err`, `dead == [3]`, pool intact); world 3 restores the checkpoint
/// at 2 active ranks and `Session::resize`s onto all 3 survivors with
/// loss continuity at every boundary.
#[test]
fn rank_death_aborts_the_epoch_and_survivors_resize_with_loss_continuity() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(M, N, R, 4, 7701));
    for backend in BackendKind::conformance_with_env() {
        // --- Epoch A (world 4): sweep and checkpoint -------------------
        let world4 = SimWorld::new(4, MachineModel::bandwidth_only()).backend(backend);
        let pr = Arc::clone(&prob);
        let out = world4.run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&pr)).baseline().build(comm);
            s.worker_mut().sddmm();
            for _ in 0..2 {
                sweep(&mut s);
            }
            s.worker_mut().sddmm();
            let a = s.a_iterate();
            let b = s.b_iterate();
            (
                (a.into_vec(), b.into_vec()),
                block_range(M, 4, comm.rank()).len(),
                s.stored_loss(),
            )
        });
        // The outcome broadcast is the checkpoint transport: every
        // process (launcher and workers alike) assembles the identical
        // global factors from the per-rank tiles.
        let a_tiles: Vec<(Vec<f64>, usize)> = out
            .iter()
            .map(|o| (o.value.0 .0.clone(), o.value.1))
            .collect();
        let b_tiles: Vec<(Vec<f64>, usize)> = out
            .iter()
            .enumerate()
            .map(|(r, o)| (o.value.0 .1.clone(), block_range(N, 4, r).len()))
            .collect();
        let a_ckpt = Arc::new(assemble(&a_tiles, R));
        let b_ckpt = Arc::new(assemble(&b_tiles, R));
        let loss_ckpt = out[0].value.2;
        assert!(loss_ckpt > 0.0 && loss_ckpt.is_finite(), "{backend:?}");

        // --- Epoch B (world 4): rank 3 dies mid-sweep ------------------
        let pr = Arc::clone(&prob);
        let err = world4
            .try_run(move |comm| {
                let mut s = Session::builder_arc(Arc::clone(&pr)).baseline().build(comm);
                s.worker_mut().sddmm();
                sweep(&mut s);
                if comm.rank() == 3 {
                    if backend == BackendKind::Socket && is_worker_process() {
                        // A real node failure: the worker process dies
                        // without a word.
                        std::process::exit(3);
                    }
                    panic!("simulated node failure");
                }
                // Survivors head into another sweep and block on data
                // the dead rank will never send.
                sweep(&mut s);
                s.stored_loss()
            })
            .expect_err("the epoch must abort when a rank dies");
        assert_eq!(
            err.dead,
            vec![3],
            "{backend:?}: the abort must name exactly the dead rank ({err})"
        );

        // --- Epoch C (world 3): restore + resize on the survivors ------
        let pr = Arc::clone(&prob);
        let (ac, bc) = (Arc::clone(&a_ckpt), Arc::clone(&b_ckpt));
        let world3 = SimWorld::new(3, MachineModel::bandwidth_only()).backend(backend);
        let out = world3.run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&pr))
                .baseline()
                .active_ranks(2)
                .build(comm);
            if s.is_active() {
                s.commit_a(&ac.rows_block(block_range(M, 2, comm.rank())));
                s.commit_b(&bc.rows_block(block_range(N, 2, comm.rank())));
                s.worker_mut().sddmm();
            }
            let restored = s.stored_loss();
            s.resize(3);
            let resized = s.stored_loss();
            sweep(&mut s);
            s.worker_mut().sddmm();
            (restored, resized, s.stored_loss())
        });
        for o in &out {
            let (restored, resized, after_sweep) = o.value;
            assert!(
                continuous(loss_ckpt, restored),
                "{backend:?} rank {}: checkpoint restore must preserve the loss: \
                 {loss_ckpt} -> {restored}",
                o.rank
            );
            assert!(
                continuous(restored, resized),
                "{backend:?} rank {}: resize boundary: {restored} -> {resized}",
                o.rank
            );
            assert!(after_sweep.is_finite(), "{backend:?} rank {}", o.rank);
        }
        // Cross-backend: the restored trajectory agrees with an
        // uninterrupted in-process reference run of the same program —
        // the "bit-reproducible modulo documented resize points"
        // contract (the resize/restore reductions regroup, hence the
        // relative tolerance rather than bit equality).
        let pr = Arc::clone(&prob);
        let reference = SimWorld::new(4, MachineModel::bandwidth_only())
            .backend(BackendKind::InProc)
            .run(move |comm| {
                let mut s = Session::builder_arc(Arc::clone(&pr)).baseline().build(comm);
                s.worker_mut().sddmm();
                for _ in 0..2 {
                    sweep(&mut s);
                }
                s.worker_mut().sddmm();
                s.stored_loss()
            });
        assert!(
            continuous(reference[0].value, out[0].value.0),
            "{backend:?}: recovered loss diverged from the uninterrupted reference: \
             {} vs {}",
            reference[0].value,
            out[0].value.0
        );
    }
}

fn socket_world(n: usize) -> SimWorld {
    SimWorld::new(n, MachineModel::bandwidth_only()).backend(BackendKind::Socket)
}

/// A death does not cap the pool: after a 2-rank `try_run` loses its
/// worker to `process::exit`, a 3-rank `run` spawns fresh workers that
/// read the aborted epoch's verdict (the same `dead == [1]` the
/// survivors saw) instead of re-running it, and computes on three
/// distinct processes.
#[test]
fn growth_after_a_death_refills_the_pool() {
    let err = socket_world(2)
        .try_run(|comm| {
            if comm.rank() == 1 {
                // World rank 1 of a socket world is a worker process.
                std::process::exit(3);
            }
            let v: Vec<f64> = comm.recv(1, 7);
            v.len()
        })
        .expect_err("rank 1 died");
    assert_eq!(err.dead, vec![1]);
    let out = socket_world(3).run(|comm| {
        let mut sum = vec![comm.rank() as f64 + 1.0];
        comm.allreduce_sum(&mut sum);
        (std::process::id(), sum[0])
    });
    let pids: std::collections::BTreeSet<u32> = out.iter().map(|o| o.value.0).collect();
    assert_eq!(pids.len(), 3, "three ranks, three processes: {pids:?}");
    for o in &out {
        assert_eq!(o.value.1, 6.0, "rank {}", o.rank);
    }
}

/// A worker spawned at epoch 1 returns epoch 0's logged verdict without
/// running its closure: each process's count of closure runs is what it
/// ran itself.
#[test]
fn a_grown_worker_does_not_rerun_earlier_epochs() {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    socket_world(2).run(|_| {
        RUNS.fetch_add(1, Ordering::SeqCst);
    });
    let out = socket_world(3).run(|_| RUNS.load(Ordering::SeqCst));
    let runs: Vec<usize> = out.iter().map(|o| o.value).collect();
    assert_eq!(runs, vec![1, 1, 0]);
}
