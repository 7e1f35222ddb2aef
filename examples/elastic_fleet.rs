//! Elastic fleet demo: an ALS-style factorization sweep that **grows**
//! from 4 to 6 active ranks mid-run, **loses a rank** to a simulated
//! node failure, carries on with the 5 survivors, and **grows back** to
//! 6 ranks — with a loss trajectory that is bit-reproducible modulo the
//! documented resize points (a resize regroups the loss reduction, so
//! boundaries agree to 1e-9 relative, not bitwise).
//!
//! ```text
//! cargo run --release --example elastic_fleet
//! DSK_COMM_BACKEND=socket cargo run --release --example elastic_fleet
//! DSK_TRACE=fleet.json DSK_COMM_BACKEND=socket cargo run --release --example elastic_fleet
//! ```
//!
//! With `DSK_TRACE=<path>` set, every epoch's per-rank span timeline is
//! gathered at the outcome broadcast and written as a Chrome trace-event
//! file — load it in Perfetto to see one track per rank with the
//! rendezvous, shift post/wait (and stall attribution), the mid-epoch
//! rank death, and the survivor resize laid out on a common clock.
//!
//! Under the socket backend every rank is a real OS process and the
//! victim genuinely dies (`process::exit`): the epoch aborts with a
//! typed [`EpochError`], the process pool survives, and the next epoch
//! rendezvouses the 5 survivors into a fresh world. The last epoch
//! spawns one fresh worker process, which catches up by reading the
//! verdicts of the epochs it missed (the abort included) rather than
//! re-running them. Under the in-memory backends the victim panics and
//! the same abort/restore story plays out across threads.

use std::sync::Arc;

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::comm::{BackendKind, MachineModel, SimWorld};
use distributed_sparse_kernels::core::common::block_range;
use distributed_sparse_kernels::core::session::Session;
use distributed_sparse_kernels::core::GlobalProblem;
use distributed_sparse_kernels::dense::Mat;

const M: usize = 96;
const N: usize = 96;
const R: usize = 6;

/// One damped ALS-style sweep (relax both factors toward their
/// right-hand sides) returning the post-sweep loss.
fn sweep(s: &mut Session) -> f64 {
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
    s.worker_mut().sddmm();
    s.stored_loss()
}

/// Reassemble global factors from per-rank outcome tiles (baseline
/// iterate layout: contiguous row blocks in rank order).
fn assemble(tiles: Vec<(Vec<f64>, usize)>, cols: usize) -> Mat {
    let blocks: Vec<Mat> = tiles
        .into_iter()
        .map(|(data, rows)| Mat::from_vec(rows, cols, data))
        .collect();
    Mat::vstack(&blocks)
}

fn main() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(M, N, R, 5, 4242));
    let backend = BackendKind::from_env();
    let model = MachineModel::bandwidth_only();
    let mut trajectory: Vec<(String, f64)> = Vec::new();

    // ---- Epoch 1 (world 6): grow 4 → 6 active ranks mid-run ----------
    let pr = Arc::clone(&prob);
    let world6 = SimWorld::new(6, model);
    let out = world6.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&pr))
            .baseline()
            .active_ranks(4)
            .build(comm);
        if s.is_active() {
            s.worker_mut().sddmm();
        }
        let mut losses = vec![("initial (p=4)".to_string(), s.stored_loss())];
        for k in 0..2 {
            let l = if s.is_active() {
                sweep(&mut s)
            } else {
                // Spares answer the world-collective loss reduction but
                // hold no rows and skip the active-only ALS exchanges.
                s.stored_loss()
            };
            losses.push((format!("sweep {k} (p=4)"), l));
        }
        s.resize(6); // grow: the two spares are drafted in
        losses.push(("after resize 4→6".to_string(), s.stored_loss()));
        for k in 2..4 {
            let l = sweep(&mut s);
            losses.push((format!("sweep {k} (p=6)"), l));
        }
        let a = s.a_iterate();
        let b = s.b_iterate();
        let labels: Vec<String> = losses.iter().map(|(t, _)| t.clone()).collect();
        let values: Vec<f64> = losses.iter().map(|(_, l)| *l).collect();
        (
            (a.into_vec(), b.into_vec()),
            (labels.join("|"), values),
            block_range(M, 6, comm.rank()).len(),
        )
    });
    // The outcome broadcast is the checkpoint transport: every process
    // reassembles the identical global factors.
    let a_ckpt = Arc::new(assemble(
        out.iter()
            .map(|o| (o.value.0 .0.clone(), o.value.2))
            .collect(),
        R,
    ));
    let b_ckpt = Arc::new(assemble(
        out.iter()
            .enumerate()
            .map(|(r, o)| (o.value.0 .1.clone(), block_range(N, 6, r).len()))
            .collect(),
        R,
    ));
    let labels: Vec<String> = out[0].value.1 .0.split('|').map(str::to_string).collect();
    for (t, l) in labels.iter().zip(&out[0].value.1 .1) {
        trajectory.push((t.clone(), *l));
    }
    let loss_ckpt = *out[0].value.1 .1.last().unwrap();

    // ---- Epoch 2 (world 6): rank 2 dies mid-sweep --------------------
    let pr = Arc::clone(&prob);
    let (ac, bc) = (Arc::clone(&a_ckpt), Arc::clone(&b_ckpt));
    // The simulated failure is an expected panic on the in-memory
    // backends; keep the demo's stderr clean.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = world6
        .try_run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&pr)).baseline().build(comm);
            s.commit_a(&ac.rows_block(block_range(M, 6, comm.rank())));
            s.commit_b(&bc.rows_block(block_range(N, 6, comm.rank())));
            s.worker_mut().sddmm();
            let _ = sweep(&mut s);
            if comm.rank() == 2 {
                if backend == BackendKind::Socket && is_worker_process() {
                    std::process::exit(3); // a real node failure
                }
                panic!("simulated node failure");
            }
            sweep(&mut s)
        })
        .expect_err("the epoch must abort when a rank dies");
    std::panic::set_hook(default_hook);
    assert_eq!(err.dead, vec![2], "the abort names the dead rank: {err}");
    trajectory.push((format!("[rank 2 died: epoch aborted — {err}]"), f64::NAN));

    // ---- Epoch 3 (world 5): restore the checkpoint, resize onto the
    // survivors, and finish --------------------------------------------
    let pr = Arc::clone(&prob);
    let (ac, bc) = (Arc::clone(&a_ckpt), Arc::clone(&b_ckpt));
    let world5 = SimWorld::new(5, model);
    let out = world5.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&pr))
            .baseline()
            .active_ranks(4)
            .build(comm);
        if s.is_active() {
            s.commit_a(&ac.rows_block(block_range(M, 4, comm.rank())));
            s.commit_b(&bc.rows_block(block_range(N, 4, comm.rank())));
            s.worker_mut().sddmm();
        }
        let restored = s.stored_loss();
        s.resize(5);
        let resized = s.stored_loss();
        let mut finals = Vec::new();
        for k in 4..6 {
            finals.push((format!("sweep {k} (p=5)"), sweep(&mut s)));
        }
        let labels: Vec<String> = finals.iter().map(|(t, _)| t.clone()).collect();
        let values: Vec<f64> = finals.iter().map(|(_, l)| *l).collect();
        let a = s.a_iterate();
        let b = s.b_iterate();
        (
            restored,
            resized,
            (labels.join("|"), values),
            (a.into_vec(), b.into_vec()),
        )
    });
    let (restored, resized, _, _) = &out[0].value;
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1.0);
    assert!(
        rel(loss_ckpt, *restored) <= 1e-9,
        "checkpoint restore must preserve the loss: {loss_ckpt} vs {restored}"
    );
    trajectory.push(("restored on survivors (p=4 of 5)".to_string(), *restored));
    trajectory.push(("after resize 4→5".to_string(), *resized));
    let labels: Vec<String> = out[0].value.2 .0.split('|').map(str::to_string).collect();
    for (t, l) in labels.iter().zip(&out[0].value.2 .1) {
        trajectory.push((t.clone(), *l));
    }
    let loss_ckpt = *out[0].value.2 .1.last().unwrap();
    let a_ckpt = Arc::new(assemble(
        out.iter()
            .enumerate()
            .map(|(r, o)| (o.value.3 .0.clone(), block_range(M, 5, r).len()))
            .collect(),
        R,
    ));
    let b_ckpt = Arc::new(assemble(
        out.iter()
            .enumerate()
            .map(|(r, o)| (o.value.3 .1.clone(), block_range(N, 5, r).len()))
            .collect(),
        R,
    ));

    // ---- Epoch 4 (world 6): grow back — the 5 survivors plus a fresh
    // process restore the checkpoint and resize onto all 6 ---------------
    let pr = Arc::clone(&prob);
    let out = world6.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&pr))
            .baseline()
            .active_ranks(5)
            .build(comm);
        if s.is_active() {
            s.commit_a(&a_ckpt.rows_block(block_range(M, 5, comm.rank())));
            s.commit_b(&b_ckpt.rows_block(block_range(N, 5, comm.rank())));
            s.worker_mut().sddmm();
        }
        let restored = s.stored_loss();
        s.resize(6);
        let resized = s.stored_loss();
        let finals: Vec<f64> = (6..8).map(|_| sweep(&mut s)).collect();
        (restored, resized, finals)
    });
    let (restored, resized, finals) = &out[0].value;
    assert!(
        rel(loss_ckpt, *restored) <= 1e-9 && rel(*restored, *resized) <= 1e-9,
        "growing back must preserve the loss: {loss_ckpt} -> {restored} -> {resized}"
    );
    trajectory.push(("restored, grown back (p=5 of 6)".to_string(), *restored));
    trajectory.push(("after resize 5→6".to_string(), *resized));
    for (k, l) in (6..8).zip(finals) {
        trajectory.push((format!("sweep {k} (p=6)"), *l));
    }

    // Workers re-run this whole program; only the launcher narrates.
    if !is_worker_process() {
        println!("elastic fleet on backend {backend:?} — loss trajectory:");
        for (label, loss) in &trajectory {
            if loss.is_nan() {
                println!("  {label}");
            } else {
                println!("  {label:<32} {loss:.6e}");
            }
        }
        println!(
            "resize points (4→6, restore, 4→5, restore, 5→6) agree to 1e-9 relative; \
             all other points are bit-reproducible across backends"
        );
        if let Some(path) = distributed_sparse_kernels::comm::trace::configured_path() {
            println!("trace written to {} (open in Perfetto)", path.display());
        }
        println!("elastic_fleet OK");
    }
}
