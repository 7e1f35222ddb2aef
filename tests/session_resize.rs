//! Integration: elastic resize. [`Session::resize`] re-plans onto a
//! *different process count* and redistributes live iterates and R
//! values across the two worlds' grids with loss continuity — the
//! acceptance contract of the elastic-fleet subsystem.
//!
//! Loss continuity at a resize boundary is bit-level in the state (the
//! resize moves every stored R value and iterate entry exactly once)
//! but the *reduction* that sums the loss regroups when `p` changes,
//! so the asserted tolerance is the usual 1e-9 relative bound — the
//! "documented resize points" caveat of the bit-reproducible loss
//! trajectory.

use std::sync::Arc;

use distributed_sparse_kernels::comm::{BackendKind, MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::session::Session;
use distributed_sparse_kernels::core::theory::Algorithm;
use distributed_sparse_kernels::core::{AlgorithmFamily, Elision, GlobalProblem, Sampling};

const WORLD: usize = 6;

/// (family pin, c) pairs valid on the 4-rank starting roster; `None`
/// pins the 1D baseline.
fn starting_plans() -> Vec<(Option<AlgorithmFamily>, usize)> {
    vec![
        (Some(AlgorithmFamily::DenseShift15), 2),
        (Some(AlgorithmFamily::SparseShift15), 2),
        (Some(AlgorithmFamily::DenseRepl25), 1),
        (Some(AlgorithmFamily::SparseRepl25), 1),
        (None, 1),
    ]
}

fn continuous(before: f64, after: f64) -> bool {
    (before - after).abs() <= 1e-9 * before.abs().max(1.0)
}

/// Every family round-trips `p → p+1 → p → p−1` with loss continuity
/// at every boundary and a working fused call at the end, on every
/// backend (the socket leg runs via the `DSK_COMM_BACKEND` CI matrix).
#[test]
fn every_family_resizes_across_p_grids_with_loss_continuity() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(48, 48, 6, 4, 9501));
    for backend in BackendKind::conformance_with_env() {
        for (family, c) in starting_plans() {
            let pr = Arc::clone(&prob);
            let world = SimWorld::new(WORLD, MachineModel::bandwidth_only()).backend(backend);
            let out = world.run(move |comm| {
                let builder = Session::builder_arc(Arc::clone(&pr)).active_ranks(4);
                let builder = match family {
                    Some(f) => builder.family(f).replication(c),
                    None => builder.baseline(),
                };
                let mut s = builder.build(comm);
                // Store R so every resize also exercises the sparse
                // redistribution path.
                if s.is_active() {
                    s.worker_mut().sddmm();
                }
                let mut losses = vec![s.stored_loss()];
                let mut ok = true;
                for p_new in [5, 4, 3] {
                    s.resize(p_new);
                    ok &= s.active_p() == p_new && s.is_active() == (comm.rank() < p_new);
                    losses.push(s.stored_loss());
                }
                // The shrunk session must still compute: one fused call
                // on the survivors.
                let finite = if s.is_active() {
                    let y = s.fused_mm_b(None, Sampling::Values);
                    y.as_slice().iter().all(|v| v.is_finite())
                } else {
                    true
                };
                (losses, ok, finite)
            });
            assert_eq!(out.len(), WORLD, "{backend:?} {family:?}");
            for o in &out {
                let (losses, ok, finite) = &o.value;
                assert!(
                    losses[0] > 0.0,
                    "{backend:?} {family:?}: loss must be nonzero"
                );
                for (i, w) in losses.windows(2).enumerate() {
                    assert!(
                        continuous(w[0], w[1]),
                        "{backend:?} {family:?} rank {} boundary {i}: {} -> {}",
                        o.rank,
                        w[0],
                        w[1]
                    );
                }
                assert!(
                    ok,
                    "{backend:?} {family:?} rank {}: roster bookkeeping",
                    o.rank
                );
                assert!(finite, "{backend:?} {family:?} rank {}", o.rank);
            }
        }
    }
}

/// Growing must activate spares with real state: after `resize(6)` the
/// former spares hold iterate rows, and the global iterate mass
/// (Frobenius²) is unchanged by the move.
#[test]
fn grow_activates_spares_with_exact_iterate_mass() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(48, 48, 6, 4, 9502));
    let world = SimWorld::new(WORLD, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob))
            .active_ranks(4)
            .build(comm);
        let mass = |s: &Session| {
            let local: f64 = if s.is_active() {
                s.a_iterate().as_slice().iter().map(|v| v * v).sum()
            } else {
                0.0
            };
            s.world().allreduce_scalar(local)
        };
        let was_spare = !s.is_active();
        let before = mass(&s);
        s.resize(6);
        let rows_here = s.a_iterate().nrows();
        (was_spare, before, mass(&s), rows_here)
    });
    let spares: Vec<_> = out.iter().filter(|o| o.value.0).collect();
    assert_eq!(spares.len(), 2, "ranks 4 and 5 start as spares");
    for o in &out {
        let (_, before, after, rows) = o.value;
        assert!(
            continuous(before, after),
            "rank {}: iterate mass {before} -> {after}",
            o.rank
        );
        assert!(
            rows > 0,
            "rank {} must hold iterate rows after grow",
            o.rank
        );
    }
}

/// Redistribution traffic is owner-targeted: the words charged to
/// `Phase::Resize` stay `O(c·nnz + (m+n)·r)` — triplets travel only to
/// the ranks whose new cells hold them, never through an all-gather —
/// and the accounting is identical on the in-memory wire backend
/// (backend invariance).
#[test]
fn resize_traffic_is_owner_targeted_and_backend_invariant() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(48, 48, 6, 4, 9503));
    let (m, n, r) = (48usize, 48usize, 6usize);
    let nnz = prob.nnz();
    let mut per_backend = Vec::new();
    for backend in [BackendKind::InProc, BackendKind::Wire] {
        let pr = Arc::clone(&prob);
        let world = SimWorld::new(WORLD, MachineModel::bandwidth_only()).backend(backend);
        let out = world.run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&pr))
                .active_ranks(4)
                .max_replication(4)
                .build(comm);
            if s.is_active() {
                s.worker_mut().sddmm();
            }
            let before = s.stats().phase(Phase::Resize).words_sent;
            let plan = s.resize(5);
            (s.stats().phase(Phase::Resize).words_sent - before, plan.c)
        });
        let total: u64 = out.iter().map(|o| o.value.0).sum();
        let c_new = out[0].value.1.max(1);
        // Triplets are ≤ 3 words each and land on at most c_new
        // replicas; the two dense iterates move at most (m+n)·r words;
        // the plan broadcast and observation all-reduce are O(p) small
        // frames. Generous constant, but strictly below any
        // allgather-shaped O(p·nnz) blowup.
        let bound = (3 * c_new * nnz + 2 * (m + n) * r + 64 * WORLD) as u64;
        assert!(
            total <= bound,
            "{backend:?}: resize moved {total} words, bound {bound}"
        );
        assert!(total > 0, "{backend:?}: resize must move state");
        per_backend.push(total);
    }
    assert_eq!(
        per_backend[0], per_backend[1],
        "word accounting must be backend-invariant"
    );
}

/// Shrinking retires the highest ranks: they keep answering world
/// collectives (loss) but panic on kernel calls, and a later grow
/// drafts them back in with continuous loss.
#[test]
fn shrink_then_regrow_round_trips_spare_state() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(48, 48, 6, 4, 9504));
    let world = SimWorld::new(4, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob)).build(comm);
        s.worker_mut().sddmm();
        let l0 = s.stored_loss();
        s.resize(3);
        let retired = !s.is_active();
        let l1 = s.stored_loss();
        s.resize(4);
        let l2 = s.stored_loss();
        // Everyone is active again and computes.
        let y = s.fused_mm_b(None, Sampling::Values);
        (
            l0,
            l1,
            l2,
            retired,
            y.as_slice().iter().all(|v| v.is_finite()),
        )
    });
    assert_eq!(
        out.iter().filter(|o| o.value.3).count(),
        1,
        "rank 3 retires"
    );
    for o in &out {
        let (l0, l1, l2, _, finite) = o.value;
        assert!(continuous(l0, l1), "shrink boundary: {l0} -> {l1}");
        assert!(continuous(l1, l2), "grow boundary: {l1} -> {l2}");
        assert!(finite);
    }
}

/// A resize lands in `Phase::Resize` only — the migration bucket (a
/// family change at fixed `p`) stays untouched — and, conversely, a
/// migration in the same session lands in `Phase::Migration` only, so
/// bench breakdowns keep the two stories separate.
#[test]
fn resize_traffic_never_leaks_into_migration_bucket() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(48, 48, 6, 4, 9505));
    let world = SimWorld::new(WORLD, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob))
            .active_ranks(4)
            .build(comm);
        if s.is_active() {
            s.worker_mut().sddmm();
        }
        let words = |s: &Session, phase| s.stats().phase(phase).words_sent;
        let mig_before = words(&s, Phase::Migration);
        s.resize(6);
        let resize_leak = words(&s, Phase::Migration) - mig_before;
        let resize_words = words(&s, Phase::Resize);
        // Everyone is active now: migrate to the other 1.5D family.
        let target = match s.plan().id.family() {
            Some(AlgorithmFamily::DenseShift15) => AlgorithmFamily::SparseShift15,
            _ => AlgorithmFamily::DenseShift15,
        };
        let mig_before = words(&s, Phase::Migration);
        s.migrate(Algorithm::new(target, Elision::ReplicationReuse), 2);
        (
            resize_leak,
            resize_words,
            words(&s, Phase::Resize) - resize_words,
            words(&s, Phase::Migration) - mig_before,
        )
    });
    for o in &out {
        assert_eq!(o.value.0, 0, "rank {}: migration bucket leaked", o.rank);
        assert_eq!(o.value.2, 0, "rank {}: resize bucket leaked", o.rank);
    }
    assert!(
        out.iter().map(|o| o.value.1).sum::<u64>() > 0,
        "resize words must be accounted"
    );
    assert!(
        out.iter().map(|o| o.value.3).sum::<u64>() > 0,
        "migration words must be accounted"
    );
}
