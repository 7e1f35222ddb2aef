//! Integration: adaptive sessions re-plan against the *observed*
//! problem and migrate live state across algorithm families mid-run
//! with exact loss continuity — the acceptance contract of the
//! runtime-re-planning API.

use std::sync::Arc;

use distributed_sparse_kernels::apps::{run_als, AlsConfig, AppEngine};
use distributed_sparse_kernels::comm::{MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::session::{ReplanPolicy, Session};
use distributed_sparse_kernels::core::{AlgorithmFamily, Elision, GlobalProblem};
use distributed_sparse_kernels::dense::ops::row_dot;
use distributed_sparse_kernels::dense::Mat;
use distributed_sparse_kernels::sparse::gen;

fn completion_problem(n: usize, r: usize, nnz_per_row: usize, seed: u64) -> GlobalProblem {
    let a_true = Mat::random(n, r, seed);
    let b_true = Mat::random(n, r, seed + 1);
    let mut s = gen::erdos_renyi(n, n, nnz_per_row, seed + 2);
    s.vals = s
        .iter()
        .map(|(i, j, _)| row_dot(&a_true, i, &b_true, j))
        .collect();
    GlobalProblem::new(s, Mat::random(n, r, seed + 3), Mat::random(n, r, seed + 4))
}

/// Aggressive pruning collapses the observed φ across the Figure 6
/// phase boundary: a dense-shifting session must migrate to a sparse
/// family, carrying iterates and R values across with an identical
/// stored loss.
#[test]
fn pruning_triggers_cross_family_migration_with_loss_continuity() {
    // φ = 16/8 = 2.0 — squarely on the dense-shifting side.
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 16, 8001));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob))
            .family(AlgorithmFamily::DenseShift15)
            .replication(2)
            .build(comm);
        s.worker_mut().sddmm();
        // The application prunes everything below a huge threshold —
        // the observed nonzero count collapses to (near) zero, so the
        // effective φ crosses the Fig. 6 boundary.
        s.map_r(&mut |v| if v.abs() < 1e9 { 0.0 } else { v });
        let loss_before = s.stored_loss();
        let a_before = s.a_iterate();
        let policy = ReplanPolicy { hysteresis: 1.05 };
        let ev = s.replan(&policy);
        let loss_after = s.stored_loss();
        // The session keeps running on the new family.
        let fused = s.fused_mm_b(None, distributed_sparse_kernels::core::Sampling::Values);
        let finite = fused.as_slice().iter().all(|v| v.is_finite());
        let migration_words = s.stats().phase(Phase::Migration).words_sent;
        (
            ev,
            loss_before,
            loss_after,
            a_before.as_slice().iter().map(|v| v * v).sum::<f64>(),
            s.a_iterate().as_slice().iter().map(|v| v * v).sum::<f64>(),
            finite,
            migration_words,
        )
    });
    for o in &out {
        let (ev, before, after, _, _, finite, _) = &o.value;
        assert!(ev.migrated, "pruning must trigger a migration: {ev:?}");
        assert_ne!(ev.from.id, ev.to.id, "must move to a different family");
        assert_eq!(
            ev.from.id.family(),
            Some(AlgorithmFamily::DenseShift15),
            "source plan"
        );
        assert!(
            matches!(
                ev.to.id.family(),
                Some(AlgorithmFamily::SparseShift15) | Some(AlgorithmFamily::SparseRepl25)
            ),
            "observed φ ≈ 0 must land on a sparse family, got {:?}",
            ev.to.id
        );
        assert!(ev.observed_nnz == 0, "all values pruned");
        assert!(
            (before - after).abs() <= 1e-9 * before.abs().max(1.0),
            "loss discontinuity across migration: {before} vs {after}"
        );
        assert!(finite, "post-migration fused call must run");
    }
    // Iterate content is preserved (sum of squares is layout-invariant
    // across the migration's repartition).
    let before: f64 = out.iter().map(|o| o.value.3).sum();
    let after: f64 = out.iter().map(|o| o.value.4).sum();
    assert!(
        (before - after).abs() <= 1e-9 * before.max(1.0),
        "iterate norm changed across migration: {before} vs {after}"
    );
    // The migration must have moved real words in its own phase.
    let words: u64 = out.iter().map(|o| o.value.6).sum();
    assert!(words > 0, "migration traffic must be charged to its phase");
}

/// Mid-run migration must not perturb the optimization: ALS run
/// entirely on 1.5D dense shifting and ALS that migrates to a sparse
/// family between sweeps converge to the same loss.
#[test]
fn als_with_midrun_migration_matches_static_run() {
    let prob = Arc::new(completion_problem(32, 4, 6, 8002));
    let cfg = AlsConfig {
        lambda: 0.02,
        cg_iters: 5,
        sweeps: 1,
        track_loss: false,
    };

    // Reference: two static sweeps on ds15.
    let pr = Arc::clone(&prob);
    let cfg2 = cfg;
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let reference = world.run(move |comm| {
        let mut eng = AppEngine::new(
            Session::builder_arc(Arc::clone(&pr))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2)
                .elision(Elision::ReplicationReuse)
                .build(comm),
        );
        run_als(&mut eng, &cfg2);
        run_als(&mut eng, &cfg2);
        eng.loss()
    })[0]
        .value;

    // Adaptive: one sweep, aggressive pruning + replan (migrates), one
    // more sweep on the new family.
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut eng = AppEngine::new(
            Session::builder_arc(Arc::clone(&prob))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2)
                .elision(Elision::ReplicationReuse)
                .build(comm),
        );
        run_als(&mut eng, &cfg);
        // Observe, prune, replan: the observed φ collapse forces a
        // cross-family migration of the live factors.
        eng.session_mut().loss();
        eng.session_mut().map_r(&mut |_| 0.0);
        let ev = eng.session_mut().replan(&ReplanPolicy { hysteresis: 1.0 });
        run_als(&mut eng, &cfg);
        (ev.migrated, eng.session().migrations(), eng.loss())
    });
    for o in &out {
        assert!(o.value.0, "replan must migrate after total pruning");
        assert_eq!(o.value.1, 1);
        assert!(
            (o.value.2 - reference).abs() <= 1e-6 * reference.max(1e-9),
            "adaptive ALS diverged from static run: {} vs {reference}",
            o.value.2
        );
    }
}

/// The R redistribution is owner-targeted: each exported triplet
/// travels only to the ranks whose destination cells hold it, so
/// total `Phase::Migration` traffic stays `O(c·nnz)` — strictly below
/// the `(p-1)·3·nnz` words the old allgather scheme moved for the R
/// values alone (before even counting iterate repartitioning).
#[test]
fn migration_traffic_is_owner_targeted_not_allgather() {
    let p = 8usize;
    // Dense observation pattern so R traffic dominates iterates.
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 4, 24, 8004));
    let nnz = prob.nnz();
    let world = SimWorld::new(p, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob))
            .family(AlgorithmFamily::DenseShift15)
            .replication(2)
            .build(comm);
        s.worker_mut().sddmm();
        let loss_before = s.stored_loss();
        s.migrate(
            distributed_sparse_kernels::core::theory::Algorithm::new(
                AlgorithmFamily::SparseShift15,
                Elision::ReplicationReuse,
            ),
            2,
        );
        (
            s.stats().phase(Phase::Migration).words_sent,
            loss_before,
            s.stored_loss(),
        )
    });
    for o in &out {
        assert!(
            (o.value.1 - o.value.2).abs() <= 1e-9 * o.value.1.abs().max(1.0),
            "loss must survive the targeted redistribution"
        );
    }
    let total: u64 = out.iter().map(|o| o.value.0).sum();
    let old_allgather_floor = ((p - 1) * 3 * nnz) as u64;
    assert!(total > 0, "migration must move words");
    assert!(
        total < old_allgather_floor,
        "owner-targeted migration moved {total} words — not below the \
         {old_allgather_floor}-word floor of the old O(p·nnz) allgather"
    );
    // ss15 partitions R without replication: the R leg is ≈ 3·nnz words,
    // so even with iterate repartitioning and the observation all-reduce
    // the total stays within a small multiple of 3·nnz.
    assert!(
        total < (6 * 3 * nnz) as u64,
        "migration traffic {total} is not O(nnz) (nnz = {nnz})"
    );
}

/// A session changes plan only when its caller asks: stored-operand
/// fused calls after total pruning leave the plan alone, and the first
/// explicit `replan` then migrates across the Fig. 6 boundary.
#[test]
fn fused_calls_never_replan_on_their_own() {
    use distributed_sparse_kernels::core::Sampling;
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 16, 8005));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob))
            .family(AlgorithmFamily::DenseShift15)
            .replication(2)
            .build(comm);
        let built = s.plan();
        s.worker_mut().sddmm();
        s.map_r(&mut |_| 0.0);
        for _ in 0..8 {
            let _ = s.fused_mm_b(None, Sampling::Values);
        }
        let (logged, migrations, unchanged) =
            (s.replan_log().len(), s.migrations(), s.plan() == built);
        let ev = s.replan(&ReplanPolicy { hysteresis: 1.05 });
        (logged, migrations, unchanged, ev)
    });
    for o in &out {
        let (logged, migrations, unchanged, ev) = &o.value;
        assert_eq!(*logged, 0, "fused calls must not log a decision");
        assert_eq!(*migrations, 0, "fused calls must not migrate");
        assert!(unchanged, "the built plan stays in force until replan");
        assert!(ev.migrated, "the explicit replan must migrate: {ev:?}");
        assert!(
            matches!(
                ev.to.id.family(),
                Some(AlgorithmFamily::SparseShift15) | Some(AlgorithmFamily::SparseRepl25)
            ),
            "total pruning must land on a sparse family, got {:?}",
            ev.to.id
        );
    }
}

/// An elision override keeps the session's plan one the planner can
/// produce: an elided plan is dense-routed, so the first replan prices
/// it instead of treating it as unmodeled.
#[test]
fn elision_override_builds_a_plan_replan_can_price() {
    use distributed_sparse_kernels::core::theory::Algorithm;
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 16, 1, 77));
    for (family, elision) in [
        (AlgorithmFamily::DenseShift15, Elision::LocalKernelFusion),
        (AlgorithmFamily::DenseShift15, Elision::ReplicationReuse),
        (AlgorithmFamily::DenseRepl25, Elision::ReplicationReuse),
    ] {
        let pr = Arc::clone(&prob);
        let world = SimWorld::new(8, MachineModel::bandwidth_only());
        let out = world.run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&pr))
                .family(family)
                .elision(elision)
                .build(comm);
            let plan = s.plan();
            (plan, s.replan(&ReplanPolicy::default()))
        });
        for o in &out {
            let (plan, ev) = &o.value;
            assert!(
                Algorithm::new(family, plan.elision).admits(plan.routing),
                "{family:?} + {elision:?} built an inadmissible plan: {plan:?}"
            );
            assert!(
                ev.predicted_from_s.is_some(),
                "{family:?} + {elision:?}: replan could not price the built plan {plan:?}"
            );
            // The override was planned, not pasted onto another
            // algorithm's plan: the build priced what replan prices.
            assert_eq!(
                plan.predicted_comm_s, ev.predicted_from_s,
                "{family:?} + {elision:?}: the built plan {plan:?} is not the one replan priced"
            );
        }
    }
}

/// The replan log records non-migrating decisions too, and a fresh
/// auto-planned session never migrates away from its own optimum.
#[test]
fn replan_log_records_stay_decisions() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 8003));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob)).build(comm);
        let e1 = s.replan(&ReplanPolicy::default());
        let e2 = s.replan(&ReplanPolicy::default());
        (
            e1.migrated,
            e2.migrated,
            s.replan_log().len(),
            s.migrations(),
        )
    });
    for o in &out {
        assert!(!o.value.0 && !o.value.1);
        assert_eq!(o.value.2, 2, "every decision is logged");
        assert_eq!(o.value.3, 0);
    }
}

/// The session is the only owner of plan-dependent state: an
/// `AppEngine` whose session is re-planned under it (through
/// `session_mut()`, the engine never told) reduces its row dots over
/// the new family's row-sharing groups.
#[test]
fn self_migration_under_an_engine_updates_row_sharing_groups() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 16, 8006));
    let a_global = prob.a.clone();
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut eng = AppEngine::new(
            Session::builder_arc(Arc::clone(&prob))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2)
                .build(comm),
        );
        let share_before = eng.row_share_a();
        // Prune everything, then replan the session across the Fig. 6
        // boundary — the engine is never told.
        eng.session_mut().worker_mut().sddmm();
        eng.session_mut().map_r(&mut |_| 0.0);
        eng.session_mut().replan(&ReplanPolicy { hysteresis: 1.05 });
        let view = eng.session().worker().view();
        let me = eng.comm().rank();
        let group = (0..eng.comm().size())
            .filter(|&g| view.row_group_a(g) == view.row_group_a(me))
            .count();
        let x = eng.a_iterate();
        let dots = eng.row_dots_a(&x, &x);
        let rows: Vec<usize> = view
            .a_layout_of(me)
            .row_ranges
            .iter()
            .flat_map(|r| r.clone())
            .collect();
        (
            share_before,
            eng.session().migrations(),
            eng.session().plan().id.family(),
            eng.row_share_a(),
            group,
            (rows, dots),
        )
    });
    let serial: Vec<f64> = (0..a_global.nrows())
        .map(|i| row_dot(&a_global, i, &a_global, i))
        .collect();
    for o in &out {
        let (before, migrations, family, share, group, (rows, dots)) = &o.value;
        assert_eq!(*before, 1, "ds15 rows are whole");
        assert_eq!(*migrations, 1, "the replan must migrate");
        assert!(
            matches!(
                family,
                Some(AlgorithmFamily::SparseShift15) | Some(AlgorithmFamily::SparseRepl25)
            ),
            "observed φ ≈ 0 must land on a row-sharing family, got {family:?}"
        );
        assert!(*share > 1, "{family:?} splits iterate rows across ranks");
        assert_eq!(share, group, "rank {}: stale row-sharing group", o.rank);
        assert_eq!(rows.len(), dots.len());
        for (i, d) in rows.iter().zip(dots) {
            assert!(
                (d - serial[*i]).abs() <= 1e-9 * serial[*i].max(1.0),
                "rank {} row {i}: row dot {d} vs serial {}",
                o.rank,
                serial[*i]
            );
        }
    }
}
