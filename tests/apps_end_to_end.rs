//! Integration: the applications produce family-independent results —
//! the same ALS losses and the same GAT outputs no matter which
//! distributed algorithm runs underneath.

use std::sync::Arc;

use distributed_sparse_kernels::apps::{
    gat::gat_forward_reference, run_als, AlsConfig, AppEngine, GatConfig, GatEngine, GatHead,
};
use distributed_sparse_kernels::comm::{MachineModel, SimWorld};
use distributed_sparse_kernels::core::session::Session;
use distributed_sparse_kernels::core::{AlgorithmFamily, Elision, GlobalProblem};
use distributed_sparse_kernels::dense::ops::row_dot;
use distributed_sparse_kernels::dense::Mat;
use distributed_sparse_kernels::sparse::gen;

fn completion_problem(n: usize, r: usize, seed: u64) -> GlobalProblem {
    let a_true = Mat::random(n, r, seed);
    let b_true = Mat::random(n, r, seed + 1);
    let mut s = gen::erdos_renyi(n, n, 5, seed + 2);
    s.vals = s
        .iter()
        .map(|(i, j, _)| row_dot(&a_true, i, &b_true, j))
        .collect();
    GlobalProblem::new(s, Mat::random(n, r, seed + 3), Mat::random(n, r, seed + 4))
}

const CASES: [(AlgorithmFamily, usize, Elision); 5] = [
    (AlgorithmFamily::DenseShift15, 2, Elision::LocalKernelFusion),
    (AlgorithmFamily::DenseShift15, 4, Elision::ReplicationReuse),
    (AlgorithmFamily::SparseShift15, 2, Elision::ReplicationReuse),
    (AlgorithmFamily::DenseRepl25, 2, Elision::ReplicationReuse),
    (AlgorithmFamily::SparseRepl25, 2, Elision::None),
];

#[test]
fn als_final_loss_is_family_independent() {
    let prob = Arc::new(completion_problem(32, 4, 600));
    let mut losses = Vec::new();
    for (family, c, elision) in CASES {
        let pr = Arc::clone(&prob);
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut eng = AppEngine::new(
                Session::builder(&pr)
                    .family(family)
                    .replication(c)
                    .elision(elision)
                    .build(comm),
            );
            run_als(
                &mut eng,
                &AlsConfig {
                    lambda: 0.02,
                    cg_iters: 6,
                    sweeps: 1,
                    track_loss: true,
                },
            )
        });
        let rep = &out[0].value;
        assert!(
            rep.final_loss.unwrap() < rep.initial_loss.unwrap(),
            "{family:?} did not reduce loss"
        );
        losses.push(rep.final_loss.unwrap());
    }
    for l in &losses[1..] {
        assert!(
            (l - losses[0]).abs() < 1e-6 * losses[0].max(1e-9),
            "family losses diverge: {losses:?}"
        );
    }
}

#[test]
fn gat_norm_is_family_independent_and_matches_reference() {
    let n = 32;
    let r = 6;
    let s = gen::erdos_renyi(n, n, 4, 601);
    let h = Mat::random(n, r, 602);
    let prob = Arc::new(GlobalProblem::new(s, h.clone(), h));
    let cfg = GatConfig {
        heads: 2,
        negative_slope: 0.2,
    };
    let heads: Vec<GatHead> = (0..2).map(|i| GatHead::random(r, 610 + i)).collect();
    let reference = gat_forward_reference(&prob, &heads, &cfg);
    let ref_sq: f64 = reference.as_slice().iter().map(|v| v * v).sum();

    for (family, c, _) in CASES {
        if matches!(family, AlgorithmFamily::DenseShift15) && c == 4 {
            continue; // one config per family is enough here
        }
        let pr = Arc::clone(&prob);
        let hh = heads.clone();
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut eng = GatEngine::new(
                Session::builder(&pr)
                    .family(family)
                    .replication(c)
                    .build(comm),
            );
            let local = eng.forward(&hh, &cfg);
            local.as_slice().iter().map(|v| v * v).sum::<f64>()
        });
        let got: f64 = out.iter().map(|o| o.value).sum();
        // Every family's output blocks are disjoint across ranks (sr25's
        // A panels too), so the sum covers the matrix once.
        assert!(
            (got - ref_sq).abs() < 1e-6 * ref_sq.max(1.0),
            "{family:?}: ‖out‖² {got} vs reference {ref_sq}"
        );
    }
}

#[test]
fn als_improves_monotonically_across_sweeps() {
    let prob = Arc::new(completion_problem(24, 3, 620));
    let mut finals = Vec::new();
    for sweeps in [1usize, 3] {
        let pr = Arc::clone(&prob);
        let world = SimWorld::new(4, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut eng = AppEngine::new(
                Session::builder(&pr)
                    .family(AlgorithmFamily::DenseShift15)
                    .replication(2)
                    .elision(Elision::ReplicationReuse)
                    .build(comm),
            );
            run_als(
                &mut eng,
                &AlsConfig {
                    lambda: 0.02,
                    cg_iters: 5,
                    sweeps,
                    track_loss: true,
                },
            )
        });
        finals.push(out[0].value.final_loss.unwrap());
    }
    assert!(
        finals[1] <= finals[0] * 1.001,
        "more sweeps should not hurt: {finals:?}"
    );
}
