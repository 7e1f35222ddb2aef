//! Collaborative filtering demo: recover a low-rank ratings matrix from
//! sparse observations with distributed alternating least squares.
//!
//! A planted rank-r factorization generates ratings; we observe a few
//! entries per user, then run ALS (batched CG, one FusedMM per
//! iteration) on a simulated 16-rank machine. On the 1.5D dense shift
//! each factor crosses its ring once per sweep: the right-hand-side
//! round ships the fixed factor and every FusedMM of the solve replays
//! its tiles. Exits nonzero unless the loss drops on every family and
//! the 1.5D dense shift's propagation words per sweep are exactly
//! `2·(q − 1)·⌈n/p⌉·r`; prints each family's.
//!
//! ```text
//! cargo run --release --example als_collab_filter
//! ```

use std::sync::Arc;

use distributed_sparse_kernels::apps::{run_als, AlsConfig, AppEngine};
use distributed_sparse_kernels::comm::{AggregateStats, MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::session::Session;
use distributed_sparse_kernels::core::{AlgorithmFamily, Elision, GlobalProblem, StagedProblem};
use distributed_sparse_kernels::dense::ops::row_dot;
use distributed_sparse_kernels::dense::Mat;
use distributed_sparse_kernels::sparse::gen;

/// ALS sweeps per family.
const SWEEPS: usize = 2;
/// Simulated ranks.
const RANKS: usize = 16;

fn main() {
    // Plant a rank-8 "taste" model: 2048 users × 2048 items.
    let (users, items, rank) = (2048usize, 2048usize, 8usize);
    let a_true = Mat::random(users, rank, 1);
    let b_true = Mat::random(items, rank, 2);
    // Observe 12 ratings per user.
    let mut s = gen::erdos_renyi(users, items, 12, 3);
    let ratings: Vec<f64> = s
        .iter()
        .map(|(i, j, _)| row_dot(&a_true, i, &b_true, j))
        .collect();
    s.vals = ratings;
    // Fresh random factors to optimize.
    let prob = Arc::new(GlobalProblem::new(
        s,
        Mat::random(users, rank, 4),
        Mat::random(items, rank, 5),
    ));
    println!(
        "observations: {} ratings of {}×{} (density {:.2}%)",
        prob.nnz(),
        users,
        items,
        100.0 * prob.nnz() as f64 / (users * items) as f64
    );

    for (family, elision, c) in [
        (AlgorithmFamily::DenseShift15, Elision::LocalKernelFusion, 4),
        (AlgorithmFamily::SparseShift15, Elision::ReplicationReuse, 4),
    ] {
        let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
        let world = SimWorld::new(RANKS, MachineModel::cori_knl());
        let outcomes = world.run(move |comm| {
            let mut engine = AppEngine::new(
                Session::builder_staged(Arc::clone(&staged))
                    .family(family)
                    .replication(c)
                    .elision(elision)
                    .build(comm),
            );
            let cfg = AlsConfig {
                lambda: 0.02,
                cg_iters: 10,
                sweeps: SWEEPS,
                track_loss: false,
            };
            let prop_words =
                |e: &AppEngine| e.session().stats().phase(Phase::Propagation).words_sent;
            // The losses are taken outside the counted window, so the
            // words below are the sweeps' alone.
            let initial = engine.loss();
            let before = prop_words(&engine);
            let residuals = run_als(&mut engine, &cfg).phase_residuals;
            let words_per_sweep = (prop_words(&engine) - before) / SWEEPS as u64;
            (initial, engine.loss(), residuals, words_per_sweep)
        });
        let (initial, last, residuals, _) = &outcomes[0].value;
        let words_per_sweep = outcomes.iter().map(|o| o.value.3).max().unwrap_or(0);
        let stats: Vec<_> = outcomes.iter().map(|o| o.stats.clone()).collect();
        let agg = AggregateStats::from_ranks(&stats);
        println!("\n== {family:?} / {elision:?} (c = {c}) ==");
        println!(
            "  squared loss: {initial:.4e} → {last:.4e}  ({:.0}× reduction)",
            initial / last.max(1e-30)
        );
        assert!(
            last < initial,
            "{family:?}: ALS did not reduce the loss ({initial:e} → {last:e})"
        );
        println!("  propagation words per sweep (busiest rank): {words_per_sweep}");
        if family == AlgorithmFamily::DenseShift15 {
            // users == items, so both factors' ring tiles are the same size.
            let q = RANKS / c;
            let once = 2 * (q - 1) * items.div_ceil(RANKS) * rank;
            assert_eq!(
                words_per_sweep, once as u64,
                "{family:?}: a factor moved around the ring more than once per sweep"
            );
        }
        println!(
            "  CG residuals per phase: {:?}",
            residuals
                .iter()
                .map(|r| format!("{r:.2e}"))
                .collect::<Vec<_>>()
        );
        println!(
            "  modeled time: kernels (repl {:.3e} + prop {:.3e} + comp {:.3e}) s, \
             outside (comm {:.3e} + comp {:.3e}) s",
            agg.modeled_s(Phase::Replication),
            agg.modeled_s(Phase::Propagation),
            agg.modeled_s(Phase::Computation),
            agg.modeled_s(Phase::OutsideComm),
            agg.modeled_s(Phase::OutsideCompute),
        );
    }
    println!("\nals_collab_filter OK");
}
