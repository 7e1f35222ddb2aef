//! Adaptive ALS under aggressive pruning: the effective sparsity
//! crosses a Figure 6 phase boundary mid-run, and the session migrates
//! the live factors to the family that is now predicted cheapest —
//! printing every replan decision and the modeled time the migration
//! saves over the remaining iterations.
//!
//! The setup mirrors the SparCML observation that sparsity evolves over
//! training: the run starts dense-side (φ = nnz/(n·r) well above the
//! 1.5D crossover, so dense shifting wins) and after the first sweep
//! the application keeps only its strongest interactions
//! (top-magnitude sparsification). The *observed* φ collapses to the
//! sparse side;
//! `Session::replan` re-runs the planner against the observed problem
//! and migrates A/B iterates and R values to the sparse-shifting
//! family with zero loss discontinuity. The session changes plan only
//! at that call: fused calls never re-plan on their own.
//!
//! ```text
//! cargo run --release --example adaptive_pruning
//! ```

use std::sync::Arc;

use distributed_sparse_kernels::apps::{run_als, AlsConfig, AppEngine};
use distributed_sparse_kernels::comm::{MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::session::{ReplanPolicy, Session};
use distributed_sparse_kernels::core::{AlgorithmFamily, GlobalProblem};
use distributed_sparse_kernels::dense::ops::row_dot;
use distributed_sparse_kernels::dense::Mat;
use distributed_sparse_kernels::sparse::gen;

fn main() {
    // Plant a low-rank model with *many* observations per user:
    // φ = 24/16 = 1.5, squarely in dense-shifting territory at first.
    let (users, items, rank) = (1024usize, 1024usize, 16usize);
    let a_true = Mat::random(users, rank, 1);
    let b_true = Mat::random(items, rank, 2);
    let mut s = gen::erdos_renyi(users, items, 24, 3);
    s.vals = s
        .iter()
        .map(|(i, j, _)| row_dot(&a_true, i, &b_true, j))
        .collect();
    let prob = Arc::new(GlobalProblem::new(
        s,
        Mat::random(users, rank, 4),
        Mat::random(items, rank, 5),
    ));
    println!(
        "problem: {}×{} with {} observations, r = {rank}, φ = {:.3} (dense side)",
        users,
        items,
        prob.nnz(),
        prob.phi()
    );

    let p = 16;
    let cfg = AlsConfig {
        lambda: 0.02,
        cg_iters: 10,
        sweeps: 1,
        track_loss: false,
    };
    let policy = ReplanPolicy { hysteresis: 1.10 };
    // The remaining work after the migration: one more sweep of batched
    // CG = 2 · cg_iters fused calls.
    let remaining_fused_calls = 2 * cfg.cg_iters;

    // Bandwidth-only model: α = 0, β = 1 s/word, so every "seconds"
    // figure below reads directly as a word count — the quantity the
    // paper's Table III analysis ranks algorithms by.
    let world = SimWorld::new(p, MachineModel::bandwidth_only());
    let outcomes = world.run(move |comm| {
        let mut engine = AppEngine::new(
            Session::builder_arc(Arc::clone(&prob))
                .family(AlgorithmFamily::DenseShift15)
                .build(comm),
        );

        // Sweep 1 on the dense-shifting plan.
        let plan0 = engine.session().plan();
        run_als(&mut engine, &cfg);
        let loss_after_sweep1 = engine.loss();

        // Aggressive pruning: the loss() call left the raw dots in R;
        // keep only the strongest interactions (top-magnitude
        // sparsification, as in attention pruning / SparCML-style
        // gradient sparsification) and zero the rest.
        let threshold = 2.7;
        engine.session_mut().map_r(&mut |v| {
            if v.abs() < threshold {
                0.0
            } else {
                v
            }
        });
        let loss_before_replan = engine.session().stored_loss();

        // Re-plan against the observed (pruned) problem.
        let event = engine.session_mut().replan(&policy);
        let loss_after_replan = engine.session().stored_loss();

        // Sweep 2 continues on whatever family the session now runs.
        run_als(&mut engine, &cfg);
        let final_loss = engine.loss();
        let migration_stats = {
            let st = engine.session().stats();
            let c = st.phase(Phase::Migration);
            (c.words_sent, c.modeled_s)
        };
        (
            plan0,
            event,
            loss_after_sweep1,
            loss_before_replan,
            loss_after_replan,
            final_loss,
            migration_stats,
        )
    });

    let (plan0, event, l1, lb, la, lf, (mig_words, mig_s)) = &outcomes[0].value;
    println!("\ninitial plan: {} at c = {}", plan0.id.label(), plan0.c);
    println!("loss after sweep 1: {l1:.4e}");
    println!(
        "\npruning dropped the observed nnz to {} (φ = {:.4}) — replan says:",
        event.observed_nnz, event.observed_phi
    );
    println!(
        "  {} (c={}) → {} (c={}), predicted {:.3e}s → {:.3e}s per call \
         [migrated: {}]",
        event.from.id.label(),
        event.from.c,
        event.to.id.label(),
        event.to.c,
        event.predicted_from_s.unwrap_or(f64::NAN),
        event.predicted_to_s,
        event.migrated,
    );
    assert!(event.migrated, "the φ collapse must trigger a migration");
    assert_ne!(event.from.id, event.to.id);
    println!(
        "  loss continuity across the migration: {lb:.6e} → {la:.6e} (Δ = {:.1e})",
        (lb - la).abs()
    );
    let per_call = event.predicted_saving_s().unwrap_or(0.0);
    let saved = per_call * remaining_fused_calls as f64;
    let break_even = (mig_s / per_call.max(1e-300)).ceil();
    println!(
        "  modeled time saved over the remaining {remaining_fused_calls} fused calls: \
         {saved:.3e}s (migration itself moved {mig_words} words, {mig_s:.3e}s modeled — \
         breaks even after {break_even} call(s))"
    );
    assert!(
        saved > *mig_s,
        "the migration must pay for itself within the remaining sweep"
    );
    println!(
        "\nfinal loss after sweep 2 on {}: {lf:.4e}",
        event.to.id.label()
    );
    assert!(lf < l1, "the second sweep must keep improving");

    println!("\nadaptive_pruning OK");
}
