//! Integration: the local-kernel wiring. The local-kernel variant is a
//! *computation* concern fixed by a table — no build measures anything,
//! so no rank ever enters the local-tuning phase; variant choice must
//! never change what is communicated (words and messages are
//! variant-invariant by construction); and a pinned variant must flow
//! through the planner's scoreboard and the built worker untouched.
//! CI runs this file under every `DSK_COMM_BACKEND` leg.

use std::sync::Arc;

use distributed_sparse_kernels::core::{GlobalProblem, StagedProblem};
use distributed_sparse_kernels::kernels::{LocalKernel, LocalOp, SparseFormat};
use distributed_sparse_kernels::prelude::*;

/// Building any kernel — every family and the 1D baseline — reads a
/// table, so the local-tuning bucket stays empty on every rank: no
/// wall time, no traffic, no modeled cost.
#[test]
fn no_build_enters_the_local_tuning_phase() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(256, 256, 16, 4, 7101));
    let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
    let mut builders: Vec<KernelBuilder> = AlgorithmFamily::ALL
        .into_iter()
        .map(|f| KernelBuilder::from_staged(&staged).family(f).replication(2))
        .collect();
    builders.push(KernelBuilder::from_staged(&staged).baseline());
    for builder in builders {
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut w = builder.build(comm);
            let elision = w.plan().elision;
            let _ = w.fused_mm_b(None, elision, Sampling::Values);
        });
        for o in &out {
            let t = o.stats.phase(Phase::LocalTuning);
            assert_eq!(t.wall_s, 0.0, "a build spent wall time tuning");
            assert_eq!(t.words_sent, 0);
            assert_eq!(t.words_recv, 0);
            assert_eq!(t.msgs_sent, 0);
            assert_eq!(t.msgs_recv, 0);
            assert_eq!(t.flops, 0);
            assert_eq!(t.modeled_s, 0.0);
        }
    }
}

/// Pinning different variants (`StagedProblem::set_local_pin`, the one
/// pin) must leave the answer and the entire communication profile
/// untouched — only local wall time may move.
#[test]
fn pinned_variants_change_nothing_but_the_local_kernel() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(192, 192, 8, 6, 7102));
    let mut sums: Vec<f64> = Vec::new();
    let mut traffic: Vec<(u64, u64)> = Vec::new();
    for pin in [LocalKernel::Naive, LocalKernel::ParBlocked] {
        let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
        staged.set_local_pin(Some(pin));
        let builder = KernelBuilder::from_staged(&staged).max_replication(4);
        // The scoreboard reports the pin on every row, modulo the
        // deterministic per-format clamp (COO families degrade a
        // parallel pin to its serial counterpart).
        let cands = builder.plan_candidates(8);
        assert!(!cands.is_empty());
        let admissible = [
            pin.clamp(LocalOp::Spmm, SparseFormat::Csr),
            pin.clamp(LocalOp::Spmm, SparseFormat::Coo),
        ];
        for cand in &cands {
            assert!(
                admissible.contains(&cand.local_variant),
                "{:?}: {:?} not a clamp of the pin {pin:?}",
                cand.algorithm,
                cand.local_variant
            );
        }
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut w = builder.build(comm);
            let elision = w.plan().elision;
            let local = w.fused_mm_b(None, elision, Sampling::Values);
            local.as_slice().iter().map(|v| v * v).sum::<f64>()
        });
        sums.push(out.iter().map(|o| o.value).sum::<f64>());
        let t = out.iter().fold((0u64, 0u64), |acc, o| {
            let tot = o.stats.total();
            (acc.0 + tot.words_sent, acc.1 + tot.msgs_sent)
        });
        traffic.push(t);
    }
    let scale = sums[0].abs().max(1.0);
    assert!(
        (sums[0] - sums[1]).abs() <= 1e-9 * scale,
        "pinned variants disagree on the answer: {} vs {}",
        sums[0],
        sums[1]
    );
    assert_eq!(
        traffic[0], traffic[1],
        "variant choice changed the communication profile"
    );
}

/// Unpinned, every scoreboard row reports the table's `Spmm` entry for
/// its family's block format.
#[test]
fn scoreboard_variants_follow_the_table() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(256, 256, 16, 6, 7103));
    let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
    let builder = KernelBuilder::from_staged(&staged).max_replication(4);
    for p in [4usize, 8, 16] {
        let cands = builder.plan_candidates(p);
        assert!(!cands.is_empty());
        for cand in &cands {
            let format = match cand.algorithm.family {
                AlgorithmFamily::DenseShift15 | AlgorithmFamily::SparseRepl25 => SparseFormat::Csr,
                AlgorithmFamily::SparseShift15 | AlgorithmFamily::DenseRepl25 => SparseFormat::Coo,
            };
            assert_eq!(
                cand.local_variant,
                LocalKernel::table(LocalOp::Spmm, format),
                "p = {p}: {:?}",
                cand.algorithm
            );
        }
    }
}
