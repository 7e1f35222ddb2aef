//! Integration: measured communication matches the paper's Table III
//! analysis, less the homeward hop input lanes never send — the
//! repository's strongest end-to-end check. Message counts must match
//! exactly; word counts within a small load-imbalance tolerance
//! (sparse-block sizes fluctuate around nnz/p). Where the
//! check needs "the optimal configuration of algorithm X", it asks the
//! planner (`KernelBuilder::plan_candidates`) instead of re-deriving
//! `theory::` internals, so planner and theory cannot silently diverge.

use std::sync::Arc;

use distributed_sparse_kernels::comm::{AggregateStats, MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::kernel::KernelBuilder;
use distributed_sparse_kernels::core::theory::{self, Algorithm};
use distributed_sparse_kernels::core::worker::DistWorker;
use distributed_sparse_kernels::core::{AlgorithmFamily, Elision, GlobalProblem, Sampling};

fn measure(prob: &Arc<GlobalProblem>, p: usize, alg: Algorithm, c: usize) -> (f64, f64) {
    let prob2 = Arc::clone(prob);
    let world = SimWorld::new(p, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut w = DistWorker::from_global(comm, alg.family, c, &prob2);
        let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
    });
    let stats: Vec<_> = out.into_iter().map(|o| o.stats).collect();
    let agg = AggregateStats::from_ranks(&stats);
    let words = (agg.max_words(Phase::Replication) + agg.max_words(Phase::Propagation)) as f64;
    let msgs = (agg.max_msgs_sent[Phase::Replication.index()]
        + agg.max_msgs_sent[Phase::Propagation.index()]) as f64;
    (words, msgs)
}

#[test]
fn words_and_messages_match_table3() {
    let n = 1 << 10;
    let prob = Arc::new(GlobalProblem::erdos_renyi(n, n, 16, 8, 8001));
    let nnz = prob.nnz();
    let dims = prob.dims;
    let grid = Algorithm::all_benchmarked()
        .into_iter()
        .flat_map(|alg| [(alg, 16usize, 2usize), (alg, 16, 4)]);
    // A one-member ring: the local-kernel-fusion round's only lane is an
    // input lane, so it sends nothing and the model must say so.
    let lkf = Algorithm::new(AlgorithmFamily::DenseShift15, Elision::LocalKernelFusion);
    for (alg, p, c) in grid.chain([(lkf, 16, 16)]) {
        if !alg.family.valid_c(p, c) {
            continue;
        }
        let (words, msgs) = measure(&prob, p, alg, c);
        let words_model = theory::words_per_processor(alg, p, c, dims, nnz);
        let msgs_model = theory::messages_per_processor(alg, p, c);
        assert_eq!(
            msgs,
            msgs_model,
            "message count mismatch for {} p={p} c={c}",
            alg.label()
        );
        let ratio = words / words_model;
        assert!(
            (0.93..=1.07).contains(&ratio),
            "word count off Table III for {} p={p} c={c}: measured {words}, \
             model {words_model} (ratio {ratio:.3})",
            alg.label()
        );
    }
}

#[test]
fn elision_savings_match_theory_ratios() {
    // At the respective optimal replication factors, reuse and LKF must
    // save communication relative to no elision by the ratio theory
    // predicts for this p (→ 1/√2 as p → ∞).
    let n = 1 << 11;
    let p = 64usize;
    let prob = Arc::new(GlobalProblem::erdos_renyi(n, n, 16, 8, 8002));
    let mut meas = Vec::new();
    let mut model = Vec::new();
    for elision in [
        Elision::None,
        Elision::ReplicationReuse,
        Elision::LocalKernelFusion,
    ] {
        // Ask the planner for the optimal configuration of this exact
        // algorithm; its scoreboard carries the modeled word count.
        // Dense-routed: the measured side runs the paper's schedules.
        let cands = KernelBuilder::from_arc(Arc::clone(&prob))
            .family(AlgorithmFamily::DenseShift15)
            .elision(elision)
            .routing(distributed_sparse_kernels::core::Routing::Dense)
            .plan_candidates(p);
        assert_eq!(cands.len(), 1, "pinned family+elision resolves uniquely");
        let alg = cands[0].algorithm;
        assert_eq!(alg.elision, elision);
        let (words, _) = measure(&prob, p, alg, cands[0].c);
        meas.push(words);
        model.push(cands[0].words_per_proc);
    }
    for k in 1..3 {
        let meas_ratio = meas[k] / meas[0];
        let model_ratio = model[k] / model[0];
        assert!(
            (meas_ratio - model_ratio).abs() < 0.02,
            "elision saving mismatch: measured {meas_ratio:.3} vs model {model_ratio:.3}"
        );
        assert!(meas_ratio < 0.85, "elision must save communication");
    }
}

/// Closing the planner loop: run *every* scored candidate and check the
/// planner's pick against the measured (modeled-from-counts) winner.
/// The pick must be within a small regret of the best — the Figure 6
/// claim ("the prediction matches observation almost everywhere") as an
/// executable assertion.
#[test]
fn planner_pick_has_small_measured_regret() {
    let model = MachineModel::cori_knl();
    // Shapes straddling the φ crossover, exercising both 1.5D sides.
    let cases = [
        (1usize << 10, 8usize, 8usize, 16usize), // high φ
        (1 << 10, 16, 2, 16),                    // low φ
        (1 << 10, 32, 8, 8),                     // middle
    ];
    for (n, r, nnz_row, p) in cases {
        let prob = Arc::new(GlobalProblem::erdos_renyi(n, n, r, nnz_row, 8004));
        let cands = KernelBuilder::from_arc(Arc::clone(&prob)).plan_candidates_with(p, model);
        assert!(cands.len() >= 4, "n={n} r={r}: sweep must have depth");
        let measured: Vec<f64> = cands
            .iter()
            .map(|cand| {
                let prob2 = Arc::clone(&prob);
                let alg = cand.algorithm;
                let c = cand.c;
                let routing = cand.routing;
                let world = SimWorld::new(p, model);
                let out = world.run(move |comm| {
                    let mut w = KernelBuilder::from_arc(Arc::clone(&prob2))
                        .algorithm(alg)
                        .replication(c)
                        .routing(routing)
                        .build(comm);
                    let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
                });
                let stats: Vec<_> = out.into_iter().map(|o| o.stats).collect();
                let agg = AggregateStats::from_ranks(&stats);
                agg.modeled_total_s()
            })
            .collect();
        let best = measured.iter().cloned().fold(f64::INFINITY, f64::min);
        let regret = measured[0] / best;
        assert!(
            regret <= 1.10,
            "n={n} r={r} nnz/row={nnz_row} p={p}: planner pick {:?} has measured regret \
             {regret:.3} (measured {measured:?})",
            cands[0].algorithm
        );
    }
}

#[test]
fn sparse_shift_traffic_scales_with_nnz_not_nr() {
    // Doubling r leaves 1.5D sparse-shift propagation unchanged;
    // doubling nnz doubles it.
    let alg = Algorithm::new(AlgorithmFamily::SparseShift15, Elision::ReplicationReuse);
    let n = 1 << 10;
    let base = Arc::new(GlobalProblem::erdos_renyi(n, n, 8, 4, 8003));
    let wide = Arc::new(GlobalProblem::erdos_renyi(n, n, 16, 4, 8003));
    let dense = Arc::new(GlobalProblem::erdos_renyi(n, n, 8, 8, 8003));
    let prop = |prob: &Arc<GlobalProblem>| {
        let prob2 = Arc::clone(prob);
        let world = SimWorld::new(8, MachineModel::bandwidth_only());
        let out = world.run(move |comm| {
            let mut w = DistWorker::from_global(comm, alg.family, 2, &prob2);
            let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
        });
        out.iter()
            .map(|o| o.stats.phase(Phase::Propagation).words_sent)
            .sum::<u64>()
    };
    let (b, w, d) = (prop(&base), prop(&wide), prop(&dense));
    assert_eq!(b, w, "sparse-shift propagation must not depend on r");
    assert_eq!(2 * b, d, "sparse-shift propagation must scale with nnz");
}
