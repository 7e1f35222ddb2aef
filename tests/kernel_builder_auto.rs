//! `KernelBuilder::auto()` must reproduce the paper's Figure 6 phase
//! diagram: the planned algorithm equals `theory::predict_best`'s
//! winner on a handful of (m, n, nnz, p) points spanning four distinct
//! regimes — one per algorithm family — and the planned configuration
//! actually computes the right answer end-to-end.

use distributed_sparse_kernels::core::theory::{self, Algorithm};
use distributed_sparse_kernels::prelude::*;

/// Paper-scale shape statistics where each family wins (verified
/// against the Table III cost model; see §VI-C/§VI-D for the
/// qualitative picture: sparse-shifting at low φ, dense-shifting at
/// high φ, 2.5D replication when fibers are cheap relative to rings).
#[test]
fn theory_phase_diagram_covers_all_families_at_paper_scale() {
    let model = MachineModel::cori_knl();
    let cases = [
        // (name, n, r, nnz/row, p, winning family)
        (
            "low-phi 1.5D sparse shift",
            1usize << 18,
            256usize,
            4usize,
            32usize,
            AlgorithmFamily::SparseShift15,
        ),
        (
            "high-phi 1.5D dense shift",
            1 << 18,
            64,
            256,
            32,
            AlgorithmFamily::DenseShift15,
        ),
        (
            "phi=1/2 2.5D sparse repl",
            1 << 14,
            16,
            8,
            64,
            AlgorithmFamily::SparseRepl25,
        ),
        (
            "wide-r 2.5D dense repl",
            1 << 14,
            512,
            128,
            64,
            AlgorithmFamily::DenseRepl25,
        ),
    ];
    for (name, n, r, nnz_per_row, p, family) in cases {
        let dims = ProblemDims::new(n, n, r);
        let nnz = n * nnz_per_row;
        // The paper's Figure 6 is a dense-shift diagram: score every
        // candidate under Routing::Dense only.
        let (dense_best, dense_time) = Algorithm::all_benchmarked()
            .into_iter()
            .filter_map(|alg| {
                let c = theory::optimal_c_search(alg, p, dims, nnz, 16)?;
                Some((
                    alg,
                    theory::predicted_comm_time(&model, alg, p, c, dims, nnz),
                ))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(
            dense_best.family, family,
            "phase-diagram regime '{name}' picked {dense_best:?}"
        );
        // The routing-aware planner may swap in a pattern-routed
        // variant, but only ever to go *faster* than the paper's pick.
        let best = theory::predict_best(&model, &Algorithm::all_benchmarked(), p, dims, nnz, 16);
        assert!(
            best.time_s <= dense_time * (1.0 + 1e-12),
            "regime '{name}': routing-aware pick {:?} slower than dense diagram",
            best.algorithm
        );
        if best.algorithm.family != family {
            assert_eq!(
                best.routing,
                Routing::Pattern,
                "regime '{name}': family changed without pattern routing"
            );
        }
    }
}

/// `plan_candidates()` is the planner's whole scoreboard: across a
/// seeded grid of shapes it must contain exactly the admissible
/// Table III candidates, each scored and ordered as `theory::` scores
/// them — so harnesses interrogating the planner and tests re-deriving
/// the theory can never drift apart.
#[test]
fn plan_candidates_ordering_agrees_with_theory_across_seeded_grid() {
    let model = MachineModel::cori_knl();
    let c_max = 16usize;
    let mut shapes = 0usize;
    for (si, &n) in [256usize, 1024, 4096].iter().enumerate() {
        for (ri, &r) in [8usize, 32, 128].iter().enumerate() {
            for &nnz_row in &[2usize, 8, 32] {
                let seed = 9000 + (si * 16 + ri) as u64;
                let prob = GlobalProblem::erdos_renyi(n, n, r, nnz_row, seed);
                let builder = KernelBuilder::new(&prob).max_replication(c_max);
                for p in [8usize, 16, 64] {
                    let cands = builder.plan_candidates(p);
                    // Exactly the admissible (algorithm, routing) rows:
                    // every benchmarked algorithm with a valid c, scored
                    // under each routing it admits.
                    let admissible: Vec<_> = Algorithm::all_benchmarked()
                        .into_iter()
                        .filter(|alg| {
                            theory::optimal_c_search(*alg, p, prob.dims, prob.nnz(), c_max)
                                .is_some()
                        })
                        .collect();
                    let rows: usize = admissible
                        .iter()
                        .map(|alg| Routing::ALL.iter().filter(|&&rt| alg.admits(rt)).count())
                        .sum();
                    assert_eq!(cands.len(), rows, "n={n} r={r} p={p}");
                    for cand in &cands {
                        let c = theory::optimal_c_search(
                            cand.algorithm,
                            p,
                            prob.dims,
                            prob.nnz(),
                            c_max,
                        )
                        .unwrap();
                        assert_eq!(cand.c, c, "{:?} n={n} r={r} p={p}", cand.algorithm);
                        let t = theory::predicted_comm_time_for(
                            &model,
                            cand.algorithm,
                            cand.routing,
                            p,
                            c,
                            prob.dims,
                            prob.nnz(),
                        )
                        .unwrap();
                        assert!(
                            (cand.predicted_comm_s - t).abs() <= 1e-15 * t.max(1e-30),
                            "{:?}/{:?} n={n} r={r} p={p}: score drifted from theory",
                            cand.algorithm,
                            cand.routing
                        );
                        let w = theory::words_for_routing(
                            cand.algorithm,
                            cand.routing,
                            p,
                            c,
                            prob.dims,
                            prob.nnz(),
                        )
                        .unwrap();
                        assert_eq!(cand.words_per_proc, w);
                    }
                    // Sorted ascending, head == plan == predict_best.
                    assert!(cands
                        .windows(2)
                        .all(|w| w[0].predicted_comm_s <= w[1].predicted_comm_s));
                    let best =
                        theory::predict_best(&model, &admissible, p, prob.dims, prob.nnz(), c_max);
                    assert_eq!(cands[0].algorithm, best.algorithm, "n={n} r={r} p={p}");
                    assert_eq!(cands[0].c, best.c);
                    assert_eq!(cands[0].routing, best.routing, "n={n} r={r} p={p}");
                    let plan = builder.plan(p);
                    assert_eq!(plan.algorithm().unwrap(), cands[0].algorithm);
                    shapes += 1;
                }
            }
        }
    }
    assert_eq!(shapes, 81, "the grid must actually be swept");
}

/// The planner must agree with `theory::predict_best` exactly —
/// algorithm, elision, replication factor, and predicted time — on
/// materializable problems spanning all four families, and the planned
/// worker must produce the correct FusedMM.
#[test]
fn auto_matches_theory_and_runs_on_four_regimes() {
    // Shape points confirmed to make each family the Table III winner
    // (same φ corners as the paper-scale cases above, scaled down so
    // the problems materialize and the worlds run).
    let cases = [
        // (name, n, r, nnz/row, p, family)
        (
            "1.5D dense shift",
            1usize << 10,
            8usize,
            8usize,
            16usize,
            AlgorithmFamily::DenseShift15,
        ),
        (
            "1.5D sparse shift",
            1 << 10,
            16,
            2,
            16,
            AlgorithmFamily::SparseShift15,
        ),
        (
            "2.5D dense repl",
            1 << 10,
            32,
            2,
            16,
            AlgorithmFamily::DenseRepl25,
        ),
        (
            "2.5D sparse repl",
            1 << 10,
            256,
            128,
            64,
            AlgorithmFamily::SparseRepl25,
        ),
    ];
    for (name, n, r, nnz_per_row, p, family) in cases {
        let prob = GlobalProblem::erdos_renyi(n, n, r, nnz_per_row, 7);
        let builder = KernelBuilder::new(&prob);
        let plan = builder.plan(p);
        let expect = theory::predict_best(
            &MachineModel::cori_knl(),
            &Algorithm::all_benchmarked(),
            p,
            prob.dims,
            prob.nnz(),
            16,
        );
        assert_eq!(
            plan.algorithm().unwrap(),
            expect.algorithm,
            "planner/theory algorithm mismatch for regime '{name}'"
        );
        assert_eq!(plan.c, expect.c, "regime '{name}'");
        assert!(
            (plan.predicted_comm_s.unwrap() - expect.time_s).abs() <= 1e-12 * expect.time_s,
            "regime '{name}': predicted time drifted from theory"
        );
        assert_eq!(
            plan.id,
            KernelId::Family(family),
            "regime '{name}': planned {:?}, expected family {family:?}",
            plan.id
        );

        // The planned configuration must actually compute FusedMMB.
        let expect_sq: f64 = prob
            .reference_fused_b()
            .as_slice()
            .iter()
            .map(|v| v * v)
            .sum();
        let world = SimWorld::new(p, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut worker = builder.build(comm);
            let elision = worker.plan().elision;
            let local = worker.fused_mm_b(None, elision, Sampling::Values);
            local.as_slice().iter().map(|v| v * v).sum::<f64>()
        });
        let got: f64 = out.iter().map(|o| o.value).sum();
        assert!(
            (got - expect_sq).abs() <= 1e-6 * expect_sq.max(1.0),
            "regime '{name}': planned algorithm produced a wrong FusedMM"
        );
    }
}

/// `.auto()` picks only plans whose sparse grid the problem's sides
/// admit. At these small shapes the 1.5D families' `p` column blocks
/// do not fit (sides < p); the pick must build, and its gathered
/// FusedMMB must equal the serial reference.
#[test]
fn auto_builds_its_pick_at_sides_below_p() {
    use distributed_sparse_kernels::core::layout::gather_dense;
    use std::sync::Arc;

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
    for (p, m, n) in [(4, 3, 3), (4, 3, 8), (8, 5, 5), (8, 6, 12), (16, 9, 9)] {
        let r = 4;
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 2, 8100 + p as u64));
        let expect = prob.reference_fused_b();
        let builder = KernelBuilder::from_arc(Arc::clone(&prob)).auto();
        let world = SimWorld::new(p, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut worker = builder.build(comm);
            let view = worker.view();
            let elision = worker.plan().elision;
            let local = worker.fused_mm_b(None, elision, Sampling::Values);
            gather_dense(comm, 0, &local, |g| view.b_layout_of(g), n, r)
        });
        let got = out[0].value.as_ref().unwrap();
        for (g, e) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!(close(*g, *e), "p={p} {m}×{n}: {g} vs {e}");
        }
    }
}
