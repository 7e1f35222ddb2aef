//! Fig. 6 as a golden test: over a grid of embedding widths `r` and
//! nonzeros per row, the planner's predicted fastest algorithm must be
//! the one that measures fastest.
//!
//! At every grid point the test asks `KernelBuilder::plan_candidates`
//! for every admissible candidate with its Table III/IV score and runs
//! **all** of them for one FusedMMB call: the planner's pick (row 0)
//! through the real plan → build → run path (`.auto()`), the others
//! pinned to their scoreboard row, routing included. Each run is checked
//! to have built exactly the row it stands for, and the whole scoreboard
//! — family, elision, routing, `c`, measured seconds and encoded bytes
//! per candidate — is compared against [`TABLE`], `modeled_s` by
//! `to_bits()`.
//!
//! "Measured" means modeled time recomputed from the message, word and
//! flop counts a real run charged. Counts are deterministic and
//! backend-invariant, so the table is the same on every machine, in
//! debug and release, and under every `DSK_COMM_BACKEND`. The table runs
//! on `BackendKind::Wire`, which also yields encoded bytes, and a second
//! test replays each point's pick on the leg's own backend (socket
//! included) and requires the pinned bits again. Wall clocks are not
//! pinned: at this scale thread scheduling dwarfs the µs-scale modeled
//! delays, and the wall side (including the pipelined ÷ blocking overlap
//! ratio) is the repo benchmark's job (`benchmark/`).
//!
//! *Regret* at a point is measured(pick) ÷ measured(fastest candidate);
//! the pick *agrees* when it is the fastest. From the pinned table,
//! [`pinned_table_keeps_the_fig6_claims`] derives the planner's claims
//! exactly: agreement and max/mean regret, the regret of the best
//! pattern-routed candidate, the best routed ÷ dense byte ratio over
//! (family, elision, c)-matched pairs (which must stay below 1), and the
//! total encoded bytes.
//!
//! **Routed scenario.** The un-elided candidates are scored both with
//! dense shifts and pattern-routed (shipping only the rows the
//! receiver's sparsity needs). The nnz/row = 1 row of the grid is sparse
//! enough that the pick itself is routed at its wide-`r` corner, so
//! routed execution is measured winning end to end, not only as a scored
//! losing row.
//!
//! **Adaptive scenario.** A schedule of problem phases whose nnz/row
//! decays across the Fig. 6 boundary (an application that prunes as it
//! trains). Per phase every candidate is measured (the oracle); the
//! phase-0 pick held for every phase gives the *static* regret, the
//! per-phase pick the *adaptive* regret (what a re-planning `Session`
//! pays, migration traffic aside). [`ADAPTIVE`] pins both and the number
//! of plan changes, and adaptive ≤ static is asserted.
//!
//! When a change moves a number on purpose, the failure prints the whole
//! table in source form, with the predicted and observed Fig. 6 grids.

use std::sync::Arc;

use distributed_sparse_kernels::comm::{AggregateStats, RankStats};
use distributed_sparse_kernels::prelude::*;

const P: usize = 8;
const M: usize = 1 << 10;
const RS: [usize; 3] = [8, 16, 32];
const NNZS: [usize; 4] = [1, 2, 8, 20];
const SEED: u64 = 4242;
const C_MAX: usize = 16;
/// The drifting schedule: `r` and the nnz/row of each phase.
const DRIFT_R: usize = 32;
const DRIFT: [usize; 3] = [20, 8, 2];

/// One scored candidate at one grid point: `r`, nnz/row, family,
/// elision, routing, `c`, modeled seconds, encoded bytes. Each point's
/// rows are in scoreboard order, so its first row is the planner's pick.
type Row = (
    usize,
    usize,
    &'static str,
    &'static str,
    &'static str,
    usize,
    f64,
    u64,
);

/// Static regret, adaptive regret, plan changes.
type Adaptive = (f64, f64, u64);

fn staged(r: usize, nnz_row: usize, seed: u64) -> StagedProblem {
    StagedProblem::new(Arc::new(GlobalProblem::erdos_renyi(M, M, r, nnz_row, seed)))
}

fn scoreboard(staged: &StagedProblem) -> Vec<PlannedCandidate> {
    let cands = KernelBuilder::from_staged(staged)
        .max_replication(C_MAX)
        .plan_candidates_with(P, MachineModel::cori_knl());
    assert!(!cands.is_empty(), "no admissible candidate at p = {P}");
    cands
}

/// Run one FusedMMB call on a `P`-rank world of `backend` and return
/// the plan that ran, its modeled replication + propagation +
/// computation seconds (max over ranks per phase), and its encoded
/// bytes. `pin: None` is `.auto()`; `Some` builds exactly that row.
fn run_fused(
    staged: &StagedProblem,
    pin: Option<&PlannedCandidate>,
    backend: BackendKind,
) -> (KernelPlan, f64, u64) {
    let model = MachineModel::cori_knl();
    let builder = KernelBuilder::from_staged(staged);
    let builder = match pin {
        Some(cand) => builder
            .algorithm(cand.algorithm)
            .routing(cand.routing)
            .replication(cand.c),
        None => builder.auto().max_replication(C_MAX),
    };
    let plan = builder.plan_with(P, model);
    let outcomes = SimWorld::new(P, model).backend(backend).run(|comm| {
        let mut worker = builder.build(comm);
        assert_eq!(worker.plan(), plan, "built worker diverged from the plan");
        let _ = worker.fused_mm_b(None, plan.elision, Sampling::Values);
    });
    let stats: Vec<RankStats> = outcomes.into_iter().map(|o| o.stats).collect();
    let agg = AggregateStats::from_ranks(&stats);
    let modeled_s = [Phase::Replication, Phase::Propagation, Phase::Computation]
        .iter()
        .map(|&ph| agg.modeled_s(ph))
        .sum();
    (plan, modeled_s, agg.wire_bytes_total())
}

/// Every scored candidate at every grid point, as table rows.
fn measure_grid() -> Vec<Row> {
    let mut rows = Vec::new();
    for nnz_row in NNZS {
        for r in RS {
            let staged = staged(r, nnz_row, SEED);
            for (i, cand) in scoreboard(&staged).iter().enumerate() {
                let pin = (i > 0).then_some(cand);
                let (plan, modeled_s, wire_bytes) = run_fused(&staged, pin, BackendKind::Wire);
                assert_eq!(
                    plan,
                    cand.plan(),
                    "r = {r}, nnz/row = {nnz_row}: the build diverged from scoreboard row {i}"
                );
                rows.push((
                    r,
                    nnz_row,
                    cand.algorithm.family.label(),
                    cand.algorithm.elision.label(),
                    cand.routing.label(),
                    cand.c,
                    modeled_s,
                    wire_bytes,
                ));
            }
        }
    }
    rows
}

/// The drifting-sparsity scenario, modeled from counts like the grid.
fn measure_drift() -> Adaptive {
    let key = |c: &PlannedCandidate| (c.algorithm, c.routing, c.c);
    let (mut held, mut adaptive, mut oracle, mut changes) = (0.0, 0.0, 0.0, 0);
    let mut first: Option<PlannedCandidate> = None;
    let mut prev: Option<PlannedCandidate> = None;
    for (phase, &nnz_row) in DRIFT.iter().enumerate() {
        let staged = staged(DRIFT_R, nnz_row, SEED + 1000 + phase as u64);
        let run = |cand| run_fused(&staged, Some(cand), BackendKind::Wire).1;
        let cands = scoreboard(&staged);
        let measured: Vec<f64> = cands.iter().map(run).collect();
        oracle += measured.iter().copied().fold(f64::INFINITY, f64::min);
        adaptive += measured[0];
        if prev.is_some_and(|c| key(&c) != key(&cands[0])) {
            changes += 1;
        }
        prev = Some(cands[0]);
        let stat = *first.get_or_insert(cands[0]);
        held += if key(&stat) == key(&cands[0]) {
            measured[0]
        } else {
            run(&stat)
        };
    }
    (held / oracle, adaptive / oracle, changes)
}

/// The rows of one grid point, in [`TABLE`] order (nnz/row outer, `r`
/// inner).
fn points(table: &[Row]) -> impl Iterator<Item = &[Row]> {
    table.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
}

fn fastest(point: &[Row]) -> usize {
    (0..point.len())
        .min_by(|&a, &b| point[a].6.total_cmp(&point[b].6))
        .expect("a point has candidates")
}

/// The planner's claims over a table: how often the pick is the fastest
/// candidate and by how much it loses, how competitive and how much
/// cheaper on the wire routed execution is, and the bytes encoded.
#[derive(Debug, PartialEq)]
struct Claims {
    points: usize,
    agreed: usize,
    max_regret: f64,
    mean_regret: f64,
    max_routed_regret: f64,
    best_routed_byte_ratio: f64,
    wire_bytes: u64,
}

fn claims(table: &[Row]) -> Claims {
    let (mut n, mut agreed, mut max_regret, mut sum_regret) = (0, 0, 1.0f64, 0.0);
    let (mut max_routed_regret, mut best_ratio) = (1.0f64, f64::INFINITY);
    for point in points(table) {
        let best = point[fastest(point)].6;
        let regret = point[0].6 / best;
        n += 1;
        agreed += usize::from(fastest(point) == 0);
        max_regret = max_regret.max(regret);
        sum_regret += regret;
        let routed = point.iter().filter(|row| row.4 == "pattern");
        let best_routed = routed
            .clone()
            .map(|row| row.6)
            .fold(f64::INFINITY, f64::min);
        if best_routed.is_finite() {
            max_routed_regret = max_routed_regret.max(best_routed / best);
        }
        for row in routed {
            let dense = point
                .iter()
                .find(|d| d.4 == "dense" && (d.2, d.3, d.5) == (row.2, row.3, row.5));
            if let Some(d) = dense.filter(|d| d.7 > 0) {
                best_ratio = best_ratio.min(row.7 as f64 / d.7 as f64);
            }
        }
    }
    Claims {
        points: n,
        agreed,
        max_regret,
        mean_regret: sum_regret / n as f64,
        max_routed_regret,
        best_routed_byte_ratio: best_ratio,
        wire_bytes: table.iter().map(|row| row.7).sum(),
    }
}

fn glyph(family: &str) -> char {
    match AlgorithmFamily::ALL.iter().find(|f| f.label() == family) {
        Some(AlgorithmFamily::DenseShift15) => 'D',
        Some(AlgorithmFamily::SparseShift15) => 'S',
        Some(AlgorithmFamily::DenseRepl25) => 'd',
        Some(AlgorithmFamily::SparseRepl25) => 's',
        None => '?',
    }
}

/// The predicted (planner's pick) and observed (fastest) Fig. 6 grids,
/// densest row on top.
fn figure(table: &[Row]) -> String {
    let header: String = RS.iter().map(|r| format!("{r:>4}")).collect();
    let mut out = String::from("D = 1.5D Dense Shift · S = 1.5D Sparse Shift\n");
    out.push_str("d = 2.5D Dense Repl. · s = 2.5D Sparse Repl.\n");
    let pts: Vec<&[Row]> = points(table).collect();
    for (name, observed) in [("predicted", false), ("observed", true)] {
        out.push_str(&format!("{name}:\n  nnz/row ↓ · r → {header}\n"));
        for line in pts.chunks(RS.len()).rev() {
            let cells: String = line
                .iter()
                .map(|pt| format!("{:>4}", glyph(pt[if observed { fastest(pt) } else { 0 }].2)))
                .collect();
            out.push_str(&format!("  {:>14} {cells}\n", line[0][0].1));
        }
    }
    out
}

fn source_form(table: &[Row]) -> String {
    table
        .iter()
        .map(|(r, nnz, fam, eli, routing, c, s, bytes)| {
            format!("    ({r}, {nnz}, {fam:?}, {eli:?}, {routing:?}, {c}, {s:?}, {bytes}),\n")
        })
        .collect()
}

/// Every scored candidate of the smoke grid measures exactly as pinned.
#[test]
fn scored_candidates_match_the_pinned_table() {
    let got = measure_grid();
    let same = |a: &Row, b: &Row| {
        (a.0, a.1, a.2, a.3, a.4, a.5, a.6.to_bits(), a.7)
            == (b.0, b.1, b.2, b.3, b.4, b.5, b.6.to_bits(), b.7)
    };
    let drift = measure_drift();
    let drift_same = (drift.0.to_bits(), drift.1.to_bits(), drift.2)
        == (ADAPTIVE.0.to_bits(), ADAPTIVE.1.to_bits(), ADAPTIVE.2);
    if got.len() == TABLE.len() && got.iter().zip(TABLE).all(|(a, b)| same(a, b)) && drift_same {
        return;
    }
    let mut diff = String::new();
    for (i, row) in got.iter().enumerate() {
        match TABLE.get(i) {
            Some(want) if same(row, want) => {}
            Some(want) => diff.push_str(&format!("  row {i}: {row:?}\n     expected {want:?}\n")),
            None => diff.push_str(&format!("  row {i}: {row:?} (not in the table)\n")),
        }
    }
    panic!(
        "the phase diagram moved\n{diff}\nfull table as measured:\n{}\n\
         const ADAPTIVE: Adaptive = {drift:?}; (pinned {ADAPTIVE:?})\n\n{}\n{:#?}",
        source_form(&got),
        figure(&got),
        claims(&got),
    );
}

/// Each point's pick, replayed on this leg's backend (`DSK_COMM_BACKEND`,
/// socket included), accounts exactly as its pinned row: the measured
/// side of regret is backend-invariant.
#[test]
fn picks_replay_their_pinned_bits_on_this_backend() {
    let backend = BackendKind::from_env();
    for point in points(TABLE) {
        let (r, nnz_row, family, elision, routing, c, modeled_s, _) = point[0];
        let staged = staged(r, nnz_row, SEED);
        let (plan, got, _) = run_fused(&staged, None, backend);
        let alg = plan.algorithm().expect("the planner picks a family");
        assert_eq!(
            (
                alg.family.label(),
                alg.elision.label(),
                plan.routing.label(),
                plan.c
            ),
            (family, elision, routing, c),
            "r = {r}, nnz/row = {nnz_row}: {backend:?} picked another plan"
        );
        assert_eq!(
            got.to_bits(),
            modeled_s.to_bits(),
            "r = {r}, nnz/row = {nnz_row}: {backend:?} measured {got:?}, pinned {modeled_s:?}"
        );
    }
}

/// The planner's Fig. 6 claims, derived exactly from the pinned table:
/// it picks the measured-fastest candidate everywhere, routing stays
/// competitive and saves bytes somewhere, and re-planning under drift
/// never loses to holding the phase-0 plan.
#[test]
fn pinned_table_keeps_the_fig6_claims() {
    let got = claims(TABLE);
    assert!(
        got.best_routed_byte_ratio < 1.0,
        "routing saves bytes nowhere: {got:#?}"
    );
    let (held, adaptive, _) = ADAPTIVE;
    assert!(
        adaptive <= held,
        "adaptive regret {adaptive} > static {held}"
    );
    assert_eq!(
        got,
        Claims {
            points: 12,
            agreed: 12,
            max_regret: 1.0,
            mean_regret: 1.0,
            max_routed_regret: 1.7244140081647445,
            best_routed_byte_ratio: 0.5562749071488601,
            wire_bytes: 128_371_116,
        }
    );
}

/// The two ways into the runner are one path: pinning the plan the
/// planner picked reproduces the automatic run's accounting to the bit,
/// on a typed and on a serializing backend.
#[test]
fn auto_and_pinned_to_autos_plan_account_identically() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 4, 503));
    let staged = StagedProblem::new(prob);
    for backend in [BackendKind::InProc, BackendKind::Wire] {
        let (plan, auto_s, auto_bytes) = run_fused(&staged, None, backend);
        let pin = scoreboard(&staged)[0];
        assert_eq!(pin.plan(), plan, "{backend:?}");
        let (replayed, pinned_s, pinned_bytes) = run_fused(&staged, Some(&pin), backend);
        assert_eq!(replayed, plan, "{backend:?}");
        assert_eq!(auto_s.to_bits(), pinned_s.to_bits(), "{backend:?}");
        assert_eq!(auto_bytes, pinned_bytes, "{backend:?}");
        assert_eq!(auto_bytes > 0, backend == BackendKind::Wire);
    }
}

// ---------------------------------------------------------------------
// Golden table: 12 points × 12 candidates of the smoke grid, p = 8,
// m = 2¹⁰, seed 4242, one FusedMMB call each on `BackendKind::Wire`.
// ---------------------------------------------------------------------

const ADAPTIVE: Adaptive = (1.0720726704162942, 1.0, 1);

#[rustfmt::skip]
const TABLE: &[Row] = &[
    (8, 1, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 1.6900019999999995e-5, 328384),
    (8, 1, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.0264579999999998e-5, 393984),
    (8, 1, "1.5D Sparse Shift", "Repl. Reuse", "dense", 2, 2.11967e-5, 153016),
    (8, 1, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 2.128608e-5, 300248),
    (8, 1, "2.5D Dense Repl.", "No Elision", "pattern", 2, 2.2982840000000002e-5, 288936),
    (8, 1, "1.5D Sparse Shift", "No Elision", "pattern", 2, 2.388564e-5, 200072),
    (8, 1, "1.5D Sparse Shift", "No Elision", "dense", 2, 2.4558619999999997e-5, 218616),
    (8, 1, "2.5D Dense Repl.", "No Elision", "dense", 2, 2.4648e-5, 365848),
    (8, 1, "1.5D Dense Shift", "No Elision", "dense", 2, 3.0343079999999996e-5, 591296),
    (8, 1, "1.5D Dense Shift", "No Elision", "pattern", 2, 2.558567e-5, 347476),
    (8, 1, "2.5D Sparse Repl.", "No Elision", "pattern", 8, 4.5677439999999993e-5, 173376),
    (8, 1, "2.5D Sparse Repl.", "No Elision", "dense", 8, 4.5677439999999993e-5, 173376),
    (16, 1, "1.5D Sparse Shift", "Repl. Reuse", "dense", 2, 2.264054e-5, 218552),
    (16, 1, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 2.37973e-5, 656064),
    (16, 1, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 2.68192e-5, 562392),
    (16, 1, "2.5D Dense Repl.", "No Elision", "pattern", 2, 2.781239e-5, 512936),
    (16, 1, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.8526339999999998e-5, 787200),
    (16, 1, "2.5D Dense Repl.", "No Elision", "dense", 2, 3.154304e-5, 693528),
    (16, 1, "1.5D Dense Shift", "No Elision", "pattern", 2, 3.263806999999999e-5, 669396),
    (16, 1, "1.5D Sparse Shift", "No Elision", "dense", 1, 3.8092499999999995e-5, 187320),
    (16, 1, "1.5D Sparse Shift", "No Elision", "pattern", 1, 3.8092499999999995e-5, 187320),
    (16, 1, "1.5D Dense Shift", "No Elision", "dense", 2, 4.2683559999999996e-5, 1181120),
    (16, 1, "2.5D Sparse Repl.", "No Elision", "pattern", 8, 4.575935999999999e-5, 173376),
    (16, 1, "2.5D Sparse Repl.", "No Elision", "dense", 8, 4.575935999999999e-5, 173376),
    (32, 1, "2.5D Dense Repl.", "No Elision", "pattern", 2, 3.750607e-5, 960936),
    (32, 1, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 3.759186e-5, 1311424),
    (32, 1, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 3.788544e-5, 1086680),
    (32, 1, "1.5D Sparse Shift", "No Elision", "dense", 1, 3.825634e-5, 187320),
    (32, 1, "1.5D Sparse Shift", "No Elision", "pattern", 1, 3.825634e-5, 187320),
    (32, 1, "1.5D Sparse Shift", "Repl. Reuse", "dense", 1, 3.825634e-5, 187320),
    (32, 1, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 4.504986e-5, 1573632),
    (32, 1, "2.5D Dense Repl.", "No Elision", "dense", 2, 4.5333119999999996e-5, 1348888),
    (32, 1, "2.5D Sparse Repl.", "No Elision", "pattern", 8, 4.5923199999999994e-5, 173376),
    (32, 1, "1.5D Dense Shift", "No Elision", "pattern", 2, 4.6742869999999994e-5, 1313236),
    (32, 1, "2.5D Sparse Repl.", "No Elision", "dense", 8, 4.5923199999999994e-5, 173376),
    (32, 1, "1.5D Dense Shift", "No Elision", "dense", 2, 6.736452e-5, 2360768),
    (8, 2, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 1.6997039999999996e-5, 328384),
    (8, 2, "1.5D Sparse Shift", "Repl. Reuse", "dense", 4, 1.958954e-5, 271128),
    (8, 2, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.0347739999999998e-5, 393984),
    (8, 2, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 2.290528e-5, 337112),
    (8, 2, "2.5D Sparse Repl.", "No Elision", "dense", 2, 2.410014e-5, 377984),
    (8, 2, "2.5D Dense Repl.", "No Elision", "pattern", 2, 2.5777760000000003e-5, 388232),
    (8, 2, "2.5D Dense Repl.", "No Elision", "dense", 2, 2.62672e-5, 402712),
    (8, 2, "1.5D Sparse Shift", "No Elision", "dense", 2, 2.8445809999999995e-5, 304632),
    (8, 2, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 2.40496e-5, 396568),
    (8, 2, "1.5D Sparse Shift", "No Elision", "pattern", 2, 2.8445809999999995e-5, 351128),
    (8, 2, "1.5D Dense Shift", "No Elision", "dense", 2, 3.0427559999999997e-5, 591296),
    (8, 2, "1.5D Dense Shift", "No Elision", "pattern", 2, 2.8207789999999997e-5, 468140),
    (16, 2, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 2.39884e-5, 656064),
    (16, 2, "1.5D Sparse Shift", "Repl. Reuse", "dense", 2, 2.6610129999999997e-5, 304568),
    (16, 2, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 2.852032e-5, 599256),
    (16, 2, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.8690139999999998e-5, 787200),
    (16, 2, "2.5D Dense Repl.", "No Elision", "pattern", 2, 3.1775840000000004e-5, 660168),
    (16, 2, "1.5D Sparse Shift", "No Elision", "pattern", 2, 3.105999e-5, 441944),
    (16, 2, "1.5D Sparse Shift", "No Elision", "dense", 2, 3.133397e-5, 435704),
    (16, 2, "2.5D Dense Repl.", "No Elision", "dense", 2, 3.324415999999999e-5, 730392),
    (16, 2, "1.5D Dense Shift", "No Elision", "pattern", 2, 3.7597789999999994e-5, 893748),
    (16, 2, "1.5D Dense Shift", "No Elision", "dense", 2, 4.2849959999999995e-5, 1181120),
    (16, 2, "2.5D Sparse Repl.", "No Elision", "pattern", 8, 4.9518720000000006e-5, 345408),
    (16, 2, "2.5D Sparse Repl.", "No Elision", "dense", 8, 4.9518720000000006e-5, 345408),
    (32, 2, "1.5D Sparse Shift", "Repl. Reuse", "dense", 2, 2.966261e-5, 435640),
    (32, 2, "2.5D Dense Repl.", "No Elision", "pattern", 2, 4.362969e-5, 1202336),
    (32, 2, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 3.797112e-5, 1311424),
    (32, 2, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 3.97504e-5, 1123544),
    (32, 2, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 4.537494e-5, 1573632),
    (32, 2, "1.5D Sparse Shift", "No Elision", "dense", 1, 4.6592480000000004e-5, 371640),
    (32, 2, "1.5D Sparse Shift", "No Elision", "pattern", 1, 4.6592480000000004e-5, 371640),
    (32, 2, "2.5D Dense Repl.", "No Elision", "dense", 2, 4.719808e-5, 1385752),
    (32, 2, "2.5D Sparse Repl.", "No Elision", "pattern", 8, 4.9846400000000004e-5, 345408),
    (32, 2, "1.5D Dense Shift", "No Elision", "pattern", 2, 5.637778999999999e-5, 1746740),
    (32, 2, "2.5D Sparse Repl.", "No Elision", "dense", 8, 4.9846400000000004e-5, 345408),
    (32, 2, "1.5D Dense Shift", "No Elision", "dense", 2, 6.769475999999999e-5, 2360768),
    (8, 8, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 1.7518439999999994e-5, 328384),
    (8, 8, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.0855279999999995e-5, 393984),
    (8, 8, "2.5D Sparse Repl.", "No Elision", "dense", 2, 2.7759449999999997e-5, 525440),
    (8, 8, "1.5D Sparse Shift", "Repl. Reuse", "dense", 8, 2.4231720000000002e-5, 459200),
    (8, 8, "1.5D Dense Shift", "No Elision", "dense", 2, 3.0952259999999996e-5, 591296),
    (8, 8, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 2.7759449999999997e-5, 590440),
    (8, 8, "2.5D Dense Repl.", "Repl. Reuse", "dense", 8, 2.4231720000000002e-5, 459200),
    (8, 8, "2.5D Dense Repl.", "No Elision", "pattern", 2, 3.6114409999999995e-5, 656592),
    (8, 8, "2.5D Dense Repl.", "No Elision", "dense", 2, 3.6114409999999995e-5, 623896),
    (8, 8, "1.5D Dense Shift", "No Elision", "pattern", 2, 3.0952259999999996e-5, 625776),
    (8, 8, "1.5D Sparse Shift", "No Elision", "dense", 4, 3.9537539999999995e-5, 689112),
    (8, 8, "1.5D Sparse Shift", "No Elision", "pattern", 4, 3.9537539999999995e-5, 865296),
    (16, 8, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 2.5015399999999998e-5, 656064),
    (16, 8, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.9689839999999998e-5, 787200),
    (16, 8, "1.5D Sparse Shift", "Repl. Reuse", "dense", 4, 3.4198019999999995e-5, 688920),
    (16, 8, "2.5D Sparse Repl.", "No Elision", "dense", 2, 3.524137e-5, 853120),
    (16, 8, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 3.8859369999999994e-5, 820440),
    (16, 8, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 3.524137e-5, 918120),
    (16, 8, "2.5D Dense Repl.", "No Elision", "pattern", 2, 4.3583209999999994e-5, 984272),
    (16, 8, "2.5D Dense Repl.", "No Elision", "dense", 2, 4.3583209999999994e-5, 951576),
    (16, 8, "1.5D Dense Shift", "No Elision", "dense", 2, 4.388346e-5, 1181120),
    (16, 8, "1.5D Sparse Shift", "No Elision", "dense", 4, 4.836954e-5, 1082328),
    (16, 8, "1.5D Dense Shift", "No Elision", "pattern", 2, 4.3613469999999996e-5, 1196612),
    (16, 8, "1.5D Sparse Shift", "No Elision", "pattern", 4, 4.836954e-5, 1242112),
    (32, 8, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 4.000932e-5, 1311424),
    (32, 8, "1.5D Sparse Shift", "Repl. Reuse", "dense", 4, 4.3690500000000005e-5, 1082136),
    (32, 8, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 4.735896e-5, 1573632),
    (32, 8, "2.5D Dense Repl.", "No Elision", "pattern", 2, 5.852081e-5, 1639632),
    (32, 8, "2.5D Sparse Repl.", "No Elision", "dense", 2, 5.020520999999999e-5, 1508480),
    (32, 8, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 5.107312999999999e-5, 1344728),
    (32, 8, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 5.020520999999999e-5, 1573480),
    (32, 8, "2.5D Dense Repl.", "No Elision", "dense", 2, 5.852081e-5, 1606936),
    (32, 8, "1.5D Sparse Shift", "No Elision", "pattern", 2, 6.0822139999999984e-5, 1279384),
    (32, 8, "1.5D Sparse Shift", "No Elision", "dense", 2, 6.0822139999999984e-5, 1213944),
    (32, 8, "1.5D Dense Shift", "No Elision", "dense", 2, 6.974586e-5, 2360768),
    (32, 8, "1.5D Dense Shift", "No Elision", "pattern", 2, 6.890131e-5, 2337160),
    (8, 20, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 1.8548039999999995e-5, 328384),
    (8, 20, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 2.1898079999999995e-5, 393984),
    (8, 20, "1.5D Dense Shift", "No Elision", "dense", 2, 3.19845e-5, 591296),
    (8, 20, "2.5D Sparse Repl.", "No Elision", "dense", 2, 3.504582e-5, 820352),
    (8, 20, "1.5D Sparse Shift", "Repl. Reuse", "dense", 8, 2.526462e-5, 459200),
    (8, 20, "1.5D Dense Shift", "No Elision", "pattern", 2, 3.19845e-5, 641116),
    (8, 20, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 3.504582e-5, 886312),
    (8, 20, "2.5D Dense Repl.", "Repl. Reuse", "dense", 8, 2.526462e-5, 459200),
    (8, 20, "1.5D Sparse Shift", "No Elision", "dense", 8, 4.879806e-5, 918400),
    (8, 20, "2.5D Dense Repl.", "No Elision", "pattern", 8, 4.879806e-5, 918400),
    (8, 20, "2.5D Dense Repl.", "No Elision", "dense", 8, 4.879806e-5, 918400),
    (8, 20, "1.5D Sparse Shift", "No Elision", "pattern", 8, 4.879806e-5, 1350900),
    (16, 20, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 2.70434e-5, 656064),
    (16, 20, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 3.174384e-5, 787200),
    (16, 20, "2.5D Sparse Repl.", "No Elision", "dense", 2, 4.351782e-5, 1148032),
    (16, 20, "1.5D Dense Shift", "No Elision", "dense", 2, 4.591666e-5, 1181120),
    (16, 20, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 4.351782e-5, 1213992),
    (16, 20, "1.5D Sparse Shift", "Repl. Reuse", "dense", 8, 3.647678e-5, 917952),
    (16, 20, "1.5D Dense Shift", "No Elision", "pattern", 2, 4.591666e-5, 1230940),
    (16, 20, "2.5D Dense Repl.", "Repl. Reuse", "dense", 8, 3.647678e-5, 917952),
    (16, 20, "2.5D Dense Repl.", "No Elision", "pattern", 2, 6.447188e-5, 1427120),
    (16, 20, "2.5D Dense Repl.", "No Elision", "dense", 2, 6.447188e-5, 1393944),
    (16, 20, "1.5D Sparse Shift", "No Elision", "dense", 4, 6.916311e-5, 1524696),
    (16, 20, "1.5D Sparse Shift", "No Elision", "pattern", 4, 6.916311e-5, 1723080),
    (32, 20, "1.5D Dense Shift", "Local Kernel Fusion", "dense", 2, 4.403412e-5, 1311424),
    (32, 20, "1.5D Dense Shift", "Repl. Reuse", "dense", 4, 5.143536e-5, 1573632),
    (32, 20, "2.5D Sparse Repl.", "No Elision", "dense", 2, 6.046182e-5, 1803392),
    (32, 20, "2.5D Sparse Repl.", "No Elision", "pattern", 2, 6.046182e-5, 1869352),
    (32, 20, "1.5D Sparse Shift", "Repl. Reuse", "dense", 4, 6.648215e-5, 1524504),
    (32, 20, "2.5D Dense Repl.", "No Elision", "pattern", 2, 8.140692e-5, 2082480),
    (32, 20, "2.5D Dense Repl.", "Repl. Reuse", "dense", 2, 7.395924e-5, 1787096),
    (32, 20, "1.5D Dense Shift", "No Elision", "dense", 2, 7.378097999999999e-5, 2360768),
    (32, 20, "1.5D Dense Shift", "No Elision", "pattern", 2, 7.378097999999999e-5, 2410588),
    (32, 20, "2.5D Dense Repl.", "No Elision", "dense", 2, 8.140692e-5, 2049304),
    (32, 20, "1.5D Sparse Shift", "No Elision", "dense", 4, 8.882519e-5, 2311128),
    (32, 20, "1.5D Sparse Shift", "No Elision", "pattern", 4, 8.882519e-5, 2509512),
];
