//! The one experiment runner: build a world, build one kernel in it,
//! time FusedMM calls, and reduce the per-rank counters to a row.

use std::sync::Arc;

use dsk_comm::{AggregateStats, BackendKind, MachineModel, Phase, RankStats, SimWorld};
use dsk_core::common::{Routing, ShiftMode};
use dsk_core::kernel::{KernelBuilder, KernelPlan, PlannedCandidate};
use dsk_core::theory::Algorithm;
use dsk_core::{Sampling, StagedProblem};

/// Which kernel a run builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pick {
    /// Exactly this scoreboard row. Routing is pinned too: a pinned
    /// reconstruction must measure the candidate asked for, never a
    /// silent variant swap.
    Pinned {
        /// Family and elision.
        algorithm: Algorithm,
        /// Dense or pattern-routed shifts.
        routing: Routing,
        /// Replication factor.
        c: usize,
    },
    /// Whatever `KernelBuilder::auto` picks under the run's machine
    /// model — the real plan → build → run path the applications use.
    Auto {
        /// Replication-factor cap of the planner's search.
        c_max: usize,
    },
}

impl Pick {
    /// Pin a scored candidate.
    pub fn of(cand: &PlannedCandidate) -> Pick {
        Pick::Pinned {
            algorithm: cand.algorithm,
            routing: cand.routing,
            c: cand.c,
        }
    }
}

/// What one run measured: modeled time from the *measured* message,
/// word and flop counts, split the way the paper's figures report it,
/// plus the wall clock and encoded bytes.
#[derive(Debug, Clone)]
pub struct FusedRow {
    /// Modeled replication time (max over ranks), seconds.
    pub repl_s: f64,
    /// Modeled propagation time, seconds.
    pub prop_s: f64,
    /// Modeled computation time, seconds.
    pub comp_s: f64,
    /// Modeled total (`repl_s + prop_s + comp_s`), seconds.
    pub total_s: f64,
    /// Wall clock of the busiest rank over the same three phases
    /// `total_s` models: max over ranks of that rank's own replication
    /// + propagation + computation wall (diagnostic only).
    pub wall_s: f64,
    /// Words sent by the busiest rank during replication.
    pub max_words_repl: u64,
    /// Words sent by the busiest rank during propagation.
    pub max_words_prop: u64,
    /// Messages sent by the busiest rank (both comm phases).
    pub max_msgs: u64,
    /// Encoded bytes handed to the wire across all ranks and non-setup
    /// phases (zero under the in-process backend).
    pub wire_bytes: u64,
}

/// The phases a FusedMM call consists of — what `total_s` models and
/// `wall_s` clocks. Tuning, pattern exchange and application work
/// outside the kernels are build- or caller-side costs, not per-call.
const FUSED_PHASES: [Phase; 3] = [Phase::Replication, Phase::Propagation, Phase::Computation];

impl FusedRow {
    fn from_ranks(ranks: &[RankStats]) -> FusedRow {
        let agg = AggregateStats::from_ranks(ranks);
        let repl_s = agg.modeled_s(Phase::Replication);
        let prop_s = agg.modeled_s(Phase::Propagation);
        let comp_s = agg.modeled_s(Phase::Computation);
        let wall_s = ranks
            .iter()
            .map(|rank| FUSED_PHASES.iter().map(|&ph| rank.phase(ph).wall_s).sum())
            .fold(0.0, f64::max);
        FusedRow {
            repl_s,
            prop_s,
            comp_s,
            total_s: repl_s + prop_s + comp_s,
            wall_s,
            max_words_repl: agg.max_words(Phase::Replication),
            max_words_prop: agg.max_words(Phase::Propagation),
            max_msgs: agg.max_msgs_sent[Phase::Replication.index()]
                + agg.max_msgs_sent[Phase::Propagation.index()],
            wire_bytes: agg.wire_bytes_total(),
        }
    }
}

/// Run `calls` FusedMMB executions of `pick` on a `p`-rank world of
/// `backend`, over shared staging (a sweep measures every candidate
/// under several backends without re-partitioning the sparse matrix per
/// run), and return the plan that ran with the measured row.
///
/// `mode` pins the shift pipeline per rank — scoped inside each rank's
/// closure because the override is thread-local and every rank is its
/// own thread — so a sweep can re-run a pick with blocking shifts and
/// report the pipelined ÷ blocking wall ratio.
pub fn run_fused(
    staged: &Arc<StagedProblem>,
    model: MachineModel,
    p: usize,
    pick: Pick,
    calls: usize,
    backend: BackendKind,
    mode: ShiftMode,
) -> (KernelPlan, FusedRow) {
    let builder = KernelBuilder::from_staged(staged).model(model);
    let builder = match pick {
        Pick::Pinned {
            algorithm,
            routing,
            c,
        } => builder.algorithm(algorithm).routing(routing).replication(c),
        Pick::Auto { c_max } => builder.auto().max_replication(c_max),
    };
    let plan = builder.plan(p);
    let world = SimWorld::new(p, model).backend(backend);
    let outcomes = world.run(|comm| {
        let _mode = ShiftMode::scoped(mode);
        let mut worker = builder.build(comm);
        assert_eq!(
            worker.plan(),
            plan,
            "built worker diverged from the world-free plan"
        );
        for _ in 0..calls {
            let _ = worker.fused_mm_b(None, plan.elision, Sampling::Values);
        }
    });
    let stats: Vec<RankStats> = outcomes.into_iter().map(|o| o.stats).collect();
    (plan, FusedRow::from_ranks(&stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_core::common::{AlgorithmFamily, Elision};
    use dsk_core::GlobalProblem;

    fn staged(seed: u64) -> Arc<StagedProblem> {
        let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 4, seed));
        Arc::new(StagedProblem::new(prob))
    }

    #[test]
    fn harness_runs_and_reports_nonzero_comm() {
        let pick = Pick::Pinned {
            algorithm: Algorithm::new(AlgorithmFamily::DenseShift15, Elision::ReplicationReuse),
            routing: Routing::Dense,
            c: 2,
        };
        let (plan, row) = run_fused(
            &staged(500),
            MachineModel::cori_knl(),
            8,
            pick,
            2,
            BackendKind::from_env(),
            ShiftMode::Pipelined,
        );
        assert!(row.total_s > 0.0);
        assert!(row.prop_s > 0.0);
        assert!(row.comp_s > 0.0);
        assert!(row.wall_s > 0.0);
        assert_eq!(plan.c, 2);
        assert_eq!(plan.routing, Routing::Dense);
    }

    /// The two ways into the runner are one path: pinning the plan the
    /// planner picked reproduces the automatic run's accounting to the
    /// bit, on a typed and on a serializing backend.
    #[test]
    fn auto_and_pinned_to_autos_plan_account_identically() {
        let staged = staged(503);
        let model = MachineModel::cori_knl();
        for backend in [BackendKind::InProc, BackendKind::Wire] {
            let run = |pick| run_fused(&staged, model, 8, pick, 2, backend, ShiftMode::Pipelined);
            let (plan, auto) = run(Pick::Auto { c_max: 8 });
            let (replayed, pinned) = run(Pick::Pinned {
                algorithm: plan.algorithm().expect("the planner picks a family"),
                routing: plan.routing,
                c: plan.c,
            });
            assert_eq!(replayed, plan);
            for (a, b) in [
                (auto.repl_s, pinned.repl_s),
                (auto.prop_s, pinned.prop_s),
                (auto.comp_s, pinned.comp_s),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{backend:?}");
            }
            assert_eq!(
                (auto.max_words_repl, auto.max_words_prop, auto.max_msgs),
                (
                    pinned.max_words_repl,
                    pinned.max_words_prop,
                    pinned.max_msgs
                ),
                "{backend:?}"
            );
            assert_eq!(auto.wire_bytes, pinned.wire_bytes, "{backend:?}");
            assert_eq!(auto.wire_bytes > 0, backend == BackendKind::Wire);
        }
    }

    /// `wall_s` is one rank's wall over the phases `total_s` models —
    /// not a sum of per-phase maxima taken on different ranks, and not
    /// the tuner's or the caller's time.
    #[test]
    fn wall_is_the_busiest_ranks_own_fused_phases() {
        let mut r0 = RankStats::default();
        r0.record_wall(Phase::Replication, 5.0);
        r0.record_wall(Phase::Propagation, 1.0);
        r0.record_wall(Phase::Computation, 1.0);
        r0.record_wall(Phase::LocalTuning, 100.0);
        let mut r1 = RankStats::default();
        r1.record_wall(Phase::Replication, 1.0);
        r1.record_wall(Phase::Propagation, 4.0);
        r1.record_wall(Phase::Computation, 3.0);
        // Per-phase maxima would sum to 5 + 4 + 3 (+ 100 of tuning).
        assert_eq!(FusedRow::from_ranks(&[r0, r1]).wall_s, 8.0);
    }
}
