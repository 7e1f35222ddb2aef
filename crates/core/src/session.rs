//! Adaptive sessions: the stateful application surface over the
//! distributed kernels, and the one transition that changes the plan
//! in force while an application runs.
//!
//! [`KernelBuilder`] makes the Figure 6 decision *once*, at
//! construction. But the best (algorithm, replication) choice depends
//! on φ = nnz/(n·r) and on `p`, and both move under a running
//! application: ALS-style workloads prune, so φ shrinks, and an elastic
//! fleet gains and loses ranks. A [`Session`] owns the [`DistWorker`],
//! the shared staging ([`StagedProblem`]) needed to build a replacement
//! worker for any family, and **the one record of the plan in force**
//! ([`Session::plan`] — its `elision` is the one fused calls use), and
//! keeps the decision live.
//!
//! # One transition: choose → move → install
//!
//! [`Session::replan`], [`Session::migrate`] and [`Session::resize`]
//! all end in the same act, written once:
//!
//! * **choose** — the session's only planner call:
//!   [`KernelBuilder::plan_candidates`] for the target rank count
//!   against the *observed* nonzero count (stored R values that
//!   survived pruning); the head candidate's
//!   [`PlannedCandidate::plan`] is the plan to install.
//! * **move** — build the new worker on the new roster (its pattern
//!   exchange lands in the phase a fresh construction charges), then
//!   carry the live A/B iterates through
//!   [`repartition_dense`] and the stored R values through one
//!   owner-targeted [`Comm::sparse_alltoallv`] — each exported triplet
//!   travels only to the ranks whose destination cells of Table II's
//!   sparse block grid hold it, `O(c·nnz)` words, never an allgather's
//!   `O(p·nnz)` — between the *(old plan, old p)* and *(new plan, new
//!   p)* [`PlanView`]s over one communicator whose lowest ranks form
//!   both rosters. Ranks
//!   outside a roster hold the empty layout on that side (a view owns
//!   nothing beyond its `p`) — a no-op when both rosters are the whole
//!   communicator. Installing the iterates also pays the new kernel's
//!   usual `set_a`/`set_b` distribution shift ([`Phase::OutsideComm`],
//!   as always).
//! * **install** — the only code that knows what depends on the plan:
//!   the worker, the active communicator and roster size, the stored
//!   [`KernelPlan`], the row-sharing reduction groups
//!   ([`Session::row_group_a`] / [`Session::row_group_b`]) and the
//!   [`ReplanEvent`] log entry (every decision is logged, moving or
//!   not). No optimizer state is lost and the squared loss is
//!   identical before and after.
//!
//! The callers differ only in where the transition runs and in their
//! preamble:
//!
//! | | collective over | rosters | charged to | span | preamble |
//! |---|---|---|---|---|---|
//! | [`Session::replan`] / [`Session::migrate`] | the active communicator | `p → p` | [`Phase::Migration`] | `session.migrate` (inside `session.replan`) | [`Session::observed_nnz`]; `replan` moves only when the predicted win clears [`ReplanPolicy::hysteresis`] |
//! | [`Session::resize`] | the world (actives and spares) | `p → p_new` | [`Phase::Resize`] | `session.resize` | a 2-word world observation and a broadcast of the plan in force (spares miss active-only replans) |
//!
//! These three are the only ways a session's plan changes: fused calls
//! never re-plan on their own. The applications in `dsk-apps`
//! (`AppEngine`, `run_als`, `GatEngine`) are thin layers over a
//! `Session` and hold no plan-dependent state of their own, so their
//! caller may change the plan under them between calls through
//! `session_mut()`.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use dsk_comm::trace::{self, ArgVal, TraceKind};
use dsk_comm::{Comm, Phase, RankStats};
use dsk_dense::Mat;
use dsk_sparse::CooMatrix;

use crate::common::{AlgorithmFamily, Elision, Routing, Sampling};
use crate::global::GlobalProblem;
use crate::kernel::{CombineSpec, KernelBuilder, KernelId, KernelPlan, PlannedCandidate};
use crate::layout::repartition_dense;
use crate::planview::{Operand, PlanView};
use crate::rstore::PairExp;
use crate::staged::StagedProblem;
use crate::theory::{self, Algorithm};
use crate::worker::DistWorker;

/// How eagerly [`Session::replan`] migrates.
#[derive(Debug, Clone, Copy)]
pub struct ReplanPolicy {
    /// Minimum modeled speedup (current predicted per-call seconds ÷
    /// best candidate's) required before migrating. Values above 1
    /// damp oscillation between families whose predictions are close —
    /// a migration moves real data, so a 2% paper win is not worth it.
    pub hysteresis: f64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy { hysteresis: 1.15 }
    }
}

/// One entry of the session's re-planning log: what was observed, what
/// the planner predicted, and whether the session migrated.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// Fused-call count when the transition ran ([`Session::calls`]).
    pub at_call: u64,
    /// Observed nonzero count the planner scored against (post-pruning
    /// count of stored R values, or the staged nnz before any SDDMM).
    pub observed_nnz: usize,
    /// Observed density φ = observed_nnz / (n·r).
    pub observed_phi: f64,
    /// The plan in force when the replan ran.
    pub from: KernelPlan,
    /// The plan in force afterwards (`== from` when the session
    /// stayed).
    pub to: KernelPlan,
    /// Modeled per-call seconds of the current plan at the observed
    /// problem (`None` when the current kernel is the unmodeled 1D
    /// baseline, which any family is predicted to beat).
    pub predicted_from_s: Option<f64>,
    /// Modeled per-call seconds of the best candidate at the observed
    /// problem.
    pub predicted_to_s: f64,
    /// Whether live state moved to a different (family, c) kernel.
    pub migrated: bool,
}

impl ReplanEvent {
    /// Modeled per-call seconds saved by the decision (0 when the
    /// session stayed; `None` when the old plan is unmodeled).
    pub fn predicted_saving_s(&self) -> Option<f64> {
        if !self.migrated {
            return Some(0.0);
        }
        self.predicted_from_s.map(|f| f - self.predicted_to_s)
    }
}

/// Configures and builds a [`Session`] — the single construction path
/// for every application engine.
///
/// ```ignore
/// // Fully automatic (the planner picks family, c, elision):
/// let session = Session::builder(&prob).build(comm);
/// // Pinned, with an explicit fused-call elision:
/// let session = Session::builder(&prob)
///     .family(AlgorithmFamily::SparseShift15)
///     .replication(4)
///     .elision(Elision::ReplicationReuse)
///     .build(comm);
/// ```
pub struct SessionBuilder {
    staged: Arc<StagedProblem>,
    builder: KernelBuilder<'static>,
    active: Option<usize>,
}

impl SessionBuilder {
    fn new(staged: Arc<StagedProblem>) -> Self {
        let builder = KernelBuilder::from_staged_arc(Arc::clone(&staged));
        SessionBuilder {
            staged,
            builder,
            active: None,
        }
    }

    /// Let the planner pick family, replication factor, and elision
    /// (the default).
    pub fn auto(mut self) -> Self {
        self.builder = self.builder.auto();
        self
    }

    /// Pin the algorithm family.
    pub fn family(mut self, family: AlgorithmFamily) -> Self {
        self.builder = self.builder.family(family);
        self
    }

    /// Pin family and plan elision at once.
    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.builder = self.builder.algorithm(alg);
        self
    }

    /// Build on the PETSc-like 1D baseline instead of a 2D/3D family.
    pub fn baseline(mut self) -> Self {
        self.builder = self.builder.baseline();
        self
    }

    /// Pin the replication factor `c`.
    pub fn replication(mut self, c: usize) -> Self {
        self.builder = self.builder.replication(c);
        self
    }

    /// Cap the planner's replication-factor search (construction and
    /// replans; default 16).
    pub fn max_replication(mut self, c_max: usize) -> Self {
        self.builder = self.builder.max_replication(c_max);
        self
    }

    /// Pin the elision strategy the session uses for fused calls: the
    /// planner scores only algorithms with this elision (and their own
    /// replication factor and routing; an elided plan is dense-routed,
    /// [`Algorithm::admits`]), so the stored [`Session::plan`] is one
    /// it priced.
    pub fn elision(mut self, elision: Elision) -> Self {
        self.builder = self.builder.elision(elision);
        self
    }

    /// Build the session on only the lowest `k` ranks of the
    /// communicator; the remaining ranks become **spares** — they hold
    /// the session (and its staging) but no worker, and wait for a
    /// [`Session::resize`] to draft them into the active roster. The
    /// elastic-fleet entry point: a world can be provisioned wider than
    /// the problem currently uses.
    pub fn active_ranks(mut self, k: usize) -> Self {
        self.active = Some(k);
        self
    }

    /// Build this rank's session, planned under the communicator's
    /// machine model. Must be called by every rank of the communicator
    /// (the plan is deterministic, so all ranks agree without
    /// communication).
    pub fn build(self, comm: &Comm) -> Session {
        let world = comm.dup();
        let active_p = self.active.unwrap_or(world.size());
        assert!(
            active_p >= 1 && active_p <= world.size(),
            "active_ranks({active_p}) must be within 1..={}",
            world.size()
        );
        // Communication-free split: ranks below the active count share
        // one sub-communicator, spares another (unused until a resize).
        let active = world.split_by(|r| u64::from(r >= active_p));
        let worker = (world.rank() < active_p).then(|| self.builder.build(&active));
        // Planning is pure, so spares record the plan the actives built.
        let plan = match &worker {
            Some(w) => w.plan(),
            None => self.builder.plan_with(active_p, *comm.model()),
        };
        let view = PlanView::new(&plan, active_p, self.staged.prob.dims);
        let row_groups = worker.is_some().then(|| row_groups(&active, view));
        Session {
            world,
            comm: active,
            active_p,
            staged: self.staged,
            worker,
            plan,
            row_groups,
            c_max: self.builder.c_max(),
            calls: 0,
            replan_log: Vec::new(),
        }
    }
}

/// The row-sharing reduction groups of `view` over its roster's
/// communicator: for `A`- and `B`-shaped iterates, the ranks holding
/// pieces of the same iterate rows.
fn row_groups(active: &Comm, view: PlanView) -> (Comm, Comm) {
    (
        active.split_by(|g| view.row_group_a(g)),
        active.split_by(|g| view.row_group_b(g)),
    )
}

/// The active-roster half of a session field; the one spare-rank panic.
fn active<T>(held: Option<T>, world: &Comm, active_p: usize) -> T {
    held.unwrap_or_else(|| {
        panic!(
            "world rank {} is a spare (active_p = {active_p}): only Session::resize, \
             loss/stored_loss, and the accessors are valid on spare ranks",
            world.rank()
        )
    })
}

/// What the mover hands the installer: the new roster's communicator
/// and size, and this rank's worker on it (`None` outside the roster).
struct Moved {
    worker: Option<DistWorker>,
    active: Comm,
    p: usize,
}

/// A stateful, re-plannable application session over one distributed
/// problem (one per rank). See the module docs for the full story.
pub struct Session {
    /// The full epoch communicator — every provisioned rank, active or
    /// spare. Resizes are collective over this.
    world: Comm,
    /// The active-roster sub-communicator (on spares: the spare-group
    /// sub-communicator, unused). Replaced by every move.
    comm: Comm,
    /// How many world ranks are active (always the lowest ranks).
    active_p: usize,
    staged: Arc<StagedProblem>,
    /// The live kernel — `None` on spare ranks.
    worker: Option<DistWorker>,
    /// The one record of the plan in force; its `elision` is what fused
    /// calls use. On spares: the last plan this rank learned of.
    plan: KernelPlan,
    /// Row-sharing reduction groups of the plan in force (`A`-shaped,
    /// `B`-shaped) — `None` on spare ranks.
    row_groups: Option<(Comm, Comm)>,
    c_max: usize,
    calls: u64,
    replan_log: Vec<ReplanEvent>,
}

impl Session {
    /// Configure a session from a borrowed global problem (staged
    /// ephemerally).
    pub fn builder(prob: &GlobalProblem) -> SessionBuilder {
        SessionBuilder::new(Arc::new(StagedProblem::ephemeral(prob)))
    }

    /// Configure a session from a shared global problem.
    pub fn builder_arc(prob: Arc<GlobalProblem>) -> SessionBuilder {
        SessionBuilder::new(Arc::new(StagedProblem::new(prob)))
    }

    /// Configure a session from shared staging (the benchmark path:
    /// one sparse partition per world, shared by every rank).
    pub fn builder_staged(staged: Arc<StagedProblem>) -> SessionBuilder {
        SessionBuilder::new(staged)
    }

    // ------------------------------------------------------------------
    // State access
    // ------------------------------------------------------------------

    /// The session's *active* communicator (the sub-world the worker
    /// runs on; on spare ranks, the unused spare-group communicator).
    /// Replaced whenever a transition moves state, so borrow it per use.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The full epoch communicator (actives and spares). Collective
    /// elastic operations — [`Session::resize`], [`Session::loss`],
    /// [`Session::stored_loss`] — run over this.
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// Whether this rank is in the active roster (holds a worker).
    pub fn is_active(&self) -> bool {
        self.worker.is_some()
    }

    /// The current active process count (the `p` the plan targets).
    pub fn active_p(&self) -> usize {
        self.active_p
    }

    /// The full provisioned world size (actives + spares).
    pub fn world_size(&self) -> usize {
        self.world.size()
    }

    fn w(&self) -> &DistWorker {
        active(self.worker.as_ref(), &self.world, self.active_p)
    }

    /// Split borrow: the worker together with the active communicator.
    fn w_mut_with_comm(&mut self) -> (&mut DistWorker, &Comm) {
        let w = active(self.worker.as_mut(), &self.world, self.active_p);
        (w, &self.comm)
    }

    fn w_mut(&mut self) -> &mut DistWorker {
        self.w_mut_with_comm().0
    }

    /// The current worker.
    ///
    /// # Panics
    ///
    /// Panics on spare ranks (no worker).
    pub fn worker(&self) -> &DistWorker {
        self.w()
    }

    /// The current worker, mutably.
    pub fn worker_mut(&mut self) -> &mut DistWorker {
        self.w_mut()
    }

    /// The plan currently in force, as last installed (by construction,
    /// a replan — including an elision-only retune — a migration or a
    /// resize). Its `elision` is the one fused calls use.
    pub fn plan(&self) -> KernelPlan {
        self.plan
    }

    /// The elision strategy used for fused calls.
    pub fn elision(&self) -> Elision {
        self.plan.elision
    }

    /// The reduction group for per-row dot products of `A`-shaped
    /// iterates under the plan in force: the ranks that split this
    /// rank's iterate rows (size 1 when rows are whole). Replaced
    /// whenever a transition moves state, so borrow it per use.
    pub fn row_group_a(&self) -> &Comm {
        &active(self.row_groups.as_ref(), &self.world, self.active_p).0
    }

    /// The reduction group for per-row dot products of `B`-shaped
    /// iterates (see [`Session::row_group_a`]).
    pub fn row_group_b(&self) -> &Comm {
        &active(self.row_groups.as_ref(), &self.world, self.active_p).1
    }

    /// Fused calls issued so far (what each [`ReplanEvent::at_call`]
    /// is stamped with).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Every transition decision so far, in order: each
    /// [`Session::replan`] (moving or not), [`Session::migrate`] and
    /// [`Session::resize`] this rank took part in.
    pub fn replan_log(&self) -> &[ReplanEvent] {
        &self.replan_log
    }

    /// Logged decisions that actually moved state.
    pub fn migrations(&self) -> usize {
        self.replan_log.iter().filter(|e| e.migrated).count()
    }

    /// Snapshot of this rank's per-phase counters (includes
    /// [`Phase::Migration`] and [`Phase::Resize`] traffic from any
    /// transitions so far).
    pub fn stats(&self) -> RankStats {
        self.comm.stats_snapshot()
    }

    // ------------------------------------------------------------------
    // Kernel surface (counted)
    // ------------------------------------------------------------------

    /// FusedMMA with the session's elision; counts one call and never
    /// changes the plan.
    ///
    /// An iterate call (`Some(x)`) is a step inside a solve against the
    /// stored `B`. On the 1.5D dense shift with local kernel fusion it
    /// replays the ring tiles of `B` that
    /// [`Session::rhs_a`] (or the first iterate call, without one) kept,
    /// instead of shifting `B` again. They are held until
    /// [`Session::commit_b`] or the next transition, at
    /// `(q − 1)·⌈n/p⌉·r` words per rank (`q = p/c`, the ring length).
    pub fn fused_mm_a(&mut self, x: Option<&Mat>, sampling: Sampling) -> Mat {
        self.calls += 1;
        let elision = self.plan.elision;
        self.w_mut().fused_mm_a(x, elision, sampling)
    }

    /// FusedMMB with the session's elision; counts one call and never
    /// changes the plan. The dual hold of [`Session::fused_mm_a`]: an
    /// iterate call replays the ring tiles of the stored `A`
    /// that [`Session::rhs_b`] kept, until [`Session::commit_a`] or the
    /// next transition, at `(q − 1)·⌈m/p⌉·r` words per rank.
    pub fn fused_mm_b(&mut self, y: Option<&Mat>, sampling: Sampling) -> Mat {
        self.calls += 1;
        let elision = self.plan.elision;
        self.w_mut().fused_mm_b(y, elision, sampling)
    }

    /// The stored `A` operand in the iterate layout.
    pub fn a_iterate(&self) -> Mat {
        self.w().a_iterate()
    }

    /// The stored `B` operand in the iterate layout.
    pub fn b_iterate(&self) -> Mat {
        self.w().b_iterate()
    }

    /// Commit an `A`-iterate as the stored operand.
    pub fn commit_a(&mut self, x: &Mat) {
        let (w, comm) = self.w_mut_with_comm();
        w.set_a(comm, x);
    }

    /// Commit a `B`-iterate as the stored operand.
    pub fn commit_b(&mut self, y: &Mat) {
        let (w, comm) = self.w_mut_with_comm();
        w.set_b(comm, y);
    }

    /// ALS right-hand side for the `A` phase, in the `A`-iterate
    /// layout. On the dense-routed 1.5D dense shift this is the one
    /// round of the solve that shifts `B`: it keeps `B`'s ring tiles for
    /// the iterate [`Session::fused_mm_a`] calls, whatever the session's
    /// elision (only local kernel fusion replays them).
    pub fn rhs_a(&mut self) -> Mat {
        let (w, comm) = self.w_mut_with_comm();
        w.rhs_a(comm)
    }

    /// ALS right-hand side for the `B` phase, in the `B`-iterate
    /// layout: the dual of [`Session::rhs_a`], keeping `A`'s ring tiles
    /// for the iterate [`Session::fused_mm_b`] calls.
    pub fn rhs_b(&mut self) -> Mat {
        let (w, comm) = self.w_mut_with_comm();
        w.rhs_b(comm)
    }

    /// Generalized SDDMM into the stored R values.
    pub fn sddmm_general(&mut self, combine: &CombineSpec) {
        self.w_mut().sddmm_general(combine);
    }

    /// Map every stored R value in place (pruning writes zeros here —
    /// the observation [`Session::replan`] scores against).
    pub fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        self.w_mut().map_r(f);
    }

    /// SpMMA with the stored R values against an explicit operand.
    pub fn spmm_a_with(&self, y: &Mat) -> Mat {
        self.w().spmm_a_with(y)
    }

    /// The GAT convolution `E·y` with `e`'s attention made per nonzero
    /// inside the local SpMM, and `E`'s row sums reduced over the ranks
    /// that share them (see
    /// [`DistKernel::spmm_a_pair_exp`](crate::kernel::DistKernel::spmm_a_pair_exp));
    /// the stored R values are left untouched. The kernel's rounds
    /// charge their own phases; a valued block made for a ring is
    /// charged to [`Phase::OutsideCompute`], the reduction to
    /// [`Phase::OutsideComm`].
    pub fn spmm_a_pair_exp(&self, y: &Mat, e: &PairExp) -> (Mat, Vec<f64>) {
        let _ph = self.comm.phase(Phase::OutsideCompute);
        self.w().spmm_a_pair_exp(Phase::OutsideComm, y, e)
    }

    /// ALS squared loss `‖C̃ − mask(A·Bᵀ)‖²` over the observed entries
    /// (one generalized SDDMM plus a scalar all-reduce).
    pub fn loss(&mut self) -> f64 {
        if let Some(w) = &mut self.worker {
            w.sddmm_general(&CombineSpec::Dot);
        }
        self.stored_loss()
    }

    /// The squared loss of the *currently stored* R values, without
    /// recomputing the SDDMM — the quantity that must be identical
    /// across a transition (loss continuity).
    ///
    /// Collective over the **world**: spare ranks contribute `0.0` and
    /// learn the same value, so lockstep control flow (convergence
    /// checks, resize decisions) stays coherent across the whole pool.
    pub fn stored_loss(&self) -> f64 {
        let local = self.worker.as_ref().map_or(0.0, |w| w.sq_loss_local());
        let _ph = self.world.phase(Phase::OutsideComm);
        self.world.allreduce_scalar(local)
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// The globally observed nonzero count: stored R values that are
    /// not zero (each nonzero counted once across ranks; pruning writes
    /// exact zeros), or the staged nnz when no SDDMM has run yet.
    /// Charged to [`Phase::Migration`] (one scalar all-reduce).
    pub fn observed_nnz(&self) -> usize {
        match self.w().export_r() {
            None => self.staged.prob.nnz(),
            Some(local) => {
                let mine = unpruned(&local.vals);
                let _ph = self.comm.phase(Phase::Migration);
                self.comm.allreduce_scalar(mine as f64).round() as usize
            }
        }
    }

    // ------------------------------------------------------------------
    // The transition: choose → move → install
    // ------------------------------------------------------------------

    /// **Choose**: the predicted-best candidate for `p` ranks at the
    /// observed nonzero count — the session's only planner call.
    /// Deterministic, so every rank agrees without communication. `pin`
    /// restricts the scoreboard to one dense-routed `(algorithm, c)`.
    fn choose(
        &self,
        p: usize,
        observed_nnz: usize,
        pin: Option<(Algorithm, usize)>,
    ) -> PlannedCandidate {
        let mut builder = KernelBuilder::for_shape(self.staged.prob.dims, observed_nnz)
            .max_replication(self.c_max);
        if let Some((algorithm, c)) = pin {
            builder = builder
                .algorithm(algorithm)
                .replication(c)
                .routing(Routing::Dense);
        }
        let candidates = builder.plan_candidates_with(p, *self.world.model());
        *candidates
            .first()
            .unwrap_or_else(|| panic!("no admissible plan for p = {p} (pinned: {pin:?})"))
    }

    /// **Move** (module docs): build the worker for `to` on the lowest
    /// `p_new` ranks of `over` and carry the live state onto it from
    /// the roster in force (`self.plan` on the lowest `self.active_p`
    /// ranks of `over`), charging the exchange to `phase`. `exported`
    /// is this rank's [`export_r`](crate::kernel::DistKernel::export_r),
    /// `has_r` whether *any* rank of `over` stores R values.
    fn move_state(
        &self,
        over: &Comm,
        phase: Phase,
        to: &KernelPlan,
        p_new: usize,
        exported: Option<CooMatrix>,
        has_r: bool,
    ) -> Moved {
        let span_start = Instant::now();
        let dims = self.staged.prob.dims;
        let p_old = self.active_p;
        let old = PlanView::new(&self.plan, p_old, dims);
        let new = PlanView::new(to, p_new, dims);
        let active = over.split_by(|g| u64::from(g >= p_new));
        let mut worker = (over.rank() < p_new)
            .then(|| KernelBuilder::from_staged(&self.staged).build_planned(&active, to));
        // Ranks outside a roster hold the empty layout (and empty R
        // bounds) on that side ([`PlanView`]): they contribute or
        // receive nothing but take part in the exchange, so its pattern
        // stays deterministic.
        let carry = |op: Operand, local: Option<Mat>| {
            let _ph = over.phase(phase);
            repartition_dense(
                over,
                &local.unwrap_or_else(|| Mat::zeros(0, 0)),
                |g| old.layout_of(op, false, g),
                |g| new.layout_of(op, false, g),
            )
        };
        let a = carry(Operand::A, self.worker.as_ref().map(|w| w.a_iterate()));
        let b = carry(Operand::B, self.worker.as_ref().map(|w| w.b_iterate()));
        if let Some(w) = &mut worker {
            w.set_a(&active, &a);
            w.set_b(&active, &b);
        }
        if has_r {
            assert!(
                self.worker.is_none() || exported.is_some(),
                "active ranks disagree on whether R values are stored"
            );
            let _ph = over.phase(phase);
            let global = redistribute_r(over, exported.as_ref(), old, new);
            if let Some(w) = &mut worker {
                w.import_r(&global);
            }
        }
        let span = match phase {
            Phase::Resize => "session.resize",
            _ => "session.migrate",
        };
        trace::complete(TraceKind::Session, span, span_start, || {
            vec![
                ("to".to_string(), ArgVal::Str(format!("{:?}", to.id))),
                ("p_old".to_string(), ArgVal::Num(p_old as f64)),
                ("p_new".to_string(), ArgVal::Num(p_new as f64)),
            ]
        });
        Moved {
            worker,
            active,
            p: p_new,
        }
    }

    /// **Install** (module docs): make `to` the plan in force and log
    /// the decision. Without `moved` state (a stay decision or an
    /// elision-only retune) only the record changes.
    fn install(
        &mut self,
        moved: Option<Moved>,
        to: KernelPlan,
        observed_nnz: usize,
        predicted_from_s: Option<f64>,
        predicted_to_s: f64,
    ) -> ReplanEvent {
        let dims = self.staged.prob.dims;
        let from = std::mem::replace(&mut self.plan, to);
        let migrated = moved.is_some();
        if let Some(m) = moved {
            let view = PlanView::new(&to, m.p, dims);
            self.row_groups = m.worker.is_some().then(|| row_groups(&m.active, view));
            (self.worker, self.comm, self.active_p) = (m.worker, m.active, m.p);
        }
        let event = ReplanEvent {
            at_call: self.calls,
            observed_nnz,
            observed_phi: dims.phi(observed_nnz),
            from,
            to,
            predicted_from_s,
            predicted_to_s,
            migrated,
        };
        self.replan_log.push(event.clone());
        event
    }

    /// Re-run the planner against the observed problem and migrate when
    /// the predicted win clears `policy.hysteresis`; when the best
    /// candidate is the kernel already in force (its family, `c` and
    /// routing), adopt its plan, elision included, without moving
    /// data. Collective over the active communicator:
    /// every active rank must call with the same policy (decisions are
    /// deterministic, so all ranks agree). Returns (and logs) the
    /// decision.
    pub fn replan(&mut self, policy: &ReplanPolicy) -> ReplanEvent {
        self.replan_pinned(policy, None)
    }

    /// Explicitly migrate to `algorithm` at replication factor `c`
    /// (dense-routed) — a replan whose decision is pinned, for tests
    /// and for applications that schedule migrations themselves.
    /// Collective over the active communicator; preserves iterates, R
    /// values, and loss.
    ///
    /// # Panics
    ///
    /// Panics when the family cannot realize `c` on the active roster
    /// or does not admit the algorithm's elision.
    pub fn migrate(&mut self, algorithm: Algorithm, c: usize) {
        self.replan_pinned(&ReplanPolicy::default(), Some((algorithm, c)));
    }

    /// [`Session::replan`], or with `pin` [`Session::migrate`]: the
    /// pinned candidate is the only one scored and always moves.
    fn replan_pinned(
        &mut self,
        policy: &ReplanPolicy,
        pin: Option<(Algorithm, usize)>,
    ) -> ReplanEvent {
        let span_start = Instant::now();
        let observed_nnz = self.observed_nnz();
        let (p, dims, from) = (self.active_p, self.staged.prob.dims, self.plan);
        let best = self.choose(p, observed_nnz, pin);
        let model = self.world.model();
        let predicted_from_s = from.algorithm().and_then(|alg| {
            let comm_s = theory::predicted_comm_time_for(
                model,
                alg,
                from.routing,
                p,
                from.c,
                dims,
                observed_nnz,
            )?;
            Some(comm_s + theory::predicted_comp_time(model, p, dims, observed_nnz))
        });
        let predicted_to_s = best.predicted_total_s();
        // A routing is built into the worker (its need sets), so a
        // kernel differing only in routing is another kernel.
        let same_kernel = from.id == KernelId::Family(best.algorithm.family)
            && from.c == best.c
            && from.routing == best.routing;
        let win = predicted_from_s.map_or(f64::INFINITY, |f| f / predicted_to_s);
        let mut to = from;
        let moved = if pin.is_some() || (!same_kernel && win >= policy.hysteresis) {
            to = best.plan();
            // Over the active communicator every rank knows locally
            // whether R is stored.
            let exported = self.w().export_r();
            let has_r = exported.is_some();
            Some(self.move_state(&self.comm, Phase::Migration, &to, p, exported, has_r))
        } else {
            if same_kernel {
                to = best.plan();
            }
            None
        };
        let event = self.install(moved, to, observed_nnz, predicted_from_s, predicted_to_s);
        trace::complete(TraceKind::Session, "session.replan", span_start, || {
            vec![
                (
                    "migrated".to_string(),
                    ArgVal::Num(u8::from(event.migrated) as f64),
                ),
                ("to".to_string(), ArgVal::Str(format!("{:?}", event.to.id))),
            ]
        });
        event
    }

    /// Re-plan and redistribute the session onto `p_new` active ranks —
    /// the elastic-fleet primitive: the transition of a migration,
    /// across a *process-count* change. Grow activates spare ranks,
    /// shrink retires the highest active ranks; active membership is
    /// always world ranks `0..p_new`.
    ///
    /// Collective over the **world** communicator: every pool rank —
    /// active or spare — must call with the same `p_new`. The planner
    /// scores `p_new` ranks against the observed nonzero count, so
    /// growing does not merely stretch the old grid — it may well land
    /// on a different family. State moves over the world, charged to
    /// [`Phase::Resize`] — [`Phase::Migration`] keeps meaning "family
    /// change at fixed `p`", and neither touches the modeled per-kernel
    /// metrics the bench baseline records. The stored loss is
    /// bit-identical before and after (every R value moves exactly once
    /// and sums are over the same entries). Returns the plan now in
    /// force; every rank logs the decision.
    ///
    /// # Panics
    ///
    /// Panics when `p_new` is 0 or exceeds the world size.
    pub fn resize(&mut self, p_new: usize) -> KernelPlan {
        assert!(
            (1..=self.world.size()).contains(&p_new),
            "resize({p_new}) must be within 1..={}",
            self.world.size()
        );
        let exported = self.worker.as_ref().and_then(|w| w.export_r());
        let (has_r, observed_nnz) = {
            let _ph = self.world.phase(Phase::Resize);
            // World-agreed observation: does any rank store R values,
            // and the post-pruning global nonzero count if so (spares
            // contribute zeros). One 2-word all-reduce.
            let mut buf = [0.0, 0.0];
            if let Some(local) = &exported {
                buf = [1.0, unpruned(&local.vals) as f64];
            }
            self.world.allreduce_sum(&mut buf);
            // Spares miss active-only replans, so their record of the
            // plan in force may be stale: world rank 0 — active in
            // every roster — broadcasts its own.
            let mine = (self.world.rank() == 0).then_some(self.plan);
            self.plan = self.world.broadcast(0, mine);
            if buf[0] > 0.0 {
                (true, buf[1].round() as usize)
            } else {
                (false, self.staged.prob.nnz())
            }
        };
        let best = self.choose(p_new, observed_nnz, None);
        let to = best.plan();
        let moved = self.move_state(&self.world, Phase::Resize, &to, p_new, exported, has_r);
        let predicted_to_s = best.predicted_total_s();
        self.install(Some(moved), to, observed_nnz, None, predicted_to_s)
            .to
    }
}

/// The stored R values `map_r`-style pruning has not zeroed.
fn unpruned(vals: &[f64]) -> usize {
    vals.iter().filter(|v| v.abs() > 0.0).count()
}

/// Owner-targeted R-value redistribution from the `old` plan's R
/// layout to the `new` one's, both viewed over `comm`: route each
/// exported global-coordinate triplet to exactly the ranks whose new
/// cells ([`PlanView::cells`]) hold it, and merge what arrives into one
/// global-coordinate [`CooMatrix`].
///
/// Ownership on both sides is pure grid arithmetic — no communication
/// discovers it. A triplet's new cell is found by binary search on the
/// new grid's ranges, and its owners are read from a table built once.
/// A peer pair only exchanges a message when one of the source's old
/// cells meets one of the destination's new cells, so the
/// [`Comm::sparse_alltoallv`] is sparse over peers as well as over
/// entries — `O(c·nnz)` words total, never the `O(p·nnz)` of an
/// allgather. Ranks with no cells on one side (nothing stored, or
/// outside that side's roster) take part without sending or receiving
/// on that side, which is how cross-world resizes reuse this for roster
/// members and spares alike.
fn redistribute_r(
    comm: &Comm,
    local: Option<&CooMatrix>,
    old: PlanView,
    new: PlanView,
) -> CooMatrix {
    let (p, me, dims) = (comm.size(), comm.rank(), new.dims());
    let ([rows, cols], [old_rows, old_cols]) = (new.sparse_grid(false), old.sparse_grid(false));
    let cell = |i: usize, j: usize| i * cols.len() + j;
    let mut owners = vec![Vec::new(); rows.len() * cols.len()];
    for g in 0..p {
        for (i, j) in new.cells(g) {
            owners[cell(i, j)].push(g);
        }
    }
    // The grid block holding `x`, the blocks a range meets, and the
    // ranks `g` sends to: the owners of every new cell one of its old
    // cells meets.
    let find = |grid: &[Range<usize>], x: usize| grid.partition_point(|r| r.end <= x);
    let meets = |grid: &[Range<usize>], r: &Range<usize>| {
        find(grid, r.start)..grid.partition_point(|x| x.start < r.end)
    };
    let sends_to = |g: usize| {
        let mut to = vec![false; p];
        for (oi, oj) in old.cells(g) {
            for i in meets(&rows, &old_rows[oi]) {
                for j in meets(&cols, &old_cols[oj]) {
                    owners[cell(i, j)].iter().for_each(|&h| to[h] = true);
                }
            }
        }
        to
    };
    type Triplets = (Vec<u32>, Vec<u32>, Vec<f64>);
    let mut outgoing: Vec<Option<Triplets>> = sends_to(me)
        .into_iter()
        .map(|to| to.then(Default::default))
        .collect();
    for (i, j, v) in local.iter().flat_map(|local| local.iter()) {
        for &g in &owners[cell(find(&rows, i), find(&cols, j))] {
            let t = outgoing[g]
                .as_mut()
                .expect("an exported triplet lies in an old cell");
            t.0.push(i as u32);
            t.1.push(j as u32);
            t.2.push(v);
        }
    }
    let expect: Vec<bool> = (0..p).map(|g| sends_to(g)[me]).collect();
    let incoming = comm.sparse_alltoallv(outgoing, &expect);
    let mut global = CooMatrix::empty(dims.m, dims.n);
    for (rows, cols, vals) in incoming.into_iter().flatten() {
        global.rows.extend_from_slice(&rows);
        global.cols.extend_from_slice(&cols);
        global.vals.extend_from_slice(&vals);
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, SimWorld};

    fn world(p: usize) -> SimWorld {
        SimWorld::new(p, MachineModel::bandwidth_only())
    }

    #[test]
    fn session_builds_and_counts_fused_calls() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 7001));
        let out = world(8).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2)
                .build(comm);
            let _ = s.fused_mm_b(None, Sampling::Values);
            let _ = s.fused_mm_a(None, Sampling::Ones);
            s.calls()
        });
        assert!(out.iter().all(|o| o.value == 2));
    }

    #[test]
    fn observed_nnz_tracks_pruning() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 7002));
        let nnz = prob.nnz();
        let out = world(8).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob))
                .family(AlgorithmFamily::SparseShift15)
                .replication(2)
                .build(comm);
            let before_sddmm = s.observed_nnz();
            s.worker_mut().sddmm();
            let full = s.observed_nnz();
            s.map_r(&mut |_| 0.0);
            let pruned = s.observed_nnz();
            (before_sddmm, full, pruned)
        });
        for o in &out {
            assert_eq!(o.value.0, nnz, "no R yet: staged nnz");
            assert_eq!(o.value.1, nnz, "dense SDDMM keeps every nonzero");
            assert_eq!(o.value.2, 0, "all-pruned R observes zero");
        }
    }

    #[test]
    fn replan_stays_within_hysteresis() {
        // A freshly auto-planned session is already optimal for its
        // observed problem: replanning must be a no-op.
        let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 7003));
        let out = world(8).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob)).build(comm);
            let ev = s.replan(&ReplanPolicy::default());
            (ev.migrated, ev.from.id == ev.to.id, s.migrations())
        });
        for o in &out {
            assert!(!o.value.0, "fresh auto plan must not migrate");
            assert!(o.value.1);
            assert_eq!(o.value.2, 0);
        }
    }

    #[test]
    fn migration_charges_the_migration_phase() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 7004));
        let out = world(8).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2)
                .build(comm);
            s.worker_mut().sddmm();
            s.migrate(
                Algorithm::new(AlgorithmFamily::SparseShift15, Elision::ReplicationReuse),
                2,
            );
            s.stats().phase(Phase::Migration).words_sent
        });
        let total: u64 = out.iter().map(|o| o.value).sum();
        assert!(total > 0, "migration must move words in its own phase");
    }

    #[test]
    fn plan_records_the_elision_fused_calls_use() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 7005));
        // A builder override lands in the one stored plan.
        let pr = Arc::clone(&prob);
        let out = world(8).run(move |comm| {
            let s = Session::builder_arc(Arc::clone(&pr))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2)
                .elision(Elision::None)
                .build(comm);
            (s.plan().elision, s.elision())
        });
        for o in &out {
            assert_eq!(o.value, (Elision::None, Elision::None));
        }
        // Elision-only retune: a session moved onto the planner's kernel
        // (family, c and dense routing) without its elision stays on
        // that kernel at the next replan and adopts the planner's
        // elision — in the record and in the fused calls.
        let out = world(8).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob)).build(comm);
            let auto = s.plan();
            assert_eq!(auto.routing, Routing::Dense, "the planner's pick elides");
            let family = auto.id.family().unwrap();
            s.migrate(Algorithm::new(family, Elision::None), auto.c);
            let ev = s.replan(&ReplanPolicy::default());
            (ev, s.plan(), s.elision())
        });
        for o in &out {
            let (ev, plan, elision) = &o.value;
            let admits = |p: &KernelPlan| p.algorithm().unwrap().admits(p.routing);
            assert!(admits(&ev.from) && admits(plan), "{ev:?}");
            assert!(!ev.migrated, "a retune moves no data");
            assert_eq!(ev.from.elision, Elision::None, "the override was in force");
            assert_ne!(ev.to.elision, Elision::None, "the planner's pick elides");
            assert_eq!(ev.to, *plan, "the logged plan is the stored plan");
            assert_eq!(plan.elision, *elision);
        }
    }

    #[test]
    #[should_panic(expected = "is a spare")]
    fn kernel_calls_on_a_spare_rank_panic() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 7006));
        world(3).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob))
                .active_ranks(2)
                .build(comm);
            if !s.is_active() {
                let _ = s.fused_mm_b(None, Sampling::Values);
            }
        });
    }

    /// ds15 at c = 1 on 4 ranks, redistributed to ds15 at c = 2 on 6:
    /// the new layout stores strided column blocks, which the other
    /// fiber member's blocks interleave. Each rank receives exactly the
    /// nonzeros of its new cells, each once.
    #[test]
    fn redistributed_r_reaches_each_new_owner_once() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(48, 48, 6, 4, 9505));
        let ds15 = |c, p| {
            PlanView::of(
                KernelId::Family(AlgorithmFamily::DenseShift15),
                c,
                p,
                prob.dims,
            )
        };
        let (old, new) = (ds15(1, 4), ds15(2, 6));
        let out = world(6).run(move |comm| {
            let me = comm.rank();
            // The nonzeros in rank `me`'s cells of `view`, in order.
            let held = |view: PlanView| {
                let ([rows, cols], cells) = (view.sparse_grid(false), view.cells(me));
                let inside = |i, j| {
                    cells
                        .iter()
                        .any(|&(a, b)| rows[a].contains(&i) && cols[b].contains(&j))
                };
                let mut held = CooMatrix::empty(prob.dims.m, prob.dims.n);
                prob.s
                    .iter()
                    .filter(|&(i, j, _)| inside(i, j))
                    .for_each(|(i, j, v)| held.push(i, j, v));
                held
            };
            let local = (me < old.p()).then(|| held(old));
            let got = redistribute_r(comm, local.as_ref(), old, new);
            let sorted = |m: &CooMatrix| {
                let mut t: Vec<_> = m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect();
                t.sort_unstable();
                t
            };
            let (got, want) = (sorted(&got), sorted(&held(new)));
            (got == want, got.len(), want.len())
        });
        for o in &out {
            let (same, got, held) = o.value;
            assert!(held > 0, "rank {} owns nonzeros", o.rank);
            assert!(
                same,
                "rank {}: received {got} triplets, holds {held}",
                o.rank
            );
        }
    }
}
