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
//!   travels only to the ranks whose destination pattern bounds contain
//!   it, `O(c·nnz)` words, never an allgather's `O(p·nnz)` — between
//!   the *(old plan, old p)* and *(new plan, new p)* [`PlanView`]s over
//!   one communicator whose lowest ranks form both rosters. Ranks
//!   outside a roster hold the empty layout on that side (a view owns
//!   nothing beyond its `p`) — a no-op when both rosters are the whole
//!   communicator. Installing the iterates also pays the new kernel's
//!   usual `set_a`/`set_b` distribution shift ([`Phase::OutsideComm`],
//!   as always).
//! * **install** — the only code that knows what depends on the plan:
//!   the worker, the active communicator and roster size, the stored
//!   [`KernelPlan`], the row-sharing reduction groups
//!   ([`Session::row_group_a`] / [`Session::row_group_b`]), the
//!   drift-gate baseline, and the [`ReplanEvent`] log entry (every
//!   decision is logged, moving or not). No optimizer state is lost and
//!   the squared loss is identical before and after.
//!
//! The callers differ only in where the transition runs and in their
//! preamble:
//!
//! | | collective over | rosters | charged to | span | preamble |
//! |---|---|---|---|---|---|
//! | [`Session::replan`] / [`Session::migrate`] | the active communicator | `p → p` | [`Phase::Migration`] | `session.migrate` (inside `session.replan`) | [`Session::observed_nnz`]; `replan` moves only when the predicted win clears [`ReplanPolicy::hysteresis`] |
//! | [`Session::resize`] | the world (actives and spares) | `p → p_new` | [`Phase::Resize`] | `session.resize` | a 2-word world observation and a broadcast of the plan in force (spares miss active-only replans) |
//!
//! The applications in `dsk-apps` (`AppEngine`, `AlsSolver`,
//! `GatEngine`) are thin layers over a `Session` and hold no
//! plan-dependent state of their own, so a session may change its plan
//! under them at any stored-operand call
//! ([`SessionBuilder::auto_replan`]).

use std::sync::Arc;
use std::time::Instant;

use dsk_comm::trace::{self, ArgVal, TraceKind};
use dsk_comm::{Comm, MachineModel, Phase, RankStats};
use dsk_dense::Mat;
use dsk_sparse::CooMatrix;

use crate::common::{AlgorithmFamily, Elision, Routing, Sampling};
use crate::global::GlobalProblem;
use crate::kernel::{CombineSpec, KernelBuilder, KernelId, KernelPlan, PlannedCandidate};
use crate::layout::repartition_dense;
use crate::planview::{Operand, PlanView};
use crate::staged::StagedProblem;
use crate::theory::{self, Algorithm};
use crate::worker::DistWorker;

/// When and how eagerly [`Session::replan`] migrates.
#[derive(Debug, Clone, Copy)]
pub struct ReplanPolicy {
    /// Minimum modeled speedup (current predicted per-call seconds ÷
    /// best candidate's) required before migrating. Values above 1
    /// damp oscillation between families whose predictions are close —
    /// a migration moves real data, so a 2% paper win is not worth it.
    pub hysteresis: f64,
    /// R values with `|v| ≤ prune_epsilon` count as pruned when the
    /// session measures the observed nonzero count. Zero (the default)
    /// counts exact zeros only — the value `map_r`-style pruning
    /// writes.
    pub prune_epsilon: f64,
    /// Replication-factor cap for the re-planning search (the paper's
    /// memory-limit bound).
    pub c_max: usize,
    /// Automatic cadence: when set — and the policy is installed via
    /// [`SessionBuilder::auto_replan`] or [`Session::set_auto_replan`] —
    /// the session replans itself every `n` *stored-operand* fused
    /// calls (`fused_mm_a(None, ..)` / `fused_mm_b(None, ..)`), without
    /// the application calling [`Session::replan`]. Calls with explicit
    /// operands never trigger (the caller holds layout-dependent state
    /// mid-solve, e.g. CG search directions); the check fires at the
    /// next stored-operand call instead.
    pub every_n_calls: Option<u64>,
    /// Drift gate for the automatic cadence: skip the (collective, but
    /// cheap) planner re-run unless the observed nonzero count moved by
    /// at least this factor — in either direction — since the last
    /// planning decision. `None` replans at every cadence point.
    pub drift_ratio: Option<f64>,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            hysteresis: 1.15,
            prune_epsilon: 0.0,
            c_max: 16,
            every_n_calls: None,
            drift_ratio: None,
        }
    }
}

impl ReplanPolicy {
    /// A policy that replans automatically every `n` stored-operand
    /// fused calls (see [`ReplanPolicy::every_n_calls`]).
    pub fn every_n_calls(n: u64) -> Self {
        assert!(n > 0, "the replan cadence must be positive");
        ReplanPolicy {
            every_n_calls: Some(n),
            ..ReplanPolicy::default()
        }
    }

    /// Gate the automatic cadence on observed-nnz drift: only re-run
    /// the planner when nnz changed by at least `ratio`× (up or down)
    /// since the last planning decision. `ratio` must be ≥ 1.
    pub fn with_drift_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "drift ratio is a ×/÷ factor, must be ≥ 1");
        self.drift_ratio = Some(ratio);
        self
    }
}

/// One entry of the session's re-planning log: what was observed, what
/// the planner predicted, and whether the session migrated.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// Fused-call count when the replan ran (the iteration cadence).
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
    elision: Option<Elision>,
    c_max: usize,
    auto_policy: Option<ReplanPolicy>,
    active: Option<usize>,
}

impl SessionBuilder {
    fn new(staged: Arc<StagedProblem>) -> Self {
        let builder = KernelBuilder::from_staged_arc(Arc::clone(&staged));
        SessionBuilder {
            staged,
            builder,
            elision: None,
            c_max: 16,
            auto_policy: None,
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
        self.c_max = c_max;
        self.builder = self.builder.max_replication(c_max);
        self
    }

    /// The elision strategy the session uses for fused calls,
    /// overriding the plan's recommendation (the stored
    /// [`Session::plan`] records the override). Must be supported by
    /// the built kernel.
    pub fn elision(mut self, elision: Elision) -> Self {
        self.elision = Some(elision);
        self
    }

    /// Pin the machine model used for planning and re-planning (the
    /// communicator's own model otherwise).
    pub fn model(mut self, model: MachineModel) -> Self {
        self.builder = self.builder.model(model);
        self
    }

    /// Install an automatic re-planning policy: the session replans
    /// itself at the policy's [`ReplanPolicy::every_n_calls`] cadence
    /// (optionally gated by its drift ratio) without the application
    /// calling [`Session::replan`].
    pub fn auto_replan(mut self, policy: ReplanPolicy) -> Self {
        assert!(
            policy.every_n_calls.is_some(),
            "an automatic policy needs a cadence (ReplanPolicy::every_n_calls)"
        );
        self.auto_policy = Some(policy);
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

    /// Enable `dsk-trace` span recording for this process and write the
    /// Chrome trace-event JSON to `path` — the programmatic equivalent
    /// of setting `DSK_TRACE=path` before launch (the environment
    /// variable also works and needs no code change). The recorder is
    /// process-global: it covers every world this process participates
    /// in from this call on, not just this session. See
    /// [`dsk_comm::trace`] for the event vocabulary.
    pub fn trace(self, path: impl Into<std::path::PathBuf>) -> Self {
        dsk_comm::trace::enable_to(&path.into());
        self
    }

    /// Build this rank's session. Must be called by every rank of the
    /// communicator (the plan is deterministic, so all ranks agree
    /// without communication).
    pub fn build(self, comm: &Comm) -> Session {
        let model = self.builder.pinned_model().unwrap_or(*comm.model());
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
        let mut plan = match &worker {
            Some(w) => w.plan(),
            None => self.builder.plan_with(active_p, model),
        };
        let view = PlanView::new(&plan, active_p, self.staged.prob.dims);
        if let Some(e) = self.elision {
            assert!(view.supports(e), "{:?} does not support {e:?}", plan.id);
            plan.elision = e;
        }
        let row_groups = worker.is_some().then(|| row_groups(&active, view));
        let last_planned_nnz = self.staged.prob.nnz();
        Session {
            world,
            comm: active,
            active_p,
            staged: self.staged,
            worker,
            plan,
            row_groups,
            model,
            c_max: self.c_max,
            calls: 0,
            replan_log: Vec::new(),
            auto_policy: self.auto_policy,
            last_planned_nnz,
            last_auto_check: 0,
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
    model: MachineModel,
    c_max: usize,
    calls: u64,
    replan_log: Vec<ReplanEvent>,
    /// Automatic re-planning policy (see [`SessionBuilder::auto_replan`]).
    auto_policy: Option<ReplanPolicy>,
    /// Observed nnz at the last planning decision (construction or
    /// transition) — the baseline the drift gate compares against.
    last_planned_nnz: usize,
    /// Fused-call count at the last automatic cadence check (sticky
    /// cadence: explicit-operand calls defer, never skip, a check).
    last_auto_check: u64,
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

    /// Fused calls issued so far (the iteration cadence the replan log
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

    /// FusedMMA with the session's elision; counts one call. With an
    /// automatic policy installed, a stored-operand call (`x = None`)
    /// at the policy's cadence replans (and possibly migrates) first.
    ///
    /// An iterate call (`Some(x)`) is a step inside a solve against the
    /// stored `B`: it never replans. On the 1.5D dense shift with local
    /// kernel fusion it replays the ring tiles of `B` that
    /// [`Session::rhs_a`] (or the first iterate call, without one) kept,
    /// instead of shifting `B` again. They are held until
    /// [`Session::commit_b`] or the next transition, at
    /// `(q − 1)·⌈n/p⌉·r` words per rank (`q = p/c`, the ring length).
    pub fn fused_mm_a(&mut self, x: Option<&Mat>, sampling: Sampling) -> Mat {
        self.calls += 1;
        if x.is_none() {
            self.maybe_auto_replan();
        }
        let elision = self.plan.elision;
        self.w_mut().fused_mm_a(x, elision, sampling)
    }

    /// FusedMMB with the session's elision; counts one call. Same
    /// automatic-replan hook as [`Session::fused_mm_a`], and the dual
    /// hold: an iterate call replays the ring tiles of the stored `A`
    /// that [`Session::rhs_b`] kept, until [`Session::commit_a`] or the
    /// next transition, at `(q − 1)·⌈m/p⌉·r` words per rank.
    pub fn fused_mm_b(&mut self, y: Option<&Mat>, sampling: Sampling) -> Mat {
        self.calls += 1;
        if y.is_none() {
            self.maybe_auto_replan();
        }
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

    /// Store `f(u[i] + v[j])` at every stored nonzero `(i, j)` (see
    /// [`DistKernel::set_r_pair_sums`](crate::kernel::DistKernel::set_r_pair_sums)), charged to
    /// [`Phase::OutsideCompute`].
    pub fn set_r_pair_sums(&mut self, u: &[f64], v: &[f64], f: &dyn Fn(f64) -> f64) {
        let (w, comm) = self.w_mut_with_comm();
        let _ph = comm.phase(Phase::OutsideCompute);
        w.set_r_pair_sums(u, v, f);
    }

    /// Row sums of the stored R values, reduced over the sharing ranks:
    /// the local sums are charged to [`Phase::OutsideCompute`], the
    /// reduction to `phase`.
    pub fn r_row_sums(&self, phase: Phase) -> Vec<f64> {
        let _ph = self.comm.phase(Phase::OutsideCompute);
        self.w().r_row_sums(&self.comm, phase)
    }

    /// Scale each stored R row, charged to [`Phase::OutsideCompute`].
    pub fn scale_r_rows(&mut self, scale: &[f64]) {
        let (w, comm) = self.w_mut_with_comm();
        let _ph = comm.phase(Phase::OutsideCompute);
        w.scale_r_rows(scale);
    }

    /// SpMMA with the stored R values against an explicit operand.
    pub fn spmm_a_with(&self, y: &Mat) -> Mat {
        self.w().spmm_a_with(y)
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
    // Observation and the automatic cadence
    // ------------------------------------------------------------------

    /// The globally observed nonzero count: stored R values above the
    /// pruning threshold (each nonzero counted once across ranks), or
    /// the staged nnz when no SDDMM has run yet. Charged to
    /// [`Phase::Migration`] (one scalar all-reduce).
    pub fn observed_nnz(&self, policy: &ReplanPolicy) -> usize {
        match self.w().export_r() {
            None => self.staged.prob.nnz(),
            Some(local) => {
                let mine = local
                    .vals
                    .iter()
                    .filter(|v| v.abs() > policy.prune_epsilon)
                    .count();
                let _ph = self.comm.phase(Phase::Migration);
                self.comm.allreduce_scalar(mine as f64).round() as usize
            }
        }
    }

    /// Install (or clear) the automatic re-planning policy at runtime —
    /// the post-construction form of [`SessionBuilder::auto_replan`].
    /// Collective in effect: every rank must install the same policy at
    /// the same call count, or the cadence-triggered collectives
    /// mismatch.
    pub fn set_auto_replan(&mut self, policy: Option<ReplanPolicy>) {
        if let Some(p) = &policy {
            assert!(
                p.every_n_calls.is_some(),
                "an automatic policy needs a cadence (ReplanPolicy::every_n_calls)"
            );
        }
        // The cadence counts from installation, not from call zero — a
        // policy installed at call 100 first checks at call 100 + n.
        self.last_auto_check = self.calls;
        self.auto_policy = policy;
    }

    /// The cadence hook: replan when an automatic policy is installed,
    /// at least `n` fused calls elapsed since the last cadence check,
    /// and the observed nnz cleared the drift gate. The check is
    /// *sticky*: cadence points that land on explicit-operand calls
    /// (which never trigger — see [`ReplanPolicy::every_n_calls`])
    /// carry over to the next stored-operand call instead of being
    /// skipped. Returns the logged decision when a replan ran.
    fn maybe_auto_replan(&mut self) -> Option<ReplanEvent> {
        let policy = self.auto_policy?;
        let n = policy.every_n_calls?;
        if self.calls - self.last_auto_check < n {
            return None;
        }
        self.last_auto_check = self.calls;
        if let Some(ratio) = policy.drift_ratio {
            let observed = self.observed_nnz(&policy).max(1) as f64;
            let base = self.last_planned_nnz.max(1) as f64;
            if (observed / base).max(base / observed) < ratio {
                return None;
            }
        }
        Some(self.replan(&policy))
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
        c_max: usize,
        pin: Option<(Algorithm, usize)>,
    ) -> PlannedCandidate {
        let mut builder = KernelBuilder::for_shape(self.staged.prob.dims, observed_nnz)
            .model(self.model)
            .max_replication(c_max);
        if let Some((algorithm, c)) = pin {
            builder = builder
                .algorithm(algorithm)
                .replication(c)
                .routing(Routing::Dense);
        }
        let candidates = builder.plan_candidates(p);
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
        let mut worker = (over.rank() < p_new).then(|| {
            KernelBuilder::from_staged(&self.staged)
                .model(self.model)
                .build_planned(&active, to)
        });
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
            let bounds = |view: PlanView| -> Vec<Bounds> {
                (0..over.size()).map(|g| view.r_bounds_of(g)).collect()
            };
            let global = redistribute_r(
                over,
                exported.as_ref(),
                &bounds(old),
                &bounds(new),
                dims.m,
                dims.n,
            );
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
        self.last_planned_nnz = observed_nnz;
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
    /// candidate is the kernel already in force, adopt its elision
    /// without moving data. Collective over the active communicator:
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
        let observed_nnz = self.observed_nnz(policy);
        let (p, dims, from) = (self.active_p, self.staged.prob.dims, self.plan);
        let best = self.choose(p, observed_nnz, policy.c_max.min(self.c_max), pin);
        let predicted_from_s = from.algorithm().and_then(|alg| {
            let comm_s = theory::predicted_comm_time_for(
                &self.model,
                alg,
                from.routing,
                p,
                from.c,
                dims,
                observed_nnz,
            )?;
            Some(comm_s + theory::predicted_comp_time(&self.model, p, dims, observed_nnz))
        });
        let predicted_to_s = best.predicted_total_s();
        let same_kernel = from.id == KernelId::Family(best.algorithm.family) && from.c == best.c;
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
                to.elision = best.algorithm.elision;
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
                buf = [
                    1.0,
                    local.vals.iter().filter(|v| v.abs() > 0.0).count() as f64,
                ];
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
        let best = self.choose(p_new, observed_nnz, self.c_max, None);
        let to = best.plan();
        let moved = self.move_state(&self.world, Phase::Resize, &to, p_new, exported, has_r);
        let predicted_to_s = best.predicted_total_s();
        self.install(Some(moved), to, observed_nnz, None, predicted_to_s)
            .to
    }
}

type Bounds = (std::ops::Range<usize>, std::ops::Range<usize>);

/// Owner-targeted R-value redistribution: route each exported
/// global-coordinate triplet to exactly the ranks whose destination
/// pattern bounds contain it, and merge what arrives into one
/// global-coordinate [`CooMatrix`].
///
/// Ownership on both sides is pure grid arithmetic — no communication
/// discovers it. A peer pair only exchanges a message when the source's
/// old pattern-bounds rectangle intersects the destination's new one,
/// so the [`Comm::sparse_alltoallv`] is sparse over peers as well as
/// over entries — `O(c·nnz)` words total, never the `O(p·nnz)` of an
/// allgather. Ranks with nothing stored (`local == None`) and ranks
/// whose bounds are empty on one side participate without sending or
/// receiving on that side, which is how cross-world resizes reuse this
/// for roster members and spares alike.
fn redistribute_r(
    comm: &Comm,
    local: Option<&CooMatrix>,
    old_bounds: &[Bounds],
    new_bounds: &[Bounds],
    m: usize,
    n: usize,
) -> CooMatrix {
    let p = comm.size();
    let me = comm.rank();
    fn overlaps(a: &Bounds, b: &Bounds) -> bool {
        a.0.start < b.0.end && b.0.start < a.0.end && a.1.start < b.1.end && b.1.start < a.1.end
    }
    type Triplets = (Vec<u32>, Vec<u32>, Vec<f64>);
    let i_store = local.is_some();
    let mut outgoing: Vec<Option<Triplets>> = (0..p)
        .map(|g| (i_store && overlaps(&old_bounds[me], &new_bounds[g])).then(Default::default))
        .collect();
    if let Some(local) = local {
        for (i, j, v) in local.iter() {
            debug_assert!(
                old_bounds[me].0.contains(&i) && old_bounds[me].1.contains(&j),
                "exported triplet outside this rank's pattern bounds"
            );
            for (g, slot) in outgoing.iter_mut().enumerate() {
                if let Some(t) = slot {
                    let (rows, cols) = &new_bounds[g];
                    if rows.contains(&i) && cols.contains(&j) {
                        t.0.push(i as u32);
                        t.1.push(j as u32);
                        t.2.push(v);
                    }
                }
            }
        }
    }
    let expect: Vec<bool> = (0..p)
        .map(|g| overlaps(&old_bounds[g], &new_bounds[me]))
        .collect();
    let incoming = comm.sparse_alltoallv(outgoing, &expect);
    let mut global = CooMatrix::empty(m, n);
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
    use dsk_comm::SimWorld;

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
            let policy = ReplanPolicy::default();
            let before_sddmm = s.observed_nnz(&policy);
            s.worker_mut().sddmm();
            let full = s.observed_nnz(&policy);
            s.map_r(&mut |_| 0.0);
            let pruned = s.observed_nnz(&policy);
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
        // Elision-only retune: an auto-planned session overridden to no
        // elision stays on its kernel at the first replan and adopts
        // the planner's elision — in the record and in the fused calls.
        let out = world(8).run(move |comm| {
            let mut s = Session::builder_arc(Arc::clone(&prob))
                .elision(Elision::None)
                .build(comm);
            let ev = s.replan(&ReplanPolicy::default());
            (ev, s.plan(), s.elision())
        });
        for o in &out {
            let (ev, plan, elision) = &o.value;
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
}
