//! The unified distributed-kernel abstraction: the [`DistKernel`] trait
//! every algorithm family (and the 1D baseline) implements, and the
//! [`KernelBuilder`] planner that picks the theory-predicted cheapest
//! algorithm and replication factor for a problem shape.
//!
//! [`DistKernel`] captures the full shared surface once, split by who
//! has to write it. **Required** methods are what differs between
//! kernels — the data flow. **Provided** methods are what does not:
//! they are derived from the [`KernelState`] every kernel holds
//! ([`DistKernel::state`]): its [`PlanView`] (every Table II layout and
//! every group of ranks sharing rows is grid arithmetic on `(kernel, c,
//! p, dims)`), its [`RStore`] (the stored SDDMM result lives on the
//! kernel's own pattern blocks, and what happens to it afterwards never
//! depends on how the family moved data to compute it), its operands in
//! the iterate layout with a replica-layout copy where the view says
//! the two differ, and the ring tiles an iterate call kept. Callers ask
//! the view itself ([`DistKernel::view`]) for layouts, groups,
//! admissibility and dims. A family file holds its grid, its need sets
//! and its rounds, and nothing else: its sparse blocks are cut from the
//! view's Table II layout ([`StagedProblem::cut`](crate::staged)).
//!
//! | paper section | required | provided |
//! |---------------|----------|----------|
//! | kernel state | [`DistKernel::state`], [`DistKernel::state_mut`] | [`DistKernel::view`], [`DistKernel::r_store`], [`DistKernel::r_store_mut`] |
//! | §III kernels (SDDMM, SpMMA/B) | [`DistKernel::dots`] (the SDDMM data flow, unsampled), [`DistKernel::spmm_a`], [`DistKernel::spmm_b`] | [`DistKernel::sddmm`] (the dots sampled by the [`RStore`]'s values; 2.5D sparse replication overrides it) |
//! | §IV FusedMM + elision | [`DistKernel::fused`] (the family's data flow for FusedMMA or FusedMMB, by output operand) | [`DistKernel::fused_mm_a`], [`DistKernel::fused_mm_b`] (each checks [`PlanView::supports`] once, with one message, before dispatching) |
//! | §VI-E generalized SDDMM (the paper's GAT logits) | [`DistKernel::dots`] of a [`CombineSpec`] | [`DistKernel::sddmm_general`] |
//! | §VI-E softmax / ALS loss plumbing | | [`DistKernel::r_row_sums`] (the [`RStore`]'s local sums, all-reduced over the ranks that share the rows: the [`KernelState`]'s R-row group, read off the view's cells), [`DistKernel::map_r`], [`DistKernel::scale_r_rows`], [`DistKernel::sq_loss_local`] |
//! | §VI-E convolution (`α·(H·W)`) | [`DistKernel::spmm_a_from`] (the family's SpMMA round, reading an [`RValues`] source: the stored R values, or attention made per nonzero from per-node factors inside the local row loop, with its row sums) | [`DistKernel::spmm_a_with`] (the stored values), [`DistKernel::spmm_a_pair_exp`] (the attention `exp(LeakyReLU(u_i + v_j))` of a [`PairExp`] and its row sums reduced over the row group: what the GAT engine runs, FusedMMA's shape) |
//! | Table II data distributions | | [`DistKernel::a_iterate`], [`DistKernel::b_iterate`]; the layouts are [`PlanView::a_layout_of`], [`PlanView::b_layout_of`], [`PlanView::spmm_a_with_layout_of`] |
//! | Fig. 9 distribution shifts | | [`DistKernel::set_a`], [`DistKernel::set_b`] (shifting through the view: iterate → replica layout, where the two differ; the operand's held ring tiles are dropped), [`DistKernel::rhs_a`], [`DistKernel::rhs_b`] |
//! | Fig. 9 row-sharing dot products | | [`PlanView::row_group_a`], [`PlanView::row_group_b`] |
//! | live migration | | [`DistKernel::export_r`], [`DistKernel::import_r`] |
//! | verification | | [`DistKernel::gather_r`]; the kernel and dims are [`PlanView::id`], [`PlanView::dims`] |
//!
//! [`KernelBuilder`] sits on top: it resolves a *plan* — which kernel,
//! which replication factor `c`, which elision — either explicitly
//! (`.family(f)`, `.replication(c)`) or automatically (`.auto()`, the
//! default) from the paper's Table III/IV cost model in [`theory`],
//! reproducing the Figure 6 phase-diagram decision at construction time.
//!
//! # R-value mutability contract
//!
//! Trait methods that only *read* the stored R values take `&self`
//! ([`DistKernel::r_row_sums`], [`DistKernel::spmm_a_with`],
//! [`DistKernel::sq_loss_local`], [`DistKernel::gather_r`],
//! [`DistKernel::export_r`]); methods that *write* them take
//! `&mut self` ([`DistKernel::sddmm`], [`DistKernel::sddmm_general`],
//! [`DistKernel::map_r`], [`DistKernel::scale_r_rows`],
//! [`DistKernel::import_r`]), and no other method writes them. Kernel
//! executions that consume operands without touching R state also stay
//! `&mut self` (they may reuse internal buffers):
//! [`DistKernel::fused_mm_a`] and [`DistKernel::fused_mm_b`] keep their
//! SDDMM to the call and leave the stored R values as they were, and
//! so do [`DistKernel::spmm_a`] and [`DistKernel::spmm_b`]. The trait
//! holds this invariant uniformly so callers can share a worker
//! immutably between R reads.
//!
//! # Runtime re-planning and live migration
//!
//! Construction is no longer the only decision point: a
//! [`Session`](crate::session::Session) can re-run the planner against
//! the *observed* problem (the nonzero count left after `map_r`
//! pruning) and migrate live state to a better family mid-run. The
//! migration state machine:
//!
//! ```text
//!            KernelBuilder::plan            Session::replan(policy)
//!   problem ───────────────────▶ RUNNING ◀───────────────────────┐
//!   shape                          │  │                          │
//!                        observe   │  │ predicted win            │ stay
//!                        nnz(R≠0)  │  │ ≥ hysteresis             │ (win below
//!                                  ▼  ▼                          │ threshold or
//!                               OBSERVED ──────────────────────────┘ same plan)
//!                                     │ migrate
//!                                     ▼
//!                 ┌─ export_r ─ a_iterate/b_iterate ─┐   (old worker)
//!                 │   repartition_dense old → new    │   Phase::Migration
//!                 └─ import_r ─ set_a/set_b ─────────┘   (new worker)
//!                                     │
//!                                     ▼
//!                                  RUNNING   (new family, same iterates,
//!                                             same R values, same loss)
//! ```
//!
//! The moved state is exactly the application surface below: iterates
//! travel through the [`PlanView::a_layout_of`] /
//! [`PlanView::b_layout_of`] descriptors, and R values
//! through the [`DistKernel::export_r`] / [`DistKernel::import_r`]
//! pair in global coordinates, so no optimizer state is lost. An
//! elastic resize is the same transition run over the whole world onto
//! a new roster (`Phase::Resize`); the session module writes it once.

use std::sync::Arc;

use dsk_comm::{Comm, MachineModel, Phase};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CooMatrix;

use crate::baseline::Baseline1D;
use crate::common::{AlgorithmFamily, Elision, ProblemDims, Routing, Sampling};
use crate::dr25::DenseRepl25;
use crate::ds15::DenseShift15;
use crate::global::GlobalProblem;
use crate::planview::{Operand, PlanView};
use crate::rstore::{PairExp, RStore, RValues};
use crate::sr25::SparseRepl25;
use crate::ss15::SparseShift15;
use crate::staged::StagedProblem;
use crate::state::KernelState;
use crate::theory::{self, Algorithm};
use crate::worker::DistWorker;

/// Owned description of the per-nonzero SDDMM combine, sliceable per
/// r-slice (travel rounds on different fibers see different column
/// slices of the dense operands).
#[derive(Clone)]
pub enum CombineSpec {
    /// Standard dot product.
    Dot,
    /// GAT attention logits: full-width weight vectors, sliced to match
    /// each panel.
    Affine {
        /// Source-side weights (length r).
        w_src: Vec<f64>,
        /// Destination-side weights (length r).
        w_dst: Vec<f64>,
    },
}

impl CombineSpec {
    /// The kernel-level combine restricted to one r-slice.
    pub fn for_slice(&self, slice: std::ops::Range<usize>) -> kern::SddmmCombine<'_> {
        match self {
            CombineSpec::Dot => kern::SddmmCombine::Dot,
            CombineSpec::Affine { w_src, w_dst } => kern::SddmmCombine::AffinePair {
                w_src: &w_src[slice.clone()],
                w_dst: &w_dst[slice],
            },
        }
    }
}

/// Which concrete implementation backs a [`DistKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// One of the paper's four sparsity-agnostic families.
    Family(AlgorithmFamily),
    /// The PETSc-like 1D block-row baseline.
    Baseline1D,
}

impl KernelId {
    /// Table/legend label.
    pub fn label(&self) -> &'static str {
        match self {
            KernelId::Family(f) => f.label(),
            KernelId::Baseline1D => "PETSc-like 1D (baseline)",
        }
    }

    /// The family, when this is one of the four families.
    pub fn family(&self) -> Option<AlgorithmFamily> {
        match self {
            KernelId::Family(f) => Some(*f),
            KernelId::Baseline1D => None,
        }
    }
}

/// The full shared surface of the distributed algorithms: one SDDMM /
/// SpMM / FusedMM engine per rank, with the iterate-layout plumbing the
/// applications need. Implemented by all four families of the paper's
/// Figure 2 and by [`Baseline1D`].
///
/// # Layout contract
///
/// Each implementation has *native* layouts for `A`-shaped and
/// `B`-shaped dense matrices — the **iterate layouts** described by
/// [`PlanView::a_layout_of`] / [`PlanView::b_layout_of`] of
/// [`DistKernel::view`].
/// `fused_mm_a`/`fused_mm_b` consume and produce iterates in exactly
/// those layouts (iterate in, iterate out — the property batched CG
/// relies on), as do [`DistKernel::rhs_a`] / [`DistKernel::rhs_b`] and
/// [`DistKernel::set_a`] / [`DistKernel::set_b`] (which pay whatever
/// internal distribution shift the family requires, charged to
/// [`Phase::OutsideComm`] as in the paper's Fig. 9 accounting).
///
/// # R values
///
/// [`DistKernel::sddmm`] / [`DistKernel::sddmm_general`] store the
/// distributed SDDMM result `R` in the worker's [`RStore`] — value
/// arrays aligned with the pattern blocks the kernel already holds.
/// `map_r`, `r_row_sums`, `scale_r_rows` (indexed consistently with
/// each other, from the start of [`RStore::rows`]), `spmm_a_with`,
/// `sq_loss_local`, and `gather_r` then operate on it.
/// [`DistKernel::spmm_a_pair_exp`] makes its values per nonzero and
/// leaves them untouched.
pub trait DistKernel: Send {
    // ---- required: what differs between kernels ----------------------

    /// The state every kernel holds: its plan view, its stored R, its
    /// operands and its held ring tiles. Every provided method below
    /// reads it.
    fn state(&self) -> &KernelState;

    /// Mutable access to the kernel state.
    fn state_mut(&mut self) -> &mut KernelState;

    /// The SDDMM data flow on the stored operands: the fully reduced
    /// accumulations of `combine` for every stored nonzero, one array
    /// per [`RStore`] block in its nonzero order, with no sampling
    /// applied.
    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>>;

    /// Distributed SpMMA `S·B`, in the native SpMMA output layout (use
    /// [`DistKernel::spmm_a_with`] for the R-valued product `R·B`).
    fn spmm_a(&mut self) -> Mat;

    /// Distributed SpMMB `Sᵀ·A` (or `Rᵀ·A` when `use_r`), in the
    /// native SpMMB output layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat;

    /// The FusedMM data flow returning `out`: FusedMMA =
    /// `SpMMA(SDDMM(x, B, S), B)` for [`Operand::A`], FusedMMB =
    /// `SpMMB(SDDMM(A, y, S), A)` for [`Operand::B`]. `iterate`
    /// (defaulting to the stored `out` operand) and the result are in
    /// the `out`-iterate layout. Called through
    /// [`DistKernel::fused_mm_a`] / [`DistKernel::fused_mm_b`], which
    /// have checked that the kernel admits `elision`.
    fn fused(
        &mut self,
        out: Operand,
        iterate: Option<&Mat>,
        elision: Elision,
        sampling: Sampling,
    ) -> Mat;

    /// SpMMA of R-patterned values from `vals` against an explicit
    /// `B`-iterate operand (the GAT convolution `α·(H·W)`), returned in
    /// the [`PlanView::spmm_a_with_layout_of`] layout: the family's
    /// one SpMMA round, the round [`DistKernel::spmm_a`] runs with the
    /// sampling values, reading these values instead. For values
    /// made per nonzero ([`RValues::PairExp`]) the second result holds
    /// their local row sums, each nonzero summed once and not yet
    /// reduced (indexed as [`DistKernel::r_row_sums`]); for the stored
    /// values it is empty. Reads R only, so it takes `&self` (see the
    /// module's mutability contract).
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>);

    // ---- provided: one implementation for every kernel ---------------

    /// The plan view this kernel was built on: `(kernel, c, p, dims)`.
    /// Every layout, group and admissibility answer below is derived
    /// from it.
    fn view(&self) -> PlanView {
        self.state().view
    }

    /// The stored SDDMM result: this rank's pattern blocks, their global
    /// offsets, and the R values of the last SDDMM.
    fn r_store(&self) -> &RStore {
        &self.state().r
    }

    /// Mutable access to the stored SDDMM result.
    fn r_store_mut(&mut self) -> &mut RStore {
        &mut self.state_mut().r
    }

    /// The stored `A` operand in the iterate layout.
    fn a_iterate(&self) -> Mat {
        self.state().iterate(Operand::A)
    }

    /// The stored `B` operand in the iterate layout.
    fn b_iterate(&self) -> Mat {
        self.state().iterate(Operand::B)
    }

    /// Replace the stored `A` operand with an `A`-iterate, paying
    /// whatever distribution shift the family requires (charged to
    /// [`Phase::OutsideComm`]). Collective: every rank calls it at once,
    /// and the ring tiles of the old operand are dropped.
    fn set_a(&mut self, comm: &Comm, x: &Mat) {
        self.state_mut().set(comm, Operand::A, x);
    }

    /// Replace the stored `B` operand with a `B`-iterate (collective,
    /// like [`DistKernel::set_a`]).
    fn set_b(&mut self, comm: &Comm, y: &Mat) {
        self.state_mut().set(comm, Operand::B, y);
    }

    /// FusedMMA = `SpMMA(SDDMM(x, B, S), B)`. `x` (defaulting to the
    /// stored `A`) and the result are in the `A`-iterate layout.
    ///
    /// # Panics
    ///
    /// Panics, before any communication, when the kernel does not admit
    /// `elision` ([`PlanView::supports`]).
    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        admit(self.view(), elision);
        self.fused(Operand::A, x, elision, sampling)
    }

    /// FusedMMB = `SpMMB(SDDMM(A, y, S), A)`. `y` (defaulting to the
    /// stored `B`) and the result are in the `B`-iterate layout.
    ///
    /// # Panics
    ///
    /// As [`DistKernel::fused_mm_a`].
    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        admit(self.view(), elision);
        self.fused(Operand::B, y, elision, sampling)
    }

    /// Distributed SDDMM on the stored operands: the
    /// [`DistKernel::dots`] sampled by the store's own values, held as
    /// the worker's R values.
    fn sddmm(&mut self) {
        let mut dots = self.dots(&CombineSpec::Dot);
        self.r_store().sample(&mut dots, Sampling::Values);
        self.r_store_mut().set(dots);
    }

    /// Generalized SDDMM (paper §VI-E): store the *raw*
    /// [`DistKernel::dots`] of `combine` as the R values, without
    /// sampling.
    fn sddmm_general(&mut self, combine: &CombineSpec) {
        let dots = self.dots(combine);
        self.r_store_mut().set(dots);
    }

    /// ALS right-hand side for the `A` phase — `S·B` with the sampling
    /// values — delivered in the `A`-iterate layout, and the start of a
    /// solve against the stored `B`. The default is the SpMMA output as
    /// is. A kernel whose SpMMA lands elsewhere (2.5D dense replication)
    /// overrides it and pays the distribution shift; the 1.5D dense
    /// shift overrides it to keep `B`'s ring tiles, which the solve's
    /// iterate [`DistKernel::fused_mm_a`] calls replay until `set_b`.
    fn rhs_a(&mut self, _comm: &Comm) -> Mat {
        self.spmm_a()
    }

    /// ALS right-hand side for the `B` phase — `Sᵀ·A` — in the
    /// `B`-iterate layout (every kernel's SpMMB lands there). The 1.5D
    /// dense shift overrides it, the dual of [`DistKernel::rhs_a`]: `A`
    /// travels the ring once and its tiles are kept for the solve's
    /// iterate [`DistKernel::fused_mm_b`] calls until `set_a`.
    fn rhs_b(&mut self, _comm: &Comm) -> Mat {
        self.spmm_b(false)
    }

    /// Row sums of the stored R values, reduced over the ranks that
    /// share the rows (charged to `phase`; none where the rows are whole
    /// on one rank) and indexed from the start of [`RStore::rows`],
    /// exactly as [`DistKernel::scale_r_rows`] expects.
    fn r_row_sums(&self, phase: Phase) -> Vec<f64> {
        let sums = self.r_store().row_sums();
        self.state().reduce_row_sums(phase, sums)
    }

    /// SpMMA with the stored R values against an explicit `B`-iterate
    /// operand ([`DistKernel::spmm_a_from`] of [`RValues::Stored`]).
    fn spmm_a_with(&self, y: &Mat) -> Mat {
        self.spmm_a_from(y, RValues::Stored).0
    }

    /// The GAT convolution `E·y` with `E_ij = exp(LeakyReLU(u_i +
    /// v_j))` made from `e`'s per-node factors inside the local SpMM
    /// row loop, never stored, and `E`'s row sums: summed in the same
    /// walk and reduced as [`DistKernel::r_row_sums`] (charged to
    /// `phase`), indexed as it. The stored R values are left untouched.
    fn spmm_a_pair_exp(&self, phase: Phase, y: &Mat, e: &PairExp) -> (Mat, Vec<f64>) {
        let (out, sums) = self.spmm_a_from(y, RValues::PairExp(e));
        (out, self.state().reduce_row_sums(phase, sums))
    }

    /// Map every stored R value in place (local; all replicas apply the
    /// same deterministic map).
    fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        self.r_store_mut().map(f);
    }

    /// Scale each stored R row by `scale[i]` (see
    /// [`DistKernel::r_row_sums`] for the indexing contract).
    fn scale_r_rows(&mut self, scale: &[f64]) {
        self.r_store_mut().scale_rows(scale);
    }

    /// Local contribution to `‖S − R‖²` after a raw
    /// [`DistKernel::sddmm_general`] — the ALS squared loss. Summed
    /// across ranks, every nonzero is counted exactly once.
    fn sq_loss_local(&self) -> f64 {
        self.r_store().sq_loss()
    }

    /// Gather the stored R values to communicator rank 0 in global
    /// coordinates (verification; statistics paused).
    fn gather_r(&self, comm: &Comm) -> Option<CooMatrix> {
        let local = self.export_r().expect("no SDDMM result to gather");
        let dims = self.view().dims();
        crate::layout::gather_coo(comm, 0, local, dims.m, dims.n)
    }

    /// This rank's share of the stored R values as **global**-coordinate
    /// triplets, or `None` when no SDDMM has populated them (no
    /// communication). Kernels that replicate R across ranks export
    /// from exactly one replica, so the union over all ranks covers
    /// each stored nonzero exactly once — the contract live migration
    /// ([`crate::session::Session::replan`]) relies on.
    fn export_r(&self) -> Option<CooMatrix> {
        self.r_store().export()
    }

    /// Install R values from global-coordinate triplets covering this
    /// rank's sparsity pattern — the inverse of [`DistKernel::export_r`]
    /// after a cross-rank union (no communication; the caller moves the
    /// triplets). Entries outside the local pattern are ignored.
    ///
    /// # Panics
    ///
    /// Panics when a local pattern nonzero has no value in `r` — the
    /// source and destination kernels were not built from the same
    /// sparse matrix.
    fn import_r(&mut self, r: &CooMatrix) {
        self.r_store_mut().import(r);
    }
}

/// The one admissibility check of every fused call: panics unless the
/// viewed kernel admits `elision` (paper §IV-B).
fn admit(view: PlanView, elision: Elision) {
    assert!(
        view.supports(elision),
        "{} admits no {elision:?} elision",
        view.id().label()
    );
}

/// A resolved construction decision: which kernel, at which replication
/// factor, with which (recommended) elision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPlan {
    /// Which implementation to build.
    pub id: KernelId,
    /// Replication factor.
    pub c: usize,
    /// The elision strategy the planner recommends for fused calls.
    pub elision: Elision,
    /// Whether propagation ships full dense tiles or pattern-routed
    /// row subsets (always [`Routing::Dense`] for the baseline).
    pub routing: Routing,
    /// Modeled communication seconds of one FusedMM under the plan
    /// (`None` for the baseline, which the theory does not model).
    pub predicted_comm_s: Option<f64>,
}

impl KernelPlan {
    /// The planned algorithm, when the plan is one of the four
    /// families.
    pub fn algorithm(&self) -> Option<Algorithm> {
        self.id.family().map(|f| Algorithm::new(f, self.elision))
    }
}

/// One scored planner candidate: an algorithm at its resolved
/// replication factor, with every modeled quantity the planner ranks
/// by. Returned by [`KernelBuilder::plan_candidates`] so harnesses and
/// tests can interrogate the planner's whole scoreboard instead of
/// re-deriving [`theory`] internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCandidate {
    /// The candidate algorithm (family + elision).
    pub algorithm: Algorithm,
    /// Its resolved replication factor (the pinned `c`, or the Table IV
    /// optimum under the admissibility constraints).
    pub c: usize,
    /// Dense-shift or pattern-routed propagation (the un-elided
    /// variants are scored both ways, so they appear as two rows).
    pub routing: Routing,
    /// Modeled words sent by the busiest processor per FusedMM
    /// (Table III).
    pub words_per_proc: f64,
    /// Modeled messages sent by the busiest processor per FusedMM
    /// (Table III).
    pub msgs_per_proc: f64,
    /// Modeled communication seconds per FusedMM under the α-β model —
    /// the quantity the planner minimizes.
    pub predicted_comm_s: f64,
    /// Modeled computation seconds per FusedMM (identical across
    /// candidates: flops are family-invariant and load-balanced).
    pub predicted_comp_s: f64,
    /// Always [`kern::LocalKernel::Sequential`]: every family runs the
    /// one local loop per op. Still here only because the repo
    /// benchmark reads it; it goes once the benchmark stops reading it.
    pub local_variant: kern::LocalKernel,
}

impl PlannedCandidate {
    /// Modeled communication + computation seconds per FusedMM.
    pub fn predicted_total_s(&self) -> f64 {
        self.predicted_comm_s + self.predicted_comp_s
    }

    /// The construction decision this candidate stands for — the only
    /// candidate → [`KernelPlan`] conversion ([`KernelBuilder::plan`]
    /// and every session transition go through it).
    pub fn plan(&self) -> KernelPlan {
        KernelPlan {
            id: KernelId::Family(self.algorithm.family),
            c: self.c,
            elision: self.algorithm.elision,
            routing: self.routing,
            predicted_comm_s: Some(self.predicted_comm_s),
        }
    }
}

#[derive(Clone)]
enum Source<'a> {
    Owned(Arc<StagedProblem>),
    Borrowed(&'a StagedProblem),
    /// Problem shape only — planning without materialized operands
    /// (cost exploration at paper scale; cannot build workers).
    Shape(ProblemDims, usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    Auto,
    Family(AlgorithmFamily),
    Baseline,
}

/// Planner + factory for [`DistKernel`] workers.
///
/// ```ignore
/// // Fully automatic: theory picks family, c, and elision (Fig. 6).
/// let mut worker = KernelBuilder::new(&prob).auto().build(comm);
/// // Pinned family at an explicit replication factor:
/// let mut worker = KernelBuilder::new(&prob)
///     .family(AlgorithmFamily::SparseShift15)
///     .replication(4)
///     .build(comm);
/// ```
///
/// The decision logic is pure ([`KernelBuilder::plan`] takes only the
/// rank count), so tests can verify planning against
/// [`theory::predict_best`] without spinning up a world.
#[derive(Clone)]
pub struct KernelBuilder<'a> {
    source: Source<'a>,
    selection: Selection,
    c: Option<usize>,
    c_max: usize,
    elision: Option<Elision>,
    routing: Option<Routing>,
}

impl<'a> KernelBuilder<'a> {
    fn with_source(source: Source<'a>) -> Self {
        KernelBuilder {
            source,
            selection: Selection::Auto,
            c: None,
            c_max: 16,
            elision: None,
            routing: None,
        }
    }

    /// Build from a borrowed global problem (staged ephemerally; test
    /// and example convenience).
    pub fn new(prob: &GlobalProblem) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Owned(Arc::new(StagedProblem::ephemeral(prob))))
    }

    /// Build from a shared global problem (the staging is created once
    /// and shared by every worker this builder constructs).
    pub fn from_arc(prob: Arc<GlobalProblem>) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Owned(Arc::new(StagedProblem::new(prob))))
    }

    /// Build from shared staging (the benchmark path: the expensive
    /// sparse partition is computed once per world, not once per rank).
    pub fn from_staged(staged: &'a StagedProblem) -> KernelBuilder<'a> {
        KernelBuilder::with_source(Source::Borrowed(staged))
    }

    /// Build from owned shared staging (the adaptive-session path: the
    /// session keeps the `Arc` so it can rebuild workers for other
    /// families when it migrates mid-run).
    pub fn from_staged_arc(staged: Arc<StagedProblem>) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Owned(staged))
    }

    /// A planning-only builder for a problem *shape* — nothing is
    /// materialized, so paper-scale shapes (n = 2²², say) can be
    /// planned and scored instantly. [`KernelBuilder::plan`] and
    /// [`KernelBuilder::plan_candidates`] work; calling
    /// [`KernelBuilder::build`] panics.
    pub fn for_shape(dims: ProblemDims, nnz: usize) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Shape(dims, nnz))
    }

    /// Let the planner pick family, replication factor, and elision
    /// from the paper's cost model (the default).
    pub fn auto(mut self) -> Self {
        self.selection = Selection::Auto;
        self
    }

    /// Pin the algorithm family (replication factor and elision are
    /// still planned unless pinned too).
    pub fn family(mut self, family: AlgorithmFamily) -> Self {
        self.selection = Selection::Family(family);
        self
    }

    /// Pin family and elision at once.
    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.selection = Selection::Family(alg.family);
        self.elision = Some(alg.elision);
        self
    }

    /// Build the PETSc-like 1D block-row baseline instead of a 2D/3D
    /// family.
    pub fn baseline(mut self) -> Self {
        self.selection = Selection::Baseline;
        self
    }

    /// Pin the replication factor `c`.
    pub fn replication(mut self, c: usize) -> Self {
        self.c = Some(c);
        self
    }

    /// Cap the planner's replication-factor search (default 16, the
    /// paper's memory-limit sweep bound).
    pub fn max_replication(mut self, c_max: usize) -> Self {
        self.c_max = c_max;
        self
    }

    /// The cap on the planner's replication-factor search.
    pub(crate) fn c_max(&self) -> usize {
        self.c_max
    }

    /// Pin the elision strategy used for fused calls.
    pub fn elision(mut self, elision: Elision) -> Self {
        self.elision = Some(elision);
        self
    }

    /// Pin the propagation routing. [`Routing::Pattern`] restricts the
    /// candidate set to the un-elided variants (the only schedules
    /// whose receivers touch tile subsets); the default scores each
    /// candidate both ways and lets the model decide.
    pub fn routing(mut self, routing: Routing) -> Self {
        self.routing = Some(routing);
        self
    }

    fn staged(&self) -> &StagedProblem {
        match &self.source {
            Source::Owned(s) => s,
            Source::Borrowed(s) => s,
            Source::Shape(..) => {
                panic!("planning-only builder (for_shape) cannot build workers")
            }
        }
    }

    /// Problem shape the planner scores against.
    fn shape(&self) -> (ProblemDims, usize) {
        match &self.source {
            Source::Owned(s) => (s.prob.dims, s.prob.nnz()),
            Source::Borrowed(s) => (s.prob.dims, s.prob.nnz()),
            Source::Shape(dims, nnz) => (*dims, *nnz),
        }
    }

    /// Candidate algorithms compatible with the pinned constraints,
    /// each with its resolved replication factor (the pinned `c`, or
    /// the Table IV optimum for the algorithm among the factors whose
    /// sparse grid the problem's sides admit), dropping a pinned `c`
    /// whose grid they do not ([`PlanView::fits`]).
    fn candidates(&self, p: usize) -> Vec<(Algorithm, usize)> {
        let fams: Vec<AlgorithmFamily> = match self.selection {
            Selection::Family(f) => vec![f],
            _ => AlgorithmFamily::ALL.to_vec(),
        };
        let (dims, nnz) = self.shape();
        Algorithm::all_benchmarked()
            .into_iter()
            .filter(|alg| fams.contains(&alg.family))
            .filter(|alg| self.elision.is_none_or(|e| alg.elision == e))
            .filter_map(|alg| match self.c {
                Some(c) => alg.family.valid_c(p, c).then_some((alg, c)),
                None => theory::optimal_c_search(alg, p, dims, nnz, self.c_max).map(|c| (alg, c)),
            })
            .filter(|&(alg, c)| PlanView::of(KernelId::Family(alg.family), c, p, dims).fits())
            .collect()
    }

    /// Resolve the construction decision for a world of `p` ranks
    /// without building anything. Pure: depends only on the problem
    /// shape, the machine model (Cori-like constants; see
    /// [`KernelBuilder::plan_with`]), and the pinned constraints — this is the paper's
    /// Figure 6 "Predicted" panel as an API.
    ///
    /// # Panics
    ///
    /// Panics when the pinned constraints are unsatisfiable (e.g. a
    /// replication factor the family's grid cannot realize at `p`).
    pub fn plan(&self, p: usize) -> KernelPlan {
        self.plan_with(p, MachineModel::cori_knl())
    }

    /// [`KernelBuilder::plan`] under an explicit machine model.
    pub fn plan_with(&self, p: usize, model: MachineModel) -> KernelPlan {
        if self.selection == Selection::Baseline {
            assert!(
                self.c.unwrap_or(1) == 1,
                "the 1D baseline does not replicate (c must be 1)"
            );
            assert!(
                self.elision.is_none_or(|e| e == Elision::None),
                "the 1D baseline admits no communication elision"
            );
            assert!(
                self.routing.is_none_or(|r| r == Routing::Dense),
                "the 1D baseline has no shift schedule to pattern-route"
            );
            return KernelPlan {
                id: KernelId::Baseline1D,
                c: 1,
                elision: Elision::None,
                routing: Routing::Dense,
                predicted_comm_s: None,
            };
        }
        let candidates = self.plan_candidates_with(p, model);
        assert!(
            !candidates.is_empty(),
            "no admissible algorithm for p={p}, c={:?}, elision={:?}, family={:?}",
            self.c,
            self.elision,
            self.selection,
        );
        candidates[0].plan()
    }

    /// Every admissible candidate the planner scored for a world of `p`
    /// ranks, sorted by modeled communication time — index 0 is exactly
    /// what [`KernelBuilder::plan`] picks. Pinned constraints (family,
    /// elision, replication factor) restrict the set; the baseline
    /// selection yields an empty set (the theory does not model the 1D
    /// baseline). The sort is stable, so ties keep the paper's Figure 4
    /// presentation order.
    pub fn plan_candidates(&self, p: usize) -> Vec<PlannedCandidate> {
        self.plan_candidates_with(p, MachineModel::cori_knl())
    }

    /// [`KernelBuilder::plan_candidates`] under an explicit machine
    /// model.
    pub fn plan_candidates_with(&self, p: usize, model: MachineModel) -> Vec<PlannedCandidate> {
        if self.selection == Selection::Baseline {
            return Vec::new();
        }
        let (dims, nnz) = self.shape();
        let comp_s = theory::predicted_comp_time(&model, p, dims, nnz);
        let mut scored: Vec<PlannedCandidate> = Vec::new();
        for (alg, c) in self.candidates(p) {
            for routing in Routing::ALL {
                if self.routing.is_some_and(|r| r != routing) || !alg.admits(routing) {
                    continue;
                }
                // `admits` guarantees the routed model exists.
                let words = theory::words_for_routing(alg, routing, p, c, dims, nnz).unwrap();
                let msgs = theory::messages_for_routing(alg, routing, p, c).unwrap();
                scored.push(PlannedCandidate {
                    algorithm: alg,
                    c,
                    routing,
                    words_per_proc: words,
                    msgs_per_proc: msgs,
                    predicted_comm_s: model.alpha_s * msgs + model.beta_s_per_word * words,
                    predicted_comp_s: comp_s,
                    local_variant: kern::LocalKernel::Sequential,
                });
            }
        }
        scored.sort_by(|a, b| a.predicted_comm_s.partial_cmp(&b.predicted_comm_s).unwrap());
        scored
    }

    /// Build this rank's worker, resolving the plan from
    /// `comm.size()` under the communicator's machine model. Must be
    /// called by every rank of the
    /// communicator (the plan is deterministic, so all ranks agree
    /// without communication).
    pub fn build(&self, comm: &Comm) -> DistWorker {
        let plan = self.plan_with(comm.size(), *comm.model());
        self.build_planned(comm, &plan)
    }

    /// Build this rank's worker for an already-resolved plan. The
    /// plan's [`PlanView`] on `comm` is made here, once, and handed to
    /// the kernel's constructor, which builds on it.
    ///
    /// A pattern-routed family derives this rank's need sets from the
    /// blocks it cuts and all-gathers them over its rings while it
    /// builds — real traffic, charged to `Phase::PatternExchange`.
    pub fn build_planned(&self, comm: &Comm, plan: &KernelPlan) -> DistWorker {
        let staged = self.staged();
        let view = PlanView::new(plan, comm.size(), staged.prob.dims);
        macro_rules! family {
            ($ty:ty) => {
                Box::new(<$ty>::from_staged(comm, view, plan.routing, staged))
            };
        }
        let kernel: Box<dyn DistKernel> = match plan.id {
            KernelId::Family(AlgorithmFamily::DenseShift15) => family!(DenseShift15),
            KernelId::Family(AlgorithmFamily::SparseShift15) => family!(SparseShift15),
            KernelId::Family(AlgorithmFamily::DenseRepl25) => family!(DenseRepl25),
            KernelId::Family(AlgorithmFamily::SparseRepl25) => family!(SparseRepl25),
            KernelId::Baseline1D => {
                assert_eq!(
                    plan.routing,
                    Routing::Dense,
                    "the 1D baseline has no shift schedule to pattern-route"
                );
                Box::new(Baseline1D::from_staged(comm, view, staged))
            }
        };
        DistWorker::from_parts(kernel, *plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn er_prob(n: usize, r: usize, nnz_per_row: usize, seed: u64) -> GlobalProblem {
        GlobalProblem::erdos_renyi(n, n, r, nnz_per_row, seed)
    }

    #[test]
    fn auto_plan_matches_theory_predict_best() {
        // The planner must agree with theory::predict_best across
        // problem shapes (the Figure 6 regimes are exercised in the
        // integration test suite at realistic sizes).
        let prob = er_prob(256, 16, 4, 1);
        let builder = KernelBuilder::new(&prob);
        for p in [8usize, 16, 32] {
            let plan = builder.plan(p);
            let expect = theory::predict_best(
                &MachineModel::cori_knl(),
                &Algorithm::all_benchmarked(),
                p,
                prob.dims,
                prob.nnz(),
                16,
            );
            assert_eq!(plan.algorithm().unwrap(), expect.algorithm, "p={p}");
            assert_eq!(plan.c, expect.c, "p={p}");
            assert_eq!(plan.routing, expect.routing, "p={p}");
            assert!((plan.predicted_comm_s.unwrap() - expect.time_s).abs() < 1e-15);
        }
    }

    #[test]
    fn pinned_family_plans_optimal_c() {
        let prob = er_prob(128, 8, 4, 2);
        let p = 16;
        let plan = KernelBuilder::new(&prob)
            .family(AlgorithmFamily::DenseShift15)
            .plan(p);
        assert_eq!(plan.id, KernelId::Family(AlgorithmFamily::DenseShift15));
        // Best among the three ds15 elisions at their own optimal c.
        let model = MachineModel::cori_knl();
        let best = theory::predict_best(
            &model,
            &[
                Algorithm::new(AlgorithmFamily::DenseShift15, Elision::None),
                Algorithm::new(AlgorithmFamily::DenseShift15, Elision::ReplicationReuse),
                Algorithm::new(AlgorithmFamily::DenseShift15, Elision::LocalKernelFusion),
            ],
            p,
            prob.dims,
            prob.nnz(),
            16,
        );
        assert_eq!(plan.elision, best.algorithm.elision);
        assert_eq!(plan.c, best.c);
    }

    #[test]
    fn pinned_replication_is_respected() {
        let prob = er_prob(128, 8, 4, 3);
        let plan = KernelBuilder::new(&prob)
            .family(AlgorithmFamily::SparseShift15)
            .replication(4)
            .elision(Elision::ReplicationReuse)
            .plan(8);
        assert_eq!(plan.c, 4);
        assert_eq!(plan.elision, Elision::ReplicationReuse);
    }

    #[test]
    fn pinned_routing_restricts_the_scoreboard() {
        let prob = er_prob(256, 16, 4, 8);
        let builder = KernelBuilder::new(&prob);
        let p = 16;
        let dense_only = builder.clone().routing(Routing::Dense).plan_candidates(p);
        assert!(dense_only.iter().all(|c| c.routing == Routing::Dense));
        assert_eq!(dense_only.len(), Algorithm::all_benchmarked().len());
        let routed_only = builder.clone().routing(Routing::Pattern).plan_candidates(p);
        assert!(!routed_only.is_empty());
        assert!(routed_only
            .iter()
            .all(|c| c.routing == Routing::Pattern && c.algorithm.elision == Elision::None));
        let plan = builder.clone().routing(Routing::Pattern).plan(p);
        assert_eq!(plan.routing, Routing::Pattern);
        // An un-routable pin combination has no candidates.
        let mixed = builder
            .clone()
            .routing(Routing::Pattern)
            .elision(Elision::LocalKernelFusion)
            .plan_candidates(p);
        assert!(mixed.is_empty());
    }

    #[test]
    fn baseline_plan_is_fixed() {
        let prob = er_prob(64, 8, 4, 4);
        let plan = KernelBuilder::new(&prob).baseline().plan(8);
        assert_eq!(plan.id, KernelId::Baseline1D);
        assert_eq!(plan.c, 1);
        assert_eq!(plan.elision, Elision::None);
        assert_eq!(plan.routing, Routing::Dense);
        assert!(plan.predicted_comm_s.is_none());
    }

    #[test]
    fn plan_candidates_sorted_and_headed_by_the_plan() {
        let prob = er_prob(256, 16, 4, 6);
        let builder = KernelBuilder::new(&prob);
        for p in [8usize, 16, 32] {
            let cands = builder.plan_candidates(p);
            assert!(!cands.is_empty());
            assert!(
                cands
                    .windows(2)
                    .all(|w| w[0].predicted_comm_s <= w[1].predicted_comm_s),
                "candidates must be sorted by modeled comm time"
            );
            let plan = builder.plan(p);
            assert_eq!(plan.algorithm().unwrap(), cands[0].algorithm, "p={p}");
            assert_eq!(plan.c, cands[0].c, "p={p}");
            assert_eq!(plan.routing, cands[0].routing, "p={p}");
            assert_eq!(plan.predicted_comm_s, Some(cands[0].predicted_comm_s));
            // Every candidate's score must be the theory's, recomputed
            // under its own routing.
            let model = MachineModel::cori_knl();
            for cand in &cands {
                let t = theory::predicted_comm_time_for(
                    &model,
                    cand.algorithm,
                    cand.routing,
                    p,
                    cand.c,
                    prob.dims,
                    prob.nnz(),
                )
                .unwrap();
                assert!((cand.predicted_comm_s - t).abs() <= 1e-15 * t.max(1e-30));
            }
        }
    }

    #[test]
    fn plan_is_the_head_candidate_field_by_field() {
        let prob = er_prob(256, 16, 4, 9);
        let builder = KernelBuilder::new(&prob);
        for model in [MachineModel::cori_knl(), MachineModel::bandwidth_only()] {
            for p in [8usize, 16] {
                let head = builder.plan_candidates_with(p, model)[0];
                let plan = builder.plan_with(p, model);
                assert_eq!(plan, head.plan(), "p={p}");
                assert_eq!(plan.id, KernelId::Family(head.algorithm.family));
                assert_eq!(plan.c, head.c);
                assert_eq!(plan.elision, head.algorithm.elision);
                assert_eq!(plan.routing, head.routing);
                assert_eq!(plan.predicted_comm_s, Some(head.predicted_comm_s));
            }
        }
    }

    #[test]
    fn baseline_selection_scores_no_candidates() {
        let prob = er_prob(64, 8, 4, 7);
        assert!(KernelBuilder::new(&prob)
            .baseline()
            .plan_candidates(8)
            .is_empty());
    }

    #[test]
    fn for_shape_plans_paper_scale_instantly() {
        // Nothing materializes: a 2²²-row problem plans fine.
        let dims = ProblemDims::new(1 << 22, 1 << 22, 256);
        let nnz = (1usize << 22) * 32;
        let builder = KernelBuilder::for_shape(dims, nnz);
        let cands = builder.plan_candidates(256);
        // Eight dense rows (Figure 4) plus one pattern-routed row per
        // un-elided family.
        let n_routed = Algorithm::all_benchmarked()
            .iter()
            .filter(|a| a.admits(Routing::Pattern))
            .count();
        assert_eq!(n_routed, 4);
        assert_eq!(cands.len(), Algorithm::all_benchmarked().len() + n_routed);
        let expect = theory::predict_best(
            &MachineModel::cori_knl(),
            &Algorithm::all_benchmarked(),
            256,
            dims,
            nnz,
            16,
        );
        assert_eq!(cands[0].algorithm, expect.algorithm);
        assert_eq!(cands[0].c, expect.c);
    }

    #[test]
    #[should_panic(expected = "no admissible algorithm")]
    fn impossible_constraints_panic() {
        let prob = er_prob(64, 8, 4, 5);
        // 2.5D at p = 8 requires c = 2 (layers 4 = 2²); c = 3 is not
        // even a divisor.
        let _ = KernelBuilder::new(&prob)
            .family(AlgorithmFamily::DenseRepl25)
            .replication(3)
            .plan(8);
    }

    /// Each family's `c` is searched among the factors whose sparse
    /// grid the sides admit, so a family is a candidate exactly when
    /// it fits at some admissible `c`, and `sr25` at `c = p` keeps the
    /// set non-empty at every side.
    #[test]
    fn a_family_is_a_candidate_when_it_fits_at_some_c() {
        for p in [4, 8, 9, 16] {
            for side in 1..=2 * p {
                let dims = ProblemDims::new(side, side, 4);
                let cands = KernelBuilder::for_shape(dims, 2 * side).plan_candidates(p);
                assert!(!cands.is_empty(), "p={p} side={side}");
                for alg in Algorithm::all_benchmarked() {
                    let fits = theory::valid_replication_factors(alg, p, 16)
                        .into_iter()
                        .any(|c| PlanView::of(KernelId::Family(alg.family), c, p, dims).fits());
                    let found = cands.iter().any(|cand| cand.algorithm == alg);
                    assert_eq!(found, fits, "{alg:?} p={p} side={side}");
                }
            }
        }
    }
}
