//! # dsk-core — distributed-memory SDDMM, SpMM, and FusedMM
//!
//! The paper's contribution, implemented end to end behind one
//! abstraction: sparsity-agnostic distributed algorithms for
//!
//! * **SDDMM** — `R = S ∗ (A·Bᵀ)`,
//! * **SpMMA** — `S·B` (A-shaped output) and **SpMMB** — `Sᵀ·A`
//!   (B-shaped output),
//! * **FusedMM** — SDDMM immediately followed by an SpMM on its output,
//!
//! in the four algorithm families of the paper's Figure 2 / Table II:
//!
//! | module | family | replicates | propagates |
//! |--------|--------|-----------|------------|
//! | [`ds15`] | 1.5D dense-shifting  | one dense matrix | the other dense matrix |
//! | [`ss15`] | 1.5D sparse-shifting | one dense matrix | the sparse matrix |
//! | [`dr25`] | 2.5D dense-replicating | one dense matrix | sparse + other dense |
//! | [`sr25`] | 2.5D sparse-replicating | sparse values | both dense matrices |
//!
//! plus the PETSc-like 1D block-row [`baseline`].
//!
//! ## Architecture: one trait, one planner
//!
//! All five implementations sit behind the [`kernel::DistKernel`]
//! trait, which captures the entire surface applications need — the
//! kernels themselves, the communication-eliding FusedMM variants, the
//! generalized-combine SDDMM used by graph attention, the R-value
//! manipulation pipeline (map / row-sum / scale / loss), iterate
//! layouts, distribution shifts, and row-sharing groups. Harness and
//! application code holds a [`worker::DistWorker`] (a `Box<dyn
//! DistKernel>` plus its construction plan) and never names a concrete
//! family type; dispatch happens once, at construction.
//!
//! Construction goes through [`kernel::KernelBuilder`], the planning
//! layer on top of [`theory`]: `.auto()` (the default) evaluates the
//! paper's Table III/IV cost model — the Figure 6 phase diagram — and
//! picks the predicted-cheapest algorithm, replication factor `c`, and
//! elision for the problem shape at hand; `.family(f)`,
//! `.replication(c)`, `.elision(e)`, and `.baseline()` pin any subset
//! of the decision explicitly. The decision itself
//! ([`kernel::KernelBuilder::plan`]) is a pure function of the problem
//! statistics, so it is unit-testable without spinning up a simulated
//! world.
//!
//! ## Paper section ↔ trait method map
//!
//! A family file holds only what differs between families: its grid,
//! its sparse partition, the need sets of pattern routing, the
//! propagation rounds, and the kernels composed from them — the
//! **required** methods. What is the same for every kernel is written
//! once and **provided** by the trait: the stored-R surface over
//! [`rstore::RStore`] (where R lives: the kernel's own pattern blocks
//! plus value arrays, and the sampling that turns raw dots into an
//! SDDMM), and every Table II layout, bound, group and admissibility
//! answer over [`planview::PlanView`] — which also stages every dense
//! block a family holds and performs its Fig. 9 distribution shifts.
//!
//! | paper | trait surface | |
//! |-------|---------------|-|
//! | §III kernel definitions | [`dots`](kernel::DistKernel::dots) (the SDDMM data flow, unsampled), [`spmm_a`](kernel::DistKernel::spmm_a), [`spmm_b`](kernel::DistKernel::spmm_b) | required |
//! | | [`sddmm`](kernel::DistKernel::sddmm) | provided ([`rstore::RStore`] samples the dots; [`sr25`] overrides it) |
//! | §IV FusedMM & elision (Fig. 3) | [`fused_mm_a`](kernel::DistKernel::fused_mm_a), [`fused_mm_b`](kernel::DistKernel::fused_mm_b), [`Elision`] | required |
//! | | [`supports`](kernel::DistKernel::supports) | provided ([`PlanView::supports`]) |
//! | §V per-family algorithms (Table II) | the `impl DistKernel` blocks in [`ds15`], [`ss15`], [`dr25`], [`sr25`], [`baseline`]; each names its plan with [`view`](kernel::DistKernel::view) | required |
//! | §V-E communication analysis (Tables III & IV) | [`theory`] — consumed by [`kernel::KernelBuilder::plan`] | |
//! | §VI-C best-algorithm prediction (Fig. 6) | [`kernel::KernelBuilder::auto`] / [`theory::predict_best`] | |
//! | §VI-E generalized SDDMM (the paper's GAT logits; the serial reference's formulation) | [`sddmm_general`](kernel::DistKernel::sddmm_general) (the raw dots of a [`kernel::CombineSpec`]) | provided |
//! | §VI-E GAT convolution, FusedMMA's shape | [`spmm_a_from`](kernel::DistKernel::spmm_a_from) (SpMMA of R-patterned values from an [`rstore::RValues`] source: the stored R values, or the attention `exp(LeakyReLU(u_i + v_j))` of an [`rstore::PairExp`] made from per-node factors inside the local row loop, never stored, with its row sums) | required |
//! | | [`spmm_a_with`](kernel::DistKernel::spmm_a_with) (the stored values), [`spmm_a_pair_exp`](kernel::DistKernel::spmm_a_pair_exp) (the attention and its row sums reduced over the row group; what the GAT engine runs) | provided ([`rstore::RStore`] places each block's factors) |
//! | §VI-E softmax & ALS plumbing | [`r_row_group`](kernel::DistKernel::r_row_group) (which ranks share a stored R row: the one thing that differs), [`r_store`](kernel::DistKernel::r_store) | required |
//! | | [`r_row_sums`](kernel::DistKernel::r_row_sums) (local sums all-reduced over the row group), [`map_r`](kernel::DistKernel::map_r), [`scale_r_rows`](kernel::DistKernel::scale_r_rows), [`sq_loss_local`](kernel::DistKernel::sq_loss_local), [`export_r`](kernel::DistKernel::export_r)/[`import_r`](kernel::DistKernel::import_r), [`gather_r`](kernel::DistKernel::gather_r) | provided ([`rstore::RStore`]) |
//! | Fig. 9 distribution shifts | [`set_a`](kernel::DistKernel::set_a)/[`set_b`](kernel::DistKernel::set_b) | required |
//! | | [`rhs_a`](kernel::DistKernel::rhs_a)/[`rhs_b`](kernel::DistKernel::rhs_b) | provided (the SpMM output; [`ds15`] overrides both to keep the fixed factor's ring tiles for the solve, 2.5D dense replication overrides `rhs_a`) |
//! | Fig. 9 row-sharing dots | [`row_group_a`](kernel::DistKernel::row_group_a)/[`row_group_b`](kernel::DistKernel::row_group_b) | provided ([`PlanView`]) |
//! | Table II data distributions | [`a_iterate_layout_of`](kernel::DistKernel::a_iterate_layout_of) et al., [`layout`] | provided ([`PlanView`]) |
//!
//! Each family supports the communication-eliding strategies the paper
//! allows for it ([`Elision`]): *replication reuse* (one replication
//! serves both kernels) and — for 1.5D dense shifting only — *local
//! kernel fusion* (one propagation round computing the fused kernel).

// Indexed `for i in 0..n` loops over CSR index structures are the
// domain idiom throughout this workspace; the iterator rewrites
// clippy suggests obscure the sparse-index arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod baseline;
pub mod common;
pub mod dr25;
pub mod ds15;
pub mod global;
pub mod kernel;
pub mod layout;
pub mod planview;
pub mod rstore;
pub mod session;
pub mod sr25;
pub mod ss15;
pub mod staged;
pub mod theory;
pub mod wire;
pub mod worker;

pub use common::{
    AlgorithmFamily, Elision, Hop, InputLane, ProblemDims, Routing, Sampling, ShiftMode,
    ShiftModeGuard, ShiftPipeline,
};
pub use global::GlobalProblem;
pub use kernel::{CombineSpec, DistKernel, KernelBuilder, KernelId, KernelPlan};
pub use planview::PlanView;
pub use rstore::{PairExp, RStore, RValues};
pub use session::{ReplanEvent, ReplanPolicy, Session, SessionBuilder};
pub use staged::StagedProblem;
pub use worker::DistWorker;
