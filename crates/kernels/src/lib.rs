//! # dsk-kernels — shared-memory sparse kernels
//!
//! The local (per-rank / per-node) compute kernels that every distributed
//! algorithm in the workspace calls between communication steps:
//!
//! * [`spmm`] — `out += S·B` and `out += Sᵀ·A` on CSR and COO blocks
//!   (the paper uses MKL under OpenMP for this role);
//! * [`sddmm`] — sampled dense-dense products, including *partial*
//!   accumulation over column slices of the dense operands (the building
//!   block that lets 1.5D sparse-shifting and 2.5D algorithms accumulate
//!   dot products as blocks travel), and the generalized combine used by
//!   graph-attention networks;
//! * [`fused`] — the local FusedMM kernel: SDDMM and SpMM executed
//!   back-to-back on the same operands without materializing the
//!   intermediate sparse matrix (the paper's *local kernel fusion*);
//! * [`variants`] — the local microkernel variant library: every op
//!   above behind the [`LocalKernel`] enum, in naive, register-blocked
//!   (width-specialized unrolled inner loops for r ∈ {8, 16, 32, 64}),
//!   and thread-parallel blocked forms, plus the fixed per-(op, format)
//!   table of which one runs ([`LocalKernel::table`]) — like the
//!   paper's one local kernel per op, nothing is measured at run time —
//!   and [`spmm_csr_filled`], the SpMM whose values are made inside its
//!   row loop (GAT attention, never stored);
//! * `reference` — naive dense-arithmetic references every kernel is
//!   tested against.
//!
//! All kernels are *local-indexed*: a sparse block's row indices address
//! rows of the `A`-side panel and its column indices address rows of the
//! `B`-side panel directly. Distributed algorithms do the global↔local
//! translation once, when they build their blocks.
//!
//! ## Environment variables
//!
//! * `DSK_THREADS` — thread count for the `par-blocked` variant
//!   (clamped to ≥ 1; default: one per available core). Pin it on shared
//!   CI runners so parallel timings are comparable. Unset or empty means
//!   no pin; any other unparseable value panics naming the variable — a
//!   silently ignored pin would quietly un-pin a "reproducible" run.
//!
//! The local-kernel variant is pinned in code, never by the
//! environment: a caller hands [`LocalPicks::resolve`] its pin.

// Indexed `for i in 0..n` loops over CSR index structures are the
// domain idiom throughout this workspace; the iterator rewrites
// clippy suggests obscure the sparse-index arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod fused;
pub mod reference;
pub mod sddmm;
pub mod spmm;
pub mod variants;

pub use fused::fused_a_csr;
pub use sddmm::{
    apply_sampling, leaky_relu, sddmm_coo_acc, sddmm_csr, sddmm_csr_acc, SddmmCombine,
};
pub use spmm::{spmm_coo_acc, spmm_coo_t_acc, spmm_csr_acc, spmm_csr_t_acc};
pub use variants::{spmm_csr_filled, LocalKernel, LocalOp, LocalPicks, SparseFormat};

/// Flops of `out += S·B` with `nnz` nonzeros and `r`-wide dense rows:
/// one multiply and one add per (nonzero, column).
pub fn spmm_flops(nnz: usize, r: usize) -> u64 {
    2 * nnz as u64 * r as u64
}

/// Flops of an SDDMM with `nnz` nonzeros and `r`-wide rows: a length-`r`
/// dot product per nonzero plus the sampling multiply.
pub fn sddmm_flops(nnz: usize, r: usize) -> u64 {
    2 * nnz as u64 * r as u64 + nnz as u64
}

/// Flops of the fused local kernel (SDDMM followed by SpMM on the same
/// nonzeros).
pub fn fused_flops(nnz: usize, r: usize) -> u64 {
    sddmm_flops(nnz, r) + spmm_flops(nnz, r)
}
