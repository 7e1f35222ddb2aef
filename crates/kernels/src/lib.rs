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
//! * `reference` — naive dense-arithmetic references every kernel is
//!   tested against.
//!
//! Like the paper's one local kernel per op, each (op, format) pair has
//! exactly one loop, and nothing is chosen or measured at run time:
//!
//! | op | CSR block | COO block |
//! |---|---|---|
//! | `out += S·B` | [`spmm_csr_acc`]: width-dispatched register tile started from the output row; [`spmm_csr_filled`] makes the values in the row loop | [`spmm_coo_acc`]: width-dispatched axpy per nonzero |
//! | `out += Sᵀ·A` | [`spmm_csr_t_acc`]: plain scatter | [`spmm_coo_t_acc`]: plain scatter |
//! | SDDMM | [`sddmm_csr_acc_with`](sddmm::sddmm_csr_acc_with): up to eight dots in flight per row | [`sddmm_coo_acc_with`](sddmm::sddmm_coo_acc_with): up to eight dots in flight, one A row per nonzero |
//! | FusedMM | [`fused_a_csr`]: the SDDMM's row loop, then the scaled rows in CSR order | — |
//!
//! Every loop is bitwise the one-nonzero-at-a-time loop of its op
//! (`tests/sequential_bits.rs` compares them by `to_bits`): the tiles
//! and groups only change which adds run side by side, never the order
//! of the adds into one output element.
//!
//! All kernels are *local-indexed*: a sparse block's row indices address
//! rows of the `A`-side panel and its column indices address rows of the
//! `B`-side panel directly. Distributed algorithms do the global↔local
//! translation once, when they build their blocks.

// Indexed `for i in 0..n` loops over CSR index structures are the
// domain idiom throughout this workspace; the iterator rewrites
// clippy suggests obscure the sparse-index arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod fused;
pub mod reference;
pub mod sddmm;
pub mod spmm;

pub use fused::fused_a_csr;
pub use sddmm::{
    apply_sampling, leaky_relu, sddmm_coo_acc, sddmm_csr, sddmm_csr_acc, SddmmCombine,
};
pub use spmm::{spmm_coo_acc, spmm_coo_t_acc, spmm_csr_acc, spmm_csr_filled, spmm_csr_t_acc};

/// The label of the one loop per op above. It names no choice: it is
/// still here only because the repo benchmark reads it (through
/// `dsk_core`'s `PlannedCandidate::local_variant`), and goes once the
/// benchmark stops reading it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKernel {
    /// Each op's one loop, bitwise the one-nonzero-at-a-time order.
    Sequential,
}

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
