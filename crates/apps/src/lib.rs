//! # dsk-apps — applications on the distributed sparse kernels
//!
//! The two applications the paper embeds its kernels in (§VI-E):
//!
//! * [`als`] — collaborative filtering by alternating least squares,
//!   with the Zhao–Canny batched conjugate-gradient formulation whose
//!   per-iteration matrix-vector product is exactly one FusedMM;
//! * [`gat`] — the forward-pass workload of a multi-head graph
//!   attention network: a generalized SDDMM computes attention logits,
//!   a row softmax normalizes them, and an SpMM applies the attention-
//!   weighted convolution.
//!
//! [`engine`] adapts the four algorithm families to a common interface,
//! including the input/output *distribution shifts* (re-partitions)
//! that 2.5D and sparse-shifting algorithms must pay between kernel
//! calls — the "communication outside FusedMM" of the paper's Fig. 9.

// Indexed `for i in 0..n` loops over CSR index structures are the
// domain idiom throughout this workspace; the iterator rewrites
// clippy suggests obscure the sparse-index arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod als;
pub mod engine;
pub mod gat;

pub use als::{run_als, AlsConfig, AlsReport};
pub use engine::AppEngine;
pub use gat::{GatConfig, GatEngine, GatHead};
