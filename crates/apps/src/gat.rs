//! Graph-attention-network forward-pass workload (paper §VI-E).
//!
//! A single attention head on a graph with adjacency `S ∈ {0,1}ⁿˣⁿ` and
//! node embeddings `H ∈ Rⁿˣʳ` computes
//!
//! ```text
//! e_ij = LeakyReLU(a_srcᵀ h_i + a_dstᵀ h_j)   for (i,j) ∈ nnz(S)
//! α_i: = softmax over the nonzeros of row i of e
//! out  = α · (H·W)
//! ```
//!
//! The logit computation is a *generalized SDDMM* — the additive
//! combine decomposes over the r-dimension exactly like a dot product,
//! so it slices across every distribution (paper: "identical
//! communication pattern to SDDMM"). The row softmax needs row-wise
//! reductions over whichever ranks share a sparse row (outside-kernel
//! communication), and the convolution is an SpMM with the attention
//! values. A multi-head layer concatenates per-head outputs.
//!
//! Every step is a [`DistKernel`](dsk_core::kernel::DistKernel) call,
//! so the engine is oblivious to
//! which algorithm family (or the 1D baseline) runs underneath. The
//! dense transform `H·W` stages through full-width row blocks using the
//! kernel's iterate-layout descriptors; whole-row kernels pass through
//! the identity fast path of
//! [`dsk_core::layout::repartition_dense`].
//!
//! Local kernel fusion is deliberately unsupported here: the softmax
//! must observe the completed SDDMM before any aggregation, which is
//! why the paper excludes the LKF variant from its GAT benchmark.

use dsk_comm::Phase;
use dsk_core::kernel::CombineSpec;
use dsk_core::layout::repartition_dense;
use dsk_core::session::Session;
use dsk_core::GlobalProblem;
use dsk_dense::ops::gemm_acc;
use dsk_dense::Mat;

/// One attention head's parameters.
#[derive(Debug, Clone)]
pub struct GatHead {
    /// The `r × r` feature transform `W`.
    pub w: Mat,
    /// Source-side attention weights (length `r`).
    pub a_src: Vec<f64>,
    /// Destination-side attention weights (length `r`).
    pub a_dst: Vec<f64>,
}

impl GatHead {
    /// Deterministic random head for benchmarks (the paper simulates
    /// the forward pass with random weights).
    pub fn random(r: usize, seed: u64) -> Self {
        let w = Mat::random(r, r, seed);
        let a_src = Mat::random(1, r, seed + 1).into_vec();
        let a_dst = Mat::random(1, r, seed + 2).into_vec();
        GatHead { w, a_src, a_dst }
    }
}

/// Forward-pass configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatConfig {
    /// Number of attention heads (outputs are concatenated).
    pub heads: usize,
    /// LeakyReLU negative slope (0.2 in the GAT paper).
    pub negative_slope: f64,
}

impl Default for GatConfig {
    fn default() -> Self {
        GatConfig {
            heads: 2,
            negative_slope: 0.2,
        }
    }
}

/// Per-rank GAT engine over any distributed kernel (except LKF),
/// wrapping an adaptive [`Session`] whose `A` and `B` operands are both
/// the node embedding matrix `H` (the graph is square).
pub struct GatEngine {
    session: Session,
}

impl GatEngine {
    /// Wrap a built session (the one constructor; configure family,
    /// replication, or auto-planning on [`Session::builder`]). The
    /// session's problem must be square with `a == b == H`.
    pub fn new(session: Session) -> Self {
        let dims = session.worker().dims();
        assert_eq!(dims.m, dims.n, "GAT needs a square adjacency");
        GatEngine { session }
    }

    /// The wrapped session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The wrapped session, mutably — re-plan between forward passes
    /// with `session_mut().replan(..)` (e.g. after attention dropout or
    /// graph pruning shrank the effective nonzero count).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Compute `H·W` in the kernel's SpMM-operand (`B`-iterate) layout.
    /// Column-sliced layouts re-partition through a row-block staging
    /// layout (outside-kernel cost, as in the paper's Fig. 9
    /// breakdown); whole-row layouts pass through untouched.
    fn transform_operand(&mut self, w_mat: &Mat) -> Mat {
        let comm = self.session.comm();
        let dims = self.session.worker().dims();
        let (n, r, p) = (dims.n, dims.r, comm.size());
        let row_blocks = crate::engine::AppEngine::row_block_layout(n, r, p);
        let k = self.session.worker().kernel();
        let src = |g: usize| k.b_iterate_layout_of(g);
        let stacked = k.b_iterate();
        let staged = {
            let _ph = comm.phase(Phase::OutsideComm);
            repartition_dense(comm, &stacked, src, &row_blocks)
        };
        let hw = {
            let _ph = comm.phase(Phase::OutsideCompute);
            let mut out = Mat::zeros(staged.nrows(), w_mat.ncols());
            comm.record_flops(dsk_dense::ops::gemm_flops(
                staged.nrows(),
                staged.ncols(),
                w_mat.ncols(),
            ));
            gemm_acc(&mut out, &staged, w_mat);
            out
        };
        let _ph = comm.phase(Phase::OutsideComm);
        repartition_dense(comm, &hw, &row_blocks, src)
    }

    /// Attention logits for one head into the worker's R values
    /// (generalized SDDMM).
    fn attention_logits(&mut self, head: &GatHead) {
        self.session.sddmm_general(&CombineSpec::Affine {
            w_src: head.a_src.clone(),
            w_dst: head.a_dst.clone(),
        });
    }

    /// LeakyReLU + row softmax over the stored attention logits.
    fn softmax_rows(&mut self, negative_slope: f64) {
        let slope = negative_slope;
        // exp(LeakyReLU(·)); inputs are bounded (embeddings in [-1,1]),
        // so the unshifted exponential is safe.
        self.session.map_r(&mut |v: f64| {
            let a = if v < 0.0 { slope * v } else { v };
            a.exp()
        });
        let sums = self.session.r_row_sums(Phase::OutsideComm);
        let inv: Vec<f64> = sums
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        self.session.scale_r_rows(&inv);
    }

    /// Attention-weighted convolution `α · (H·W)` (SpMM with the stored
    /// R values), in the kernel's
    /// [`spmm_a_with_layout_of`](dsk_core::kernel::DistKernel::spmm_a_with_layout_of)
    /// layout.
    fn convolve(&mut self, hw: &Mat) -> Mat {
        self.session.spmm_a_with(hw)
    }

    /// One multi-head forward pass: per-head attention + convolution,
    /// outputs concatenated along the feature dimension, ELU applied.
    pub fn forward(&mut self, heads: &[GatHead], cfg: &GatConfig) -> Mat {
        assert!(!heads.is_empty(), "need at least one head");
        let mut outputs = Vec::with_capacity(heads.len());
        for head in heads {
            self.attention_logits(head);
            self.softmax_rows(cfg.negative_slope);
            let hw = self.transform_operand(&head.w);
            let mut out = self.convolve(&hw);
            // ELU activation, locally.
            {
                let _ph = self.session.comm().phase(Phase::OutsideCompute);
                for v in out.as_mut_slice() {
                    if *v < 0.0 {
                        *v = v.exp() - 1.0;
                    }
                }
            }
            outputs.push(out);
        }
        Mat::hstack(&outputs)
    }
}

/// Serial reference of the same forward pass, for verification.
pub fn gat_forward_reference(prob: &GlobalProblem, heads: &[GatHead], cfg: &GatConfig) -> Mat {
    let n = prob.dims.n;
    let s = prob.s_csr();
    let h = &prob.a; // == prob.b for GAT problems
    let mut outputs = Vec::with_capacity(heads.len());
    for head in heads {
        // Logits, LeakyReLU, exp.
        let mut vals = vec![0.0; s.nnz()];
        dsk_kernels::sddmm::sddmm_csr_acc_with(
            &mut vals,
            &s,
            h,
            h,
            dsk_kernels::SddmmCombine::AffinePair {
                w_src: &head.a_src,
                w_dst: &head.a_dst,
            },
        );
        for v in vals.iter_mut() {
            let a = if *v < 0.0 {
                cfg.negative_slope * *v
            } else {
                *v
            };
            *v = a.exp();
        }
        // Row softmax.
        let indptr = s.indptr();
        for i in 0..n {
            let sum: f64 = vals[indptr[i]..indptr[i + 1]].iter().sum();
            if sum > 0.0 {
                for v in &mut vals[indptr[i]..indptr[i + 1]] {
                    *v /= sum;
                }
            }
        }
        let mut alpha = s.clone();
        alpha.set_vals(vals);
        // H·W then convolution.
        let mut hw = Mat::zeros(n, head.w.ncols());
        gemm_acc(&mut hw, h, &head.w);
        let mut out = Mat::zeros(n, head.w.ncols());
        dsk_kernels::spmm_csr_acc(&mut out, &alpha, &hw);
        for v in out.as_mut_slice() {
            if *v < 0.0 {
                *v = v.exp() - 1.0;
            }
        }
        outputs.push(out);
    }
    Mat::hstack(&outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, SimWorld};
    use dsk_core::common::AlgorithmFamily;
    use dsk_core::layout::gather_dense;
    use std::sync::Arc;

    fn gat_problem(n: usize, r: usize, seed: u64) -> GlobalProblem {
        let s = dsk_sparse::gen::erdos_renyi(n, n, 4, seed);
        let h = Mat::random(n, r, seed + 1);
        GlobalProblem::new(s, h.clone(), h)
    }

    fn check_family(family: AlgorithmFamily, p: usize, c: usize) {
        let (n, r) = (24, 6);
        let prob = Arc::new(gat_problem(n, r, 300));
        let cfg = GatConfig::default();
        let heads = vec![GatHead::random(r, 301), GatHead::random(r, 302)];
        let expect = gat_forward_reference(&prob, &heads, &cfg);
        let heads2 = heads.clone();
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = GatEngine::new(
                Session::builder(&prob)
                    .family(family)
                    .replication(c)
                    .build(comm),
            );
            let local = eng.forward(&heads2, &cfg);
            // Per-head outputs are concatenated; gather head 0 only,
            // whose layout the kernel itself describes.
            let k = eng.session().worker().kernel();
            let head0 = local.cols_block(0..local.ncols() / 2);
            gather_dense(comm, 0, &head0, |g| k.spmm_a_with_layout_of(g), n, r)
        });
        let got = out[0].value.as_ref().unwrap();
        let expect0 = expect.cols_block(0..r);
        assert!(
            dsk_dense::ops::max_abs_diff(got, &expect0) < 1e-9,
            "GAT mismatch for {family:?}"
        );
    }

    #[test]
    fn gat_matches_reference_ds15() {
        check_family(AlgorithmFamily::DenseShift15, 4, 2);
    }

    #[test]
    fn gat_matches_reference_ss15() {
        check_family(AlgorithmFamily::SparseShift15, 4, 2);
    }

    #[test]
    fn gat_matches_reference_dr25() {
        check_family(AlgorithmFamily::DenseRepl25, 8, 2);
    }

    #[test]
    fn gat_matches_reference_sr25() {
        check_family(AlgorithmFamily::SparseRepl25, 8, 2);
    }

    #[test]
    fn gat_matches_reference_baseline() {
        // The 1D baseline is a full DistKernel: the same forward pass
        // must verify against the serial reference.
        let (n, r, p) = (24, 6, 4);
        let prob = Arc::new(gat_problem(n, r, 303));
        let cfg = GatConfig::default();
        let heads = vec![GatHead::random(r, 304)];
        let expect = gat_forward_reference(&prob, &heads, &cfg);
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = GatEngine::new(Session::builder(&prob).baseline().build(comm));
            let local = eng.forward(&heads, &cfg);
            let k = eng.session().worker().kernel();
            gather_dense(comm, 0, &local, |g| k.spmm_a_with_layout_of(g), n, r)
        });
        let got = out[0].value.as_ref().unwrap();
        assert!(
            dsk_dense::ops::max_abs_diff(got, &expect) < 1e-9,
            "GAT mismatch for baseline"
        );
    }

    #[test]
    fn multi_head_concatenates() {
        let (n, r, p, c) = (16, 4, 4, 2);
        let prob = Arc::new(gat_problem(n, r, 310));
        let cfg = GatConfig {
            heads: 3,
            negative_slope: 0.2,
        };
        let heads: Vec<GatHead> = (0..3).map(|i| GatHead::random(r, 320 + i)).collect();
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = GatEngine::new(
                Session::builder(&prob)
                    .family(AlgorithmFamily::DenseShift15)
                    .replication(c)
                    .build(comm),
            );
            let local = eng.forward(&heads, &cfg);
            local.ncols()
        });
        assert!(out.iter().all(|o| o.value == 3 * r));
    }
}
