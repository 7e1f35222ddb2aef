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
//! The paper computes the logits as a *generalized SDDMM* ("identical
//! communication pattern to SDDMM"): `sddmm_general` with
//! [`CombineSpec::Affine`](dsk_core::kernel::CombineSpec::Affine).
//! That formulation stays the oracle — [`gat_forward_reference`] uses
//! it, and `tests/golden_bits.rs` pins it bit for bit. The engine uses
//! the algebra GAT itself defines attention by instead: the logit is
//! the sum of two per-node scalars, `u = H·a_src` and `v = H·a_dst`.
//! One forward pass over `h` heads
//!
//! 1. stages `H` from the kernel's `B`-iterate layout to full-width row
//!    blocks, once;
//! 2. runs one local GEMM against
//!    `[W₁ | … | W_h | a_src₁ a_dst₁ … a_src_h a_dst_h]`, giving every
//!    head's `H·W` and the `2h` score columns of this rank's rows;
//! 3. all-gathers the scores (`2h·n` words in all), so every rank holds
//!    every `u` and `v`, and repartitions every head's `H·W` back to the
//!    `B`-iterate layout;
//! 4. per head, turns the scores into per-node factors
//!    ([`PairExp`]: `P = exp(u)`, `P' = exp(slope·u)`, `Q = exp(v)`,
//!    `Q' = exp(slope·v)`, so `E_ij = exp(LeakyReLU(u_i + v_j)) =
//!    max(P_i·Q_j, P'_i·Q'_j)`) and runs one SpMM `E·(H·W)` that makes
//!    each `E_ij` inside its local row loop and sums each row's `s_i`
//!    in the same walk (the sums reduce over whichever ranks share a
//!    sparse row). The softmax is `α = diag(1/s)·E`, so
//!    `α·(H·W) = diag(1/s)·(E·(H·W))`: each output row is scaled by
//!    `1/s_i` (0 for an empty row) in the same loop as the ELU and
//!    written into the head's columns of the concatenated output.
//!    Neither `E` nor `α` is stored: the stored R values of an earlier
//!    SDDMM are left as they were.
//!
//! All communication but the row-sum reduction precedes the per-head
//! loop, and that reduction sends nothing where a sparse row is whole
//! on one rank.
//!
//! Every distributed step is a [`Session`] call, so the engine is
//! oblivious to which algorithm family (or the 1D baseline) runs
//! underneath; whole-row kernels pass the repartitions through the
//! identity fast path of [`dsk_core::layout::repartition_dense`].
//!
//! The paper excludes local kernel fusion from its GAT benchmark
//! because the softmax had to observe every completed logit before any
//! aggregation. Normalizing the SpMM's output rows removes that reason,
//! and step 4 is FusedMMA's shape: the sampled values are consumed by
//! the SpMM in the same local pass that makes them, with a scalar
//! combine of `u_i` and `v_j` in place of a dot product. A session
//! planned with any elision runs the forward pass; the elision governs
//! only fused calls, which the forward pass does not make.

use dsk_comm::Phase;
use dsk_core::layout::{repartition_dense, DenseLayout};
use dsk_core::rstore::PairExp;
use dsk_core::session::Session;
use dsk_core::GlobalProblem;
use dsk_dense::ops::gemm_acc;
use dsk_dense::Mat;

use crate::engine::AppEngine;

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

/// Per-rank GAT engine over any distributed kernel, wrapping an
/// adaptive [`Session`] whose `A` and `B` operands are both the node
/// embedding matrix `H` (the graph is square).
pub struct GatEngine {
    session: Session,
}

impl GatEngine {
    /// Wrap a built session (the one constructor; configure family,
    /// replication, or auto-planning on [`Session::builder`]). The
    /// session's problem must be square with `a == b == H`.
    pub fn new(session: Session) -> Self {
        let dims = session.worker().view().dims();
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

    /// One multi-head forward pass: per-head attention + convolution,
    /// outputs concatenated along the feature dimension, ELU applied,
    /// in the rows of the kernel's
    /// [`spmm_a_with_layout_of`](dsk_core::planview::PlanView::spmm_a_with_layout_of).
    ///
    /// The attention is made inside the SpMM and normalized on its
    /// output rows; the stored R values are not touched.
    ///
    /// # Panics
    ///
    /// Panics when `heads` is empty, when its length is not
    /// `cfg.heads`, or when a head's `W` is not `r × r`.
    pub fn forward(&mut self, heads: &[GatHead], cfg: &GatConfig) -> Mat {
        assert!(!heads.is_empty(), "need at least one head");
        assert_eq!(
            heads.len(),
            cfg.heads,
            "GatConfig::heads disagrees with the heads passed"
        );
        let r = self.session.worker().view().dims().r;
        assert!(
            heads
                .iter()
                .all(|head| (head.w.nrows(), head.w.ncols()) == (r, r)),
            "every head's W must be r × r"
        );
        let (hw, scores) = self.stage(heads);
        let hw: Vec<Mat> = hw.iter().map(|hw| self.unstage(hw)).collect();
        let (sum_index, width) = self.output_rows();
        let mut out = {
            let _ph = self.session.comm().phase(Phase::OutsideCompute);
            Mat::zeros(sum_index.len(), heads.len() * width)
        };
        for (t, (hw, [u, v])) in hw.iter().zip(&scores).enumerate() {
            // The unshifted exponential: PairExp falls back to one exp
            // per edge where a per-node factor could overflow.
            let attention = {
                let _ph = self.session.comm().phase(Phase::OutsideCompute);
                PairExp::leaky_relu(u, v, cfg.negative_slope)
            };
            let (head, sums) = self.session.spmm_a_pair_exp(hw, &attention);
            let _ph = self.session.comm().phase(Phase::OutsideCompute);
            debug_assert_eq!((head.nrows(), head.ncols()), (sum_index.len(), width));
            // softmax(E)·HW = diag(1/s)·(E·HW): each row of E·HW is
            // scaled, ELU'd and written into this head's columns.
            let cols = t * width..(t + 1) * width;
            for (i, &at) in sum_index.iter().enumerate() {
                let s = sums[at];
                let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
                for (o, &x) in out.row_mut(i)[cols.clone()].iter_mut().zip(head.row(i)) {
                    let y = x * inv;
                    *o = if y < 0.0 { y.exp() - 1.0 } else { y };
                }
            }
        }
        out
    }

    /// Steps 1–3 of the forward pass: stage `H` to row blocks, run the
    /// one GEMM, and all-gather the scores. Returns each head's `H·W`
    /// on this rank's row block and each head's full `[u, v]`.
    fn stage(&self, heads: &[GatHead]) -> (Vec<Mat>, Vec<[Vec<f64>; 2]>) {
        let comm = self.session.comm();
        let k = self.session.worker().kernel();
        let (view, h) = (k.view(), heads.len());
        let r = view.dims().r;
        let staged = {
            let _ph = comm.phase(Phase::OutsideComm);
            let src = |g| view.b_layout_of(g);
            repartition_dense(comm, &k.b_iterate(), src, self.row_blocks())
        };
        let (hw, local_scores) = {
            let _ph = comm.phase(Phase::OutsideCompute);
            let attn = Mat::from_fn(r, 2 * h, |i, c| {
                let head = &heads[c / 2];
                if c % 2 == 0 {
                    head.a_src[i]
                } else {
                    head.a_dst[i]
                }
            });
            let mut stacked: Vec<Mat> = heads.iter().map(|head| head.w.clone()).collect();
            stacked.push(attn);
            let weights = Mat::hstack(&stacked);
            let mut out = Mat::zeros(staged.nrows(), weights.ncols());
            comm.record_flops(dsk_dense::ops::gemm_flops(
                staged.nrows(),
                r,
                weights.ncols(),
            ));
            gemm_acc(&mut out, &staged, &weights);
            let hw: Vec<Mat> = (0..h).map(|t| out.cols_block(t * r..(t + 1) * r)).collect();
            (hw, out.cols_block(h * r..h * r + 2 * h))
        };
        let all = {
            let _ph = comm.phase(Phase::OutsideComm);
            comm.allgatherv_f64(local_scores.as_slice())
        };
        let _ph = comm.phase(Phase::OutsideCompute);
        let column = |c: usize| all.iter().skip(c).step_by(2 * h).copied().collect();
        let scores = (0..h).map(|t| [column(2 * t), column(2 * t + 1)]).collect();
        (hw, scores)
    }

    /// Repartition one head's `H·W` from the staging row blocks back to
    /// the kernel's `B`-iterate layout (the SpMM operand).
    fn unstage(&self, hw: &Mat) -> Mat {
        let comm = self.session.comm();
        let view = self.session.worker().view();
        let _ph = comm.phase(Phase::OutsideComm);
        repartition_dense(comm, hw, self.row_blocks(), |g| view.b_layout_of(g))
    }

    /// The [`Session::spmm_a_with`] output on this rank: for each local
    /// row, its index into the R row sums (the offset of its global row
    /// in the R store's rows), and the output width.
    ///
    /// # Panics
    ///
    /// Panics when an output row lies outside the store's rows (no
    /// kernel lays out its output so).
    fn output_rows(&self) -> (Vec<usize>, usize) {
        let k = self.session.worker().kernel();
        let rows = k.r_store().rows();
        let layout = k.view().spmm_a_with_layout_of(self.session.comm().rank());
        let width = layout.width();
        let index = layout.row_ranges.into_iter().flatten().map(|g| {
            assert!(rows.contains(&g), "output row {g} has no R row sum");
            g - rows.start
        });
        (index.collect(), width)
    }

    /// The staging layout: full-width contiguous row blocks of `H`.
    fn row_blocks(&self) -> impl Fn(usize) -> DenseLayout {
        let dims = self.session.worker().view().dims();
        AppEngine::row_block_layout(dims.n, dims.r, self.session.comm().size())
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

    /// The forward pass on `family` (`None`: the 1D baseline) with `p`
    /// ranks, every head's block gathered in the layout the kernel
    /// describes and stacked on rank 0.
    fn forward_gathered(
        prob: &Arc<GlobalProblem>,
        heads: &[GatHead],
        cfg: &GatConfig,
        family: Option<AlgorithmFamily>,
        p: usize,
        c: usize,
    ) -> Mat {
        let (n, r) = (prob.dims.n, prob.dims.r);
        let (prob, heads, cfg) = (Arc::clone(prob), heads.to_vec(), *cfg);
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let builder = Session::builder(&prob);
            let builder = match family {
                Some(f) => builder.family(f).replication(c),
                None => builder.baseline(),
            };
            let mut eng = GatEngine::new(builder.build(comm));
            let local = eng.forward(&heads, &cfg);
            // Every rank joins every gather before rank 0 stacks them.
            let view = eng.session().worker().view();
            let width = local.ncols() / cfg.heads;
            let per_head: Vec<Option<Mat>> = (0..cfg.heads)
                .map(|t| {
                    let head = local.cols_block(t * width..(t + 1) * width);
                    gather_dense(comm, 0, &head, |g| view.spmm_a_with_layout_of(g), n, r)
                })
                .collect();
            let per_head: Option<Vec<Mat>> = per_head.into_iter().collect();
            per_head.map(|blocks| Mat::hstack(&blocks))
        });
        let got = out[0].value.clone().unwrap();
        assert_eq!(got.ncols(), cfg.heads * r);
        got
    }

    /// The forward pass on `family` against the serial reference,
    /// every head's block compared.
    fn check_family(family: Option<AlgorithmFamily>, p: usize, c: usize) {
        let (n, r) = (24, 6);
        let prob = Arc::new(gat_problem(n, r, 300));
        let cfg = GatConfig::default();
        let heads = vec![GatHead::random(r, 301), GatHead::random(r, 302)];
        let expect = gat_forward_reference(&prob, &heads, &cfg);
        let got = forward_gathered(&prob, &heads, &cfg, family, p, c);
        for t in 0..cfg.heads {
            let cols = t * r..(t + 1) * r;
            assert!(
                dsk_dense::ops::max_abs_diff(
                    &got.cols_block(cols.clone()),
                    &expect.cols_block(cols)
                ) < 1e-9,
                "GAT mismatch for {family:?}, head {t}"
            );
        }
    }

    #[test]
    fn gat_matches_reference_ds15() {
        check_family(Some(AlgorithmFamily::DenseShift15), 4, 2);
    }

    #[test]
    fn gat_matches_reference_ss15() {
        check_family(Some(AlgorithmFamily::SparseShift15), 4, 2);
    }

    #[test]
    fn gat_matches_reference_dr25() {
        check_family(Some(AlgorithmFamily::DenseRepl25), 8, 2);
    }

    #[test]
    fn gat_matches_reference_sr25() {
        check_family(Some(AlgorithmFamily::SparseRepl25), 8, 2);
    }

    #[test]
    fn gat_matches_reference_baseline() {
        // The 1D baseline is a full DistKernel: the same forward pass
        // must verify against the serial reference.
        check_family(None, 4, 1);
    }

    #[test]
    fn isolated_nodes_get_zero_rows_on_every_kernel() {
        // Every fifth node has no edge at all: its row sum is 0, so its
        // output row is the empty SpMM row scaled by 0, then ELU'd.
        let (n, r) = (24, 6);
        let isolated = |i: usize| i % 5 == 2;
        let mut s = dsk_sparse::CooMatrix::empty(n, n);
        for (i, j, v) in dsk_sparse::gen::erdos_renyi(n, n, 4, 370).iter() {
            if !isolated(i) && !isolated(j) {
                s.push(i, j, v);
            }
        }
        let h = Mat::random(n, r, 371);
        let prob = Arc::new(GlobalProblem::new(s, h.clone(), h));
        let cfg = GatConfig::default();
        let heads = vec![GatHead::random(r, 372), GatHead::random(r, 373)];
        let expect = gat_forward_reference(&prob, &heads, &cfg);
        for (family, p, c) in KERNELS {
            let got = forward_gathered(&prob, &heads, &cfg, family, p, c);
            for i in (0..n).filter(|&i| isolated(i)) {
                assert!(
                    got.row(i).iter().all(|&v| v == 0.0),
                    "{family:?} (p = {p}, c = {c}): isolated node {i} has a non-zero output row"
                );
            }
            assert!(
                dsk_dense::ops::max_abs_diff(&got, &expect) < 1e-9,
                "{family:?} (p = {p}, c = {c}) differs from the reference"
            );
        }
    }

    /// All five kernels as `(family, p, c)` (`None`: the 1D baseline),
    /// with `sr25` also at p = c = 4, where q = 1 and every rank holds
    /// every edge.
    const KERNELS: [(Option<AlgorithmFamily>, usize, usize); 6] = [
        (Some(AlgorithmFamily::DenseShift15), 4, 2),
        (Some(AlgorithmFamily::SparseShift15), 4, 2),
        (Some(AlgorithmFamily::DenseRepl25), 8, 2),
        (Some(AlgorithmFamily::SparseRepl25), 8, 2),
        (Some(AlgorithmFamily::SparseRepl25), 4, 4),
        (None, 4, 1),
    ];

    #[test]
    fn forward_leaves_the_stored_r_values_untouched() {
        // The attention is made inside the SpMM's row loop: the R
        // values of an earlier SDDMM survive a forward pass bit for bit.
        let (n, r) = (24, 6);
        let prob = Arc::new(gat_problem(n, r, 380));
        let cfg = GatConfig::default();
        let heads = vec![GatHead::random(r, 381), GatHead::random(r, 382)];
        for (family, p, c) in KERNELS {
            let (pr, heads) = (Arc::clone(&prob), heads.clone());
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let builder = Session::builder(&pr);
                let builder = match family {
                    Some(f) => builder.family(f).replication(c),
                    None => builder.baseline(),
                };
                let mut eng = GatEngine::new(builder.build(comm));
                eng.session_mut().worker_mut().sddmm();
                let bits = |eng: &GatEngine| {
                    let r = eng.session().worker().export_r().unwrap();
                    r.iter()
                        .map(|(i, j, v)| (i, j, v.to_bits()))
                        .collect::<Vec<_>>()
                };
                let before = bits(&eng);
                eng.forward(&heads, &cfg);
                (before.len(), before == bits(&eng))
            });
            let exported: usize = out.iter().map(|o| o.value.0).sum();
            assert_eq!(exported, prob.nnz(), "{family:?} (p = {p}, c = {c})");
            for o in &out {
                assert!(
                    o.value.1,
                    "{family:?} (p = {p}, c = {c}): rank {} lost its R values",
                    o.rank
                );
            }
        }
    }

    #[test]
    fn slopes_above_one_and_below_zero_match_the_reference() {
        // LeakyReLU is a min of the two factor products above slope 1
        // and still a max below 0.
        let (n, r) = (24, 6);
        let prob = Arc::new(gat_problem(n, r, 390));
        let heads = vec![GatHead::random(r, 391), GatHead::random(r, 392)];
        for negative_slope in [1.5, -0.5] {
            let cfg = GatConfig {
                heads: 2,
                negative_slope,
            };
            let expect = gat_forward_reference(&prob, &heads, &cfg);
            for (family, p, c) in [KERNELS[1], KERNELS[4], KERNELS[5]] {
                let got = forward_gathered(&prob, &heads, &cfg, family, p, c);
                assert!(
                    dsk_dense::ops::max_abs_diff(&got, &expect) < 1e-9,
                    "{family:?} (p = {p}, c = {c}), slope {negative_slope}"
                );
            }
        }
    }

    #[test]
    fn forward_words_are_the_closed_form() {
        // sr25 at p = c = 4 holds B as n × r/4 column slices. One
        // staging sends 3/4 of each rank's n/4 × r row block, the score
        // all-gather 3 peers' n/4 × 2h blocks, and each head's
        // repartition back as much as the staging: no logit reduction
        // across layers, so no replication words.
        let (n, r, p, c, h) = (32, 8, 4, 4, 2);
        let prob = Arc::new(gat_problem(n, r, 330));
        let cfg = GatConfig {
            heads: h,
            negative_slope: 0.2,
        };
        let heads: Vec<GatHead> = (0..h as u64).map(|i| GatHead::random(r, 340 + i)).collect();
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = GatEngine::new(
                Session::builder(&prob)
                    .family(AlgorithmFamily::SparseRepl25)
                    .replication(c)
                    .build(comm),
            );
            let before = comm.stats_snapshot();
            eng.forward(&heads, &cfg);
            let after = comm.stats_snapshot();
            let repl = |s: &dsk_comm::RankStats| s.phase(Phase::Replication).words_sent;
            (
                after.total().words_sent - before.total().words_sent,
                repl(&after) - repl(&before),
            )
        });
        let expect = (3 * n * r / 16 + 3 * (n / 4) * 2 * h + h * 3 * n * r / 16) as u64;
        for o in &out {
            assert_eq!(o.value, (expect, 0), "rank {} words per forward", o.rank);
        }
    }

    #[test]
    #[should_panic(expected = "GatConfig::heads disagrees")]
    fn forward_rejects_a_head_count_mismatch() {
        let (n, r) = (16, 4);
        let prob = gat_problem(n, r, 350);
        let cfg = GatConfig {
            heads: 3,
            negative_slope: 0.2,
        };
        let heads: Vec<GatHead> = (0..2).map(|i| GatHead::random(r, 360 + i)).collect();
        let w = SimWorld::new(1, MachineModel::bandwidth_only());
        w.run(move |comm| {
            let mut eng = GatEngine::new(Session::builder(&prob).baseline().build(comm));
            eng.forward(&heads, &cfg);
        });
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
