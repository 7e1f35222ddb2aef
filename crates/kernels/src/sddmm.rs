//! Sampled dense-dense matrix multiplication kernels.
//!
//! `SDDMM(A, B, S) = S ∗ (A·Bᵀ)`: for every nonzero `(i, j)` of `S`,
//! compute `⟨A_i:, B_j:⟩` and multiply by `S_ij`. The kernels here
//! separate the two parts:
//!
//! 1. **accumulation** of the dense dot products into a value buffer
//!    aligned with the sparse pattern — crucially, this may be *partial*:
//!    when the dense operands are column slices (1.5D sparse-shifting and
//!    both 2.5D algorithms), each call adds that slice's contribution and
//!    the full dot product emerges after all slices have been visited;
//! 2. **finalization**: multiplying by the sampling values
//!    ([`apply_sampling`]) or applying a nonlinearity ([`leaky_relu`],
//!    used by graph attention networks).
//!
//! The [`SddmmCombine`] enum generalizes the per-nonzero interaction: the
//! paper's GAT workload replaces the dot product with
//! `aᵀ(A_i: ‖ A_j:) = Σ_k w_src[k]·A_ik + w_dst[k]·A_jk`, which is also a
//! sum over the r-dimension and therefore slices identically.

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

/// Per-nonzero interaction between a row of the A-side panel and a row
/// of the B-side panel. Every variant decomposes as a sum over the
/// panel's columns, so slice-partial accumulation is exact.
#[derive(Clone, Copy)]
pub enum SddmmCombine<'a> {
    /// `⟨a_row, b_row⟩` — the standard SDDMM.
    Dot,
    /// `Σ_k w_src[k]·a_row[k] + w_dst[k]·b_row[k]` — the additive
    /// attention logit of a GAT head. The weight slices must have the
    /// same width as the panels.
    AffinePair {
        /// Weights applied to the A-side (source embedding).
        w_src: &'a [f64],
        /// Weights applied to the B-side (destination embedding).
        w_dst: &'a [f64],
    },
}

impl SddmmCombine<'_> {
    #[inline]
    fn eval(&self, arow: &[f64], brow: &[f64]) -> f64 {
        match self {
            SddmmCombine::Dot => arow.iter().zip(brow).map(|(x, y)| x * y).sum(),
            SddmmCombine::AffinePair { w_src, w_dst } => {
                debug_assert_eq!(w_src.len(), arow.len());
                debug_assert_eq!(w_dst.len(), brow.len());
                let s: f64 = w_src.iter().zip(arow).map(|(w, x)| w * x).sum();
                let d: f64 = w_dst.iter().zip(brow).map(|(w, y)| w * y).sum();
                s + d
            }
        }
    }
}

/// Accumulate (partial) dot products into `acc`, aligned with the CSR
/// nonzero order of `s`: `acc[k] += combine(A_row(i_k), B_row(j_k))`.
/// Panels may be column slices of the global matrices.
pub fn sddmm_csr_acc_with(
    acc: &mut [f64],
    s: &CsrMatrix,
    a_panel: &Mat,
    b_panel: &Mat,
    combine: SddmmCombine<'_>,
) {
    assert_eq!(acc.len(), s.nnz(), "accumulator must align with pattern");
    assert_eq!(a_panel.nrows(), s.nrows(), "A panel rows must match S rows");
    assert_eq!(b_panel.nrows(), s.ncols(), "B panel rows must match S cols");
    assert_eq!(
        a_panel.ncols(),
        b_panel.ncols(),
        "panels must cover the same column slice"
    );
    let indptr = s.indptr();
    for i in 0..s.nrows() {
        let (cols, _) = s.row(i);
        let arow = a_panel.row(i);
        let base = indptr[i];
        for (off, &j) in cols.iter().enumerate() {
            acc[base + off] += combine.eval(arow, b_panel.row(j as usize));
        }
    }
}

/// [`sddmm_csr_acc_with`] specialized to the dot-product combine.
pub fn sddmm_csr_acc(acc: &mut [f64], s: &CsrMatrix, a_panel: &Mat, b_panel: &Mat) {
    sddmm_csr_acc_with(acc, s, a_panel, b_panel, SddmmCombine::Dot);
}

/// Accumulate (partial) dot products aligned with a COO block's nonzero
/// order: `acc[k] += combine(A_row(rows[k]), B_row(cols[k]))`.
///
/// Only the coordinate arrays of `s` are consulted (its value array may
/// be detached — traveling blocks in the sparse-shifting algorithms
/// carry their accumulator separately).
pub fn sddmm_coo_acc_with(
    acc: &mut [f64],
    s: &CooMatrix,
    a_panel: &Mat,
    b_panel: &Mat,
    combine: SddmmCombine<'_>,
) {
    assert_eq!(
        acc.len(),
        s.rows.len(),
        "accumulator must align with pattern"
    );
    assert_eq!(a_panel.nrows(), s.nrows, "A panel rows must match S rows");
    assert_eq!(b_panel.nrows(), s.ncols, "B panel rows must match S cols");
    assert_eq!(
        a_panel.ncols(),
        b_panel.ncols(),
        "panels must cover the same column slice"
    );
    for (k, (&i, &j)) in s.rows.iter().zip(&s.cols).enumerate() {
        acc[k] += combine.eval(a_panel.row(i as usize), b_panel.row(j as usize));
    }
}

/// [`sddmm_coo_acc_with`] with the dot-product combine.
pub fn sddmm_coo_acc(acc: &mut [f64], s: &CooMatrix, a_panel: &Mat, b_panel: &Mat) {
    sddmm_coo_acc_with(acc, s, a_panel, b_panel, SddmmCombine::Dot);
}

/// Full (non-distributed) SDDMM on a CSR pattern: returns
/// `S_ij · ⟨A_i:, B_j:⟩` in CSR nonzero order.
pub fn sddmm_csr(s: &CsrMatrix, a: &Mat, b: &Mat) -> Vec<f64> {
    let mut acc = vec![0.0; s.nnz()];
    sddmm_csr_acc(&mut acc, s, a, b);
    apply_sampling(&mut acc, s.vals());
    acc
}

/// Finalize an SDDMM: multiply accumulated dot products by the sampling
/// values (the original entries of `S`), element-wise.
pub fn apply_sampling(acc: &mut [f64], sampling: &[f64]) {
    assert_eq!(acc.len(), sampling.len(), "sampling length mismatch");
    for (a, s) in acc.iter_mut().zip(sampling) {
        *a *= s;
    }
}

/// LeakyReLU with the GAT paper's default negative slope (0.2), applied
/// element-wise — the nonlinearity between a GAT's attention logits and
/// its softmax.
pub fn leaky_relu(vals: &mut [f64], negative_slope: f64) {
    for v in vals.iter_mut() {
        if *v < 0.0 {
            *v *= negative_slope;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dsk_sparse::gen::erdos_renyi;

    fn setup(m: usize, n: usize, r: usize, seed: u64) -> (CooMatrix, Mat, Mat) {
        let s = erdos_renyi(m, n, 3, seed);
        let a = Mat::random(m, r, seed + 1);
        let b = Mat::random(n, r, seed + 2);
        (s, a, b)
    }

    #[test]
    fn sddmm_matches_reference() {
        let (s, a, b) = setup(11, 13, 6, 10);
        let csr = CsrMatrix::from_coo(&s);
        let got = sddmm_csr(&csr, &a, &b);
        let want = reference::sddmm_ref(&csr, &a, &b);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn slice_partial_accumulation_is_exact() {
        // Accumulating over column slices must equal the full-width dot.
        let (s, a, b) = setup(9, 9, 12, 12);
        let csr = CsrMatrix::from_coo(&s);
        let mut full = vec![0.0; csr.nnz()];
        sddmm_csr_acc(&mut full, &csr, &a, &b);

        let mut sliced = vec![0.0; csr.nnz()];
        for slice in [0..5usize, 5..12usize] {
            let ap = a.cols_block(slice.clone());
            let bp = b.cols_block(slice.clone());
            sddmm_csr_acc(&mut sliced, &csr, &ap, &bp);
        }
        for (x, y) in full.iter().zip(&sliced) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn coo_and_csr_accumulators_agree() {
        let (s, a, b) = setup(8, 10, 4, 13);
        let csr = CsrMatrix::from_coo(&s);
        // Same pattern in both formats: compare via sorted COO order.
        let coo_sorted = csr.to_coo();
        let mut acc_coo = vec![0.0; coo_sorted.nnz()];
        sddmm_coo_acc(&mut acc_coo, &coo_sorted, &a, &b);
        let mut acc_csr = vec![0.0; csr.nnz()];
        sddmm_csr_acc(&mut acc_csr, &csr, &a, &b);
        for (x, y) in acc_coo.iter().zip(&acc_csr) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn affine_pair_combine_matches_manual() {
        let (s, a, b) = setup(6, 6, 5, 14);
        let csr = CsrMatrix::from_coo(&s);
        let w_src: Vec<f64> = (0..5).map(|k| 0.1 * k as f64).collect();
        let w_dst: Vec<f64> = (0..5).map(|k| 1.0 - 0.2 * k as f64).collect();
        let mut acc = vec![0.0; csr.nnz()];
        sddmm_csr_acc_with(
            &mut acc,
            &csr,
            &a,
            &b,
            SddmmCombine::AffinePair {
                w_src: &w_src,
                w_dst: &w_dst,
            },
        );
        // manual check
        let coo = csr.to_coo();
        for (k, (i, j, _)) in coo.iter().enumerate() {
            let want: f64 = (0..5)
                .map(|t| w_src[t] * a.get(i, t) + w_dst[t] * b.get(j, t))
                .sum();
            assert!((acc[k] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_sampling_multiplies_elementwise() {
        let mut acc = vec![2.0, 3.0, 4.0];
        apply_sampling(&mut acc, &[1.0, 0.5, -1.0]);
        assert_eq!(acc, vec![2.0, 1.5, -4.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives_only() {
        let mut v = vec![-1.0, 0.0, 2.0];
        leaky_relu(&mut v, 0.2);
        assert_eq!(v, vec![-0.2, 0.0, 2.0]);
    }
}
