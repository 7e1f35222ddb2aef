//! The fused local SDDMM + SpMM kernel (*local kernel fusion*).
//!
//! `FusedMMA(S, A, B) = SpMMA(SDDMM(A, B, S), B)`, computed per nonzero
//! without materializing the intermediate sparse matrix:
//!
//! ```text
//! for each nonzero (i, j) of S:
//!     r        = S_ij · ⟨A_i:, B_j:⟩       (SDDMM part)
//!     out_i:  += r · B_j:                   (SpMM part)
//! ```
//!
//! This is only legal when entire rows of `A` and `B` are co-located —
//! the dot product must complete before the aggregation — which is why
//! the paper restricts local kernel fusion to the 1.5D dense-shifting
//! algorithm. Besides saving a communication round, the fused kernel
//! skips the intermediate store/reload of the SDDMM result (as in the
//! FusedMM paper of Rahman, Sujon & Azad the authors cite).

use dsk_dense::Mat;
use dsk_sparse::CsrMatrix;

/// Fused FusedMMA over full-width rows: `out += SDDMM(A,B,S) · B`
/// row-by-row, without materializing the SDDMM.
///
/// Shapes: `S: m×n` (values = sampling), `a: m×r`, `b: n×r`,
/// `out: m×r`.
pub fn fused_a_csr(out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(a.ncols(), b.ncols(), "A and B widths must agree");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B");
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        let arow = a.row(i);
        for (&j, &sv) in cols.iter().zip(vals) {
            let brow = b.row(j as usize);
            let dot: f64 = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
            let rij = sv * dot;
            let orow = out.row_mut(i);
            for (o, y) in orow.iter_mut().zip(brow) {
                *o += rij * y;
            }
        }
    }
}

/// As [`fused_a_csr`], but additionally materializes the intermediate
/// SDDMM values (in CSR nonzero order) for callers that need the sparse
/// result too.
pub fn fused_a_csr_materialize(out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) -> Vec<f64> {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(a.ncols(), b.ncols(), "A and B widths must agree");
    let mut rvals = vec![0.0; s.nnz()];
    let indptr = s.indptr();
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        let arow = a.row(i);
        let base = indptr[i];
        for (off, (&j, &sv)) in cols.iter().zip(vals).enumerate() {
            let brow = b.row(j as usize);
            let dot: f64 = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
            let rij = sv * dot;
            rvals[base + off] = rij;
            let orow = out.row_mut(i);
            for (o, y) in orow.iter_mut().zip(brow) {
                *o += rij * y;
            }
        }
    }
    rvals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sddmm::sddmm_csr, spmm::spmm_csr_acc};
    use dsk_dense::ops::max_abs_diff;
    use dsk_sparse::gen::erdos_renyi;

    fn setup(m: usize, n: usize, r: usize, seed: u64) -> (CsrMatrix, Mat, Mat) {
        let s = CsrMatrix::from_coo(&erdos_renyi(m, n, 4, seed));
        let a = Mat::random(m, r, seed + 1);
        let b = Mat::random(n, r, seed + 2);
        (s, a, b)
    }

    #[test]
    fn fused_equals_sddmm_then_spmm() {
        let (s, a, b) = setup(15, 12, 7, 20);
        // Unfused path.
        let rvals = sddmm_csr(&s, &a, &b);
        let mut r = s.clone();
        r.set_vals(rvals);
        let mut expect = Mat::zeros(15, 7);
        spmm_csr_acc(&mut expect, &r, &b);
        // Fused path.
        let mut got = Mat::zeros(15, 7);
        fused_a_csr(&mut got, &s, &a, &b);
        assert!(max_abs_diff(&got, &expect) < 1e-12);
    }

    #[test]
    fn materializing_variant_returns_sddmm_values() {
        let (s, a, b) = setup(9, 9, 5, 21);
        let mut out1 = Mat::zeros(9, 5);
        let rvals = fused_a_csr_materialize(&mut out1, &s, &a, &b);
        let expect_vals = sddmm_csr(&s, &a, &b);
        for (g, w) in rvals.iter().zip(&expect_vals) {
            assert!((g - w).abs() < 1e-12);
        }
        let mut out2 = Mat::zeros(9, 5);
        fused_a_csr(&mut out2, &s, &a, &b);
        assert!(max_abs_diff(&out1, &out2) < 1e-12);
    }

    #[test]
    fn fused_accumulates_into_output() {
        let (s, a, b) = setup(6, 6, 3, 22);
        let mut out = Mat::random(6, 3, 99);
        let base = out.clone();
        fused_a_csr(&mut out, &s, &a, &b);
        let mut delta = Mat::zeros(6, 3);
        fused_a_csr(&mut delta, &s, &a, &b);
        let mut expect = base;
        dsk_dense::ops::add_assign(&mut expect, &delta);
        assert!(max_abs_diff(&out, &expect) < 1e-12);
    }
}
