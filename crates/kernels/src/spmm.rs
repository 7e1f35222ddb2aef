//! Sparse-times-dense multiplication kernels.
//!
//! `SpMMA`-style kernels compute `out += S·B` (output shaped like the
//! sparse operand's rows); `SpMMB`-style compute `out += Sᵀ·A`. Both are
//! provided over CSR (stationary blocks, reused across steps) and COO
//! (blocks that just arrived over the wire).

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

/// `out += S·B`. Shapes: `S: m×n`, `B: n×r`, `out: m×r`.
pub fn spmm_csr_acc(out: &mut Mat, s: &CsrMatrix, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        let orow = out.row_mut(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let brow = b.row(j as usize);
            for (o, x) in orow.iter_mut().zip(brow) {
                *o += v * x;
            }
        }
    }
}

/// `out += Sᵀ·A`. Shapes: `S: m×n`, `A: m×r`, `out: n×r`. Row-scatter
/// over the CSR rows (serial: output rows collide across input rows).
pub fn spmm_csr_t_acc(out: &mut Mat, s: &CsrMatrix, a: &Mat) {
    assert_eq!(out.nrows(), s.ncols(), "output rows must match S cols");
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(out.ncols(), a.ncols(), "output width must match A width");
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        let arow = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let orow = out.row_mut(j as usize);
            for (o, x) in orow.iter_mut().zip(arow) {
                *o += v * x;
            }
        }
    }
}

/// `out += S·B` over a COO block (used for blocks that just arrived over
/// the wire, where building CSR first would cost more than the kernel).
pub fn spmm_coo_acc(out: &mut Mat, s: &CooMatrix, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows, "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols, "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
    for (i, j, v) in s.iter() {
        let brow = b.row(j);
        let orow = out.row_mut(i);
        for (o, x) in orow.iter_mut().zip(brow) {
            *o += v * x;
        }
    }
}

/// `out += Sᵀ·A` over a COO block.
pub fn spmm_coo_t_acc(out: &mut Mat, s: &CooMatrix, a: &Mat) {
    assert_eq!(out.nrows(), s.ncols, "output rows must match S cols");
    assert_eq!(a.nrows(), s.nrows, "A rows must match S rows");
    assert_eq!(out.ncols(), a.ncols(), "output width must match A width");
    for (i, j, v) in s.iter() {
        let arow = a.row(i);
        let orow = out.row_mut(j);
        for (o, x) in orow.iter_mut().zip(arow) {
            *o += v * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dsk_dense::ops::max_abs_diff;
    use dsk_sparse::gen::erdos_renyi;

    fn setup(m: usize, n: usize, r: usize, nnz_row: usize, seed: u64) -> (CooMatrix, Mat, Mat) {
        let s = erdos_renyi(m, n, nnz_row, seed);
        let a = Mat::random(m, r, seed + 1);
        let b = Mat::random(n, r, seed + 2);
        (s, a, b)
    }

    #[test]
    fn csr_spmm_matches_reference() {
        let (s, _, b) = setup(13, 17, 5, 4, 1);
        let csr = CsrMatrix::from_coo(&s);
        let mut out = Mat::random(13, 5, 9);
        let mut expect = out.clone();
        spmm_csr_acc(&mut out, &csr, &b);
        reference::spmm_ref_acc(&mut expect, &s, &b);
        assert!(max_abs_diff(&out, &expect) < 1e-12);
    }

    #[test]
    fn csr_spmm_t_matches_transposed_spmm() {
        let (s, a, _) = setup(12, 9, 4, 3, 3);
        let csr = CsrMatrix::from_coo(&s);
        let mut out1 = Mat::zeros(9, 4);
        spmm_csr_t_acc(&mut out1, &csr, &a);
        let mut out2 = Mat::zeros(9, 4);
        spmm_csr_acc(&mut out2, &csr.transpose(), &a);
        assert!(max_abs_diff(&out1, &out2) < 1e-12);
    }

    #[test]
    fn coo_kernels_match_csr_kernels() {
        let (s, a, b) = setup(10, 14, 6, 4, 4);
        let csr = CsrMatrix::from_coo(&s);
        let mut c1 = Mat::zeros(10, 6);
        let mut c2 = Mat::zeros(10, 6);
        spmm_coo_acc(&mut c1, &s, &b);
        spmm_csr_acc(&mut c2, &csr, &b);
        assert!(max_abs_diff(&c1, &c2) < 1e-12);

        let mut t1 = Mat::zeros(14, 6);
        let mut t2 = Mat::zeros(14, 6);
        spmm_coo_t_acc(&mut t1, &s, &a);
        spmm_csr_t_acc(&mut t2, &csr, &a);
        assert!(max_abs_diff(&t1, &t2) < 1e-12);
    }

    #[test]
    fn accumulation_adds_to_existing_output() {
        let (s, _, b) = setup(6, 6, 3, 2, 5);
        let csr = CsrMatrix::from_coo(&s);
        let mut out = Mat::zeros(6, 3);
        spmm_csr_acc(&mut out, &csr, &b);
        let once = out.clone();
        spmm_csr_acc(&mut out, &csr, &b);
        let mut twice = once.clone();
        dsk_dense::ops::add_assign(&mut twice, &once);
        assert!(max_abs_diff(&out, &twice) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "B rows must match S cols")]
    fn shape_mismatch_is_rejected() {
        let (s, _, _) = setup(4, 6, 2, 2, 6);
        let csr = CsrMatrix::from_coo(&s);
        let b_bad = Mat::zeros(5, 2);
        let mut out = Mat::zeros(4, 2);
        spmm_csr_acc(&mut out, &csr, &b_bad);
    }
}
