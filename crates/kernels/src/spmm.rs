//! Sparse-times-dense multiplication kernels.
//!
//! `SpMMA`-style kernels compute `out += S·B` (output shaped like the
//! sparse operand's rows); `SpMMB`-style compute `out += Sᵀ·A`. Both are
//! provided over CSR (stationary blocks, reused across steps) and COO
//! (blocks that just arrived over the wire).
//!
//! Each kernel is bitwise the one-nonzero-at-a-time loop
//! `out_i[k] += S_ij · B_j[k]`: every output element sees the same adds
//! in the same order. The CSR gather keeps a width chunk of the output
//! row in a fixed-size local array (which the compiler keeps in
//! registers), started from the output row and written back once per
//! row instead of once per nonzero; the COO gather runs one
//! width-specialized axpy per nonzero. The common ranks
//! r ∈ {8, 16, 32, 64} get single-pass paths; every other width runs
//! chunks of 8 plus a scalar remainder. The transpose scatters, whose
//! output rows collide across input rows, run the plain loop.

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

/// `out += S·B`. Shapes: `S: m×n`, `B: n×r`, `out: m×r`.
pub fn spmm_csr_acc(out: &mut Mat, s: &CsrMatrix, b: &Mat) {
    spmm_csr_vals_acc(out, s, s.vals(), b)
}

/// `out += S·B` with `vals`, aligned with `S`'s nonzeros, in place of
/// `S`'s own values (which are not read): bit for bit
/// [`spmm_csr_acc`] on `S` carrying `vals`.
pub fn spmm_csr_vals_acc(out: &mut Mat, s: &CsrMatrix, vals: &[f64], b: &Mat) {
    spmm_shapes(out, s, b);
    assert_eq!(vals.len(), s.nnz(), "need one value per nonzero");
    for (i, at) in s.indptr().windows(2).enumerate() {
        spmm_row(s.row(i).0, &vals[at[0]..at[1]], b, out.row_mut(i));
    }
}

/// `out += S·B` on a CSR block whose values are made per row inside the
/// row loop and never stored: `fill(i, cols, vals)` writes row `i`'s
/// values, aligned with `cols`, into a row-sized scratch that the row's
/// gather then reads (GAT attention). The block's own values are not
/// read, and empty rows get no call. With `fill` copying the block's
/// values it is bit for bit [`spmm_csr_acc`].
pub fn spmm_csr_filled(
    out: &mut Mat,
    s: &CsrMatrix,
    b: &Mat,
    mut fill: impl FnMut(usize, &[u32], &mut [f64]),
) {
    spmm_shapes(out, s, b);
    let mut vals = Vec::new();
    for i in 0..s.nrows() {
        let (cols, _) = s.row(i);
        if cols.is_empty() {
            continue;
        }
        vals.resize(cols.len(), 0.0);
        fill(i, cols, &mut vals);
        spmm_row(cols, &vals, b, out.row_mut(i));
    }
}

pub(crate) fn spmm_shapes(out: &Mat, s: &CsrMatrix, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
}

/// `orow += Σ_t vals[t] · B_row(cols[t])`, width-dispatched on
/// `orow.len()`.
#[inline]
fn spmm_row(cols: &[u32], vals: &[f64], b: &Mat, orow: &mut [f64]) {
    let r = orow.len();
    match r {
        8 => row_tile::<8>(cols, vals, b, orow, 0),
        16 => row_tile::<16>(cols, vals, b, orow, 0),
        32 => row_tile::<32>(cols, vals, b, orow, 0),
        64 => row_tile::<64>(cols, vals, b, orow, 0),
        _ => {
            let mut col0 = 0;
            while col0 + 8 <= r {
                row_tile::<8>(cols, vals, b, orow, col0);
                col0 += 8;
            }
            if col0 < r {
                for (&j, &v) in cols.iter().zip(vals) {
                    let brow = b.row(j as usize);
                    for k in col0..r {
                        orow[k] += v * brow[k];
                    }
                }
            }
        }
    }
}

/// One width-`W` pass over a CSR row: load `orow[col0..col0+W]`, add
/// `v_t · B[j_t, col0..col0+W]` for every nonzero in order, store once.
#[inline]
fn row_tile<const W: usize>(cols: &[u32], vals: &[f64], b: &Mat, orow: &mut [f64], col0: usize) {
    let tile = &mut orow[col0..col0 + W];
    let mut acc: [f64; W] = std::array::from_fn(|k| tile[k]);
    for (&j, &v) in cols.iter().zip(vals) {
        let brow = &b.row(j as usize)[col0..col0 + W];
        for (a, x) in acc.iter_mut().zip(brow) {
            *a += v * x;
        }
    }
    tile.copy_from_slice(&acc);
}

/// `out += Sᵀ·A`. Shapes: `S: m×n`, `A: m×r`, `out: n×r`. Row-scatter
/// over the CSR rows.
pub fn spmm_csr_t_acc(out: &mut Mat, s: &CsrMatrix, a: &Mat) {
    spmm_csr_t_vals_acc(out, s, s.vals(), a)
}

/// `out += Sᵀ·A` with `vals` in place of `S`'s own values, as
/// [`spmm_csr_vals_acc`] is to [`spmm_csr_acc`].
pub fn spmm_csr_t_vals_acc(out: &mut Mat, s: &CsrMatrix, vals: &[f64], a: &Mat) {
    assert_eq!(out.nrows(), s.ncols(), "output rows must match S cols");
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(out.ncols(), a.ncols(), "output width must match A width");
    assert_eq!(vals.len(), s.nnz(), "need one value per nonzero");
    for (i, at) in s.indptr().windows(2).enumerate() {
        let (cols, vals, arow) = (s.row(i).0, &vals[at[0]..at[1]], a.row(i));
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
        axpy(out.row_mut(i), b.row(j), v);
    }
}

/// `orow += v · x`, width-dispatched on `orow.len()`. Kept out of line:
/// its two slice parameters are what tell the compiler that the rows do
/// not overlap, and inlined into the triplet loop it ran unvectorized
/// (about 1.6× slower at r = 32, n = 8192, 32 nnz/row on a 2-core
/// x86-64 machine).
#[inline(never)]
fn axpy(orow: &mut [f64], x: &[f64], v: f64) {
    let r = orow.len();
    match r {
        8 => axpy_w::<8>(orow, x, v),
        16 => axpy_w::<16>(orow, x, v),
        32 => axpy_w::<32>(orow, x, v),
        64 => axpy_w::<64>(orow, x, v),
        _ => {
            let mut k = 0;
            while k + 8 <= r {
                axpy_w::<8>(&mut orow[k..], &x[k..], v);
                k += 8;
            }
            for k in k..r {
                orow[k] += v * x[k];
            }
        }
    }
}

/// `orow[..W] += v · x[..W]` with a compile-time width.
#[inline]
fn axpy_w<const W: usize>(orow: &mut [f64], x: &[f64], v: f64) {
    for (o, xv) in orow[..W].iter_mut().zip(&x[..W]) {
        *o += v * xv;
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
