//! Register-blocked row kernels with width-specialized inner loops.
//!
//! The naive row loops read-modify-write the output row once per
//! nonzero. The blocked variants instead keep a chunk of the output row
//! (or of the dot product's partial sums) in a fixed-size local array —
//! which the compiler keeps in registers — and touch memory once per
//! width chunk. The common ranks r ∈ {8, 16, 32, 64} get fully
//! specialized single-pass paths via const generics; every other width
//! runs chunk-of-8 passes plus a scalar remainder.
//!
//! Accumulation *order* differs from the naive kernels (independent
//! partial sums), so results agree to floating-point tolerance, not
//! bitwise — the same contract the distributed tests already use. The
//! fused kernel and the CSR SDDMM's `Dot` combine have no blocked form:
//! every variant runs their chained row loops, which match the naive
//! order bit for bit.

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::sddmm::SddmmCombine;

/// One width-`W` pass over a CSR row: accumulate
/// `Σ_j v_j · B[j, col0..col0+W]` in registers, then add to the output
/// row once.
#[inline]
fn spmm_row_w<const W: usize>(cols: &[u32], vals: &[f64], b: &Mat, orow: &mut [f64], col0: usize) {
    let mut acc = [0.0f64; W];
    for (&j, &v) in cols.iter().zip(vals) {
        let brow = &b.row(j as usize)[col0..col0 + W];
        for (a, x) in acc.iter_mut().zip(brow) {
            *a += v * x;
        }
    }
    for (o, a) in orow[col0..col0 + W].iter_mut().zip(&acc) {
        *o += a;
    }
}

/// Register-blocked gather for one CSR row, width-dispatched on
/// `orow.len()`.
#[inline]
pub(super) fn spmm_row_blocked(cols: &[u32], vals: &[f64], b: &Mat, orow: &mut [f64]) {
    let r = orow.len();
    match r {
        8 => spmm_row_w::<8>(cols, vals, b, orow, 0),
        16 => spmm_row_w::<16>(cols, vals, b, orow, 0),
        32 => spmm_row_w::<32>(cols, vals, b, orow, 0),
        64 => spmm_row_w::<64>(cols, vals, b, orow, 0),
        _ => {
            let mut col0 = 0;
            while col0 + 8 <= r {
                spmm_row_w::<8>(cols, vals, b, orow, col0);
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

/// `orow[..W] += v · x[..W]` with a compile-time width.
#[inline]
fn axpy_w<const W: usize>(orow: &mut [f64], x: &[f64], v: f64) {
    for (o, xv) in orow[..W].iter_mut().zip(&x[..W]) {
        *o += v * xv;
    }
}

/// `orow += v · x`, width-dispatched on `orow.len()`.
#[inline]
fn axpy_blocked(orow: &mut [f64], x: &[f64], v: f64) {
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
            while k < r {
                orow[k] += v * x[k];
                k += 1;
            }
        }
    }
}

/// Four-lane partial sums over `x[..W]·y[..W]` with a compile-time
/// width (fully unrolled by the compiler).
#[inline]
fn dot_w<const W: usize>(x: &[f64], y: &[f64]) -> f64 {
    let (x, y) = (&x[..W], &y[..W]);
    let mut lanes = [0.0f64; 4];
    let mut k = 0;
    while k + 4 <= W {
        lanes[0] += x[k] * y[k];
        lanes[1] += x[k + 1] * y[k + 1];
        lanes[2] += x[k + 2] * y[k + 2];
        lanes[3] += x[k + 3] * y[k + 3];
        k += 4;
    }
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while k < W {
        s += x[k] * y[k];
        k += 1;
    }
    s
}

/// `⟨x, y⟩` with four independent partial sums, width-dispatched on
/// `x.len()`.
#[inline]
fn dot_blocked(x: &[f64], y: &[f64]) -> f64 {
    let r = x.len();
    match r {
        8 => dot_w::<8>(x, y),
        16 => dot_w::<16>(x, y),
        32 => dot_w::<32>(x, y),
        64 => dot_w::<64>(x, y),
        _ => {
            let mut lanes = [0.0f64; 4];
            let mut k = 0;
            while k + 4 <= r {
                lanes[0] += x[k] * y[k];
                lanes[1] += x[k + 1] * y[k + 1];
                lanes[2] += x[k + 2] * y[k + 2];
                lanes[3] += x[k + 3] * y[k + 3];
                k += 4;
            }
            let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            while k < r {
                s += x[k] * y[k];
                k += 1;
            }
            s
        }
    }
}

/// Register-blocked evaluation of an [`SddmmCombine`]: both combine
/// shapes reduce to (weighted) dot products, so they share
/// [`dot_blocked`].
#[inline]
pub(super) fn eval_blocked(combine: SddmmCombine<'_>, arow: &[f64], brow: &[f64]) -> f64 {
    match combine {
        SddmmCombine::Dot => dot_blocked(arow, brow),
        SddmmCombine::AffinePair { w_src, w_dst } => {
            dot_blocked(w_src, arow) + dot_blocked(w_dst, brow)
        }
    }
}

/// Register-blocked `out += S·B` (CSR).
pub(super) fn blocked_spmm_csr_acc(out: &mut Mat, s: &CsrMatrix, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        if cols.is_empty() {
            continue;
        }
        spmm_row_blocked(cols, vals, b, out.row_mut(i));
    }
}

/// Register-blocked `out += S·B` (CSR) whose values are made per row
/// and never stored: `fill(i, cols, vals)` writes row `i`'s values,
/// aligned with `cols`, into a row-sized scratch that the row's
/// width-dispatched gather then reads. The block's own values are not
/// read, and empty rows are skipped without a call.
pub(super) fn blocked_spmm_csr_fill_acc(
    out: &mut Mat,
    s: &CsrMatrix,
    b: &Mat,
    mut fill: impl FnMut(usize, &[u32], &mut [f64]),
) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
    let mut vals = Vec::new();
    for i in 0..s.nrows() {
        let (cols, _) = s.row(i);
        if cols.is_empty() {
            continue;
        }
        vals.resize(cols.len(), 0.0);
        fill(i, cols, &mut vals);
        spmm_row_blocked(cols, &vals, b, out.row_mut(i));
    }
}

/// Register-blocked `out += Sᵀ·A` (CSR): the scatter keeps the naive
/// per-nonzero order, but each axpy runs width-specialized.
pub(super) fn blocked_spmm_csr_t_acc(out: &mut Mat, s: &CsrMatrix, a: &Mat) {
    assert_eq!(out.nrows(), s.ncols(), "output rows must match S cols");
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(out.ncols(), a.ncols(), "output width must match A width");
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        let arow = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            axpy_blocked(out.row_mut(j as usize), arow, v);
        }
    }
}

/// Register-blocked `out += S·B` over a COO block.
pub(super) fn blocked_spmm_coo_acc(out: &mut Mat, s: &CooMatrix, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows, "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols, "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
    for (i, j, v) in s.iter() {
        axpy_blocked(out.row_mut(i), b.row(j), v);
    }
}

/// Register-blocked `out += Sᵀ·A` over a COO block.
pub(super) fn blocked_spmm_coo_t_acc(out: &mut Mat, s: &CooMatrix, a: &Mat) {
    assert_eq!(out.nrows(), s.ncols, "output rows must match S cols");
    assert_eq!(a.nrows(), s.nrows, "A rows must match S rows");
    assert_eq!(out.ncols(), a.ncols(), "output width must match A width");
    for (i, j, v) in s.iter() {
        axpy_blocked(out.row_mut(j), a.row(i), v);
    }
}

/// Register-blocked SDDMM accumulation over a COO block (only the
/// coordinate arrays are consulted; values may be detached).
pub(super) fn blocked_sddmm_coo_acc_with(
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
        acc[k] += eval_blocked(combine, a_panel.row(i as usize), b_panel.row(j as usize));
    }
}
