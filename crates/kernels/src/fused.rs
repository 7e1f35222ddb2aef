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
//!
//! A row runs up to eight nonzeros at once (`fused_row`): their dots
//! side by side ([`crate::sddmm`]'s chained dots, each in the sequential
//! order), then their scaled rows of `B` added into the output row in
//! CSR order. Every output element sees the same adds in the same order
//! as the one-nonzero-at-a-time loop above, so the result is bitwise
//! that loop's; only the independent dot chains overlap.

use dsk_dense::Mat;
use dsk_sparse::CsrMatrix;

use crate::sddmm::{dots, in_groups, rows_at};
use crate::spmm::spmm_shapes;

/// Fused FusedMMA over full-width rows: `out += SDDMM(A,B,S) · B`
/// row-by-row, without materializing the SDDMM.
///
/// Shapes: `S: m×n` (values = sampling), `a: m×r`, `b: n×r`,
/// `out: m×r`.
pub fn fused_a_csr(out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
    fused_a_csr_vals(out, s, s.vals(), a, b)
}

/// [`fused_a_csr`] sampling with `vals`, aligned with `S`'s nonzeros,
/// in place of `S`'s own values (which are not read): bit for bit
/// [`fused_a_csr`] on `S` carrying `vals`.
pub fn fused_a_csr_vals(out: &mut Mat, s: &CsrMatrix, vals: &[f64], a: &Mat, b: &Mat) {
    assert_eq!(vals.len(), s.nnz(), "need one value per nonzero");
    fused_rows(out, s, Some(vals), a, b)
}

/// [`fused_a_csr`] sampling with ones: `S` is read as a 0/1 pattern.
/// `x·1.0 = x`, so skipping the sampling multiply is bit for bit
/// [`fused_a_csr`] on `S` carrying all-ones values.
pub fn fused_a_csr_ones(out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
    fused_rows(out, s, None, a, b)
}

/// The row loop of the fused kernel; `vals: None` samples with ones.
fn fused_rows(out: &mut Mat, s: &CsrMatrix, vals: Option<&[f64]>, a: &Mat, b: &Mat) {
    spmm_shapes(out, s, b);
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(a.ncols(), b.ncols(), "A and B widths must agree");
    for (i, at) in s.indptr().windows(2).enumerate() {
        let row = vals.map(|v| &v[at[0]..at[1]]);
        fused_row(out.row_mut(i), s.row(i).0, row, a.row(i), b);
    }
}

/// One CSR row of the fused kernel: `orow += Σ_t vals[t]·⟨arow,
/// B_row(cols[t])⟩ · B_row(cols[t])` (`vals: None` for ones), eight
/// nonzeros at a time and then one group each of 4, 2 and 1 for the
/// remainder.
fn fused_row(orow: &mut [f64], cols: &[u32], vals: Option<&[f64]>, arow: &[f64], b: &Mat) {
    fn group<const N: usize>(
        t: usize,
        orow: &mut [f64],
        cols: &[u32],
        vals: Option<&[f64]>,
        arow: &[f64],
        b: &Mat,
    ) {
        let r = arow.len();
        let brows = rows_at::<N>(b, &cols[t..], r);
        let d = dots(&[arow; N], &brows);
        let rij: [f64; N] = std::array::from_fn(|u| vals.map_or(d[u], |v| v[t + u] * d[u]));
        for (k, o) in orow[..r].iter_mut().enumerate() {
            let mut sum = *o;
            for u in 0..N {
                sum += rij[u] * brows[u][k];
            }
            *o = sum;
        }
    }
    in_groups!(cols.len(), group(orow, cols, vals, arow, b));
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
