//! BLAS-like operations on [`Mat`].

use crate::mat::Mat;

/// `y += alpha * x`, element-wise over whole matrices of equal shape.
pub fn axpy(alpha: f64, x: &Mat, y: &mut Mat) {
    assert_eq!(x.nrows(), y.nrows(), "axpy shape mismatch");
    assert_eq!(x.ncols(), y.ncols(), "axpy shape mismatch");
    for (yv, xv) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *yv += alpha * xv;
    }
}

/// Scale every entry: `x *= alpha`.
pub fn scale(x: &mut Mat, alpha: f64) {
    for v in x.as_mut_slice() {
        *v *= alpha;
    }
}

/// Element-wise accumulate `y += x`.
pub fn add_assign(y: &mut Mat, x: &Mat) {
    axpy(1.0, x, y);
}

/// Frobenius inner product `⟨x, y⟩ = Σ xᵢⱼ yᵢⱼ`.
pub fn frob_dot(x: &Mat, y: &Mat) -> f64 {
    assert_eq!(x.len(), y.len(), "frob_dot shape mismatch");
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(a, b)| a * b)
        .sum()
}

/// Frobenius norm `‖x‖_F`.
pub fn frob_norm(x: &Mat) -> f64 {
    frob_dot(x, x).sqrt()
}

/// Maximum absolute entry-wise difference between two equal-shaped
/// matrices (the verification metric used throughout the test suite).
pub fn max_abs_diff(x: &Mat, y: &Mat) -> f64 {
    assert_eq!(x.nrows(), y.nrows(), "shape mismatch");
    assert_eq!(x.ncols(), y.ncols(), "shape mismatch");
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Dot product of row `i` of `a` with row `j` of `b` (the SDDMM
/// primitive). Both rows must have equal length.
#[inline]
pub fn row_dot(a: &Mat, i: usize, b: &Mat, j: usize) -> f64 {
    debug_assert_eq!(a.ncols(), b.ncols());
    let (ra, rb) = (a.row(i), b.row(j));
    ra.iter().zip(rb).map(|(x, y)| x * y).sum()
}

/// Columns of the `c` tile [`gemm_acc`] keeps in local arrays; a
/// ragged right edge takes narrower tiles.
const NR: usize = 8;

/// `c += a · b` (plain GEMM, `a: m×k`, `b: k×n`, `c: m×n`),
/// register-blocked: each `MR × NR` tile of `c` stays in local arrays
/// for the whole `k` loop instead of streaming through memory once per
/// `k`. Every element still starts from its own `c` value and takes its
/// adds in `k` order, and a zero `a_ik` is skipped per `(i, k)`, so the
/// result is bitwise the plain i-k-j loop.
///
/// On an x86-64 CPU with AVX the same loops are compiled for 4-wide
/// vectors, which hold a taller tile (`MR` = 4 rather than 2) in
/// registers. Multiplies and adds stay separate instructions (no FMA
/// contraction), so both builds give the same bits.
pub fn gemm_acc(c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.ncols(), b.nrows(), "gemm inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm output rows mismatch");
    assert_eq!(c.ncols(), b.ncols(), "gemm output cols mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: `gemm_tiles_avx` only requires AVX, which the CPU
        // was just checked to support.
        unsafe { gemm_tiles_avx(c, a, b) };
        return;
    }
    gemm_tiles::<2>(c, a, b);
}

/// [`gemm_tiles`] compiled with AVX enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_tiles_avx(c: &mut Mat, a: &Mat, b: &Mat) {
    gemm_tiles::<4>(c, a, b);
}

/// [`gemm_acc`] over `MR`-row blocks (single rows for the ragged
/// bottom). Inlined into its caller, so it is compiled for the
/// caller's target features.
#[inline(always)]
fn gemm_tiles<const MR: usize>(c: &mut Mat, a: &Mat, b: &Mat) {
    let m = a.nrows();
    let whole = m - m % MR;
    for i0 in (0..whole).step_by(MR) {
        gemm_rows::<MR>(c, a, b, i0);
    }
    for i0 in whole..m {
        gemm_rows::<1>(c, a, b, i0);
    }
}

/// Rows `i0..i0 + R` of [`gemm_acc`], tile by tile across the columns.
#[inline(always)]
fn gemm_rows<const R: usize>(c: &mut Mat, a: &Mat, b: &Mat, i0: usize) {
    let n = b.ncols();
    let mut j0 = 0;
    while j0 + NR <= n {
        gemm_tile::<R, NR>(c, a, b, i0, j0);
        j0 += NR;
    }
    if j0 + NR / 2 <= n {
        gemm_tile::<R, { NR / 2 }>(c, a, b, i0, j0);
        j0 += NR / 2;
    }
    for j0 in j0..n {
        gemm_tile::<R, 1>(c, a, b, i0, j0);
    }
}

/// The `R × W` tile of `c` at `(i0, j0)`: loaded once, updated for
/// every `k` in order, stored once.
#[inline(always)]
fn gemm_tile<const R: usize, const W: usize>(c: &mut Mat, a: &Mat, b: &Mat, i0: usize, j0: usize) {
    let cols = j0..j0 + W;
    let mut acc = [[0.0; W]; R];
    for (r, tile_row) in acc.iter_mut().enumerate() {
        tile_row.copy_from_slice(&c.row(i0 + r)[cols.clone()]);
    }
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| a.row(i0 + r));
    for (k, b_row) in b.as_slice().chunks_exact(b.ncols()).enumerate() {
        let b_tile = &b_row[cols.clone()];
        for (tile_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let aik = a_row[k];
            if aik == 0.0 {
                continue;
            }
            for (cv, bv) in tile_row.iter_mut().zip(b_tile) {
                *cv += aik * bv;
            }
        }
    }
    for (r, tile_row) in acc.iter().enumerate() {
        c.row_mut(i0 + r)[cols.clone()].copy_from_slice(tile_row);
    }
}

/// `c += a · bᵀ` (`a: m×k`, `b: n×k`, `c: m×n`) — the dense reference
/// for SDDMM-style row-by-row dot products.
pub fn gemm_abt_acc(c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.ncols(), b.ncols(), "gemm_abt inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm_abt output rows mismatch");
    assert_eq!(c.ncols(), b.nrows(), "gemm_abt output cols mismatch");
    for i in 0..a.nrows() {
        for j in 0..b.nrows() {
            let v = row_dot(a, i, b, j);
            c.set(i, j, c.get(i, j) + v);
        }
    }
}

/// Flop count of `gemm_acc` with these operand shapes (2·m·k·n).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Mat, Mat) {
        let a = Mat::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64);
        let b = Mat::from_fn(3, 2, |i, j| (i * 2 + j + 1) as f64);
        (a, b)
    }

    #[test]
    fn gemm_matches_hand_computation() {
        let (a, b) = small();
        let mut c = Mat::zeros(2, 2);
        gemm_acc(&mut c, &a, &b);
        // a = [1 2 3; 4 5 6], b = [1 2; 3 4; 5 6]
        assert_eq!(c.as_slice(), &[22.0, 28.0, 49.0, 64.0]);
    }

    #[test]
    fn both_tile_heights_give_the_same_bits() {
        // `gemm_acc` runs one of the two on a given CPU (the integration
        // tests pin it to the i-k-j loop); the other must agree with it.
        let a = Mat::from_fn(11, 7, |i, k| {
            if (i + k) % 4 == 0 {
                0.0
            } else {
                ((i * 7 + k) as f64).sin()
            }
        });
        let b = Mat::random(7, 21, 5);
        let c0 = Mat::random(11, 21, 6);
        let mut expect = c0.clone();
        gemm_acc(&mut expect, &a, &b);
        let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for tiles in [gemm_tiles::<2>, gemm_tiles::<4>] {
            let mut c = c0.clone();
            tiles(&mut c, &a, &b);
            assert_eq!(bits(&c), bits(&expect));
        }
    }

    #[test]
    fn gemm_abt_matches_gemm_with_transpose() {
        let a = Mat::random(4, 3, 1);
        let b = Mat::random(5, 3, 2);
        let mut c1 = Mat::zeros(4, 5);
        gemm_abt_acc(&mut c1, &a, &b);
        let mut c2 = Mat::zeros(4, 5);
        gemm_acc(&mut c2, &a, &b.transpose());
        assert!(max_abs_diff(&c1, &c2) < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let x = Mat::from_fn(2, 2, |_, _| 1.0);
        let mut y = Mat::from_fn(2, 2, |_, _| 2.0);
        axpy(3.0, &x, &mut y);
        assert_eq!(y.as_slice(), &[5.0; 4]);
        scale(&mut y, 0.5);
        assert_eq!(y.as_slice(), &[2.5; 4]);
    }

    #[test]
    fn norms_and_dots() {
        let x = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((frob_norm(&x) - 5.0).abs() < 1e-12);
        let y = Mat::from_vec(1, 2, vec![1.0, 2.0]);
        assert!((frob_dot(&x, &y) - 11.0).abs() < 1e-12);
        assert!((max_abs_diff(&x, &y) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn row_dot_is_sddmm_primitive() {
        let a = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(2, 3, |i, j| (i * j) as f64);
        // row 1 of a = [1,2,3], row 1 of b = [0,1,2] → 0+2+6
        assert_eq!(row_dot(&a, 1, &b, 1), 8.0);
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
