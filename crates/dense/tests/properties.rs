//! Randomized property tests for the dense matrix substrate, drawn from
//! a seeded PRNG so failures reproduce exactly.

use dsk_dense::ops;
use dsk_dense::Mat;
use dsk_rng::Rng;

const CASES: usize = 32;

/// Any block decomposition re-stacks to the original matrix.
#[test]
fn vstack_inverts_row_blocks() {
    let mut rng = Rng::seed_from_u64(0xD001);
    for _ in 0..CASES {
        let rows = 1 + rng.gen_index(39);
        let cols = 1 + rng.gen_index(9);
        let parts = 1 + rng.gen_index(5);
        let seed = rng.next_u64() % 500;
        let m = Mat::random(rows, cols, seed);
        let mut blocks = Vec::new();
        let mut start = 0;
        for k in 0..parts {
            let len = (rows - start) / (parts - k);
            blocks.push(m.rows_block(start..start + len));
            start += len;
        }
        assert_eq!(Mat::vstack(&blocks), m);
    }
}

/// Column splits re-stack horizontally.
#[test]
fn hstack_inverts_col_blocks() {
    let mut rng = Rng::seed_from_u64(0xD002);
    for _ in 0..CASES {
        let rows = 1 + rng.gen_index(19);
        let cols = 2 + rng.gen_index(10);
        let cut = (1 + rng.gen_index(10)).min(cols - 1);
        let seed = rng.next_u64() % 500;
        let m = Mat::random(rows, cols, seed);
        let left = m.cols_block(0..cut);
        let right = m.cols_block(cut..cols);
        assert_eq!(Mat::hstack(&[left, right]), m);
    }
}

/// GEMM respects the transpose identity (A·B)ᵀ = Bᵀ·Aᵀ.
#[test]
fn gemm_transpose_identity() {
    let mut rng = Rng::seed_from_u64(0xD003);
    for _ in 0..CASES {
        let m = 1 + rng.gen_index(9);
        let k = 1 + rng.gen_index(9);
        let n = 1 + rng.gen_index(9);
        let seed = rng.next_u64() % 500;
        let a = Mat::random(m, k, seed);
        let b = Mat::random(k, n, seed + 1);
        let mut ab = Mat::zeros(m, n);
        ops::gemm_acc(&mut ab, &a, &b);
        let mut btat = Mat::zeros(n, m);
        ops::gemm_acc(&mut btat, &b.transpose(), &a.transpose());
        assert!(ops::max_abs_diff(&ab.transpose(), &btat) < 1e-10);
    }
}

/// `c += a·b` as the plain i-k-j loop: row `i`, then `k` in order
/// (skipping a zero `a_ik`), then `j`. Every output element starts from
/// its own `c` value and takes its adds in `k` order.
fn gemm_ikj(c: &mut Mat, a: &Mat, b: &Mat) {
    for i in 0..a.nrows() {
        for k in 0..a.ncols() {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.ncols() {
                c.set(i, j, c.get(i, j) + aik * b.get(k, j));
            }
        }
    }
}

/// `gemm_acc` is bitwise the i-k-j loop, whatever its blocking: ragged
/// shapes around any tile size, `±0.0` entries in `a` (skipped per
/// `(i, k)`, which `−0.0` starting values and infinite `b` entries make
/// visible), and a non-zero starting `c`.
#[test]
fn gemm_is_bitwise_the_ikj_loop() {
    let mut rng = Rng::seed_from_u64(0xD006);
    for case in 0..4 * CASES {
        let m = rng.gen_index(19);
        let k = 1 + rng.gen_index(11);
        let n = 1 + rng.gen_index(37);
        let seed = rng.next_u64() % 500;
        let mut a = Mat::random(m, k, seed);
        let mut b = Mat::random(k, n, seed + 1);
        let mut c = Mat::random(m, n, seed + 2);
        for i in 0..m {
            for t in 0..k {
                match rng.gen_index(6) {
                    0 => a.set(i, t, 0.0),
                    1 => a.set(i, t, -0.0),
                    _ => {}
                }
            }
            for j in 0..n {
                if rng.gen_index(5) == 0 {
                    c.set(i, j, -0.0);
                }
            }
        }
        if case % 3 == 0 {
            let (t, j) = (rng.gen_index(k), rng.gen_index(n));
            b.set(t, j, f64::INFINITY);
        }
        let mut expect = c.clone();
        gemm_ikj(&mut expect, &a, &b);
        ops::gemm_acc(&mut c, &a, &b);
        let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c), bits(&expect), "case {case}: {m}×{k}·{k}×{n}");
    }
}

/// The Frobenius inner product is symmetric and positive on the
/// diagonal.
#[test]
fn frob_dot_symmetry() {
    let mut rng = Rng::seed_from_u64(0xD004);
    for _ in 0..CASES {
        let rows = 1 + rng.gen_index(14);
        let cols = 1 + rng.gen_index(7);
        let seed = rng.next_u64() % 500;
        let x = Mat::random(rows, cols, seed);
        let y = Mat::random(rows, cols, seed + 1);
        assert!((ops::frob_dot(&x, &y) - ops::frob_dot(&y, &x)).abs() < 1e-12);
        assert!(ops::frob_dot(&x, &x) >= 0.0);
        assert!((ops::frob_norm(&x).powi(2) - ops::frob_dot(&x, &x)).abs() < 1e-9);
    }
}

/// axpy then axpy(-α) restores the original.
#[test]
fn axpy_is_invertible() {
    let mut rng = Rng::seed_from_u64(0xD005);
    for _ in 0..CASES {
        let rows = 1 + rng.gen_index(14);
        let cols = 1 + rng.gen_index(7);
        let alpha = rng.gen_range_f64(-5.0, 5.0);
        let seed = rng.next_u64() % 500;
        let x = Mat::random(rows, cols, seed);
        let orig = Mat::random(rows, cols, seed + 1);
        let mut y = orig.clone();
        ops::axpy(alpha, &x, &mut y);
        ops::axpy(-alpha, &x, &mut y);
        assert!(ops::max_abs_diff(&y, &orig) < 1e-9);
    }
}

/// set_block/block round-trip at random offsets.
#[test]
fn block_set_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xD006);
    for _ in 0..CASES {
        let rows = 2 + rng.gen_index(14);
        let cols = 2 + rng.gen_index(14);
        let r0 = rng.gen_index(rows);
        let c0 = rng.gen_index(cols);
        let h = (1 + rng.gen_index(15)).min(rows - r0);
        let w = (1 + rng.gen_index(15)).min(cols - c0);
        let seed = rng.next_u64() % 500;
        let mut m = Mat::random(rows, cols, seed);
        let patch = Mat::random(h, w, seed + 2);
        m.set_block(r0, c0, &patch);
        assert_eq!(m.block(r0..r0 + h, c0..c0 + w), patch);
    }
}
