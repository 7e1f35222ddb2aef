//! Randomized property tests of the local kernels: linearity,
//! composition, and slice-partition invariances over randomized shapes
//! and values. Cases come from a seeded PRNG so failures reproduce.

use dsk_dense::ops::max_abs_diff;
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_kernels::LocalKernel;
use dsk_rng::Rng;
use dsk_sparse::{gen, CsrMatrix};

const CASES: usize = 24;

fn problem(m: usize, n: usize, r: usize, seed: u64) -> (CsrMatrix, Mat, Mat) {
    let nnz_row = (1 + seed as usize % 4).min(n);
    let s = CsrMatrix::from_coo(&gen::erdos_renyi(m, n, nnz_row, seed));
    (s, Mat::random(m, r, seed + 1), Mat::random(n, r, seed + 2))
}

/// SDDMM is linear in A: SDDMM(αA, B, S) = α·SDDMM(A, B, S).
#[test]
fn sddmm_linear_in_a() {
    let mut rng = Rng::seed_from_u64(0xB001);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(22);
        let n = 2 + rng.gen_index(22);
        let r = 1 + rng.gen_index(7);
        let alpha = rng.gen_range_f64(-3.0, 3.0);
        let seed = rng.next_u64() % 300;
        let (s, a, b) = problem(m, n, r, seed);
        let base = kern::sddmm_csr(&s, &a, &b);
        let mut scaled_a = a.clone();
        dsk_dense::ops::scale(&mut scaled_a, alpha);
        let scaled = kern::sddmm_csr(&s, &scaled_a, &b);
        for (x, y) in scaled.iter().zip(&base) {
            assert!((x - alpha * y).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }
}

/// SpMM distributes over dense addition: S·(B₁+B₂) = S·B₁ + S·B₂.
#[test]
fn spmm_distributes_over_addition() {
    let mut rng = Rng::seed_from_u64(0xB002);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(22);
        let n = 2 + rng.gen_index(22);
        let r = 1 + rng.gen_index(7);
        let seed = rng.next_u64() % 300;
        let (s, _, b1) = problem(m, n, r, seed);
        let b2 = Mat::random(n, r, seed + 9);
        let mut sum = b1.clone();
        dsk_dense::ops::add_assign(&mut sum, &b2);
        let mut lhs = Mat::zeros(m, r);
        kern::spmm_csr_acc(&mut lhs, &s, &sum);
        let mut rhs = Mat::zeros(m, r);
        kern::spmm_csr_acc(&mut rhs, &s, &b1);
        kern::spmm_csr_acc(&mut rhs, &s, &b2);
        assert!(max_abs_diff(&lhs, &rhs) < 1e-10);
    }
}

/// The fused kernel equals the composition for every random shape.
#[test]
fn fused_equals_composition() {
    let mut rng = Rng::seed_from_u64(0xB003);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(18);
        let n = 2 + rng.gen_index(18);
        let r = 1 + rng.gen_index(7);
        let seed = rng.next_u64() % 300;
        let (s, a, b) = problem(m, n, r, seed);
        let mut fused = Mat::zeros(m, r);
        kern::fused_a_csr(&mut fused, &s, &a, &b);
        let vals = kern::sddmm_csr(&s, &a, &b);
        let mut rmat = s.clone();
        rmat.set_vals(vals);
        let mut composed = Mat::zeros(m, r);
        kern::spmm_csr_acc(&mut composed, &rmat, &b);
        assert!(max_abs_diff(&fused, &composed) < 1e-10);
    }
}

/// Slice-partial SDDMM accumulation over any random partition of the
/// r-dimension equals the full-width computation — the property the
/// 1.5D sparse-shifting and both 2.5D algorithms rely on.
#[test]
fn sddmm_slices_partition_r() {
    let mut rng = Rng::seed_from_u64(0xB004);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(14);
        let n = 2 + rng.gen_index(14);
        let r = 2 + rng.gen_index(10);
        let cut = (1 + rng.gen_index(10)).min(r - 1);
        let seed = rng.next_u64() % 300;
        let (s, a, b) = problem(m, n, r, seed);
        let mut full = vec![0.0; s.nnz()];
        kern::sddmm_csr_acc(&mut full, &s, &a, &b);
        let mut sliced = vec![0.0; s.nnz()];
        for range in [0..cut, cut..r] {
            let ap = a.cols_block(range.clone());
            let bp = b.cols_block(range);
            kern::sddmm_csr_acc(&mut sliced, &s, &ap, &bp);
        }
        for (x, y) in sliced.iter().zip(&full) {
            assert!((x - y).abs() < 1e-10);
        }
    }
}

/// SpMMB via the transposed matrix equals the scatter kernel.
#[test]
fn spmm_t_equals_transposed_spmm() {
    let mut rng = Rng::seed_from_u64(0xB005);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(18);
        let n = 2 + rng.gen_index(18);
        let r = 1 + rng.gen_index(5);
        let seed = rng.next_u64() % 300;
        let (s, a, _) = problem(m, n, r, seed);
        let mut scatter = Mat::zeros(n, r);
        kern::spmm_csr_t_acc(&mut scatter, &s, &a);
        let mut viat = Mat::zeros(n, r);
        kern::spmm_csr_acc(&mut viat, &s.transpose(), &a);
        assert!(max_abs_diff(&scatter, &viat) < 1e-10);
    }
}

/// The thread-parallel variant agrees with serial `Naive` for random
/// shapes, on every op it parallelizes: SpMM up to rounding, the SDDMM
/// and fused kernels (one shared row loop) bit for bit.
#[test]
fn parallel_kernels_match_serial() {
    let par = LocalKernel::ParBlocked;
    let mut rng = Rng::seed_from_u64(0xB006);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(38);
        let n = 2 + rng.gen_index(38);
        let r = 1 + rng.gen_index(9);
        let seed = rng.next_u64() % 300;
        let (s, a, b) = problem(m, n, r, seed);
        let mut o1 = Mat::zeros(m, r);
        let mut o2 = Mat::zeros(m, r);
        LocalKernel::Naive.spmm_csr(&mut o1, &s, &b);
        par.spmm_csr(&mut o2, &s, &b);
        assert!(max_abs_diff(&o1, &o2) < 1e-11);
        let mut a1 = vec![0.0; s.nnz()];
        let mut a2 = vec![0.0; s.nnz()];
        LocalKernel::Naive.sddmm_csr(&mut a1, &s, &a, &b, kern::SddmmCombine::Dot);
        par.sddmm_csr(&mut a2, &s, &a, &b, kern::SddmmCombine::Dot);
        assert!(a1.iter().zip(&a2).all(|(x, y)| x.to_bits() == y.to_bits()));
        let mut f1 = Mat::zeros(m, r);
        let mut f2 = Mat::zeros(m, r);
        LocalKernel::Naive.fused_csr(&mut f1, &s, &a, &b);
        par.fused_csr(&mut f2, &s, &a, &b);
        assert!(f1
            .as_slice()
            .iter()
            .zip(f2.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

/// The GAT affine combine matches the explicit formula on random
/// weights.
#[test]
fn affine_combine_matches_formula() {
    let mut rng = Rng::seed_from_u64(0xB007);
    for _ in 0..CASES {
        let m = 2 + rng.gen_index(10);
        let n = 2 + rng.gen_index(10);
        let r = 1 + rng.gen_index(7);
        let seed = rng.next_u64() % 300;
        let (s, a, b) = problem(m, n, r, seed);
        let w_src = Mat::random(1, r, seed + 20).into_vec();
        let w_dst = Mat::random(1, r, seed + 21).into_vec();
        let mut acc = vec![0.0; s.nnz()];
        kern::sddmm::sddmm_csr_acc_with(
            &mut acc,
            &s,
            &a,
            &b,
            kern::SddmmCombine::AffinePair {
                w_src: &w_src,
                w_dst: &w_dst,
            },
        );
        let coo = s.to_coo();
        for (k, (i, j, _)) in coo.iter().enumerate() {
            let want: f64 = (0..r)
                .map(|t| w_src[t] * a.get(i, t) + w_dst[t] * b.get(j, t))
                .sum();
            assert!((acc[k] - want).abs() < 1e-10);
        }
    }
}
