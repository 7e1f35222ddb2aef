//! Conformance of the variant library: every [`LocalKernel`] variant,
//! dispatched through every op, must agree with the naive reference —
//! on hand-built edge shapes (the empty block, interior empty rows, a
//! single-column matrix, an all-dense block) crossed with edge widths
//! (r = 1, the exact unroll width, one past it), and on a seeded random
//! sweep. Dispatch clamps inadmissible variants, so all three enum values
//! are legal through every method; accumulation (`+=`) semantics are
//! checked by starting both sides from the same random prefill.

use dsk_dense::ops::max_abs_diff;
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_kernels::{LocalKernel, SddmmCombine};
use dsk_rng::Rng;
use dsk_sparse::{gen, CooMatrix, CsrMatrix};

/// Blocked variants re-associate the per-row dot products (multi-lane
/// partial sums), so agreement is up to rounding, not bitwise.
const TOL: f64 = 1e-10;

/// The edge-shape menagerie. Widths come from the caller.
fn edge_matrices() -> Vec<(&'static str, CooMatrix)> {
    let mut shapes = Vec::new();

    shapes.push(("all-empty", CooMatrix::empty(5, 6)));

    // Interior and trailing empty rows (and empty columns 1, 2, 4).
    let mut holes = CooMatrix::empty(6, 7);
    holes.push(1, 3, 2.0);
    holes.push(3, 0, -1.5);
    holes.push(3, 6, 0.25);
    holes.push(4, 5, 4.0);
    shapes.push(("empty-rows", holes));

    // A single-column sparse block: every nonzero scatters into (or
    // gathers from) the same dense row.
    let mut col = CooMatrix::empty(8, 1);
    for i in [0usize, 2, 3, 7] {
        col.push(i, 0, i as f64 - 1.5);
    }
    shapes.push(("single-column", col));

    // All-dense block: the densest case a local kernel can ever see.
    let mut dense = CooMatrix::empty(4, 5);
    for i in 0..4 {
        for j in 0..5 {
            dense.push(i, j, ((i * 5 + j) as f64).sin());
        }
    }
    shapes.push(("all-dense", dense));

    shapes
}

/// Run every variant through every dispatch method on one block and
/// compare against the naive kernels.
fn check_all_variants(label: &str, coo: &CooMatrix, r: usize, seed: u64) {
    let s = CsrMatrix::from_coo(coo);
    let (m, n) = (s.nrows(), s.ncols());
    let a = Mat::random(m, r, seed);
    let b = Mat::random(n, r, seed + 1);
    let pre_m = Mat::random(m, r, seed + 2);
    let pre_n = Mat::random(n, r, seed + 3);

    for v in LocalKernel::ALL {
        let ctx = format!("{label}: {v:?} r={r}");

        // CSR SpMM.
        let mut want = pre_m.clone();
        kern::spmm_csr_acc(&mut want, &s, &b);
        let mut got = pre_m.clone();
        v.spmm_csr(&mut got, &s, &b);
        assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_csr");

        // CSR transpose scatter.
        let mut want = pre_n.clone();
        kern::spmm_csr_t_acc(&mut want, &s, &a);
        let mut got = pre_n.clone();
        v.spmm_csr_t(&mut got, &s, &a);
        assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_csr_t");

        // CSR SDDMM (accumulating, Dot combine).
        let mut want = vec![0.125; s.nnz()];
        kern::sddmm_csr_acc(&mut want, &s, &a, &b);
        let mut got = vec![0.125; s.nnz()];
        v.sddmm_csr(&mut got, &s, &a, &b, SddmmCombine::Dot);
        for (x, y) in got.iter().zip(&want) {
            assert!((x - y).abs() < TOL, "{ctx}: sddmm_csr");
        }

        // CSR fused SDDMM+SpMM.
        let mut want = pre_m.clone();
        kern::fused_a_csr(&mut want, &s, &a, &b);
        let mut got = pre_m.clone();
        v.fused_csr(&mut got, &s, &a, &b);
        assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: fused_csr");

        // COO SpMM.
        let mut want = pre_m.clone();
        kern::spmm_coo_acc(&mut want, coo, &b);
        let mut got = pre_m.clone();
        v.spmm_coo(&mut got, coo, &b);
        assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_coo");

        // COO transpose scatter.
        let mut want = pre_n.clone();
        kern::spmm_coo_t_acc(&mut want, coo, &a);
        let mut got = pre_n.clone();
        v.spmm_coo_t(&mut got, coo, &a);
        assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_coo_t");

        // COO SDDMM.
        let mut want = vec![-0.25; coo.nnz()];
        kern::sddmm_coo_acc(&mut want, coo, &a, &b);
        let mut got = vec![-0.25; coo.nnz()];
        v.sddmm_coo(&mut got, coo, &a, &b, SddmmCombine::Dot);
        for (x, y) in got.iter().zip(&want) {
            assert!((x - y).abs() < TOL, "{ctx}: sddmm_coo");
        }
    }
}

/// r = 1 (single-column dense operands), r = 8 (the exact
/// width-specialized unroll), r = 9 (one past it, exercising the
/// chunk-of-8 + scalar remainder path).
const EDGE_WIDTHS: [usize; 3] = [1, 8, 9];

#[test]
fn every_variant_matches_naive_on_edge_shapes() {
    for (label, coo) in edge_matrices() {
        for (wi, r) in EDGE_WIDTHS.into_iter().enumerate() {
            check_all_variants(label, &coo, r, 0xC0DE + wi as u64 * 17);
        }
    }
}

#[test]
fn every_variant_matches_naive_on_seeded_random_shapes() {
    let mut rng = Rng::seed_from_u64(0xB008);
    for case in 0..16 {
        let m = 2 + rng.gen_index(46);
        let n = 2 + rng.gen_index(46);
        let r = 1 + rng.gen_index(11);
        let nnz_row = (1 + rng.gen_index(6)).min(n);
        let seed = rng.next_u64() % 1000;
        let coo = gen::erdos_renyi(m, n, nnz_row, seed);
        check_all_variants(&format!("random-{case} ({m}x{n})"), &coo, r, seed + 40);
    }
}

/// The wider unrolled widths (16, 32, 64) go through their specialized
/// inner loops; a denser block catches stride bugs the tiny shapes hide.
#[test]
fn width_specialized_kernels_match_at_every_unroll_width() {
    for (wi, r) in [16usize, 32, 64].into_iter().enumerate() {
        let coo = gen::erdos_renyi(96, 80, 5, 31 + wi as u64);
        check_all_variants("unroll-width", &coo, r, 0xAB + wi as u64);
    }
}
