//! Conformance of the local kernels: the one loop of every (op, format)
//! pair must agree with the naive references of `dsk_kernels::reference`
//! — on hand-built edge shapes (the empty block, interior empty rows, a
//! single-column matrix, an all-dense block) crossed with edge widths
//! (r = 1, the exact unroll width, one past it, the specialized widths),
//! and on a seeded random sweep. Accumulation (`+=`) semantics are
//! checked by starting both sides from the same random prefill. The
//! kernels' bitwise contract is `sequential_bits.rs`'s; here the
//! references are compared up to rounding.

use dsk_dense::ops::max_abs_diff;
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_kernels::reference;
use dsk_rng::Rng;
use dsk_sparse::{gen, CooMatrix, CsrMatrix};

const TOL: f64 = 1e-10;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn close(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (k, (x, y)) in got.iter().zip(want).enumerate() {
        assert!((x - y).abs() < TOL, "{ctx}: entry {k}: {x} vs {y}");
    }
}

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

/// Run every op's kernel, on both formats where it has both, on one
/// block and compare against the references.
fn check_every_kernel(label: &str, coo: &CooMatrix, r: usize, seed: u64) {
    let ctx = format!("{label} r={r}");
    let s = CsrMatrix::from_coo(coo);
    let (m, n) = (s.nrows(), s.ncols());
    let a = Mat::random(m, r, seed);
    let b = Mat::random(n, r, seed + 1);
    let pre_m = Mat::random(m, r, seed + 2);
    let pre_n = Mat::random(n, r, seed + 3);

    // `out += S·B` on both formats.
    let mut want = pre_m.clone();
    reference::spmm_ref_acc(&mut want, coo, &b);
    let mut got = pre_m.clone();
    kern::spmm_csr_acc(&mut got, &s, &b);
    assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_csr_acc");
    let mut got = pre_m.clone();
    kern::spmm_coo_acc(&mut got, coo, &b);
    assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_coo_acc");

    // CSR SpMM with values made per row: filled with the block's own
    // values it is `spmm_csr_acc` bit for bit, one call per non-empty
    // row, in row order.
    let mut want_bits = pre_m.clone();
    kern::spmm_csr_acc(&mut want_bits, &s, &b);
    let mut got = pre_m.clone();
    let mut rows = Vec::new();
    kern::spmm_csr_filled(&mut got, &s, &b, |i, cols, vals| {
        let (own_cols, own_vals) = s.row(i);
        assert_eq!(cols, own_cols, "{ctx}: row {i}'s columns");
        vals.copy_from_slice(own_vals);
        rows.push(i);
    });
    let nonempty: Vec<usize> = (0..m).filter(|&i| !s.row(i).0.is_empty()).collect();
    assert_eq!(rows, nonempty, "{ctx}: fill calls");
    assert_eq!(
        bits(got.as_slice()),
        bits(want_bits.as_slice()),
        "{ctx}: spmm_csr_filled"
    );

    // `out += Sᵀ·A` on both formats.
    let mut want = pre_n.clone();
    reference::spmm_t_ref_acc(&mut want, coo, &a);
    let mut got = pre_n.clone();
    kern::spmm_csr_t_acc(&mut got, &s, &a);
    assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_csr_t_acc");
    let mut got = pre_n.clone();
    kern::spmm_coo_t_acc(&mut got, coo, &a);
    assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: spmm_coo_t_acc");

    // SDDMM accumulation (Dot combine): the reference on a ones-valued
    // copy of the pattern is the bare dot per nonzero, in CSR order.
    let mut ones = s.clone();
    ones.set_vals(vec![1.0; s.nnz()]);
    let dots = reference::sddmm_ref(&ones, &a, &b);
    let pre_acc = Mat::random(1, s.nnz(), seed + 4).into_vec();
    let want: Vec<f64> = pre_acc.iter().zip(&dots).map(|(p, d)| p + d).collect();
    let mut got = pre_acc.clone();
    kern::sddmm_csr_acc(&mut got, &s, &a, &b);
    close(&got, &want, &format!("{ctx}: sddmm_csr_acc"));
    let mut got = pre_acc.clone();
    kern::sddmm_coo_acc(&mut got, &s.to_coo(), &a, &b);
    close(&got, &want, &format!("{ctx}: sddmm_coo_acc"));
    close(
        &kern::sddmm_csr(&s, &a, &b),
        &reference::sddmm_ref(&s, &a, &b),
        &format!("{ctx}: sddmm_csr"),
    );

    // Fused SDDMM+SpMM (CSR only).
    let mut want = pre_m.clone();
    dsk_dense::ops::add_assign(&mut want, &reference::fused_a_ref(&s, &a, &b));
    let mut got = pre_m.clone();
    kern::fused_a_csr(&mut got, &s, &a, &b);
    assert!(max_abs_diff(&want, &got) < TOL, "{ctx}: fused_a_csr");
}

/// r = 1 (single-column dense operands), r = 8 (the exact
/// width-specialized unroll), r = 9 (one past it, exercising the
/// chunk-of-8 + scalar remainder path).
const EDGE_WIDTHS: [usize; 3] = [1, 8, 9];

#[test]
fn every_kernel_matches_the_reference_on_edge_shapes() {
    for (label, coo) in edge_matrices() {
        for (wi, r) in EDGE_WIDTHS.into_iter().enumerate() {
            check_every_kernel(label, &coo, r, 0xC0DE + wi as u64 * 17);
        }
    }
}

#[test]
fn every_kernel_matches_the_reference_on_seeded_random_shapes() {
    let mut rng = Rng::seed_from_u64(0xB008);
    for case in 0..16 {
        let m = 2 + rng.gen_index(46);
        let n = 2 + rng.gen_index(46);
        let r = 1 + rng.gen_index(11);
        let nnz_row = (1 + rng.gen_index(6)).min(n);
        let seed = rng.next_u64() % 1000;
        let coo = gen::erdos_renyi(m, n, nnz_row, seed);
        check_every_kernel(&format!("random-{case} ({m}x{n})"), &coo, r, seed + 40);
    }
}

/// The wider unrolled widths (16, 32, 64) go through their specialized
/// inner loops; a denser block catches stride bugs the tiny shapes hide.
#[test]
fn width_specialized_kernels_match_at_every_unroll_width() {
    for (wi, r) in [16usize, 32, 64].into_iter().enumerate() {
        let coo = gen::erdos_renyi(96, 80, 5, 31 + wi as u64);
        check_every_kernel("unroll-width", &coo, r, 0xAB + wi as u64);
    }
}
