//! Every local kernel keeps the one-nonzero-at-a-time order of its op.
//! The CSR gather keeps a register tile started from the output row, the
//! COO gather runs a width-specialized axpy, and the SDDMMs and the fused
//! kernel keep several nonzeros' dots in flight; but every output
//! element and every dot must still see the same adds, in the same
//! order, from the same start value as a scalar loop over the nonzeros.
//! So each kernel is compared **bit for bit** (`to_bits`) against that
//! loop, on every row length 0..=19 (so each 8/4/2/1 group remainder
//! runs), on widths from 1 to 256 (each specialized width, the
//! chunk-of-8 path and its scalar remainder), into pre-filled outputs,
//! and on COO blocks in a scrambled nonzero order.

use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_rng::Rng;
use dsk_sparse::{CooMatrix, CsrMatrix};

const WIDTHS: [usize; 9] = [1, 2, 3, 8, 16, 32, 33, 64, 256];
/// Row `i` of the pattern holds `i` nonzeros.
const MAX_ROW: usize = 19;
/// Columns of `S` (prime, so the stride-3 column walk never repeats).
const N: usize = 23;

/// One nonzero at a time, in `t`'s order: `out_i += S_ij · B_j`.
fn scalar_gather(out: &mut Mat, t: &CooMatrix, b: &Mat) {
    for (i, j, v) in t.iter() {
        for (o, y) in out.row_mut(i).iter_mut().zip(b.row(j)) {
            *o += v * y;
        }
    }
}

/// One nonzero at a time, in `t`'s order: `out_j += S_ij · A_i`.
fn scalar_scatter(out: &mut Mat, t: &CooMatrix, a: &Mat) {
    for (i, j, v) in t.iter() {
        for (o, x) in out.row_mut(j).iter_mut().zip(a.row(i)) {
            *o += v * x;
        }
    }
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(x, y)| x * y).sum()
}

/// One nonzero at a time, in `t`'s order: `acc_k += ⟨A_i, B_j⟩`.
fn scalar_dots(acc: &mut [f64], t: &CooMatrix, a: &Mat, b: &Mat) {
    for (k, (i, j, _)) in t.iter().enumerate() {
        acc[k] += dot(a.row(i), b.row(j));
    }
}

/// One nonzero at a time, in `t`'s order: `out_i += S_ij ⟨A_i, B_j⟩ · B_j`.
fn scalar_fused(out: &mut Mat, t: &CooMatrix, a: &Mat, b: &Mat) {
    for (i, j, v) in t.iter() {
        let rij = v * dot(a.row(i), b.row(j));
        for (o, y) in out.row_mut(i).iter_mut().zip(b.row(j)) {
            *o += rij * y;
        }
    }
}

/// Row `i` has `i` nonzeros at distinct columns, with values from `val`.
fn ragged_pattern(mut val: impl FnMut() -> f64) -> CsrMatrix {
    let mut coo = CooMatrix::empty(MAX_ROW + 1, N);
    for i in 0..=MAX_ROW {
        for t in 0..i {
            coo.push(i, (i * 7 + t * 3) % N, val());
        }
    }
    let s = CsrMatrix::from_coo(&coo);
    for i in 0..=MAX_ROW {
        assert_eq!(s.row(i).0.len(), i, "row {i} lost a nonzero");
    }
    s
}

/// The same triplets in a scrambled order, as a block that arrived over
/// the wire may hold them: a stride of 37, which is prime and does not
/// divide the ragged pattern's 190 nonzeros.
fn scrambled(t: &CooMatrix) -> CooMatrix {
    let nnz = t.nnz();
    assert_ne!(nnz % 37, 0, "the stride must walk every nonzero");
    let mut out = CooMatrix::empty(t.nrows, t.ncols);
    for k in 0..nnz {
        let k = (k * 37) % nnz;
        out.push(t.rows[k] as usize, t.cols[k] as usize, t.vals[k]);
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn same(got: &Mat, want: &Mat, ctx: &str, kernel: &str) {
    assert_eq!(
        bits(got.as_slice()),
        bits(want.as_slice()),
        "{ctx}: {kernel}"
    );
}

/// Pre-filled outputs of one check: `m×r` for the gathers and the fused
/// kernel, `N×r` for the scatters, one slot per nonzero for the dots.
struct Prefill {
    out: Mat,
    out_t: Mat,
    acc: Vec<f64>,
}

/// Every kernel against its scalar loop, starting from the pre-fills.
fn check(ctx: &str, s: &CsrMatrix, a: &Mat, b: &Mat, pre: &Prefill) {
    let in_order = s.to_coo();
    let coo = scrambled(&in_order);
    let run = |f: &dyn Fn(&mut Mat)| {
        let mut out = pre.out.clone();
        f(&mut out);
        out
    };
    let run_t = |f: &dyn Fn(&mut Mat)| {
        let mut out = pre.out_t.clone();
        f(&mut out);
        out
    };
    let run_acc = |f: &dyn Fn(&mut [f64])| {
        let mut acc = pre.acc.clone();
        f(&mut acc);
        acc
    };

    // `out += S·B`.
    let want = run(&|o| scalar_gather(o, &in_order, b));
    same(
        &run(&|o| kern::spmm_csr_acc(o, s, b)),
        &want,
        ctx,
        "spmm_csr_acc",
    );
    let filled =
        run(&|o| kern::spmm_csr_filled(o, s, b, |i, _, vals| vals.copy_from_slice(s.row(i).1)));
    same(&filled, &want, ctx, "spmm_csr_filled");
    let want = run(&|o| scalar_gather(o, &coo, b));
    same(
        &run(&|o| kern::spmm_coo_acc(o, &coo, b)),
        &want,
        ctx,
        "spmm_coo_acc",
    );

    // `out += Sᵀ·A`.
    let want = run_t(&|o| scalar_scatter(o, &in_order, a));
    let got = run_t(&|o| kern::spmm_csr_t_acc(o, s, a));
    same(&got, &want, ctx, "spmm_csr_t_acc");
    let want = run_t(&|o| scalar_scatter(o, &coo, a));
    let got = run_t(&|o| kern::spmm_coo_t_acc(o, &coo, a));
    same(&got, &want, ctx, "spmm_coo_t_acc");

    // Dot-product SDDMM accumulation.
    let want = run_acc(&|acc| scalar_dots(acc, &in_order, a, b));
    let got = run_acc(&|acc| kern::sddmm_csr_acc(acc, s, a, b));
    assert_eq!(bits(&got), bits(&want), "{ctx}: sddmm_csr_acc");
    let want = run_acc(&|acc| scalar_dots(acc, &coo, a, b));
    let got = run_acc(&|acc| kern::sddmm_coo_acc(acc, &coo, a, b));
    assert_eq!(bits(&got), bits(&want), "{ctx}: sddmm_coo_acc");

    // The fused kernel.
    let want = run(&|o| scalar_fused(o, &in_order, a, b));
    same(
        &run(&|o| kern::fused_a_csr(o, s, a, b)),
        &want,
        ctx,
        "fused_a_csr",
    );
}

#[test]
fn every_kernel_matches_its_scalar_loop_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0xD075);
    let s = ragged_pattern(|| rng.gen_range_f64(-2.0, 2.0));
    let m = s.nrows();
    for (wi, r) in WIDTHS.into_iter().enumerate() {
        let seed = 0x5EED + 10 * wi as u64;
        let (a, b) = (Mat::random(m, r, seed), Mat::random(N, r, seed + 1));
        let pre = Prefill {
            out: Mat::random(m, r, seed + 2),
            out_t: Mat::random(N, r, seed + 3),
            acc: Mat::random(1, s.nnz(), seed + 4).into_vec(),
        };
        check(&format!("r={r}"), &s, &a, &b, &pre);
    }
}

/// Every product −0.0, into −0.0 pre-fills: the sign survives only if
/// each sum starts where the scalar loop's does. A dot started from +0.0
/// instead of `Iterator::sum`'s −0.0, or a gather tile started from zero
/// instead of from the output row, flips it. `A = +0.0, B = −0.0` makes
/// the dots' and the gathers' products −0.0; `A = −0.0, B = +0.0` the
/// dots' and the scatters'.
#[test]
fn all_negative_zero_products_keep_their_sign() {
    assert_eq!(
        std::iter::empty::<f64>().sum::<f64>().to_bits(),
        (-0.0f64).to_bits()
    );
    let s = ragged_pattern(|| 1.5);
    let m = s.nrows();
    for (za, zb) in [(0.0, -0.0), (-0.0, 0.0)] {
        for r in WIDTHS {
            let (a, b) = (Mat::from_fn(m, r, |_, _| za), Mat::from_fn(N, r, |_, _| zb));
            let pre = Prefill {
                out: Mat::from_fn(m, r, |_, _| -0.0),
                out_t: Mat::from_fn(N, r, |_, _| -0.0),
                acc: vec![-0.0; s.nnz()],
            };
            check(&format!("A={za:?} B={zb:?} r={r}"), &s, &a, &b, &pre);
        }
    }
}
