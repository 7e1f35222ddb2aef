//! The fused kernel and the CSR SDDMM (`Dot` combine) keep several
//! nonzeros' dots in flight, but each dot must still add its products in
//! the sequential order, from the same start value, and the fused
//! kernel's scaled rows must reach the output row in CSR order. So every
//! variant is compared **bit for bit** (`to_bits`) against a scalar loop
//! that takes one nonzero at a time, on every row length 0..=19 (so each
//! 8/4/2/1 remainder runs) and on widths from 1 to 256, into pre-filled
//! accumulators.

use dsk_dense::Mat;
use dsk_kernels::{LocalKernel, SddmmCombine};
use dsk_rng::Rng;
use dsk_sparse::{CooMatrix, CsrMatrix};

const WIDTHS: [usize; 8] = [1, 2, 3, 16, 32, 33, 64, 256];
/// Row `i` of the pattern holds `i` nonzeros.
const MAX_ROW: usize = 19;
/// Columns of `S` (prime, so the stride-3 column walk never repeats).
const N: usize = 23;

/// One nonzero at a time: `out_i += S_ij ⟨A_i, B_j⟩ · B_j`.
fn scalar_fused(out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
    for i in 0..s.nrows() {
        let (cols, vals) = s.row(i);
        for (&j, &sv) in cols.iter().zip(vals) {
            let brow = b.row(j as usize);
            let dot: f64 = a.row(i).iter().zip(brow).map(|(x, y)| x * y).sum();
            let rij = sv * dot;
            for (o, y) in out.row_mut(i).iter_mut().zip(brow) {
                *o += rij * y;
            }
        }
    }
}

/// One nonzero at a time: `acc_k += ⟨A_i, B_j⟩` in CSR order.
fn scalar_sddmm(acc: &mut [f64], s: &CsrMatrix, a: &Mat, b: &Mat) {
    let mut k = 0;
    for i in 0..s.nrows() {
        for &j in s.row(i).0 {
            let dot: f64 = a
                .row(i)
                .iter()
                .zip(b.row(j as usize))
                .map(|(x, y)| x * y)
                .sum();
            acc[k] += dot;
            k += 1;
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

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every variant's fused and `Dot` SDDMM kernels against the scalar loops,
/// starting from the pre-fills `out0` / `acc0`.
fn check(ctx: &str, s: &CsrMatrix, a: &Mat, b: &Mat, out0: &Mat, acc0: &[f64]) {
    let mut want_out = out0.clone();
    scalar_fused(&mut want_out, s, a, b);
    let mut want_acc = acc0.to_vec();
    scalar_sddmm(&mut want_acc, s, a, b);
    for v in LocalKernel::ALL {
        let mut out = out0.clone();
        v.fused_csr(&mut out, s, a, b);
        assert_eq!(
            bits(out.as_slice()),
            bits(want_out.as_slice()),
            "{ctx}: {v:?} fused"
        );
        let mut acc = acc0.to_vec();
        v.sddmm_csr(&mut acc, s, a, b, SddmmCombine::Dot);
        assert_eq!(bits(&acc), bits(&want_acc), "{ctx}: {v:?} sddmm");
    }
}

#[test]
fn grouped_kernels_match_the_scalar_loop_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0xD075);
    let s = ragged_pattern(|| rng.gen_range_f64(-2.0, 2.0));
    let m = s.nrows();
    for (wi, r) in WIDTHS.into_iter().enumerate() {
        let seed = 0x5EED + 10 * wi as u64;
        let (a, b) = (Mat::random(m, r, seed), Mat::random(N, r, seed + 1));
        let out0 = Mat::random(m, r, seed + 2);
        let acc0 = Mat::random(1, s.nnz(), seed + 3).into_vec();
        check(&format!("r={r}"), &s, &a, &b, &out0, &acc0);
    }
}

/// The dots start where `Iterator::sum` does, at −0.0: with every product
/// −0.0, a +0.0 start would flip the sign bit of each dot, and of the
/// −0.0 pre-fills it is added into.
#[test]
fn all_negative_zero_products_keep_their_sign() {
    assert_eq!(
        std::iter::empty::<f64>().sum::<f64>().to_bits(),
        (-0.0f64).to_bits()
    );
    let s = ragged_pattern(|| 1.5);
    let m = s.nrows();
    for r in WIDTHS {
        let (a, b) = (Mat::zeros(m, r), Mat::from_fn(N, r, |_, _| -1.0));
        let out0 = Mat::from_fn(m, r, |_, _| -0.0);
        let acc0 = vec![-0.0; s.nnz()];
        check(&format!("-0.0 r={r}"), &s, &a, &b, &out0, &acc0);
    }
}
