//! Thread-parallel drivers for the register-blocked variants.
//!
//! Row-parallel ops split the output matrix (or the pattern-aligned
//! accumulator) into contiguous row chunks at row boundaries, one per
//! scoped thread, and run the blocked row kernel inside each chunk.
//! Thread count comes from [`par_threads`] (one per core, `DSK_THREADS`
//! overrides).

use dsk_dense::Mat;
use dsk_sparse::CsrMatrix;

use super::blocked;
use crate::sddmm::SddmmCombine;

/// Threads used by the parallel variant: the `DSK_THREADS` environment
/// variable when set (clamped to ≥ 1, for deterministic timings on
/// shared runners), one per available core otherwise. Re-read on every
/// call, so a test may change it mid-process.
fn par_threads() -> usize {
    threads_from(std::env::var("DSK_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The pinned thread count in a raw `DSK_THREADS` value; `None` (use
/// every core) when unset or empty. Garbage panics: a silently ignored
/// pin would quietly run a "reproducible" bench on all cores.
fn threads_from(raw: Option<&str>) -> Option<usize> {
    let v = raw.map(str::trim).filter(|v| !v.is_empty())?;
    let n: usize = v
        .parse()
        .unwrap_or_else(|_| panic!("DSK_THREADS={v:?} is not a whole number ≥ 1"));
    Some(n.max(1))
}

/// Run `f(row, out_row)` over all rows of `out`, contiguous row chunks
/// in parallel (one chunk per thread).
fn par_out_rows<F>(out: &mut Mat, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let r = out.ncols();
    let nrows = out.nrows();
    let nthreads = par_threads().min(nrows.max(1));
    let rows_per = nrows.div_ceil(nthreads.max(1)).max(1);
    let chunks: Vec<(usize, &mut [f64])> = out
        .as_mut_slice()
        .chunks_mut(rows_per * r.max(1))
        .enumerate()
        .map(|(k, chunk)| (k * rows_per, chunk))
        .collect();
    std::thread::scope(|scope| {
        for (row0, chunk) in chunks {
            let f = &f;
            scope.spawn(move || {
                let nchunk = chunk.len().checked_div(r).unwrap_or(0);
                for (di, orow) in chunk.chunks_mut(r.max(1)).enumerate().take(nchunk) {
                    f(row0 + di, orow);
                }
            });
        }
    });
}

/// Run `f(row, acc_row)` over all rows of a CSR pattern, the
/// pattern-aligned accumulator split at row-chunk boundaries (rows own
/// disjoint `acc` ranges, so chunks are independent).
fn par_acc_rows<F>(acc: &mut [f64], s: &CsrMatrix, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let indptr = s.indptr();
    let nchunks = par_threads().max(1);
    let rows_per = s.nrows().div_ceil(nchunks).max(1);
    let mut jobs: Vec<(usize, usize, &mut [f64])> = Vec::new();
    let mut rest = acc;
    let mut consumed = 0usize;
    let mut row0 = 0usize;
    while row0 < s.nrows() {
        let row1 = (row0 + rows_per).min(s.nrows());
        let end = indptr[row1];
        let (chunk, tail) = rest.split_at_mut(end - consumed);
        jobs.push((row0, row1, chunk));
        rest = tail;
        consumed = end;
        row0 = row1;
    }
    std::thread::scope(|scope| {
        for (r0, r1, chunk) in jobs {
            let f = &f;
            scope.spawn(move || {
                let base = indptr[r0];
                for i in r0..r1 {
                    let (lo, hi) = (indptr[i] - base, indptr[i + 1] - base);
                    f(i, &mut chunk[lo..hi]);
                }
            });
        }
    });
}

/// Row-parallel register-blocked `out += S·B` (CSR).
pub(super) fn par_blocked_spmm_csr_acc(out: &mut Mat, s: &CsrMatrix, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B width");
    par_out_rows(out, |i, orow| {
        let (cols, vals) = s.row(i);
        if !cols.is_empty() {
            blocked::spmm_row_blocked(cols, vals, b, orow);
        }
    });
}

/// Row-parallel register-blocked SDDMM accumulation (CSR).
pub(super) fn par_blocked_sddmm_csr_acc_with(
    acc: &mut [f64],
    s: &CsrMatrix,
    a_panel: &Mat,
    b_panel: &Mat,
    combine: SddmmCombine<'_>,
) {
    assert_eq!(acc.len(), s.nnz(), "accumulator must align with pattern");
    assert_eq!(a_panel.nrows(), s.nrows(), "A panel rows must match S rows");
    assert_eq!(b_panel.nrows(), s.ncols(), "B panel rows must match S cols");
    assert_eq!(
        a_panel.ncols(),
        b_panel.ncols(),
        "panels must cover the same column slice"
    );
    let affine = |x: &[f64], y: &[f64]| blocked::eval_blocked(combine, x, y);
    par_acc_rows(acc, s, |i, acc_row| {
        let (cols, _) = s.row(i);
        crate::sddmm::sddmm_row(acc_row, cols, a_panel.row(i), b_panel, combine, affine);
    });
}

/// Row-parallel register-blocked fused SDDMM+SpMM (CSR).
pub(super) fn par_blocked_fused_a_csr(out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
    assert_eq!(out.nrows(), s.nrows(), "output rows must match S rows");
    assert_eq!(a.nrows(), s.nrows(), "A rows must match S rows");
    assert_eq!(b.nrows(), s.ncols(), "B rows must match S cols");
    assert_eq!(a.ncols(), b.ncols(), "A and B widths must agree");
    assert_eq!(out.ncols(), b.ncols(), "output width must match B");
    par_out_rows(out, |i, orow| {
        let (cols, vals) = s.row(i);
        crate::fused::fused_row(orow, cols, vals, a.row(i), b);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_pin_parses_counts_and_treats_unset_and_empty_as_all_cores() {
        assert_eq!(threads_from(None), None);
        assert_eq!(threads_from(Some("")), None);
        assert_eq!(threads_from(Some(" 4 ")), Some(4));
        assert_eq!(threads_from(Some("0")), Some(1));
    }

    #[test]
    #[should_panic(expected = "DSK_THREADS=\"four\" is not a whole number ≥ 1")]
    fn thread_pin_rejects_garbage() {
        threads_from(Some("four"));
    }
}
