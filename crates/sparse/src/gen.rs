//! Synthetic sparse-matrix generators.
//!
//! * [`erdos_renyi`] — fixed nonzeros per row, as in the paper's weak
//!   scaling setups (e.g. 2¹⁶ side, 32 nonzeros per row).
//! * [`rmat`] — recursive-matrix power-law graphs; our stand-in for the
//!   paper's SuiteSparse strong-scaling matrices (amazon-large, uk-2002,
//!   eukarya, arabic-2005, twitter7), whose defining property for these
//!   kernels is a skewed degree distribution at a given nnz/row ratio.
//!
//! All generators are deterministic functions of their seed, and the
//! Erdős–Rényi generator is *row-decomposable*: any rank can generate
//! exactly the rows it owns (each row's column set is seeded by
//! `(seed, row)`), so distributed benchmarks need no global staging.

use dsk_rng::Rng;

use crate::coo::CooMatrix;

/// Mix a base seed with a row id into an independent stream seed.
#[inline]
fn row_seed(seed: u64, row: usize) -> u64 {
    let mut z = seed ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Erdős–Rényi–style matrix with exactly `nnz_per_row` distinct nonzeros
/// in every row, values uniform in `(0, 1]`.
pub fn erdos_renyi(nrows: usize, ncols: usize, nnz_per_row: usize, seed: u64) -> CooMatrix {
    erdos_renyi_rows(0..nrows, nrows, ncols, nnz_per_row, seed)
}

/// Generate only the rows in `rows` of the global `nrows × ncols`
/// Erdős–Rényi matrix with the given seed. Row indices in the result are
/// **global**. The union over a partition of `0..nrows` equals
/// [`erdos_renyi`] exactly.
pub fn erdos_renyi_rows(
    rows: std::ops::Range<usize>,
    nrows: usize,
    ncols: usize,
    nnz_per_row: usize,
    seed: u64,
) -> CooMatrix {
    assert!(rows.end <= nrows, "row range exceeds matrix");
    assert!(
        nnz_per_row <= ncols,
        "cannot place {nnz_per_row} distinct nonzeros in {ncols} columns"
    );
    let mut out = CooMatrix::empty(nrows, ncols);
    let cap = rows.len() * nnz_per_row;
    out.rows.reserve(cap);
    out.cols.reserve(cap);
    out.vals.reserve(cap);
    for i in rows {
        let mut rng = Rng::seed_from_u64(row_seed(seed, i));
        // Rejection-sample distinct columns; nnz_per_row ≪ ncols in all
        // workloads so this terminates fast. A sorted small vec is cheaper
        // than a HashSet at these sizes.
        let mut cols: Vec<u32> = Vec::with_capacity(nnz_per_row);
        while cols.len() < nnz_per_row {
            let c = rng.gen_below(ncols as u64) as u32;
            if let Err(pos) = cols.binary_search(&c) {
                cols.insert(pos, c);
            }
        }
        for c in cols {
            let v: f64 = rng.gen_f64();
            out.rows.push(i as u32);
            out.cols.push(c);
            out.vals.push(1.0 - v); // in (0, 1]
        }
    }
    out
}

/// Parameters of the R-MAT recursive quadrant generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// log2 of the (square) matrix side.
    pub scale: u32,
    /// Average edges per row (matrix nnz ≈ `edge_factor << scale`).
    pub edge_factor: usize,
    /// Quadrant probabilities (a, b, c); d = 1 - a - b - c.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Random seed.
    pub seed: u64,
}

impl RmatParams {
    /// Graph500-style defaults (a=0.57, b=c=0.19) at the given scale and
    /// edge factor: heavily skewed degree distribution.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatParams {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }
}

/// R-MAT power-law random matrix: side `2^scale`, about
/// `edge_factor · 2^scale` nonzeros (duplicates merged, so slightly
/// fewer), values 1.0.
pub fn rmat(params: RmatParams) -> CooMatrix {
    let n = 1usize << params.scale;
    let nnz_target = params.edge_factor << params.scale;
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut out = CooMatrix::empty(n, n);
    out.rows.reserve(nnz_target);
    out.cols.reserve(nnz_target);
    out.vals.reserve(nnz_target);
    let (a, b, c) = (params.a, params.b, params.c);
    assert!(a + b + c <= 1.0 + 1e-9, "R-MAT probabilities exceed 1");
    for _ in 0..nnz_target {
        let (mut r0, mut c0) = (0usize, 0usize);
        let mut half = n >> 1;
        while half > 0 {
            let x: f64 = rng.gen_f64();
            if x < a {
                // upper-left: nothing
            } else if x < a + b {
                c0 += half;
            } else if x < a + b + c {
                r0 += half;
            } else {
                r0 += half;
                c0 += half;
            }
            half >>= 1;
        }
        out.push(r0, c0, 1.0);
    }
    // Merge duplicate edges, then restore 0/1 adjacency semantics
    // (sum_duplicates adds the values of repeated coordinates).
    let mut merged = out.sum_duplicates();
    merged.fill_values(1.0);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_exact_row_counts() {
        let m = erdos_renyi(32, 64, 4, 7);
        assert_eq!(m.nnz(), 32 * 4);
        let mut per_row = vec![0usize; 32];
        for (i, j, v) in m.iter() {
            per_row[i] += 1;
            assert!(j < 64);
            assert!(v > 0.0 && v <= 1.0);
        }
        assert!(per_row.iter().all(|&c| c == 4));
    }

    #[test]
    fn erdos_renyi_columns_distinct_within_row() {
        let m = erdos_renyi(16, 16, 8, 3);
        for i in 0..16 {
            let mut cols: Vec<u32> = m
                .iter()
                .filter(|&(r, _, _)| r == i)
                .map(|(_, c, _)| c as u32)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), 8, "row {i} has duplicate columns");
        }
    }

    #[test]
    fn erdos_renyi_is_row_decomposable() {
        let whole = erdos_renyi(20, 40, 3, 99);
        let top = erdos_renyi_rows(0..11, 20, 40, 3, 99);
        let bottom = erdos_renyi_rows(11..20, 20, 40, 3, 99);
        let mut merged = top;
        merged.rows.extend_from_slice(&bottom.rows);
        merged.cols.extend_from_slice(&bottom.cols);
        merged.vals.extend_from_slice(&bottom.vals);
        assert_eq!(merged.to_dense(), whole.to_dense());
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let p = RmatParams::graph500(6, 8, 5);
        let m1 = rmat(p);
        let m2 = rmat(p);
        assert_eq!(m1, m2);
        assert_eq!(m1.nrows, 64);
        // Duplicates merged: nnz at most the target, but close for sparse
        // settings.
        assert!(m1.nnz() <= 8 * 64);
        assert!(m1.nnz() > 4 * 64, "too many duplicates: {}", m1.nnz());
    }

    #[test]
    fn rmat_is_skewed() {
        let m = rmat(RmatParams::graph500(8, 8, 11));
        let mut per_row = vec![0usize; m.nrows];
        for (i, _, _) in m.iter() {
            per_row[i] += 1;
        }
        let max = *per_row.iter().max().unwrap();
        let mean = m.nnz() as f64 / m.nrows as f64;
        assert!(
            max as f64 > 4.0 * mean,
            "R-MAT should be heavy-tailed: max {max}, mean {mean}"
        );
    }
}
