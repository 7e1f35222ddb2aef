//! Block partitioning of index spaces and sparse matrices.
//!
//! Every distribution in the paper's Table II is assembled from
//! contiguous block ranges of rows/columns. The convention here matches
//! `dsk_comm::collectives::block_ranges`: `total` elements split into
//! `parts` near-equal contiguous ranges, the first `total % parts` of
//! which are one element longer.

use crate::coo::CooMatrix;
use std::ops::Range;

/// The `idx`-th of `parts` near-equal contiguous ranges tiling
/// `0..total`.
pub fn block_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    assert!(idx < parts, "block index {idx} out of {parts}");
    let q = total / parts;
    let r = total % parts;
    let start = idx * q + idx.min(r);
    let len = q + usize::from(idx < r);
    start..start + len
}

/// All `parts` ranges of the decomposition.
pub fn block_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts).map(|i| block_range(total, parts, i)).collect()
}

/// Which block of the decomposition owns element `index`.
pub fn block_owner(total: usize, parts: usize, index: usize) -> usize {
    debug_assert!(index < total);
    let q = total / parts;
    let r = total % parts;
    let boundary = r * (q + 1);
    if index < boundary {
        index / (q + 1)
    } else {
        r + (index - boundary) / q.max(1)
    }
}

/// Partition a COO matrix into a `row_parts × col_parts` grid of blocks
/// with local (block-relative) indices, in a single pass over the
/// nonzeros. `grid[i][j]` is block `(i, j)`.
pub fn partition_2d(m: &CooMatrix, row_parts: usize, col_parts: usize) -> Vec<Vec<CooMatrix>> {
    partition_by_ranges(
        m,
        &block_ranges(m.nrows, row_parts),
        &block_ranges(m.ncols, col_parts),
    )
}

/// Partition a COO matrix by explicit contiguous row/column ranges
/// (which must tile `0..nrows` / `0..ncols` in order). Used by data
/// distributions whose block boundaries are not the near-equal default
/// (e.g. macro block rows that must align with unions of finer blocks).
pub fn partition_by_ranges(
    m: &CooMatrix,
    row_ranges: &[Range<usize>],
    col_ranges: &[Range<usize>],
) -> Vec<Vec<CooMatrix>> {
    debug_assert!(ranges_tile(row_ranges, m.nrows), "row ranges must tile");
    debug_assert!(ranges_tile(col_ranges, m.ncols), "col ranges must tile");
    let mut grid: Vec<Vec<CooMatrix>> = row_ranges
        .iter()
        .map(|rr| {
            col_ranges
                .iter()
                .map(|cr| CooMatrix::empty(rr.len(), cr.len()))
                .collect()
        })
        .collect();
    let row_starts: Vec<usize> = row_ranges.iter().map(|r| r.start).collect();
    let col_starts: Vec<usize> = col_ranges.iter().map(|r| r.start).collect();
    for (i, j, v) in m.iter() {
        let bi = range_owner(&row_starts, i);
        let bj = range_owner(&col_starts, j);
        grid[bi][bj].push(i - row_ranges[bi].start, j - col_ranges[bj].start, v);
    }
    grid
}

/// Which of the ordered ranges (given by their start offsets) contains
/// `index`.
fn range_owner(starts: &[usize], index: usize) -> usize {
    match starts.binary_search(&index) {
        Ok(k) => k,
        Err(k) => k - 1,
    }
}

fn ranges_tile(ranges: &[Range<usize>], total: usize) -> bool {
    if ranges.is_empty() {
        return total == 0;
    }
    ranges[0].start == 0
        && ranges.last().unwrap().end == total
        && ranges.windows(2).all(|w| w[0].end == w[1].start)
}

/// Re-assemble a 2D block partition (inverse of [`partition_2d`]); used
/// by tests and result gathering.
pub fn unpartition_2d(grid: &[Vec<CooMatrix>], nrows: usize, ncols: usize) -> CooMatrix {
    let row_parts = grid.len();
    let col_parts = grid[0].len();
    let rranges = block_ranges(nrows, row_parts);
    let cranges = block_ranges(ncols, col_parts);
    let mut out = CooMatrix::empty(nrows, ncols);
    for (bi, row) in grid.iter().enumerate() {
        assert_eq!(row.len(), col_parts, "ragged block grid");
        for (bj, blk) in row.iter().enumerate() {
            for (i, j, v) in blk.iter() {
                out.push(rranges[bi].start + i, cranges[bj].start + j, v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::erdos_renyi;

    #[test]
    fn block_range_tiles_domain() {
        for total in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7] {
                let rs = block_ranges(total, parts);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, total);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn block_owner_agrees_with_ranges() {
        for total in [5usize, 16, 33] {
            for parts in [1usize, 2, 4, 5] {
                let rs = block_ranges(total, parts);
                for i in 0..total {
                    let o = block_owner(total, parts, i);
                    assert!(rs[o].contains(&i), "total={total} parts={parts} i={i}");
                }
            }
        }
    }

    #[test]
    fn partition_roundtrip() {
        let m = erdos_renyi(19, 23, 5, 77);
        for (rp, cp) in [(1, 1), (2, 3), (4, 4), (19, 23)] {
            let grid = partition_2d(&m, rp, cp);
            let back = unpartition_2d(&grid, 19, 23);
            assert_eq!(back.to_dense(), m.to_dense());
        }
    }

    #[test]
    fn partition_preserves_nnz_exactly_once() {
        let m = erdos_renyi(16, 16, 4, 5);
        let grid = partition_2d(&m, 4, 2);
        let total: usize = grid.iter().flatten().map(CooMatrix::nnz).sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn partition_by_ranges_with_uneven_blocks() {
        let m = erdos_renyi(10, 10, 3, 8);
        let rows = vec![0..7usize, 7..10];
        let cols = vec![0..2usize, 2..9, 9..10];
        let grid = partition_by_ranges(&m, &rows, &cols);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].len(), 3);
        assert_eq!(grid[1][1].nrows, 3);
        assert_eq!(grid[1][1].ncols, 7);
        let total: usize = grid.iter().flatten().map(CooMatrix::nnz).sum();
        assert_eq!(total, m.nnz());
        // Rebuild and compare.
        let mut back = CooMatrix::empty(10, 10);
        for (bi, rr) in rows.iter().enumerate() {
            for (bj, cr) in cols.iter().enumerate() {
                for (i, j, v) in grid[bi][bj].iter() {
                    back.push(rr.start + i, cr.start + j, v);
                }
            }
        }
        assert_eq!(back.to_dense(), m.to_dense());
    }
}
