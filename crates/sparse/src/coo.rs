//! Coordinate-format sparse matrices.
//!
//! COO is the wire and staging format: blocks that travel between ranks
//! (the 1.5D sparse-shifting algorithm ships whole blocks around a ring)
//! are COO, and the paper's cost model charges **three words per
//! nonzero** (row, column, value) for them — reflected by the
//! [`Payload`] implementation.

use dsk_comm::payload::encode_scalars;
use dsk_comm::{Payload, WirePayload, WireReader};

/// A sparse `nrows × ncols` matrix as parallel (row, col, value) arrays.
/// Indices are `u32`; matrices beyond 4 G rows/cols are out of scope.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row index of each nonzero.
    pub rows: Vec<u32>,
    /// Column index of each nonzero.
    pub cols: Vec<u32>,
    /// Value of each nonzero.
    pub vals: Vec<f64>,
}

impl CooMatrix {
    /// An empty matrix with the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from parallel triplet arrays (must be equal length, indices
    /// in bounds).
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(rows.len(), cols.len(), "triplet arrays must align");
        assert_eq!(rows.len(), vals.len(), "triplet arrays must align");
        debug_assert!(rows.iter().all(|&r| (r as usize) < nrows), "row index OOB");
        debug_assert!(cols.iter().all(|&c| (c as usize) < ncols), "col index OOB");
        CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Append one entry.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.rows.push(i as u32);
        self.cols.push(j as u32);
        self.vals.push(v);
    }

    /// A matrix with this pattern and the given values (the current
    /// values are not copied).
    pub fn with_vals(&self, vals: Vec<f64>) -> CooMatrix {
        assert_eq!(vals.len(), self.nnz(), "value array length mismatch");
        CooMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            vals,
        }
    }

    /// The transpose (swaps row/col arrays; O(nnz) copy).
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            vals: self.vals.clone(),
        }
    }

    /// Iterate `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Set all stored values to `v` (keeping the pattern). SDDMM
    /// benchmarks use an all-ones sampling matrix.
    pub fn fill_values(&mut self, v: f64) {
        self.vals.fill(v);
    }

    /// Extract the sub-matrix with rows in `rows` and columns in `cols`,
    /// re-indexed to local (0-based) coordinates.
    pub fn extract_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> CooMatrix {
        let mut out = CooMatrix::empty(rows.len(), cols.len());
        for (i, j, v) in self.iter() {
            if rows.contains(&i) && cols.contains(&j) {
                out.push(i - rows.start, j - cols.start, v);
            }
        }
        out
    }

    /// Sum duplicate entries (same row and column), returning a matrix
    /// with unique coordinates in row-major order.
    pub fn sum_duplicates(&self) -> CooMatrix {
        let mut idx: Vec<usize> = (0..self.nnz()).collect();
        idx.sort_unstable_by_key(|&k| (self.rows[k], self.cols[k]));
        let mut out = CooMatrix::empty(self.nrows, self.ncols);
        for &k in &idx {
            let (r, c, v) = (self.rows[k], self.cols[k], self.vals[k]);
            if let (Some(&lr), Some(&lc)) = (out.rows.last(), out.cols.last()) {
                if lr == r && lc == c {
                    *out.vals.last_mut().unwrap() += v;
                    continue;
                }
            }
            out.rows.push(r);
            out.cols.push(c);
            out.vals.push(v);
        }
        out
    }

    /// Densify into a row-major `nrows × ncols` buffer (tests only; sums
    /// duplicates).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for (i, j, v) in self.iter() {
            d[i * self.ncols + j] += v;
        }
        d
    }
}

/// Three words per nonzero in flight, as in the paper's analysis of
/// sparse-shifting algorithms.
impl Payload for CooMatrix {
    fn words(&self) -> usize {
        3 * self.nnz()
    }
}

/// Sparse-aware wire encoding: one `nnz` header instead of three
/// per-array length prefixes, and row/column indices in the narrowest
/// width the block's dimensions admit (`u16` for blocks under 2¹⁶ a
/// side — the common case for per-rank blocks — else `u32`). The
/// sparse-shifting algorithms route whole COO blocks through this under
/// the wire backend, so the compression lands directly on the hot
/// `wire_bytes_sent` path. The modeled word count ([`Payload::words`])
/// stays the paper's 3 words per nonzero regardless of the encoded
/// width.
impl WirePayload for CooMatrix {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.nrows as u64).encode(buf);
        (self.ncols as u64).encode(buf);
        (self.nnz() as u64).encode(buf);
        let wide = self.nrows.max(self.ncols) > u16::MAX as usize + 1;
        buf.push(u8::from(wide));
        for idx in [&self.rows, &self.cols] {
            if wide {
                encode_scalars(buf, idx, |i| i);
            } else {
                encode_scalars(buf, idx, |i| i as u16);
            }
        }
        encode_scalars(buf, &self.vals, |v| v);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        let nrows = r.read_len();
        let ncols = r.read_len();
        let nnz = r.read_len();
        let wide = r.u8() != 0;
        let idx = |r: &mut WireReader<'_>| -> Vec<u32> {
            if wide {
                r.scalars::<u32>(nnz).collect()
            } else {
                r.scalars::<u16>(nnz).map(u32::from).collect()
            }
        };
        let rows = idx(r);
        let cols = idx(r);
        let vals: Vec<f64> = r.scalars(nnz).collect();
        CooMatrix::from_triplets(nrows, ncols, rows, cols, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::Payload;

    fn sample() -> CooMatrix {
        let mut m = CooMatrix::empty(3, 4);
        m.push(0, 1, 1.0);
        m.push(2, 3, 2.0);
        m.push(1, 0, 3.0);
        m
    }

    #[test]
    fn push_and_iter() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets[0], (0, 1, 1.0));
        assert_eq!(triplets[2], (1, 0, 3.0));
    }

    #[test]
    fn payload_is_three_words_per_nonzero() {
        assert_eq!(sample().words(), 9);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let t = sample().transpose();
        assert_eq!(t.nrows, 4);
        assert_eq!(t.ncols, 3);
        assert!(t.iter().any(|(i, j, v)| (i, j, v) == (1, 0, 1.0)));
        assert_eq!(t.transpose(), sample());
    }

    #[test]
    fn extract_block_reindexes() {
        let m = sample();
        let b = m.extract_block(1..3, 0..2);
        assert_eq!(b.nrows, 2);
        assert_eq!(b.ncols, 2);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.iter().next().unwrap(), (0, 0, 3.0));
    }

    #[test]
    fn sum_duplicates_merges() {
        let mut m = CooMatrix::empty(2, 2);
        m.push(0, 0, 1.0);
        m.push(1, 1, 2.0);
        m.push(0, 0, 4.0);
        let s = m.sum_duplicates();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), vec![5.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn to_dense_places_entries() {
        let d = sample().to_dense();
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2 * 4 + 3], 2.0);
        assert_eq!(d[4], 3.0);
        assert_eq!(d.iter().filter(|&&x| x != 0.0).count(), 3);
    }

    #[test]
    fn wire_roundtrip_preserves_triplets() {
        for m in [sample(), CooMatrix::empty(5, 7), {
            let mut one = CooMatrix::empty(1, 1);
            one.push(0, 0, -2.5);
            one
        }] {
            let bytes = m.to_wire();
            assert_eq!(CooMatrix::from_wire(&bytes), m);
        }
    }

    /// The layout the bulk encoder must reproduce, one element and one
    /// width test at a time: `nrows · ncols · nnz` as `u64`, a width
    /// flag, row then column indices (`u16`, or `u32` when either side
    /// exceeds 2¹⁶), value bits.
    fn reference_bytes(m: &CooMatrix) -> Vec<u8> {
        let mut buf = Vec::new();
        for n in [m.nrows, m.ncols, m.nnz()] {
            buf.extend_from_slice(&(n as u64).to_le_bytes());
        }
        let wide = m.nrows.max(m.ncols) > u16::MAX as usize + 1;
        buf.push(u8::from(wide));
        for idx in [&m.rows, &m.cols] {
            for &i in idx {
                if wide {
                    buf.extend_from_slice(&i.to_le_bytes());
                } else {
                    buf.extend_from_slice(&(i as u16).to_le_bytes());
                }
            }
        }
        for v in &m.vals {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        buf
    }

    /// Golden bytes in both index widths, at nonzero counts one under,
    /// on and over the encoder's staging block for each element size
    /// (2-, 4- and 8-byte), with NaN and −0.0 values.
    #[test]
    fn block_bytes_match_the_per_element_layout() {
        let block = dsk_comm::payload::ENCODE_BLOCK_BYTES;
        let mut counts = vec![0, 1];
        for size in [2, 4, 8] {
            counts.extend([block / size - 1, block / size, block / size + 1]);
        }
        for side in [300usize, (1 << 16) + 5] {
            for &nnz in &counts {
                let rows = (0..nnz).map(|k| ((k * 7919) % side) as u32).collect();
                let cols = (0..nnz)
                    .map(|k| (side - 1 - (k * 31) % side) as u32)
                    .collect();
                let vals = (0..nnz)
                    .map(|k| match k % 3 {
                        0 => f64::from_bits(0x7FF0_0000_0000_0000 | (k as u64 + 1)),
                        1 => -0.0,
                        _ => k as f64 * 0.5,
                    })
                    .collect();
                let m = CooMatrix::from_triplets(side, side, rows, cols, vals);
                let golden = reference_bytes(&m);
                assert_eq!(m.to_wire(), golden, "side {side}, nnz {nnz}");
                let back = CooMatrix::from_wire(&golden);
                assert_eq!(back.to_wire(), golden, "side {side}, nnz {nnz}");
            }
        }
    }

    /// A corrupt nonzero count fails as a decode underrun, before any
    /// array is allocated for it.
    #[test]
    #[should_panic(expected = "wire decode underrun")]
    fn absurd_nnz_underruns_before_allocating() {
        let mut bytes = Vec::new();
        for n in [4u64, 4, 1 << 60] {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
        bytes.extend_from_slice(&[0; 9]);
        let _ = CooMatrix::from_wire(&bytes);
    }

    #[test]
    fn fill_values_keeps_pattern() {
        let mut m = sample();
        m.fill_values(7.0);
        assert!(m.vals.iter().all(|&v| v == 7.0));
        assert_eq!(m.nnz(), 3);
    }
}
