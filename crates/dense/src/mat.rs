//! The row-major dense matrix type.

use dsk_rng::Rng;

/// A dense `nrows × ncols` matrix of `f64`, stored row-major.
///
/// Rows are the unit of distribution in every algorithm in this
/// workspace (embedding matrices are tall and skinny), so row access is
/// contiguous and free of bounds arithmetic surprises.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Build from a row-major buffer. `data.len()` must equal
    /// `nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} does not match {nrows}x{ncols}",
            data.len()
        );
        Mat { nrows, ncols, data }
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Mat { nrows, ncols, data }
    }

    /// Deterministic pseudo-random matrix with entries uniform in
    /// `[-1, 1]`, fully determined by `seed`. Used so that each rank of a
    /// distributed run can generate its own block of a global matrix
    /// without communication.
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let data = (0..nrows * ncols)
            .map(|_| rng.gen_range_f64(-1.0, 1.0))
            .collect();
        Mat { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `nrows * ncols`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.nrows, "row {i} out of {}", self.nrows);
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.nrows, "row {i} out of {}", self.nrows);
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Set every entry to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy of the row range `rows` as a new matrix.
    pub fn rows_block(&self, rows: std::ops::Range<usize>) -> Mat {
        assert!(rows.end <= self.nrows, "row range out of bounds");
        Mat {
            nrows: rows.len(),
            ncols: self.ncols,
            data: self.data[rows.start * self.ncols..rows.end * self.ncols].to_vec(),
        }
    }

    /// Copy of the column range `cols` as a new matrix.
    pub fn cols_block(&self, cols: std::ops::Range<usize>) -> Mat {
        assert!(cols.end <= self.ncols, "column range out of bounds");
        let mut out = Mat::zeros(self.nrows, cols.len());
        for i in 0..self.nrows {
            out.row_mut(i)
                .copy_from_slice(&self.row(i)[cols.start..cols.end]);
        }
        out
    }

    /// Copy of the intersection of a row range and a column range.
    pub fn block(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Mat {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols);
        let mut out = Mat::zeros(rows.len(), cols.len());
        for (oi, i) in rows.enumerate() {
            out.row_mut(oi)
                .copy_from_slice(&self.row(i)[cols.start..cols.end]);
        }
        out
    }

    /// Overwrite the sub-block with top-left corner `(row0, col0)`.
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Mat) {
        assert!(row0 + block.nrows <= self.nrows && col0 + block.ncols <= self.ncols);
        for i in 0..block.nrows {
            let dst = &mut self.row_mut(row0 + i)[col0..col0 + block.ncols];
            dst.copy_from_slice(block.row(i));
        }
    }

    /// Stack matrices vertically (all must share a column count).
    pub fn vstack(blocks: &[Mat]) -> Mat {
        assert!(!blocks.is_empty(), "vstack of nothing");
        let ncols = blocks[0].ncols;
        let nrows = blocks.iter().map(|b| b.nrows).sum();
        let mut data = Vec::with_capacity(nrows * ncols);
        for b in blocks {
            assert_eq!(b.ncols, ncols, "vstack column mismatch");
            data.extend_from_slice(&b.data);
        }
        Mat { nrows, ncols, data }
    }

    /// Concatenate matrices horizontally (all must share a row count).
    pub fn hstack(blocks: &[Mat]) -> Mat {
        assert!(!blocks.is_empty(), "hstack of nothing");
        let nrows = blocks[0].nrows;
        let ncols = blocks.iter().map(|b| b.ncols).sum();
        let mut out = Mat::zeros(nrows, ncols);
        let mut col0 = 0;
        for b in blocks {
            assert_eq!(b.nrows, nrows, "hstack row mismatch");
            out.set_block(0, col0, b);
            col0 += b.ncols;
        }
        out
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.data[j * self.nrows + i] = self.data[i * self.ncols + j];
            }
        }
        out
    }
}

/// A dense tile in flight costs one word per entry — identical to
/// shipping its raw buffer, so switching a shift from `Vec<f64>` to
/// `Mat` changes no modeled cost, only self-describes the shape.
impl dsk_comm::Payload for Mat {
    fn words(&self) -> usize {
        self.data.len()
    }
}

/// Wire encoding: shape header then the row-major buffer. This is the
/// dense-tile case of the wire backend's encode/decode surface.
impl dsk_comm::WirePayload for Mat {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.nrows as u64).encode(buf);
        (self.ncols as u64).encode(buf);
        self.data.encode(buf);
    }

    fn decode(r: &mut dsk_comm::WireReader<'_>) -> Self {
        let nrows = r.read_len();
        let ncols = r.read_len();
        let data = Vec::<f64>::decode(r);
        Mat::from_vec(nrows, ncols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{Payload, WirePayload};

    #[test]
    fn dense_tile_wire_roundtrip() {
        for m in [
            Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.5),
            Mat::zeros(0, 7),
            Mat::zeros(7, 0),
            Mat::from_vec(1, 1, vec![2.25]),
        ] {
            assert_eq!(m.words(), m.len());
            let bytes = m.to_wire();
            assert_eq!(Mat::from_wire(&bytes), m);
        }
    }

    /// Golden bytes: `nrows u64 · ncols u64 · count u64 · f64 bits`,
    /// written one element at a time here, must be what the bulk
    /// encoder emits — at entry counts one under, on and over its
    /// staging block, with bit patterns a lossy copy would change.
    #[test]
    fn tile_bytes_match_the_per_element_layout() {
        let block = dsk_comm::payload::ENCODE_BLOCK_BYTES / 8;
        let bits = [0u64, 1 << 63, 0x7FF8_0000_0000_0000, 0x7FF0_0000_DEAD_BEEF];
        for (nrows, ncols) in [
            (0, 3),
            (1, 1),
            (1, block - 1),
            (2, block / 2),
            (block + 1, 1),
            (3, block),
        ] {
            let m = Mat::from_fn(nrows, ncols, |i, j| {
                let k = i * ncols + j;
                f64::from_bits(bits[k % bits.len()] ^ (k / bits.len()) as u64)
            });
            let mut golden = Vec::new();
            for n in [nrows, ncols, nrows * ncols] {
                golden.extend_from_slice(&(n as u64).to_le_bytes());
            }
            for v in m.as_slice() {
                golden.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            assert_eq!(m.to_wire(), golden, "{nrows}x{ncols}");
            assert_eq!(Mat::from_wire(&golden).to_wire(), golden, "{nrows}x{ncols}");
        }
    }

    #[test]
    fn zeros_and_indexing() {
        let mut m = Mat::zeros(3, 2);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.row(2), &[0.0, 5.0]);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Mat::random(4, 4, 42);
        let b = Mat::random(4, 4, 42);
        let c = Mat::random(4, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn blocks_extract_and_set() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1..3, 2..4);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
        let rb = m.rows_block(2..4);
        assert_eq!(rb.row(0), m.row(2));
        let cb = m.cols_block(1..2);
        assert_eq!(cb.as_slice(), &[1.0, 5.0, 9.0, 13.0]);

        let mut z = Mat::zeros(4, 4);
        z.set_block(1, 2, &b);
        assert_eq!(z.get(1, 2), 6.0);
        assert_eq!(z.get(2, 3), 11.0);
    }

    #[test]
    fn stack_roundtrips_blocks() {
        let m = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let parts: Vec<Mat> = vec![m.rows_block(0..2), m.rows_block(2..4)];
        assert_eq!(Mat::vstack(&parts), m);
        let cparts: Vec<Mat> = vec![m.cols_block(0..1), m.cols_block(1..3)];
        assert_eq!(Mat::hstack(&cparts), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::random(5, 3, 7);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 4), m.get(4, 2));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![0.0; 3]);
    }
}
