//! Compressed sparse row storage — the format local kernels compute on.

use crate::coo::CooMatrix;
use dsk_comm::payload::encode_scalars;
use dsk_comm::{Payload, WirePayload, WireReader};

/// A sparse matrix in CSR form: `indptr[i]..indptr[i+1]` indexes the
/// column/value arrays for row `i`. Columns within a row are sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Convert from COO (duplicates are summed, columns sorted per row).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nnz = coo.nnz();
        let mut indptr = vec![0usize; coo.nrows + 1];
        for &r in &coo.rows {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..coo.nrows {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        let mut next = indptr.clone();
        for (i, j, v) in coo.iter() {
            let k = next[i];
            indices[k] = j as u32;
            vals[k] = v;
            next[i] += 1;
        }
        // Sort each row by column, then merge duplicates in place.
        let mut out = CsrMatrix {
            nrows: coo.nrows,
            ncols: coo.ncols,
            indptr,
            indices,
            vals,
        };
        out.sort_and_dedup_rows();
        out
    }

    fn sort_and_dedup_rows(&mut self) {
        let mut new_indptr = vec![0usize; self.nrows + 1];
        let mut w = 0usize; // write cursor
        for i in 0..self.nrows {
            let (start, end) = (self.indptr[i], self.indptr[i + 1]);
            // Sort this row's (col, val) pairs by column.
            let mut pairs: Vec<(u32, f64)> = (start..end)
                .map(|k| (self.indices[k], self.vals[k]))
                .collect();
            pairs.sort_unstable_by_key(|p| p.0);
            new_indptr[i] = w;
            for (c, v) in pairs {
                if w > new_indptr[i] && self.indices[w - 1] == c {
                    self.vals[w - 1] += v;
                } else {
                    self.indices[w] = c;
                    self.vals[w] = v;
                    w += 1;
                }
            }
        }
        new_indptr[self.nrows] = w;
        self.indices.truncate(w);
        self.vals.truncate(w);
        self.indptr = new_indptr;
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            vals: Vec::new(),
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row-major.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, aligned with [`CsrMatrix::indices`].
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable stored values (SDDMM writes its output here).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[s..e], &self.vals[s..e])
    }

    /// Convert back to COO (row-major, sorted, deduplicated order).
    pub fn to_coo(&self) -> CooMatrix {
        let mut out = CooMatrix::empty(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.push(i, c as usize, v);
            }
        }
        out
    }

    /// The transpose as a new CSR matrix (i.e. the CSC view of `self`,
    /// materialized). `SpMMB`-style kernels (`Sᵀ · X`) run a plain SpMM
    /// on this.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut indptr = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            indptr[j + 1] += indptr[j];
        }
        let mut indices = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        let mut next = indptr.clone();
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            for (&c, &v) in cols.iter().zip(rvals) {
                let k = next[c as usize];
                indices[k] = i as u32;
                vals[k] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            vals,
        }
    }

    /// Replace the stored values with `vals` (same length/pattern).
    pub fn set_vals(&mut self, vals: Vec<f64>) {
        assert_eq!(vals.len(), self.nnz(), "value array length mismatch");
        self.vals = vals;
    }

    /// A matrix with this pattern and the given values (the current
    /// values are not copied).
    pub fn with_vals(&self, vals: Vec<f64>) -> CsrMatrix {
        assert_eq!(vals.len(), self.nnz(), "value array length mismatch");
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            vals,
        }
    }
}

/// A CSR block in flight costs one word per stored value, one per
/// column index, and one per row pointer — cheaper than COO's three
/// words per nonzero once rows average more than one entry, which is
/// why index-compressed transports (SpComm3D-style) favor it.
impl Payload for CsrMatrix {
    fn words(&self) -> usize {
        2 * self.nnz() + self.indptr.len()
    }
}

/// Sparse-aware wire encoding (SpComm3D-style index compression): the
/// row-pointer array travels **delta-encoded** as per-row lengths in the
/// narrowest width that fits (`u16`, else `u32` — never the in-memory 8
/// bytes per pointer), and column indices travel as `u16` when the
/// column dimension allows. The modeled word count
/// ([`Payload::words`]) is unchanged — compression shrinks only the
/// measured `wire_bytes_sent`, which the bench gate tracks.
///
/// Layout: `nrows u64 · ncols u64 · nnz u64 · row-width flag u8 ·
/// row lengths · index-width flag u8 · indices · values (f64 bits)`.
impl WirePayload for CsrMatrix {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.nrows as u64).encode(buf);
        (self.ncols as u64).encode(buf);
        (self.nnz() as u64).encode(buf);
        // Each width is decided once per array, not once per element.
        let row_lens = || self.indptr.windows(2).map(|w| w[1] - w[0]);
        let wide_rows = row_lens().any(|len| len > u16::MAX as usize);
        buf.push(u8::from(wide_rows));
        if wide_rows {
            row_lens().for_each(|len| buf.extend_from_slice(&(len as u32).to_le_bytes()));
        } else {
            row_lens().for_each(|len| buf.extend_from_slice(&(len as u16).to_le_bytes()));
        }
        let wide_cols = self.ncols > u16::MAX as usize + 1;
        buf.push(u8::from(wide_cols));
        if wide_cols {
            encode_scalars(buf, &self.indices, |c| c);
        } else {
            encode_scalars(buf, &self.indices, |c| c as u16);
        }
        encode_scalars(buf, &self.vals, |v| v);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        let nrows = r.read_len();
        let ncols = r.read_len();
        let nnz = r.read_len();
        let wide_rows = r.u8() != 0;
        // `scalars` has bounds-checked the count by the time
        // `with_capacity` sees it.
        fn prefix_sums(lens: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
            let mut indptr = Vec::with_capacity(lens.len() + 1);
            indptr.push(0);
            let mut acc = 0;
            indptr.extend(lens.map(|len| {
                acc += len;
                acc
            }));
            indptr
        }
        let indptr = if wide_rows {
            prefix_sums(r.scalars::<u32>(nrows).map(|len| len as usize))
        } else {
            prefix_sums(r.scalars::<u16>(nrows).map(usize::from))
        };
        assert_eq!(
            indptr[nrows], nnz,
            "CSR wire block: row lengths disagree with nnz"
        );
        let wide_cols = r.u8() != 0;
        let indices: Vec<u32> = if wide_cols {
            r.scalars::<u32>(nnz).collect()
        } else {
            r.scalars::<u16>(nnz).map(u32::from).collect()
        };
        let vals: Vec<f64> = r.scalars(nnz).collect();
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        // [ 0 1 0 ]
        // [ 3 0 2 ]
        CooMatrix::from_triplets(2, 3, vec![1, 0, 1], vec![2, 1, 0], vec![2.0, 1.0, 3.0])
    }

    #[test]
    fn from_coo_sorts_rows() {
        let m = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(m.indptr(), &[0, 1, 3]);
        assert_eq!(m.row(1).0, &[0, 2]);
        assert_eq!(m.row(1).1, &[3.0, 2.0]);
    }

    #[test]
    fn coo_roundtrip_preserves_dense() {
        let coo = sample_coo();
        let rt = CsrMatrix::from_coo(&coo).to_coo();
        assert_eq!(rt.to_dense(), coo.to_dense());
    }

    #[test]
    fn wire_roundtrip_and_words() {
        for m in [
            CsrMatrix::from_coo(&sample_coo()),
            CsrMatrix::zeros(4, 9),
            CsrMatrix::from_coo(&CooMatrix::from_triplets(1, 1, vec![0], vec![0], vec![6.5])),
        ] {
            assert_eq!(m.words(), 2 * m.nnz() + m.nrows() + 1);
            let bytes = m.to_wire();
            assert_eq!(CsrMatrix::from_wire(&bytes), m);
        }
    }

    /// The layout the bulk encoder must reproduce, one element and one
    /// width test at a time: `nrows · ncols · nnz` as `u64`, row-width
    /// flag, per-row lengths (`u16`, or `u32` when any row exceeds
    /// 2¹⁶−1), index-width flag, column indices (`u16`, or `u32` past
    /// 2¹⁶ columns), value bits.
    fn reference_bytes(m: &CsrMatrix) -> Vec<u8> {
        let mut buf = Vec::new();
        for n in [m.nrows, m.ncols, m.nnz()] {
            buf.extend_from_slice(&(n as u64).to_le_bytes());
        }
        let wide_rows = (0..m.nrows).any(|i| m.indptr[i + 1] - m.indptr[i] > u16::MAX as usize);
        buf.push(u8::from(wide_rows));
        for i in 0..m.nrows {
            let len = m.indptr[i + 1] - m.indptr[i];
            if wide_rows {
                buf.extend_from_slice(&(len as u32).to_le_bytes());
            } else {
                buf.extend_from_slice(&(len as u16).to_le_bytes());
            }
        }
        let wide_cols = m.ncols > u16::MAX as usize + 1;
        buf.push(u8::from(wide_cols));
        for &c in &m.indices {
            if wide_cols {
                buf.extend_from_slice(&c.to_le_bytes());
            } else {
                buf.extend_from_slice(&(c as u16).to_le_bytes());
            }
        }
        for v in &m.vals {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        buf
    }

    /// `nnz` nonzeros with distinct positions, filled row by row
    /// `per_row` at a time, values cycling through NaN, −0.0 and plain.
    fn filled(nrows: usize, ncols: usize, per_row: usize, nnz: usize) -> CsrMatrix {
        assert!(per_row <= ncols && nnz <= nrows * per_row);
        let rows = (0..nnz).map(|k| (k / per_row) as u32).collect();
        let cols = (0..nnz).map(|k| (ncols - 1 - k % per_row) as u32).collect();
        let vals = (0..nnz)
            .map(|k| match k % 3 {
                0 => f64::from_bits(0x7FF0_0000_0000_0000 | (k as u64 + 1)),
                1 => -0.0,
                _ => k as f64 * 0.5,
            })
            .collect();
        CsrMatrix::from_coo(&CooMatrix::from_triplets(nrows, ncols, rows, cols, vals))
    }

    /// Golden bytes in all four width combinations, at nonzero counts
    /// one under, on and over the encoder's staging block for each
    /// element size (2-, 4- and 8-byte).
    #[test]
    fn block_bytes_match_the_per_element_layout() {
        let block = dsk_comm::payload::ENCODE_BLOCK_BYTES;
        let mut counts = vec![0, 1];
        for size in [2, 4, 8] {
            counts.extend([block / size - 1, block / size, block / size + 1]);
        }
        let narrow = 1 << 16; // widest block whose indices fit u16
        for (nrows, ncols, per_row) in [
            (64, narrow, 40),            // narrow rows, narrow cols
            (64, narrow + 1, 40),        // narrow rows, wide cols
            (2, narrow, narrow),         // wide rows (65536 in row 0), narrow cols
            (2, narrow + 9, narrow + 9), // wide rows, wide cols
        ] {
            let full_row = if per_row > u16::MAX as usize {
                vec![per_row + 3]
            } else {
                vec![]
            };
            for &nnz in counts.iter().chain(&full_row) {
                let m = filled(nrows, ncols, per_row, nnz);
                assert_eq!(m.nnz(), nnz);
                let golden = reference_bytes(&m);
                let what = format!("{nrows}x{ncols}, nnz {nnz}");
                assert_eq!(m.to_wire(), golden, "{what}");
                assert_eq!(CsrMatrix::from_wire(&golden).to_wire(), golden, "{what}");
            }
        }
    }

    /// Corrupt counts fail cleanly before any array is allocated for
    /// them: an absurd row count as a decode underrun, an absurd nonzero
    /// count against the row lengths that cannot add up to it.
    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        for (nrows, nnz, expect) in [
            (1u64 << 60, 0u64, "wire decode underrun"),
            (0, 1 << 60, "row lengths disagree with nnz"),
        ] {
            let mut bytes = Vec::new();
            for n in [nrows, 8, nnz] {
                bytes.extend_from_slice(&n.to_le_bytes());
            }
            bytes.extend_from_slice(&[0; 10]);
            let err = std::panic::catch_unwind(|| CsrMatrix::from_wire(&bytes))
                .expect_err("absurd counts cannot decode");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(expect), "expected {expect:?}, got {msg:?}");
        }
    }

    #[test]
    fn duplicates_are_summed() {
        let coo = CooMatrix::from_triplets(2, 2, vec![0, 0, 0], vec![1, 1, 0], vec![1.0, 4.0, 2.0]);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0).0, &[0, 1]);
        assert_eq!(m.row(0).1, &[2.0, 5.0]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let coo = sample_coo();
        let t = CsrMatrix::from_coo(&coo).transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        let td = t.to_coo().to_dense();
        let d = coo.to_dense();
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(td[j * 2 + i], d[i * 3 + j]);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.indptr().len(), 5);
        for i in 0..4 {
            assert!(z.row(i).0.is_empty());
        }
    }
}
