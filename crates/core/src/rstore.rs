//! The stored SDDMM result `R`, written once for every kernel.
//!
//! Every [`DistKernel`](crate::kernel::DistKernel) keeps the output of
//! its last SDDMM on the sparsity pattern it already holds: a list of
//! local pattern blocks, each at a global `(row0, col0)` offset, whose
//! own values are the sampling values of `S`. What happens to `R`
//! afterwards — map, row-sum, row-scale, squared loss, export to and
//! import from global triplets — depends on that pattern and never on
//! how the family moved data to compute it, so it lives here and the
//! trait's R-value methods are provided over
//! [`DistKernel::r_store`](crate::kernel::DistKernel::r_store).
//!
//! Two shapes go beyond "blocks at offsets":
//!
//! * a **column map** (`RStore::with_col_map`) for the 1D baseline,
//!   whose block indexes a remapped `[local ‖ fetched]` column space;
//! * a **replicated share** (`RStore::replicated_share`) for 2.5D
//!   sparse replication, where all `c` fiber layers hold the same block
//!   and the same R values: layer 0 alone exports, and each layer scores
//!   only its `1/c` range of the nonzeros toward the loss, so unions and
//!   sums over ranks still count every nonzero exactly once.
//!
//! Blocks are visited in list order and nonzeros in storage order
//! everywhere; sums are accumulated in exactly that order.

use std::borrow::Cow;
use std::ops::Range;

use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::common::block_range;
use crate::layout::triplet_map;

/// What the store needs from a sparse block format.
trait Block {
    fn nrows(&self) -> usize;
    fn vals(&self) -> &[f64];
    /// Visit every nonzero in storage order as `(k, row, col)`.
    fn walk(&self, f: impl FnMut(usize, usize, usize));
}

impl Block for CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }
    fn vals(&self) -> &[f64] {
        CsrMatrix::vals(self)
    }
    fn walk(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (indptr, indices) = (self.indptr(), self.indices());
        for i in 0..CsrMatrix::nrows(self) {
            for k in indptr[i]..indptr[i + 1] {
                f(k, i, indices[k] as usize);
            }
        }
    }
}

impl Block for CooMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn vals(&self) -> &[f64] {
        &self.vals
    }
    fn walk(&self, mut f: impl FnMut(usize, usize, usize)) {
        for (k, (&i, &j)) in self.rows.iter().zip(&self.cols).enumerate() {
            f(k, i as usize, j as usize);
        }
    }
}

const NO_R: &str = "no R values: run sddmm() or sddmm_general() first";

enum Blocks {
    Csr(Vec<CsrMatrix>),
    Coo(Vec<CooMatrix>),
}

/// Run `$body` with `$b` bound to the block slice, once per format
/// (monomorphic: no per-nonzero dispatch).
macro_rules! each_format {
    ($blocks:expr, $b:ident => $body:expr) => {
        match $blocks {
            Blocks::Csr($b) => $body,
            Blocks::Coo($b) => $body,
        }
    };
}

/// A kernel's stored-R state: pattern blocks (values = the sampling
/// values of `S`), where they sit in the global matrix, and the R
/// values of the last SDDMM, aligned with each block's nonzero order.
pub struct RStore {
    blocks: Blocks,
    /// Global `(row0, col0)` of each block's local origin.
    offsets: Vec<(usize, usize)>,
    /// Global column of every block-local column, when the blocks index
    /// a remapped column space (replaces `col0 + j`).
    col_map: Option<Vec<u32>>,
    /// The nonzero range this rank scores toward the loss when the
    /// store is one of several replicas (`None`: everything).
    share: Option<Range<usize>>,
    /// Whether this replica contributes to [`RStore::export`].
    exports: bool,
    /// Global `(m, n)` of `S`.
    global: (usize, usize),
    vals: Option<Vec<Vec<f64>>>,
}

impl RStore {
    fn new(global: (usize, usize), blocks: Blocks, offsets: Vec<(usize, usize)>) -> Self {
        RStore {
            blocks,
            offsets,
            col_map: None,
            share: None,
            exports: true,
            global,
            vals: None,
        }
    }

    /// A store over CSR blocks of an `m × n` matrix, block `w` at
    /// global offset `offsets[w]`.
    pub(crate) fn csr(
        global: (usize, usize),
        blocks: Vec<CsrMatrix>,
        offsets: Vec<(usize, usize)>,
    ) -> Self {
        assert_eq!(blocks.len(), offsets.len(), "one offset per block");
        Self::new(global, Blocks::Csr(blocks), offsets)
    }

    /// A store over one COO block at global offset `offset`.
    pub(crate) fn coo(global: (usize, usize), block: CooMatrix, offset: (usize, usize)) -> Self {
        Self::new(global, Blocks::Coo(vec![block]), vec![offset])
    }

    /// Report block-local column `j` as global column `col_map[j]`.
    pub(crate) fn with_col_map(mut self, col_map: Vec<u32>) -> Self {
        self.col_map = Some(col_map);
        self
    }

    /// Mark the store as replica `layer` of `c`: the block's values are
    /// this layer's [`block_range`] share of the sampling values (at
    /// their own positions), that share alone is scored, and only layer
    /// 0 exports.
    pub(crate) fn replicated_share(mut self, layer: usize, c: usize) -> Self {
        let nnz = each_format!(&self.blocks, b => b[0].nnz());
        self.share = Some(block_range(nnz, c, layer));
        self.exports = layer == 0;
        self
    }

    /// The CSR blocks (panics on a COO store).
    pub(crate) fn csr_blocks(&self) -> &[CsrMatrix] {
        match &self.blocks {
            Blocks::Csr(b) => b,
            Blocks::Coo(_) => panic!("this R store holds COO blocks"),
        }
    }

    /// The single COO block (panics on a CSR store).
    pub(crate) fn coo_block(&self) -> &CooMatrix {
        match &self.blocks {
            Blocks::Coo(b) => &b[0],
            Blocks::Csr(_) => panic!("this R store holds CSR blocks"),
        }
    }

    /// The sampling values this rank scores: its replicated share, or
    /// all of block 0.
    pub(crate) fn scored_sampling(&self) -> &[f64] {
        let vals = each_format!(&self.blocks, b => b[0].vals());
        match &self.share {
            Some(range) => &vals[range.clone()],
            None => vals,
        }
    }

    /// Store the R values of an SDDMM, one array per block.
    pub(crate) fn set(&mut self, vals: Vec<Vec<f64>>) {
        debug_assert_eq!(vals.len(), self.offsets.len(), "one value array per block");
        self.vals = Some(vals);
    }

    /// The stored R values, one array per block.
    ///
    /// # Panics
    ///
    /// Panics when no SDDMM has run.
    pub(crate) fn vals(&self) -> &[Vec<f64>] {
        self.vals.as_deref().expect(NO_R)
    }

    /// The CSR blocks carrying the sampling values (borrowed) or, with
    /// `use_r`, the stored R values (materialized once, for a whole
    /// kernel call).
    pub(crate) fn csr_valued(&self, use_r: bool) -> Cow<'_, [CsrMatrix]> {
        let blocks = self.csr_blocks();
        if !use_r {
            return Cow::Borrowed(blocks);
        }
        let valued = blocks.iter().zip(self.vals());
        Cow::Owned(valued.map(|(b, v)| b.with_vals(v.clone())).collect())
    }

    /// The COO block to send around a ring, carrying the sampling
    /// values (borrowed) or, with `use_r`, the stored R values.
    pub(crate) fn traveler(&self, use_r: bool) -> Cow<'_, CooMatrix> {
        let block = self.coo_block();
        if use_r {
            Cow::Owned(block.with_vals(self.vals()[0].clone()))
        } else {
            Cow::Borrowed(block)
        }
    }

    /// Store `f(u[i] + v[j])` as the R value of every local nonzero at
    /// global `(i, j)`: an SDDMM whose combine is the sum of a row score
    /// and a column score (the GAT attention logits). Every replica
    /// writes the full set.
    pub(crate) fn set_pair_sums(&mut self, u: &[f64], v: &[f64], f: &dyn Fn(f64) -> f64) {
        assert_eq!(
            (u.len(), v.len()),
            self.global,
            "need one score per global row and per global column"
        );
        let vals = each_format!(&self.blocks, blocks => {
            let per_block = blocks.iter().zip(&self.offsets).map(|(blk, &(row0, col0))| {
                let mut out = vec![0.0; blk.nnz()];
                blk.walk(|k, i, j| out[k] = f(u[row0 + i] + v[self.global_col(col0, j)]));
                out
            });
            per_block.collect()
        });
        self.vals = Some(vals);
    }

    /// Map every stored R value in place.
    pub(crate) fn map(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        for v in self.vals.as_deref_mut().expect(NO_R).iter_mut().flatten() {
            *v = f(*v);
        }
    }

    /// Local row sums of R, indexed by block-local row (all blocks of a
    /// store span the same rows).
    pub(crate) fn row_sums(&self) -> Vec<f64> {
        let vals = self.vals();
        each_format!(&self.blocks, blocks => {
            let mut sums = vec![0.0; blocks[0].nrows()];
            for (blk, v) in blocks.iter().zip(vals) {
                blk.walk(|k, i, _| sums[i] += v[k]);
            }
            sums
        })
    }

    /// Scale R row `i` by `scale[i]` (indexed as [`RStore::row_sums`]).
    pub(crate) fn scale_rows(&mut self, scale: &[f64]) {
        let vals = self.vals.as_deref_mut().expect(NO_R);
        each_format!(&self.blocks, blocks => {
            assert_eq!(scale.len(), blocks[0].nrows(), "need one factor per stored R row");
            for (blk, v) in blocks.iter().zip(vals) {
                blk.walk(|k, i, _| v[k] *= scale[i]);
            }
        })
    }

    /// This rank's contribution to `‖S − R‖²`: over its scored share of
    /// a replicated store, over everything otherwise.
    pub(crate) fn sq_loss(&self) -> f64 {
        let vals = self.vals();
        let mut acc = 0.0;
        each_format!(&self.blocks, blocks => {
            for (blk, v) in blocks.iter().zip(vals) {
                let range = self.share.clone().unwrap_or(0..blk.nnz());
                for (s, d) in blk.vals()[range.clone()].iter().zip(&v[range]) {
                    acc += (s - d) * (s - d);
                }
            }
        });
        acc
    }

    fn global_col(&self, col0: usize, j: usize) -> usize {
        match &self.col_map {
            Some(map) => map[j] as usize,
            None => col0 + j,
        }
    }

    /// The stored R values as global-coordinate triplets (`None` before
    /// any SDDMM). A non-exporting replica contributes the empty set.
    pub(crate) fn export(&self) -> Option<CooMatrix> {
        let vals = self.vals.as_deref()?;
        let mut out = CooMatrix::empty(self.global.0, self.global.1);
        if self.exports {
            each_format!(&self.blocks, blocks => {
                for ((blk, v), &(row0, col0)) in blocks.iter().zip(vals).zip(&self.offsets) {
                    blk.walk(|k, i, j| out.push(row0 + i, self.global_col(col0, j), v[k]));
                }
            });
        }
        Some(out)
    }

    /// Install R values from global-coordinate triplets covering the
    /// local pattern; entries outside it are ignored. Every replica
    /// installs the full set.
    ///
    /// # Panics
    ///
    /// Panics when a local pattern nonzero has no value in `r`.
    pub(crate) fn import(&mut self, r: &CooMatrix) {
        let map = triplet_map(r);
        let vals = each_format!(&self.blocks, blocks => {
            let per_block = blocks.iter().zip(&self.offsets).map(|(blk, &(row0, col0))| {
                let mut v = vec![0.0; blk.nnz()];
                blk.walk(|k, i, j| {
                    let at = ((row0 + i) as u32, self.global_col(col0, j) as u32);
                    v[k] = *map.get(&at).expect("imported R misses a local pattern nonzero");
                });
                v
            });
            per_block.collect()
        });
        self.vals = Some(vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::empty(nrows, ncols);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Three blocks of one 3-row macro row of a 7 × 11 matrix, at ragged
    /// column offsets, the middle one empty.
    fn ragged_store() -> RStore {
        let blocks = vec![
            csr(3, 4, &[(0, 1, 1.0), (2, 0, 2.0), (2, 3, 3.0)]),
            csr(3, 2, &[]),
            csr(3, 5, &[(1, 4, 4.0), (1, 0, 5.0)]),
        ];
        RStore::csr((7, 11), blocks, vec![(4, 0), (4, 4), (4, 6)])
    }

    #[test]
    fn export_import_round_trips_a_multi_block_store() {
        let mut src = ragged_store();
        assert!(src.export().is_none(), "nothing to export before an SDDMM");
        src.set(vec![vec![10.0, 20.0, 30.0], vec![], vec![50.0, 40.0]]);
        let exported = src.export().unwrap();
        let triplets: Vec<_> = exported.iter().collect();
        // Block order, then CSR order; global coordinates.
        assert_eq!(
            triplets,
            vec![
                (4, 1, 10.0),
                (6, 0, 20.0),
                (6, 3, 30.0),
                (5, 6, 50.0),
                (5, 10, 40.0),
            ]
        );

        // A superset in any order imports back to the same values.
        let mut shuffled = CooMatrix::empty(7, 11);
        shuffled.push(0, 0, -1.0); // outside the local pattern: ignored
        for &(i, j, v) in triplets.iter().rev() {
            shuffled.push(i, j, v);
        }
        let mut dst = ragged_store();
        dst.import(&shuffled);
        assert_eq!(dst.vals(), src.vals());
        assert_eq!(dst.row_sums(), vec![10.0, 90.0, 50.0]);
        assert_eq!(dst.sq_loss(), src.sq_loss());
    }

    #[test]
    fn replicated_shares_export_once_and_split_the_loss() {
        let entries = [
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ];
        // Every squared residual is a small dyadic number, so the loss
        // sums below are exact whatever their grouping.
        let r_vals = vec![1.5, 2.5, 2.0, 6.0, 4.0];
        let c = 3;
        let whole = {
            let mut s = RStore::csr((8, 8), vec![csr(3, 3, &entries)], vec![(2, 5)]);
            s.set(vec![r_vals.clone()]);
            s
        };
        let mut exported = 0;
        let mut loss = 0.0;
        let mut sampling = Vec::new();
        for layer in 0..c {
            // Each layer's block carries only its own share of the
            // sampling values, as the 2.5D sparse-replicating staging
            // leaves it.
            let part = block_range(entries.len(), c, layer);
            let mut blk = csr(3, 3, &entries);
            for (k, v) in blk.vals_mut().iter_mut().enumerate() {
                if !part.contains(&k) {
                    *v = 0.0;
                }
            }
            let mut s = RStore::csr((8, 8), vec![blk], vec![(2, 5)]).replicated_share(layer, c);
            s.set(vec![r_vals.clone()]);
            sampling.extend_from_slice(s.scored_sampling());
            exported += s.export().unwrap().nnz();
            if layer == 0 {
                assert_eq!(
                    s.export().unwrap().iter().collect::<Vec<_>>(),
                    whole.export().unwrap().iter().collect::<Vec<_>>()
                );
            }
            loss += s.sq_loss();
        }
        assert_eq!(exported, entries.len(), "each nonzero exported once");
        assert_eq!(sampling, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(loss, whole.sq_loss(), "shares must add up to the loss");
    }

    #[test]
    fn col_map_replaces_the_column_offset() {
        // Local columns [0, 1, 2] are global columns [7, 2, 9].
        let blk = csr(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
        let mut s = RStore::csr((6, 10), vec![blk], vec![(4, 0)]).with_col_map(vec![7, 2, 9]);
        s.set(vec![vec![0.5, 0.25, 0.125]]);
        let exported = s.export().unwrap();
        assert_eq!(
            exported.iter().collect::<Vec<_>>(),
            vec![(4, 9, 0.5), (5, 7, 0.25), (5, 2, 0.125)]
        );
        s.scale_rows(&[2.0, 4.0]);
        assert_eq!(s.vals()[0], vec![1.0, 1.0, 0.5]);
        let mut back = RStore::csr(
            (6, 10),
            vec![csr(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (1, 1, 3.0)])],
            vec![(4, 0)],
        )
        .with_col_map(vec![7, 2, 9]);
        back.import(&exported);
        assert_eq!(back.vals()[0], vec![0.5, 0.25, 0.125]);
    }

    /// Row and column scores of an `m × n` matrix and a combine under
    /// which every R value and squared residual below is exact.
    fn scores(m: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let u = (0..m).map(|i| 0.5 * i as f64).collect();
        let v = (0..n).map(|j| 0.25 * j as f64).collect();
        (u, v)
    }

    fn logit(x: f64) -> f64 {
        3.0 * x - 1.0
    }

    /// The store exports exactly the nonzeros at `at` (global
    /// coordinates, export order), each valued `logit(u[i] + v[j])`.
    fn assert_pair_sums(s: &RStore, at: &[(usize, usize)]) {
        let (u, v) = scores(s.global.0, s.global.1);
        let expect: Vec<_> = at
            .iter()
            .map(|&(i, j)| (i, j, logit(u[i] + v[j])))
            .collect();
        assert_eq!(s.export().unwrap().iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn pair_sums_fill_every_store_shape_at_global_coordinates() {
        // Ragged column offsets, the middle block empty.
        let mut ragged = ragged_store();
        let (u, v) = scores(7, 11);
        ragged.set_pair_sums(&u, &v, &logit);
        assert_pair_sums(&ragged, &[(4, 1), (6, 0), (6, 3), (5, 6), (5, 10)]);
        assert!(ragged.vals()[1].is_empty());

        // A column map: local columns [0, 1, 2] are global [7, 2, 9].
        let blk = csr(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
        let mut mapped = RStore::csr((6, 10), vec![blk], vec![(4, 0)]).with_col_map(vec![7, 2, 9]);
        let (u, v) = scores(6, 10);
        mapped.set_pair_sums(&u, &v, &logit);
        assert_pair_sums(&mapped, &[(4, 9), (5, 7), (5, 2)]);

        // Replicated shares: every layer holds the full set, layer 0
        // alone exports, and the scored shares add up to the loss.
        let entries = [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 2, 5.0)];
        let (u, v) = scores(8, 8);
        let mut whole = RStore::csr((8, 8), vec![csr(3, 3, &entries)], vec![(2, 5)]);
        whole.set_pair_sums(&u, &v, &logit);
        assert_pair_sums(&whole, &[(2, 5), (2, 7), (3, 6), (4, 7)]);
        let c = 3;
        let mut loss = 0.0;
        for layer in 0..c {
            let mut s = RStore::csr((8, 8), vec![csr(3, 3, &entries)], vec![(2, 5)])
                .replicated_share(layer, c);
            s.set_pair_sums(&u, &v, &logit);
            assert_eq!(s.vals(), whole.vals(), "layer {layer} holds every value");
            if layer == 0 {
                assert_pair_sums(&s, &[(2, 5), (2, 7), (3, 6), (4, 7)]);
            } else {
                assert_eq!(s.export().unwrap().nnz(), 0);
            }
            loss += s.sq_loss();
        }
        assert_eq!(loss, whole.sq_loss(), "shares must add up to the loss");
    }

    #[test]
    #[should_panic(expected = "imported R misses a local pattern nonzero")]
    fn import_missing_a_local_nonzero_panics() {
        let mut s = ragged_store();
        let mut partial = CooMatrix::empty(7, 11);
        partial.push(4, 1, 10.0);
        partial.push(6, 0, 20.0);
        s.import(&partial);
    }
}
