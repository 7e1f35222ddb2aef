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
//!
//! Every R-patterned SpMM reads its values from one source, a
//! `Source`: the blocks' own sampling values, the stored R values,
//! the call's own values (a FusedMM's sampled dots), ones, or GAT
//! attention made per nonzero from the per-node factors of a
//! [`PairExp`] (the public [`RValues`] names the two that
//! `spmm_a_from` takes). `RStore::csr_values` lends CSR blocks and
//! their values, side by side, to the value-slice local kernels, and
//! makes attention inside the local row loop; `RStore::traveler_of`
//! lends a COO block that travels a ring with its sampling values and
//! copies it with the stored R or attention, because a traveling block
//! is the message. The store places each block's factors at its global
//! coordinates, and no source writes the stored values.

use std::borrow::Cow;
use std::ops::Range;

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::common::{block_range, Sampling};
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

/// How a [`PairExp`] combines a row's and a column's factors.
#[derive(Clone, Copy, Debug)]
enum Form {
    /// `max(P_i·Q_j, P'_i·Q'_j)`: LeakyReLU for a slope ≤ 1.
    Max,
    /// `min(P_i·Q_j, P'_i·Q'_j)`: LeakyReLU for a slope above 1.
    Min,
    /// `exp(LeakyReLU(u_i + v_j))` with this slope, one `exp` per
    /// nonzero: some score is out of the factors' range.
    PerEdge(f64),
}

impl Form {
    /// The value at a nonzero from its row's and its column's pair.
    #[inline]
    fn value(self, a: [f64; 2], b: [f64; 2]) -> f64 {
        match self {
            Form::Max => (a[0] * b[0]).max(a[1] * b[1]),
            Form::Min => (a[0] * b[0]).min(a[1] * b[1]),
            Form::PerEdge(slope) => {
                let x = a[0] + b[0];
                (if x < 0.0 { slope * x } else { x }).exp()
            }
        }
    }
}

/// GAT attention `E_ij = exp(LeakyReLU(u_i + v_j))` from a score per
/// global row (`u_i = a_srcᵀh_i`) and per global column
/// (`v_j = a_dstᵀh_j`), for an R-valued SpMM to make per nonzero
/// ([`RValues::PairExp`]). Nothing is stored per nonzero.
///
/// `exp` is monotone, and `LeakyReLU(x)` is `max(x, a·x)` for a slope
/// `a ≤ 1` (`min` above 1). So `E_ij = max(P_i·Q_j, P'_i·Q'_j)` with
/// the per-node factors `P = exp(u)`, `P' = exp(a·u)`, `Q = exp(v)` and
/// `Q' = exp(a·v)`: `2(m + n)` `exp`s instead of one per nonzero. A
/// factor, or a product of two, can overflow where the per-edge value
/// does not (`u_i = 720`, `v_j = −715`: `exp(u_i)` is infinite, `e⁵`
/// is not), so when any scaled score leaves half the exponent range
/// (or is not finite) the pairs keep the scores and make one `exp` per
/// nonzero instead.
#[derive(Clone, Debug)]
pub struct PairExp {
    /// Per global row: `[P_i, P'_i]`, or `[u_i, 0]` per edge.
    rows: Vec<[f64; 2]>,
    /// Per global column: `[Q_j, Q'_j]`, or `[v_j, 0]` per edge.
    cols: Vec<[f64; 2]>,
    form: Form,
}

impl PairExp {
    /// The pairs of `exp(LeakyReLU(u_i + v_j))` with negative slope
    /// `slope`.
    ///
    /// # Panics
    ///
    /// Panics when `slope` is not finite.
    pub fn leaky_relu(u: &[f64], v: &[f64], slope: f64) -> Self {
        assert!(slope.is_finite(), "LeakyReLU slope {slope} is not finite");
        // Both factors of a product stay below half of ln(f64::MAX),
        // less one for rounding, so every product is finite.
        let bound = 0.5 * (f64::MAX.ln() - 1.0);
        let scale = slope.abs().max(1.0);
        let in_range = |x: &f64| x.abs() * scale < bound;
        if !(u.iter().all(in_range) && v.iter().all(in_range)) {
            let scores = |x: &[f64]| x.iter().map(|&x| [x, 0.0]).collect();
            return PairExp {
                rows: scores(u),
                cols: scores(v),
                form: Form::PerEdge(slope),
            };
        }
        let factors = |x: &[f64]| x.iter().map(|&x| [x.exp(), (slope * x).exp()]).collect();
        PairExp {
            rows: factors(u),
            cols: factors(v),
            form: if slope <= 1.0 { Form::Max } else { Form::Min },
        }
    }
}

/// Where an R-valued SpMM reads its values.
#[derive(Clone, Copy, Debug)]
pub enum RValues<'a> {
    /// The R values of the last SDDMM.
    Stored,
    /// GAT attention made per nonzero from per-node factors inside the
    /// local kernel, never stored.
    PairExp(&'a PairExp),
}

/// Where an R-patterned SpMM over a store's blocks reads its values:
/// the one way every family's SpMM, and the fused loop's sampling, gets
/// them. Nothing is copied to carry them beside the pattern.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source<'a> {
    /// Each block's own values: the sampling values of `S`.
    Sampling,
    /// The R values of the last SDDMM.
    Stored,
    /// This call's values, one array per block in its nonzero order
    /// (a FusedMM's sampled dots).
    Given(&'a [Vec<f64>]),
    /// Every value 1.0 ([`Sampling::Ones`]): the multiply is skipped.
    Ones,
    /// GAT attention made per nonzero from per-node factors.
    PairExp(&'a PairExp),
}

impl Source<'_> {
    /// The stored R values with `use_r`, the sampling values without
    /// (the two values of `spmm_b`).
    pub(crate) fn stored_if(use_r: bool) -> Self {
        if use_r {
            Source::Stored
        } else {
            Source::Sampling
        }
    }
}

impl<'a> From<RValues<'a>> for Source<'a> {
    fn from(vals: RValues<'a>) -> Self {
        match vals {
            RValues::Stored => Source::Stored,
            RValues::PairExp(e) => Source::PairExp(e),
        }
    }
}

impl From<Sampling> for Source<'_> {
    fn from(sampling: Sampling) -> Self {
        match sampling {
            Sampling::Values => Source::Sampling,
            Sampling::Ones => Source::Ones,
        }
    }
}

/// One block's view of a [`PairExp`], indexed by block-local row and
/// column.
struct BlockPairs<'a> {
    rows: &'a [[f64; 2]],
    cols: Cow<'a, [[f64; 2]]>,
    form: Form,
}

impl BlockPairs<'_> {
    /// Write local row `i`'s values at `cols` into `vals`; returns
    /// their sum, accumulated in column order.
    #[inline]
    fn fill(&self, i: usize, cols: &[u32], vals: &mut [f64]) -> f64 {
        /// One monomorphic loop per form.
        #[inline(always)]
        fn each(
            cols: &[u32],
            vals: &mut [f64],
            q: &[[f64; 2]],
            f: impl Fn([f64; 2]) -> f64,
        ) -> f64 {
            let mut sum = 0.0;
            for (v, &j) in vals.iter_mut().zip(cols) {
                *v = f(q[j as usize]);
                sum += *v;
            }
            sum
        }
        let (a, q) = (self.rows[i], &self.cols[..]);
        match self.form {
            Form::Max => each(cols, vals, q, |b| Form::Max.value(a, b)),
            Form::Min => each(cols, vals, q, |b| Form::Min.value(a, b)),
            form => each(cols, vals, q, |b| form.value(a, b)),
        }
    }
}

/// The values of one R-patterned SpMM over a store's CSR blocks, read
/// from a [`Source`]: borrowed where they are held, made per row for a
/// [`PairExp`], and not multiplied at all for ones.
pub(crate) struct CsrValues<'a> {
    blocks: &'a [CsrMatrix],
    vals: Vals<'a>,
}

/// How [`CsrValues`] holds its values.
enum Vals<'a> {
    /// One array per block, aligned with its nonzeros.
    Held(Vec<&'a [f64]>),
    /// Every value 1.0.
    Ones,
    /// Per block, its pairs.
    Made(Vec<BlockPairs<'a>>),
}

impl CsrValues<'_> {
    /// The blocks the SpMM walks.
    pub(crate) fn blocks(&self) -> &[CsrMatrix] {
        self.blocks
    }

    /// Zeroed row sums for made values, one per store row (indexed as
    /// [`RStore::row_sums`]); empty for any other source, which is not
    /// summed.
    pub(crate) fn sums(&self) -> Vec<f64> {
        match self.vals {
            Vals::Made(_) => vec![0.0; self.blocks[0].nrows()],
            _ => Vec::new(),
        }
    }

    /// `out += block_w · y`. Made values run
    /// [`dsk_kernels::spmm_csr_filled`] and add each row's sum into
    /// `sums` when given: a caller that walks a block more than once
    /// passes it on one walk only.
    ///
    /// # Panics
    ///
    /// Panics on ones: only the fused loop samples with them.
    pub(crate) fn spmm(&self, w: usize, out: &mut Mat, y: &Mat, mut sums: Option<&mut [f64]>) {
        let blk = &self.blocks[w];
        match &self.vals {
            Vals::Held(vals) => dsk_kernels::spmm_csr_vals_acc(out, blk, vals[w], y),
            Vals::Ones => panic!("only the fused loop samples with ones"),
            Vals::Made(pairs) => {
                let pairs = &pairs[w];
                dsk_kernels::spmm_csr_filled(out, blk, y, |i, cols, vals| {
                    let sum = pairs.fill(i, cols, vals);
                    if let Some(sums) = sums.as_deref_mut() {
                        sums[i] += sum;
                    }
                })
            }
        }
    }

    /// `out += block_wᵀ · x`.
    ///
    /// # Panics
    ///
    /// Panics on ones or made values: no data flow scatters them.
    pub(crate) fn spmm_t(&self, w: usize, out: &mut Mat, x: &Mat) {
        let Vals::Held(vals) = &self.vals else {
            panic!("a transposed SpMM reads held values only");
        };
        dsk_kernels::spmm_csr_t_vals_acc(out, &self.blocks[w], vals[w], x)
    }

    /// `out += SDDMM(x, y, block_w) · y` sampled with these values,
    /// the fused local kernel; ones skip the sampling multiply.
    ///
    /// # Panics
    ///
    /// Panics on made values: nothing samples with attention.
    pub(crate) fn fused(&self, w: usize, out: &mut Mat, x: &Mat, y: &Mat) {
        let blk = &self.blocks[w];
        match &self.vals {
            Vals::Held(vals) => dsk_kernels::fused_a_csr_vals(out, blk, vals[w], x, y),
            Vals::Ones => dsk_kernels::fused_a_csr_ones(out, blk, x, y),
            Vals::Made(_) => panic!("the fused kernel samples with held values or ones"),
        }
    }
}

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

    /// Mark the store as replica `layer` of `c`: the block keeps only
    /// this layer's [`block_range`] share of the sampling values (at
    /// their own positions, zero elsewhere), that share alone is scored,
    /// and only layer 0 exports.
    pub(crate) fn replicated_share(mut self, layer: usize, c: usize) -> Self {
        let vals = match &mut self.blocks {
            Blocks::Csr(b) => b[0].vals_mut(),
            Blocks::Coo(b) => &mut b[0].vals[..],
        };
        let share = block_range(vals.len(), c, layer);
        vals[..share.start].fill(0.0);
        vals[share.end..].fill(0.0);
        self.share = Some(share);
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

    /// Sample raw SDDMM dots, one array per block, as `sampling` says:
    /// by the blocks' sampling values, or not at all.
    pub(crate) fn sample(&self, dots: &mut [Vec<f64>], sampling: Sampling) {
        each_format!(&self.blocks, blocks => {
            for (d, blk) in dots.iter_mut().zip(blocks) {
                sampling.apply(d, blk.vals());
            }
        })
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

    /// The values `src` gives this store's CSR blocks, for one SpMM.
    pub(crate) fn csr_values<'a>(&'a self, src: Source<'a>) -> CsrValues<'a> {
        let blocks = self.csr_blocks();
        let held = |arrays: &'a [Vec<f64>]| Vals::Held(arrays.iter().map(Vec::as_slice).collect());
        let vals = match src {
            Source::Sampling => Vals::Held(blocks.iter().map(CsrMatrix::vals).collect()),
            Source::Stored => held(self.vals()),
            Source::Given(arrays) => held(arrays),
            Source::Ones => Vals::Ones,
            Source::PairExp(e) => {
                let pairs = blocks.iter().enumerate();
                let pairs = pairs.map(|(w, b)| self.block_pairs(e, w, b.nrows(), b.ncols()));
                Vals::Made(pairs.collect())
            }
        };
        CsrValues { blocks, vals }
    }

    /// The COO block to send around a ring carrying `src`'s values —
    /// the block itself, lent, for the sampling values; a copy, which
    /// is the message, for the stored R or a [`PairExp`] — and for a
    /// [`PairExp`] their local row sums, summed in the fill (indexed as
    /// [`RStore::row_sums`]; empty otherwise). Nothing is stored.
    ///
    /// # Panics
    ///
    /// Panics on given values or ones: a FusedMM samples the block
    /// that traveled its SDDMM in place.
    pub(crate) fn traveler_of(&self, src: Source<'_>) -> (Cow<'_, CooMatrix>, Vec<f64>) {
        let block = self.coo_block();
        let mut sums = Vec::new();
        let vals = match src {
            Source::Sampling => return (Cow::Borrowed(block), sums),
            Source::Stored => self.vals()[0].clone(),
            Source::Given(_) | Source::Ones => panic!("a traveling block carries no given values"),
            Source::PairExp(e) => {
                let pairs = self.block_pairs(e, 0, block.nrows, block.ncols);
                sums = vec![0.0; block.nrows];
                let mut vals = vec![0.0; block.nnz()];
                block.walk(|k, i, j| {
                    vals[k] = pairs.form.value(pairs.rows[i], pairs.cols[j]);
                    sums[i] += vals[k];
                });
                vals
            }
        };
        (Cow::Owned(block.with_vals(vals)), sums)
    }

    /// Block `w`'s view of `e`: its rows' pairs, and its columns' at
    /// their global columns.
    fn block_pairs<'a>(
        &self,
        e: &'a PairExp,
        w: usize,
        nrows: usize,
        ncols: usize,
    ) -> BlockPairs<'a> {
        assert_eq!(
            (e.rows.len(), e.cols.len()),
            self.global,
            "need one score per global row and per global column"
        );
        let (row0, col0) = self.offsets[w];
        let cols = match &self.col_map {
            Some(map) => Cow::Owned(map.iter().map(|&g| e.cols[g as usize]).collect()),
            None => Cow::Borrowed(&e.cols[col0..col0 + ncols]),
        };
        BlockPairs {
            rows: &e.rows[row0..row0 + nrows],
            cols,
            form: e.form,
        }
    }

    /// Map every stored R value in place.
    pub(crate) fn map(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        for v in self.vals.as_deref_mut().expect(NO_R).iter_mut().flatten() {
            *v = f(*v);
        }
    }

    /// The global rows the store spans: every block covers the same
    /// rows, and row sums are indexed from their start.
    pub fn rows(&self) -> Range<usize> {
        let nrows = each_format!(&self.blocks, b => b[0].nrows());
        let row0 = self.offsets[0].0;
        row0..row0 + nrows
    }

    /// Local row sums of R, indexed by block-local row (all blocks of a
    /// store span the same rows, [`RStore::rows`]).
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

    /// Row and column scores of an `m × n` matrix, of both signs.
    fn scores(m: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let u = (0..m).map(|i| 0.5 * i as f64 - 1.5).collect();
        let v = (0..n).map(|j| 0.25 * j as f64 - 1.0).collect();
        (u, v)
    }

    impl PairExp {
        /// The value at global `(i, j)`.
        fn value(&self, i: usize, j: usize) -> f64 {
            self.form.value(self.rows[i], self.cols[j])
        }

        /// Whether the values are made from per-node factors.
        fn factored(&self) -> bool {
            !matches!(self.form, Form::PerEdge(_))
        }
    }

    /// `exp(LeakyReLU(u + v))`, one `exp` per edge.
    fn per_edge(u: f64, v: f64, slope: f64) -> f64 {
        let x = u + v;
        (if x < 0.0 { slope * x } else { x }).exp()
    }

    /// Every value `s`'s CSR blocks multiply with values from `src`, as
    /// global triplets in block then storage order, and the row sums the
    /// SpMM took in the same walk. Multiplying by the identity returns
    /// each block's values exactly.
    fn made_csr(s: &RStore, src: Source<'_>) -> (Vec<(usize, usize, f64)>, Vec<f64>) {
        let vals = s.csr_values(src);
        let mut sums = vals.sums();
        let mut triplets = Vec::new();
        for (w, blk) in vals.blocks().iter().enumerate() {
            let eye = Mat::from_fn(blk.ncols(), blk.ncols(), |i, j| f64::from(u8::from(i == j)));
            let mut out = Mat::zeros(blk.nrows(), blk.ncols());
            vals.spmm(w, &mut out, &eye, Some(&mut sums));
            let (row0, col0) = s.offsets[w];
            for i in 0..blk.nrows() {
                for &j in blk.row(i).0 {
                    let j = j as usize;
                    triplets.push((row0 + i, s.global_col(col0, j), out.row(i)[j]));
                }
            }
        }
        (triplets, sums)
    }

    /// `made` holds exactly the nonzeros at `at` (global coordinates),
    /// each valued `e.value(i, j)` bit for bit and within rounding of
    /// the per-edge value; `sums` are its row sums (relative to `rows`)
    /// taken in its order, one partial sum per block row.
    fn assert_made(
        made: &(Vec<(usize, usize, f64)>, Vec<f64>),
        e: &PairExp,
        (u, v, slope): (&[f64], &[f64], f64),
        at: &[(usize, usize)],
        rows: Range<usize>,
    ) {
        let (triplets, sums) = made;
        let coords: Vec<_> = triplets.iter().map(|&(i, j, _)| (i, j)).collect();
        assert_eq!(coords, at);
        let mut expect = vec![0.0; rows.len()];
        for &(i, j, x) in triplets {
            assert_eq!(x.to_bits(), e.value(i, j).to_bits(), "({i}, {j})");
            let edge = per_edge(u[i], v[j], slope);
            assert!(
                (x - edge).abs() <= 1e-14 * edge,
                "({i}, {j}): {x} vs {edge}"
            );
            expect[i - rows.start] += x;
        }
        // The walk order is the triplet order, and a row's values sit
        // in one block per row here, so the sums are bitwise these.
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sums), bits(&expect));
    }

    /// The sampling values, the stored R and given arrays reach the
    /// SpMM exactly, each at its nonzero's global coordinates, in every
    /// store shape; none of them is summed.
    #[test]
    fn held_sources_multiply_each_blocks_own_values() {
        let entries = [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 2, 5.0)];
        let blk = csr(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
        let mapped = RStore::csr((6, 10), vec![blk], vec![(4, 0)]).with_col_map(vec![7, 2, 9]);
        let shares = (0..3).map(|layer| {
            RStore::csr((8, 8), vec![csr(3, 3, &entries)], vec![(2, 5)]).replicated_share(layer, 3)
        });
        for mut s in [ragged_store(), mapped].into_iter().chain(shares) {
            let arrays = |f: fn(usize) -> f64| -> Vec<Vec<f64>> {
                let per_block = s.csr_blocks().iter().map(|b| (0..b.nnz()).map(f).collect());
                per_block.collect()
            };
            let sampling = s.csr_blocks().iter().map(|b| b.vals().to_vec()).collect();
            let stored = arrays(|k| 0.5 + k as f64);
            let given = arrays(|k| -1.25 * (k + 1) as f64);
            s.set(stored.clone());
            for (src, want) in [
                (Source::Sampling, sampling),
                (Source::Stored, stored),
                (Source::Given(&given), given.clone()),
            ] {
                let mut at = Vec::new();
                for (w, b) in s.csr_blocks().iter().enumerate() {
                    let (row0, col0) = s.offsets[w];
                    let triplet = |k, i, j| (row0 + i, s.global_col(col0, j), want[w][k]);
                    b.walk(|k, i, j| at.push(triplet(k, i, j)));
                }
                let (got, sums) = made_csr(&s, src);
                let bits = |t: &[(usize, usize, f64)]| {
                    t.iter()
                        .map(|&(i, j, x)| (i, j, x.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&at), "{src:?}");
                assert!(sums.is_empty(), "{src:?}: held values are not summed");
            }
        }
    }

    #[test]
    fn pair_exp_values_land_at_global_coordinates_in_every_store_shape() {
        for slope in [0.2, 0.0, 1.0, -0.5, 1.5] {
            // Ragged column offsets, the middle block empty.
            let ragged = ragged_store();
            let (u, v) = scores(7, 11);
            let e = PairExp::leaky_relu(&u, &v, slope);
            assert!(e.factored());
            let at = [(4, 1), (6, 0), (6, 3), (5, 6), (5, 10)];
            assert_made(
                &made_csr(&ragged, Source::PairExp(&e)),
                &e,
                (&u, &v, slope),
                &at,
                4..7,
            );

            // A column map: local columns [0, 1, 2] are global [7, 2, 9].
            let blk = csr(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
            let mapped = RStore::csr((6, 10), vec![blk], vec![(4, 0)]).with_col_map(vec![7, 2, 9]);
            let (u, v) = scores(6, 10);
            let e = PairExp::leaky_relu(&u, &v, slope);
            let at = [(4, 9), (5, 7), (5, 2)];
            assert_made(
                &made_csr(&mapped, Source::PairExp(&e)),
                &e,
                (&u, &v, slope),
                &at,
                4..6,
            );

            // Replicated shares: every layer makes every value, and none
            // stores any.
            let entries = [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 2, 5.0)];
            let (u, v) = scores(8, 8);
            let e = PairExp::leaky_relu(&u, &v, slope);
            let at = [(2, 5), (2, 7), (3, 6), (4, 7)];
            for layer in 0..3 {
                let s = RStore::csr((8, 8), vec![csr(3, 3, &entries)], vec![(2, 5)])
                    .replicated_share(layer, 3);
                assert_made(
                    &made_csr(&s, Source::PairExp(&e)),
                    &e,
                    (&u, &v, slope),
                    &at,
                    2..5,
                );
                assert!(s.export().is_none(), "layer {layer} stored made values");
            }

            // A traveling COO block is filled at its global offset.
            let coo = csr(3, 3, &entries).to_coo();
            let s = RStore::coo((8, 8), coo, (2, 5));
            let (blk, sums) = s.traveler_of(Source::PairExp(&e));
            let triplets: Vec<_> = blk.iter().map(|(i, j, x)| (2 + i, 5 + j, x)).collect();
            assert_made(&(triplets, sums), &e, (&u, &v, slope), &at, 2..5);
            assert!(s.export().is_none(), "the traveler's values were stored");
        }
    }

    #[test]
    fn scores_past_the_factor_range_fall_back_to_one_exp_per_edge() {
        // exp(720) overflows, so the product form reads inf where the
        // per-edge value exp(LeakyReLU(720 − 715)) is e⁵.
        assert_eq!(720f64.exp() * (-715f64).exp(), f64::INFINITY);
        let (mut u, mut v) = scores(8, 8);
        u[3] = 720.0;
        v[6] = -715.0;
        let entries = [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)];
        let s = RStore::csr((8, 8), vec![csr(3, 3, &entries)], vec![(2, 4)]);
        let e = PairExp::leaky_relu(&u, &v, 0.2);
        assert!(!e.factored(), "a factor of these scores overflows");
        let made = made_csr(&s, Source::PairExp(&e));
        let at = [(2, 4), (2, 5), (3, 6), (4, 6)];
        assert_made(&made, &e, (&u, &v, 0.2), &at, 2..5);
        for &(i, j, x) in &made.0 {
            assert_eq!(x.to_bits(), per_edge(u[i], v[j], 0.2).to_bits());
        }
        assert_eq!(made.0[2].2, 5f64.exp());

        // A slope past 1 scales the scores out of range too.
        let (u, v) = (vec![250.0; 8], scores(8, 8).1);
        assert!(PairExp::leaky_relu(&u, &v, 0.2).factored());
        assert!(!PairExp::leaky_relu(&u, &v, 1.5).factored());
        // A score that is not finite keeps every factor out of it.
        let mut v = v;
        v[0] = f64::NAN;
        assert!(!PairExp::leaky_relu(&scores(8, 8).0, &v, 0.2).factored());
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn a_slope_that_is_not_finite_is_rejected() {
        let (u, v) = scores(4, 4);
        PairExp::leaky_relu(&u, &v, f64::INFINITY);
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
