//! The 1.5D dense-shifting, dense-replicating algorithm (Algorithm 1 of
//! the paper) and its FusedMM variants.
//!
//! Grid: `(p/c) × c` ([`GridComms15`]). Per Table II:
//!
//! * `A` and `B` are split into `p` block rows; rank `g = (u, v)` owns
//!   block `g` of each.
//! * `S` is split into `p/c` macro block rows × `p` block columns; rank
//!   `(u, v)` owns, within macro row `u`, the column blocks
//!   `j ≡ v (mod c)` — these stay **stationary**.
//!
//! One dense matrix is **replicated**: all-gathered along the fiber into
//! a buffer `T` covering macro row `u` (or zero-initialized when it is
//! the output, then reduce-scattered at the end). The other dense matrix
//! **propagates**: its block rows cyclically shift around the layer ring
//! for `p/c` steps; at step `t` a rank holds the block homed at ring
//! position `(u - t) mod (p/c)` and pairs it with the matching stationary
//! `S` column block.
//!
//! FusedMM elision (paper §IV-B):
//! * **replication reuse** — the all-gathered `T` serves the SDDMM and
//!   the subsequent SpMM; the SpMM output circulates as a shifting
//!   accumulator, so no terminal reduce-scatter is needed;
//! * **local kernel fusion** — a single propagation round computes the
//!   fused local SDDMM+SpMM per step (only possible here, where entire
//!   rows of both dense matrices are co-located).
//!
//! A fused round with an iterate (`fused_mm_a(Some(x), ..)`, the matvec
//! of a CG solve) shifts the *stored* operand, which cannot change until
//! `set_a`/`set_b`: it keeps the ring tiles it receives, and later
//! iterate rounds replay them with no communication. The ALS
//! right-hand sides (`rhs_a`: `S·B`, `rhs_b`: `Sᵀ·A`) shift the same
//! operand along the same ring in the same visit order, so on dense
//! routing they fill those stores, and every matvec of the solve that
//! follows, the first one included, replays them: each factor crosses
//! the ring once per ALS sweep.

use std::cell::{OnceCell, RefCell};

use dsk_comm::{Comm, CommPattern, Grid15, GridComms15, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CsrMatrix;

use crate::common::{
    block_range, reduce_rows, replicate_rows, route, union_range, AlgorithmFamily, Elision,
    Routing, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RStore, RValues};
use crate::staged::StagedProblem;

/// Tag used for dense block shifts within a layer.
const TAG_SHIFT: u32 = 100;

/// Per-rank state of the 1.5D dense-shifting algorithm.
pub struct DenseShift15 {
    /// Grid communicators (layer ring + replication fiber).
    pub gc: GridComms15,
    view: PlanView,
    /// `S` blocks by slot `w` (column block `j = w·c + v` of macro row
    /// `u`), values = sampling values, with the SDDMM output values
    /// aligned to their nonzero order.
    r: RStore,
    /// `Sᵀ` blocks by slot `w` (column block over `m` of macro row `u`
    /// of `n`), for the transposed-role (FusedMMA) paths.
    st_blocks: Vec<CsrMatrix>,
    /// Local block row `g` of `A`; written only by `set_a`.
    a_loc: Mat,
    /// Local block row `g` of `B`; written only by `set_b`.
    b_loc: Mat,
    /// Layer-ring communication pattern for pattern-routed propagation
    /// (`None` = dense shifts, the default).
    route: Option<CommPattern>,
    /// Ones-valued copies of the `S` and `Sᵀ` blocks for
    /// [`Sampling::Ones`] fused rounds, built on first use.
    ones: [OnceCell<Vec<CsrMatrix>>; 2],
    /// The ring tiles the right-hand-side rounds and iterate fused rounds
    /// received — `B`'s (`rhs_a`, FusedMMA) and `A`'s (`rhs_b`,
    /// FusedMMB), indexed like `ones` — replayed until `set_b` / `set_a`
    /// empties them: `q − 1` block rows of `B` (of `A`),
    /// `(q − 1)·⌈n/p⌉·r` (`⌈m/p⌉`) words. A dense-routed plan fills them
    /// on every `rhs_*` call, whatever its elision; only local kernel
    /// fusion replays them.
    held: [RefCell<Vec<Mat>>; 2],
}

impl DenseShift15 {
    /// Build this rank's state from shared staging. Under
    /// [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] it exchanges this rank's need sets over the
    /// layer ring: for the tile from ring position `o`, the column
    /// support of the stationary block paired with it — exactly the
    /// rows of that tile this rank reads (inputs) or writes
    /// (circulating accumulators).
    pub fn from_staged(comm: &Comm, c: usize, routing: Routing, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid15::new(comm.size(), c).expect("invalid 1.5D grid");
        let gc = GridComms15::build(comm, grid);
        let p = grid.p;
        let q = grid.layer_size();
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= p && n >= p, "matrix sides must be at least p");
        let g = comm.rank();
        let (u, v) = (gc.u, gc.v);

        // S: macro rows (aligned to unions of A block rows) × p column
        // blocks; keep column blocks ≡ v (mod c) of macro row u.
        let macro_rows: Vec<_> = (0..q).map(|uu| union_range(m, p, uu * c, c)).collect();
        let col_blocks: Vec<_> = (0..p).map(|j| block_range(n, p, j)).collect();
        let grid_s = staged.partition(false, &macro_rows, &col_blocks);
        let s_blocks: Vec<CsrMatrix> = (0..q)
            .map(|w| CsrMatrix::from_coo(&grid_s[u][w * c + v]))
            .collect();
        let offsets = (0..q)
            .map(|w| (macro_rows[u].start, col_blocks[w * c + v].start))
            .collect();
        let route = route(&gc.layer, routing, || {
            (0..q)
                .map(|o| RowSet::from_indices(grid_s[u][o * c + v].cols.clone()))
                .collect()
        });

        let macro_rows_t: Vec<_> = (0..q).map(|uu| union_range(n, p, uu * c, c)).collect();
        let col_blocks_t: Vec<_> = (0..p).map(|j| block_range(m, p, j)).collect();
        let grid_st = staged.partition(true, &macro_rows_t, &col_blocks_t);
        let st_blocks: Vec<CsrMatrix> = (0..q)
            .map(|w| CsrMatrix::from_coo(&grid_st[u][w * c + v]))
            .collect();

        let id = KernelId::Family(AlgorithmFamily::DenseShift15);
        let view = PlanView::of(id, c, p, prob.dims);
        DenseShift15 {
            gc,
            view,
            r: RStore::csr((m, n), s_blocks, offsets),
            st_blocks,
            a_loc: view.stage(prob, Operand::A, false, g),
            b_loc: view.stage(prob, Operand::B, false, g),
            route,
            ones: Default::default(),
            held: Default::default(),
        }
    }

    fn q(&self) -> usize {
        self.gc.grid.layer_size()
    }

    // ------------------------------------------------------------------
    // Building blocks
    // ------------------------------------------------------------------

    /// Reduce-scatter a macro-row accumulator along the fiber back to
    /// this rank's block row (`total`/`p`-grained ranges within macro
    /// row `u`).
    fn reduce_to_block(&self, total: usize, t_buf: &Mat) -> Mat {
        let (p, c, u) = (self.gc.grid.p, self.gc.grid.c, self.gc.u);
        let start = union_range(total, p, u * c, c).start;
        reduce_rows(&self.gc.fiber, t_buf, |vv| {
            let br = block_range(total, p, u * c + vv);
            br.start - start..br.end - start
        })
    }

    /// The layer-ring shift pipeline all propagation rounds run
    /// through, dense or routed by `route`: one position per step, tiles
    /// as [`Mat`] payloads (self-describing shape, one word per entry —
    /// same modeled cost as the raw buffer) or pattern-routed row
    /// bundles. The tile held at step `t` started at ring position
    /// `origin(t)`, which is also the slot of the stationary `S` column
    /// block it pairs with.
    fn pipeline<'a>(&'a self, route: Option<&'a CommPattern>) -> ShiftPipeline<'a> {
        ShiftPipeline::new(&self.gc.layer, 1, TAG_SHIFT).routed(route)
    }

    /// The input-lane round every propagation round here but the
    /// circulating-accumulator one runs: `y0` travels the layer ring
    /// (with `hold = Some(i)` its ring tiles go to, or replay from,
    /// `self.held[i]`; dense routing only, since routed tiles are
    /// zero-filled partial panels), and each visit runs the local `op`
    /// on the stationary block of the slot where the visiting tile
    /// started and on that tile, metered at `flops(nnz, r)`.
    fn lane_round(
        &self,
        blocks: &[CsrMatrix],
        y0: &Mat,
        route: Option<&CommPattern>,
        hold: Option<usize>,
        flops: fn(usize, usize) -> u64,
        mut op: impl FnMut(usize, &CsrMatrix, &Mat),
    ) {
        debug_assert!(
            hold.is_none() || route.is_none(),
            "routed tiles are partial"
        );
        let mut held = hold.map(|i| self.held[i].borrow_mut());
        let pipe = self.pipeline(route);
        let mut y = match held.as_deref_mut() {
            Some(store) => pipe.held_input(y0, store),
            None => pipe.input(y0),
        };
        for t in 0..self.q() {
            let w = pipe.origin(t);
            let blk = &blocks[w];
            debug_assert_eq!(blk.ncols(), y.block().nrows(), "block/panel misalignment");
            let hop = y.post_mat();
            let yb = y.block();
            let flops = flops(blk.nnz(), y0.ncols());
            self.gc.layer.compute(flops, || op(w, blk, yb));
            y.arrive(hop);
        }
    }

    /// SDDMM propagation round over the given oriented blocks: `y`
    /// shifts, dot products accumulate per slot. Returns raw dots (no
    /// sampling applied). `combine` generalizes the per-nonzero
    /// interaction (GAT attention uses an affine combine).
    fn sddmm_round(
        &self,
        blocks: &[CsrMatrix],
        t_buf: &Mat,
        y0: &Mat,
        combine: kern::SddmmCombine<'_>,
        route: Option<&CommPattern>,
    ) -> Vec<Vec<f64>> {
        let mut acc: Vec<Vec<f64>> = blocks.iter().map(|b| vec![0.0; b.nnz()]).collect();
        self.lane_round(blocks, y0, route, None, kern::sddmm_flops, |w, blk, y| {
            kern::sddmm::sddmm_csr_acc_with(&mut acc[w], blk, t_buf, y, combine)
        });
        acc
    }

    /// SpMM propagation round with a replicated (macro-row) accumulator:
    /// `T += R_w · y` per step, `y` shifting (the SpMMA data flow).
    /// `blocks` carry the values to multiply with; `hold` as in
    /// [`DenseShift15::lane_round`].
    fn spmm_out_round(
        &self,
        blocks: &[CsrMatrix],
        y0: &Mat,
        route: Option<&CommPattern>,
        hold: Option<usize>,
    ) -> Mat {
        let mut t_buf = Mat::zeros(blocks[0].nrows(), y0.ncols());
        self.lane_round(blocks, y0, route, hold, kern::spmm_flops, |_, blk, y| {
            kern::spmm_csr_acc(&mut t_buf, blk, y)
        });
        t_buf
    }

    /// SpMM propagation round with a *circulating* accumulator: the
    /// output block rows shift around the ring, each rank adding
    /// `R_wᵀ · T` for its stationary block (the SpMMB data flow, and the
    /// second half of replication reuse). `blocks` carry the values to
    /// multiply with.
    fn spmm_shift_acc_round(
        &self,
        blocks: &[CsrMatrix],
        t_buf: &Mat,
        my_out_rows: usize,
        route: Option<&CommPattern>,
    ) -> Mat {
        let pipe = self.pipeline(route);
        let r = t_buf.ncols();
        let mut out = Mat::zeros(my_out_rows, r);
        for t in 0..self.q() {
            let blk = &blocks[pipe.origin(t)];
            debug_assert_eq!(blk.ncols(), out.nrows(), "block/accumulator misalignment");
            self.gc.layer.compute(kern::spmm_flops(blk.nnz(), r), || {
                kern::spmm_csr_t_acc(&mut out, blk, t_buf)
            });
            // Accumulator lane: the block is not final until the local
            // kernel has added its contribution, so the exchange cannot
            // be posted early.
            out = pipe.exchange_mat(out, t);
        }
        out
    }

    /// Fused propagation round (local kernel fusion) over the `S` blocks
    /// (or, `transposed`, the `Sᵀ` blocks): one pass computing the local
    /// fused SDDMM+SpMM per step. The stationary blocks are read as they
    /// are under [`Sampling::Values`]; the ones-valued copies
    /// [`Sampling::Ones`] needs are built on this worker's first such
    /// round and kept. With `hold` (an iterate call), `y0` is the stored
    /// operand and its ring tiles are kept, or replayed when already
    /// held.
    fn fused_round(
        &self,
        transposed: bool,
        t_in: &Mat,
        y0: &Mat,
        sampling: Sampling,
        hold: bool,
    ) -> Mat {
        let side = transposed as usize;
        let stored = [self.r.csr_blocks(), &self.st_blocks[..]][side];
        let blocks = match sampling {
            Sampling::Values => stored,
            Sampling::Ones => self.ones[side].get_or_init(|| {
                stored
                    .iter()
                    .map(|b| b.with_vals(vec![1.0; b.nnz()]))
                    .collect()
            }),
        };
        let mut t_out = Mat::zeros(t_in.nrows(), y0.ncols());
        let hold = hold.then_some(side);
        self.lane_round(blocks, y0, None, hold, kern::fused_flops, |_, blk, y| {
            kern::fused_a_csr(&mut t_out, blk, t_in, y)
        });
        t_out
    }

    /// The blocks carrying a round's SDDMM output (`sampling` applied):
    /// the valued operand of a FusedMM's SpMM half, built once per call.
    fn sampled_blocks(
        blocks: &[CsrMatrix],
        acc: Vec<Vec<f64>>,
        sampling: Sampling,
    ) -> Vec<CsrMatrix> {
        let sampled = blocks.iter().zip(acc).map(|(b, mut v)| {
            sampling.apply(&mut v, b.vals());
            b.with_vals(v)
        });
        sampled.collect()
    }
}

impl DistKernel for DenseShift15 {
    fn view(&self) -> PlanView {
        self.view
    }

    fn r_store(&self) -> &RStore {
        &self.r
    }

    fn r_store_mut(&mut self) -> &mut RStore {
        &mut self.r
    }

    /// Replicates `A`, shifts `B`; full rows are co-located here, so
    /// the combine is used at full width.
    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let s = self.r.csr_blocks();
        let t_buf = replicate_rows(&self.gc.fiber, &self.a_loc, s[0].nrows(), None);
        let combine = combine.for_slice(0..self.view.dims().r);
        self.sddmm_round(s, &t_buf, &self.b_loc, combine, self.route.as_ref())
    }

    /// Returned as this rank's `A`-shaped block row.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        let blocks = self.r.csr_valued(use_r);
        let t_buf = self.spmm_out_round(&blocks, &self.b_loc, self.route.as_ref(), None);
        self.reduce_to_block(self.view.dims().m, &t_buf)
    }

    /// Returned as this rank's `B`-shaped block row.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let blocks = self.r.csr_valued(use_r);
        let t_buf = replicate_rows(&self.gc.fiber, &self.a_loc, blocks[0].nrows(), None);
        self.spmm_shift_acc_round(&blocks, &t_buf, self.b_loc.nrows(), self.route.as_ref())
    }

    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let hold = x.is_some();
        let x = x.unwrap_or(&self.a_loc);
        let (s, st) = (self.r.csr_blocks(), &self.st_blocks[..]);
        let (dot, route) = (kern::SddmmCombine::Dot, self.route.as_ref());
        match elision {
            Elision::None => {
                // SDDMM: all-gather x, shift B.
                let t_buf = replicate_rows(&self.gc.fiber, x, s[0].nrows(), None);
                let acc = self.sddmm_round(s, &t_buf, &self.b_loc, dot, route);
                let r_blocks = Self::sampled_blocks(s, acc, sampling);
                // SpMMA: fresh zero accumulator, shift B again,
                // reduce-scatter.
                let t_out = self.spmm_out_round(&r_blocks, &self.b_loc, route, None);
                self.reduce_to_block(self.view.dims().m, &t_out)
            }
            Elision::LocalKernelFusion => {
                let t_in = replicate_rows(&self.gc.fiber, x, s[0].nrows(), None);
                let t_out = self.fused_round(false, &t_in, &self.b_loc, sampling, hold);
                self.reduce_to_block(self.view.dims().m, &t_out)
            }
            Elision::ReplicationReuse => {
                // Transposed roles: replicate B once; travel Sᵀ for the
                // SDDMM (x shifts), then circulate the A-shaped output
                // accumulator reusing the same T.
                let t_buf = replicate_rows(&self.gc.fiber, &self.b_loc, st[0].nrows(), None);
                let acc = self.sddmm_round(st, &t_buf, x, dot, None);
                let r_blocks = Self::sampled_blocks(st, acc, sampling);
                self.spmm_shift_acc_round(&r_blocks, &t_buf, x.nrows(), None)
            }
        }
    }

    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let hold = y.is_some();
        let y = y.unwrap_or(&self.b_loc);
        let (s, st) = (self.r.csr_blocks(), &self.st_blocks[..]);
        let (dot, route) = (kern::SddmmCombine::Dot, self.route.as_ref());
        match elision {
            Elision::None => {
                let t_buf = replicate_rows(&self.gc.fiber, &self.a_loc, s[0].nrows(), None);
                let acc = self.sddmm_round(s, &t_buf, y, dot, route);
                let r_blocks = Self::sampled_blocks(s, acc, sampling);
                // Unoptimized back-to-back: the SpMMB call replicates A
                // again.
                let t2 = replicate_rows(&self.gc.fiber, &self.a_loc, s[0].nrows(), None);
                self.spmm_shift_acc_round(&r_blocks, &t2, y.nrows(), route)
            }
            Elision::ReplicationReuse => {
                let t_buf = replicate_rows(&self.gc.fiber, &self.a_loc, s[0].nrows(), None);
                let acc = self.sddmm_round(s, &t_buf, y, dot, None);
                let r_blocks = Self::sampled_blocks(s, acc, sampling);
                // Reuse T for the SpMMB.
                self.spmm_shift_acc_round(&r_blocks, &t_buf, y.nrows(), None)
            }
            Elision::LocalKernelFusion => {
                // Dual of the FusedMMA fused round: roles swapped, Sᵀ.
                let t_in = replicate_rows(&self.gc.fiber, y, st[0].nrows(), None);
                let t_out = self.fused_round(true, &t_in, &self.a_loc, sampling, hold);
                self.reduce_to_block(self.view.dims().n, &t_out)
            }
        }
    }

    /// The fiber: its members split macro row `u`'s columns.
    fn r_row_group<'a>(&'a self, _world: &'a Comm) -> Option<&'a Comm> {
        Some(&self.gc.fiber)
    }

    /// The SpMMA round's data flow (`spmm_out_round`), each stationary
    /// block walked once.
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        let vals = self.r.csr_values(vals);
        let mut sums = vals.sums();
        let blocks = vals.blocks();
        let mut t_buf = Mat::zeros(blocks[0].nrows(), y.ncols());
        let route = self.route.as_ref();
        self.lane_round(blocks, y, route, None, kern::spmm_flops, |w, _, yb| {
            vals.spmm(w, &mut t_buf, yb, Some(&mut sums))
        });
        (self.reduce_to_block(self.view.dims().m, &t_buf), sums)
    }

    /// [`DistKernel::spmm_a`]'s `S·B` round; on dense routing it keeps
    /// `B`'s ring tiles, so every iterate call of the solve replays them.
    fn rhs_a(&mut self, _comm: &Comm) -> Mat {
        let hold = self.route.is_none().then_some(0);
        let s = self.r.csr_blocks();
        let t_buf = self.spmm_out_round(s, &self.b_loc, self.route.as_ref(), hold);
        self.reduce_to_block(self.view.dims().m, &t_buf)
    }

    /// `Sᵀ·A` on dense routing by the transposed data flow of the fused
    /// FusedMMB round: stationary `Sᵀ` blocks, `A` traveling as an input
    /// lane whose ring tiles the solve's iterate calls replay, then one
    /// reduce-scatter of the `n`-side macro row. Routed need sets are
    /// `S`'s column supports, so pattern routing keeps the SpMMB round.
    fn rhs_b(&mut self, _comm: &Comm) -> Mat {
        if self.route.is_some() {
            return self.spmm_b(false);
        }
        let t_buf = self.spmm_out_round(&self.st_blocks, &self.a_loc, None, Some(1));
        self.reduce_to_block(self.view.dims().n, &t_buf)
    }

    fn a_iterate(&self) -> Mat {
        self.a_loc.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.b_loc.clone()
    }

    fn set_a(&mut self, _comm: &Comm, x: &Mat) {
        // Iterate layout == operand layout: no distribution shift.
        assert_eq!(x.nrows(), self.a_loc.nrows(), "A iterate shape mismatch");
        self.a_loc = x.clone();
        self.held[1].get_mut().clear();
    }

    fn set_b(&mut self, _comm: &Comm, y: &Mat) {
        assert_eq!(y.nrows(), self.b_loc.nrows(), "B iterate shape mismatch");
        self.b_loc = y.clone();
        self.held[0].get_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ShiftMode;
    use crate::global::GlobalProblem;
    use crate::kernel::KernelBuilder;
    use crate::worker::DistWorker;
    use dsk_comm::{MachineModel, Phase, SimWorld};
    use dsk_dense::ops::max_abs_diff;
    use std::sync::Arc;

    const FAMILY: AlgorithmFamily = AlgorithmFamily::DenseShift15;

    fn view(prob: &GlobalProblem, p: usize, c: usize) -> PlanView {
        PlanView::of(KernelId::Family(FAMILY), c, p, prob.dims)
    }

    fn check_fused_a(p: usize, c: usize, m: usize, n: usize, r: usize, elision: Elision) {
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 42));
        let expect = prob.reference_fused_a();
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let view = view(&prob, p, c);
        let layout = move |g| view.a_layout_of(g);
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let got = worker.fused_mm_a(None, elision, Sampling::Values);
            crate::layout::gather_dense(comm, 0, &got, layout, m, r)
        });
        let got = out[0].value.as_ref().unwrap();
        assert!(
            max_abs_diff(got, &expect) < 1e-9,
            "fused_mm_a mismatch p={p} c={c} elision={elision:?}"
        );
    }

    #[test]
    fn fused_a_all_elisions_match_reference() {
        for elision in Elision::ALL {
            check_fused_a(4, 2, 25, 19, 5, elision);
            check_fused_a(6, 2, 24, 24, 4, elision);
            check_fused_a(4, 1, 16, 20, 3, elision);
            check_fused_a(4, 4, 17, 23, 3, elision);
        }
    }

    #[test]
    fn fused_b_all_elisions_match_reference() {
        for elision in Elision::ALL {
            let (p, c, m, n, r) = (6, 3, 22, 26, 4);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 7));
            let expect = prob.reference_fused_b();
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let view = view(&prob, p, c);
            let layout = move |g| view.b_layout_of(g);
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
                let got = worker.fused_mm_b(None, elision, Sampling::Values);
                crate::layout::gather_dense(comm, 0, &got, layout, n, r)
            });
            let got = out[0].value.as_ref().unwrap();
            assert!(
                max_abs_diff(got, &expect) < 1e-9,
                "fused_mm_b mismatch elision={elision:?}"
            );
        }
    }

    #[test]
    fn sddmm_matches_reference() {
        let (p, c, m, n, r) = (8, 2, 24, 32, 4);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 11));
        let expect = prob.reference_sddmm().to_coo().to_dense();
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            worker.sddmm();
            worker.gather_r(comm)
        });
        let got = out[0].value.as_ref().unwrap().to_dense();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn spmm_kernels_match_reference() {
        let (p, c, m, n, r) = (4, 2, 21, 18, 3);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 13));
        let ea = prob.reference_spmm_a();
        let eb = prob.reference_spmm_b();
        let view = view(&prob, p, c);
        let (la, lb) = (move |g| view.a_layout_of(g), move |g| view.b_layout_of(g));
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let ga = worker.spmm_a(false);
            let gb = worker.spmm_b(false);
            (
                crate::layout::gather_dense(comm, 0, &ga, la, m, r),
                crate::layout::gather_dense(comm, 0, &gb, lb, n, r),
            )
        });
        let (ga, gb) = &out[0].value;
        assert!(max_abs_diff(ga.as_ref().unwrap(), &ea) < 1e-9);
        assert!(max_abs_diff(gb.as_ref().unwrap(), &eb) < 1e-9);
    }

    #[test]
    fn sampling_ones_ignores_s_values() {
        // FusedMM with Sampling::Ones must equal the reference on a
        // problem whose S values are all 1, bit for bit — even though
        // our S has random values — and a second call, which reuses the
        // ones-valued blocks, must return the same bits.
        let (p, c, m, n, r) = (4, 2, 16, 16, 3);
        let prob = GlobalProblem::erdos_renyi(m, n, r, 2, 17);
        let mut ones = prob.clone();
        ones.s.fill_values(1.0);
        let expect = ones.reference_fused_a();
        let proba = Arc::new(prob);
        let view = view(&proba, p, c);
        let layout = move |g| view.a_layout_of(g);
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &proba);
            let mut call = || {
                let got = worker.fused_mm_a(None, Elision::LocalKernelFusion, Sampling::Ones);
                crate::layout::gather_dense(comm, 0, &got, layout, m, r)
            };
            (call(), call())
        });
        let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (first, second) = &out[0].value;
        assert_eq!(bits(first.as_ref().unwrap()), bits(&expect));
        assert_eq!(bits(second.as_ref().unwrap()), bits(&expect));
    }

    #[test]
    fn replication_reuse_performs_single_fiber_collective() {
        // Count replication-phase messages: reuse should perform one
        // all-gather (c-1 sends per rank), no-elision FusedMMB two.
        let (p, c, m, n, r) = (8, 4, 32, 32, 4);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 23));
        for (elision, expected_fiber_msgs) in [
            (Elision::ReplicationReuse, (c - 1) as u64),
            (Elision::None, 2 * (c - 1) as u64),
        ] {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, FAMILY, c, &pr);
                let _ = worker.fused_mm_b(None, elision, Sampling::Values);
            });
            for o in &out {
                let repl = o.stats.phase(Phase::Replication);
                assert_eq!(
                    repl.msgs_sent, expected_fiber_msgs,
                    "elision={elision:?} rank={}",
                    o.rank
                );
            }
        }
    }

    fn mapped(x: &Mat, f: fn(f64) -> f64) -> Mat {
        Mat::from_vec(
            x.nrows(),
            x.ncols(),
            x.as_slice().iter().map(|&v| f(v)).collect(),
        )
    }

    /// The propagation messages and words this rank sent while `f` ran,
    /// beside its result.
    fn propagation_sent<T>(comm: &Comm, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let prop = || *comm.stats_snapshot().phase(Phase::Propagation);
        let before = prop();
        let got = f();
        let after = prop();
        let sent = (
            after.msgs_sent - before.msgs_sent,
            after.words_sent - before.words_sent,
        );
        (got, sent)
    }

    /// One local-kernel-fusion FusedMMA (`fused_a`) or FusedMMB call.
    fn lkf_call(w: &mut DistWorker, fused_a: bool, x: Option<&Mat>) -> Mat {
        let (lkf, vals) = (Elision::LocalKernelFusion, Sampling::Values);
        match fused_a {
            true => w.fused_mm_a(x, lkf, vals),
            false => w.fused_mm_b(x, lkf, vals),
        }
    }

    fn same_bits(x: &Mat, y: &Mat) -> bool {
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        bits(x) == bits(y)
    }

    /// Iterate fused rounds hold the stored operand's ring tiles, on
    /// one- and multi-hop rings under both shift modes, FusedMMA
    /// (holding `B`) and FusedMMB (holding `A`):
    /// (a) a second iterate call sends no propagation message or word
    ///     and returns a fresh worker's bits for the same iterate;
    /// (b) setting the fixed operand drops the tiles: the next iterate
    ///     call ships `q − 1` hops again and matches the serial reference
    ///     for the new operand;
    /// (c) stored-operand calls (`None`) ship `q − 1` hops every time.
    #[test]
    fn iterate_calls_replay_held_tiles_until_the_operand_is_set() {
        for (p, c) in [(4, 1), (4, 2), (6, 3)] {
            for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
                for fused_a in [true, false] {
                    check_held_tiles(p, c, mode, fused_a);
                }
            }
        }
    }

    fn check_held_tiles(p: usize, c: usize, mode: ShiftMode, fused_a: bool) {
        let (m, n, r) = (19, 23, 3);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 31));
        // The iterates and the new fixed operand are entrywise maps of
        // the stored operands, so the serial reference can build them.
        let [x1, x2, fixed]: [fn(f64) -> f64; 3] = [|v| 0.5 * v - 1.0, |v| v * v, |v| 2.0 - v];
        let mut next = (*prob).clone();
        let expect = if fused_a {
            (next.a, next.b) = (mapped(&prob.a, x2), mapped(&prob.b, fixed));
            next.reference_fused_a()
        } else {
            (next.a, next.b) = (mapped(&prob.a, fixed), mapped(&prob.b, x2));
            next.reference_fused_b()
        };
        let view = view(&prob, p, c);
        let layout = move |g| match fused_a {
            true => view.a_layout_of(g),
            false => view.b_layout_of(g),
        };
        let hops = (p / c - 1) as u64;
        let out = SimWorld::new(p, MachineModel::bandwidth_only()).run(move |comm| {
            let _g = ShiftMode::scoped(mode);
            let call = |w: &mut DistWorker, x: Option<&Mat>| {
                propagation_sent(comm, || lkf_call(w, fused_a, x))
            };
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let (iterate, other) = match fused_a {
                true => (worker.a_iterate(), worker.b_iterate()),
                false => (worker.b_iterate(), worker.a_iterate()),
            };
            let (first, second) = (mapped(&iterate, x1), mapped(&iterate, x2));
            let (_, sent_first) = call(&mut worker, Some(&first));
            let (replayed, sent_replayed) = call(&mut worker, Some(&second));
            let mut fresh = DistWorker::from_global(comm, FAMILY, c, &prob);
            let (single, _) = call(&mut fresh, Some(&second));
            let same_bits = same_bits(&replayed, &single);

            let new_fixed = mapped(&other, fixed);
            match fused_a {
                true => worker.set_b(comm, &new_fixed),
                false => worker.set_a(comm, &new_fixed),
            }
            let (after_set, sent_after_set) = call(&mut worker, Some(&second));
            let stored = (call(&mut fresh, None).1, call(&mut fresh, None).1);
            let rows = if fused_a { m } else { n };
            let gathered = crate::layout::gather_dense(comm, 0, &after_set, layout, rows, r);
            (
                sent_first,
                sent_replayed,
                same_bits,
                sent_after_set,
                stored,
                gathered,
            )
        });
        let case = format!("p={p} c={c} {mode:?} fused_a={fused_a}");
        for o in &out {
            let (first, replayed, same_bits, after_set, stored, _) = &o.value;
            assert_eq!(first.0, hops, "{case}: first iterate call");
            assert_eq!(*replayed, (0, 0), "{case}: a replayed call sends nothing");
            assert!(
                same_bits,
                "{case}: replayed tiles must give a fresh worker's bits"
            );
            assert_eq!(after_set.0, hops, "{case}: set_* drops the held tiles");
            assert_eq!(
                (stored.0 .0, stored.1 .0),
                (hops, hops),
                "{case}: None calls hold nothing"
            );
        }
        let got = out[0].value.5.as_ref().unwrap();
        assert!(
            max_abs_diff(got, &expect) < 1e-9,
            "{case}: stale tiles after set_*"
        );
    }

    /// The ALS right-hand-side rounds fill the stores the iterate calls
    /// replay, on one- and multi-hop rings under both shift modes, for
    /// `rhs_a` (holding `B`) and `rhs_b` (holding `A`):
    /// (a) dense-routed, `rhs_*` ships `q − 1` hops and matches the
    ///     serial SpMM; the next iterate call sends nothing and returns a
    ///     fresh worker's bits;
    /// (b) pattern-routed, no store is filled: `rhs_b` keeps its `q`-hop
    ///     accumulator round, and the next iterate call ships `q − 1`
    ///     hops.
    #[test]
    fn rhs_rounds_fill_the_stores_the_iterate_calls_replay() {
        for (p, c) in [(4, 1), (4, 2), (6, 3)] {
            for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
                for side_a in [true, false] {
                    check_rhs_fills_store(p, c, mode, side_a);
                }
            }
        }
    }

    fn check_rhs_fills_store(p: usize, c: usize, mode: ShiftMode, side_a: bool) {
        let (m, n, r) = (19, 23, 3);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 37));
        let (expect, rows) = match side_a {
            true => (prob.reference_spmm_a(), m),
            false => (prob.reference_spmm_b(), n),
        };
        let view = view(&prob, p, c);
        let layout = move |g| match side_a {
            true => view.a_layout_of(g),
            false => view.b_layout_of(g),
        };
        let out = SimWorld::new(p, MachineModel::bandwidth_only()).run(move |comm| {
            let _g = ShiftMode::scoped(mode);
            let run = |routing: Routing| {
                let build = || {
                    let builder = KernelBuilder::new(&prob).family(FAMILY).replication(c);
                    builder.routing(routing).build(comm)
                };
                let mut worker = build();
                let (rhs, rhs_sent) = propagation_sent(comm, || match side_a {
                    true => worker.rhs_a(comm),
                    false => worker.rhs_b(comm),
                });
                let iterate = match side_a {
                    true => worker.a_iterate(),
                    false => worker.b_iterate(),
                };
                let x = mapped(&iterate, |v| 0.5 * v - 1.0);
                let (next, next_sent) =
                    propagation_sent(comm, || lkf_call(&mut worker, side_a, Some(&x)));
                let single = lkf_call(&mut build(), side_a, Some(&x));
                let gathered = crate::layout::gather_dense(comm, 0, &rhs, layout, rows, r);
                (rhs_sent.0, next_sent, same_bits(&next, &single), gathered)
            };
            (run(Routing::Dense), run(Routing::Pattern))
        });
        let q = (p / c) as u64;
        let (dense, pattern): (Vec<_>, Vec<_>) = out.into_iter().map(|o| o.value).unzip();
        let expected = [
            (Routing::Dense, dense, q - 1, Some((0, 0))),
            (
                Routing::Pattern,
                pattern,
                if side_a { q - 1 } else { q },
                None,
            ),
        ];
        for (routing, runs, rhs_hops, next_sent) in expected {
            let case = format!("p={p} c={c} {mode:?} side_a={side_a} {routing:?}");
            for (sent, next, same, _) in &runs {
                assert_eq!(*sent, rhs_hops, "{case}: rhs propagation messages");
                match next_sent {
                    Some(nothing) => assert_eq!(*next, nothing, "{case}: replayed call"),
                    None => assert_eq!(next.0, q - 1, "{case}: no store was filled"),
                }
                assert!(
                    same,
                    "{case}: the next call must give a fresh worker's bits"
                );
            }
            let got = runs[0].3.as_ref().unwrap();
            assert!(max_abs_diff(got, &expect) < 1e-9, "{case}: rhs mismatch");
        }
    }

    #[test]
    fn lkf_halves_propagation_words() {
        let (p, c, m, n, r) = (8, 2, 32, 32, 4);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 29));
        let mut words = Vec::new();
        for elision in [Elision::None, Elision::LocalKernelFusion] {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, FAMILY, c, &pr);
                let _ = worker.fused_mm_a(None, elision, Sampling::Values);
            });
            words.push(out[0].stats.phase(Phase::Propagation).words_sent);
        }
        assert_eq!(words[0], 2 * words[1], "LKF must halve propagation volume");
    }
}
