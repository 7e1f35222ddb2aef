//! The 1.5D sparse-shifting, dense-replicating algorithm.
//!
//! The paper's novel benchmark case: instead of shifting a dense matrix,
//! the **sparse matrix propagates** while the dense matrices are divided
//! by *block columns* (r-slices). Favorable when
//! φ = nnz(S)/(n·r) is small — shifting `3·nnz/p` words per step beats
//! shifting `n·r/p`.
//!
//! Grid `(p/c) × c`, rank `g = (u, v)` with `q = p/c`:
//!
//! * the r-dimension is cut into `q` slices; the ranks of fiber `u` all
//!   work on slice `u`;
//! * the **replicated** dense matrix: rank `(u, v)` holds rows
//!   `block(m, c, v)` of slice `u`; an all-gather along the fiber yields
//!   the full `m × slice` panel;
//! * the **stationary** dense matrix: rank `(u, v)` holds the row blocks
//!   `{j ≡ v (mod c)}` (of the `p`-way decomposition) of slice `u` —
//!   exactly the rows addressed by the sparse column blocks that visit
//!   this rank;
//! * `S` is cut into `p` column blocks (full height); rank `(u, v)`'s
//!   home block is `j = u·c + v`, and blocks cycle around the layer ring
//!   carrying their values as *partial dot-product accumulators* (an
//!   SDDMM completes after a block has visited all `q` slices). COO
//!   blocks cost 3 words per nonzero on the wire.
//!
//! FusedMM with replication reuse performs one all-gather and two
//! propagation rounds (dots, then SpMM scatter into the stationary
//! output); without elision the second kernel re-replicates its input.
//! Local kernel fusion is impossible: rows are split across ranks.

use dsk_comm::{Comm, CommPattern, Grid15, GridComms15, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CooMatrix;

use crate::common::{
    block_range, reduce_rows, replicate_rows, route, AlgorithmFamily, Elision, Routing, Sampling,
    ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId};
use crate::layout::DenseLayout;
use crate::planview::{Operand, PlanView};
use crate::rstore::{RStore, RValues};
use crate::staged::StagedProblem;

/// Tag for traveling sparse blocks.
const TAG_SPARSE: u32 = 110;

/// Per-rank state of the 1.5D sparse-shifting algorithm.
pub struct SparseShift15 {
    /// Grid communicators (layer ring + replication fiber).
    pub gc: GridComms15,
    view: PlanView,
    /// Home column block of `S`: rows global over `m`, columns local to
    /// block `u·c+v`; values = sampling values. The SDDMM result stays
    /// on it.
    r: RStore,
    /// Home column block of `Sᵀ` (rows global over `n`, columns local
    /// to the `m`-block `u·c+v`) for the transposed (FusedMMA) paths.
    st_home: CooMatrix,
    /// Replicate-layout share of `A`: rows `block(m, c, v)` × slice `u`.
    pub a_rep: Mat,
    /// Replicate-layout share of `B`.
    pub b_rep: Mat,
    /// Stationary blocks of `A` by slot `w` (rows `block(m, p, w·c+v)` ×
    /// slice `u`), for the transposed paths.
    a_stat: Vec<Mat>,
    /// Stationary blocks of `B` by slot `w`.
    b_stat: Vec<Mat>,
    /// Fiber pattern for the `A`-replicating paths (rows over `m`);
    /// `None` = dense all-gathers, the default.
    route_a: Option<CommPattern>,
    /// Fiber pattern for the transposed, `B`-replicating paths (rows
    /// over `n`).
    route_b: Option<CommPattern>,
}

/// One orientation of the worker's data: canonical (`S` travels, `A` is
/// replicated, `B` stationary) or transposed (`Sᵀ`, `B`, `A`).
struct Side<'a> {
    /// Home column block of the oriented sparse matrix; its row count is
    /// the replicated operand's.
    home: &'a CooMatrix,
    /// Replicate-layout share of the replicated operand.
    rep: &'a Mat,
    /// The stationary operand.
    stat_op: Operand,
    /// Its blocks, by slot.
    stat: &'a [Mat],
    /// Fiber pattern for the replicated operand's all-gather.
    route: Option<&'a CommPattern>,
}

impl SparseShift15 {
    /// Build this rank's state from shared staging. Under
    /// [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] it exchanges this rank's need sets over the
    /// fiber, `A` side first. A rank only ever reads the replicated
    /// panel at the rows its layer ring's traveling blocks address, a
    /// union that depends only on the fiber coordinate `v`; its entry
    /// `vv` is the slice of that union in fiber member `vv`'s replicate
    /// block (indices block-local).
    pub fn from_staged(comm: &Comm, c: usize, routing: Routing, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid15::new(comm.size(), c).expect("invalid 1.5D grid");
        let gc = GridComms15::build(comm, grid);
        let p = grid.p;
        let q = grid.layer_size();
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= p && n >= p, "matrix sides must be at least p");
        let (g, v) = (comm.rank(), gc.v);

        // Home S column block (rows stay global).
        let col_blocks: Vec<_> = (0..p).map(|j| block_range(n, p, j)).collect();
        let s_cols = staged.partition(false, std::slice::from_ref(&(0..m)), &col_blocks);
        let r = RStore::coo((m, n), s_cols[0][g].clone(), (0, col_blocks[g].start));
        let col_blocks_t: Vec<_> = (0..p).map(|j| block_range(m, p, j)).collect();
        let st_cols = staged.partition(true, std::slice::from_ref(&(0..n)), &col_blocks_t);
        let st_home = st_cols[0][g].clone();
        let routed = |cols: &[CooMatrix], total: usize| {
            route(&gc.fiber, routing, || {
                let rows = (0..q).flat_map(|w| &cols[w * c + v].rows);
                let need = RowSet::from_indices(rows.copied().collect());
                (0..c)
                    .map(|vv| {
                        let br = block_range(total, c, vv);
                        let (lo, hi) = (br.start as u32, br.end as u32);
                        let local = need.indices().iter().filter(|&&i| (lo..hi).contains(&i));
                        RowSet::from_indices(local.map(|&i| i - lo).collect())
                    })
                    .collect()
            })
        };
        let (route_a, route_b) = (routed(&s_cols[0], m), routed(&st_cols[0], n));

        let id = KernelId::Family(AlgorithmFamily::SparseShift15);
        let view = PlanView::of(id, c, p, prob.dims);
        let stat = |op: Operand| view.layout_of(op, false, g).pieces(op.of(prob));
        SparseShift15 {
            gc,
            view,
            r,
            st_home,
            a_rep: view.stage(prob, Operand::A, true, g),
            b_rep: view.stage(prob, Operand::B, true, g),
            a_stat: stat(Operand::A),
            b_stat: stat(Operand::B),
            route_a,
            route_b,
        }
    }

    fn q(&self) -> usize {
        self.gc.grid.layer_size()
    }

    /// The canonical orientation: `S` travels, `A` replicated.
    fn canon_side(&self) -> Side<'_> {
        Side {
            home: self.r.coo_block(),
            rep: &self.a_rep,
            stat_op: Operand::B,
            stat: &self.b_stat,
            route: self.route_a.as_ref(),
        }
    }

    /// The transposed orientation: `Sᵀ` travels, `B` replicated.
    fn trans_side(&self) -> Side<'_> {
        Side {
            home: &self.st_home,
            rep: &self.b_rep,
            stat_op: Operand::A,
            stat: &self.a_stat,
            route: self.route_b.as_ref(),
        }
    }

    /// This rank's stationary layout of `op`: one row block per slot.
    fn stat_layout(&self, op: Operand) -> DenseLayout {
        let g = self.gc.grid.rank_of(self.gc.u, self.gc.v);
        self.view.layout_of(op, false, g)
    }

    /// All-gather one orientation's replicated operand along the fiber
    /// (routed by `route`) into its full panel.
    fn replicate(&self, side: &Side<'_>, route: Option<&CommPattern>) -> Mat {
        replicate_rows(&self.gc.fiber, side.rep, side.home.nrows, route)
    }

    /// The layer-ring pipeline moving traveling COO blocks (3
    /// words/nonzero) one step per round. Blocks whose values the local
    /// kernel only reads are posted before the compute and stop one hop
    /// short of home (input lane); blocks accumulating per-step results
    /// exchange after it, all the way home. The block held at step `t`
    /// started at ring position `origin(t)`, its home slot.
    fn pipeline(&self) -> ShiftPipeline<'_> {
        ShiftPipeline::new(&self.gc.layer, 1, TAG_SPARSE)
    }

    /// SDDMM propagation round: the home block (values zeroed) travels
    /// the ring accumulating per-slice partial combines; returns its
    /// fully accumulated values (sampling not applied).
    fn dots_round(
        &self,
        home: &CooMatrix,
        x_full: &Mat,
        y_stat: &[Mat],
        combine: &CombineSpec,
    ) -> Vec<f64> {
        let q = self.q();
        let pipe = self.pipeline();
        let mut blk = home.clone();
        blk.vals.fill(0.0);
        let slice = block_range(self.view.dims().r, q, self.gc.u);
        for t in 0..q {
            let w = pipe.origin(t);
            // Detach the accumulating value array from the traveling
            // block so the pattern can be borrowed alongside it.
            let mut vals = std::mem::take(&mut blk.vals);
            let com = combine.for_slice(slice.clone());
            self.gc
                .layer
                .compute(kern::sddmm_flops(blk.rows.len(), slice.len()), || {
                    kern::sddmm::sddmm_coo_acc_with(&mut vals, &blk, x_full, &y_stat[w], com)
                });
            blk.vals = vals;
            // Accumulator lane: the values are not final until this
            // step's combine has run, so the hop cannot be posted early.
            blk = pipe.exchange(blk);
        }
        debug_assert_eq!(blk.nnz(), home.nnz(), "block failed to return home");
        blk.vals
    }

    /// SpMM propagation round: the valued home block `home` travels an
    /// input lane, and at each visit `spmm(w, blk)` runs on the block
    /// `blk` of slot `w`, metered as an SpMM of width `width`.
    fn spmm_round(&self, home: &CooMatrix, width: usize, mut spmm: impl FnMut(usize, &CooMatrix)) {
        let pipe = self.pipeline();
        let mut blk = pipe.input(home);
        for t in 0..self.q() {
            let (hop, b) = (blk.post(), blk.block());
            let flops = kern::spmm_flops(b.nnz(), width);
            self.gc.layer.compute(flops, || spmm(pipe.origin(t), b));
            blk.arrive(hop);
        }
    }

    /// SpMM round scattering `blkᵀ·X` into the stationary output blocks
    /// of `out` (slot `w` covers piece `w` of its stationary layout);
    /// returns the stacked stationary-layout result.
    fn scatter_round(&self, home: &CooMatrix, x_full: &Mat, out: Operand) -> Mat {
        let layout = self.stat_layout(out);
        let zeros = |rr: &std::ops::Range<usize>| Mat::zeros(rr.len(), x_full.ncols());
        let mut outs: Vec<Mat> = layout.row_ranges.iter().map(zeros).collect();
        self.spmm_round(home, x_full.ncols(), |w, b| {
            kern::spmm_coo_t_acc(&mut outs[w], b, x_full)
        });
        Mat::vstack(&outs)
    }

    /// SpMM on one orientation: replicate its dense operand, travel
    /// the valued home block `blk`.
    fn spmm(&self, side: &Side<'_>, blk: &CooMatrix) -> Mat {
        let t = self.replicate(side, side.route);
        self.scatter_round(blk, &t, side.stat_op)
    }

    /// FusedMM on one orientation — FusedMMB on the canonical one,
    /// FusedMMA on the transposed one. `y` (stationary layout, stacked)
    /// defaults to the stored stationary operand; same layout out.
    fn fused(&self, side: &Side<'_>, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let split;
        let y_stat = match y {
            Some(stacked) => {
                split = self.stat_layout(side.stat_op).split(stacked);
                &split[..]
            }
            None => side.stat,
        };
        let route = match elision {
            Elision::None => side.route,
            Elision::ReplicationReuse => None,
            Elision::LocalKernelFusion => panic!(
                "local kernel fusion requires co-located full rows; \
                 unsupported for 1.5D sparse shifting"
            ),
        };
        let t = self.replicate(side, route);
        let mut dots = self.dots_round(side.home, &t, y_stat, &CombineSpec::Dot);
        sampling.apply(&mut dots, &side.home.vals);
        let blk = side.home.with_vals(dots);
        // Unoptimized: without elision the SpMM call replicates again.
        let again = (elision == Elision::None).then(|| self.replicate(side, route));
        self.scatter_round(&blk, again.as_ref().unwrap_or(&t), side.stat_op)
    }
}

impl DistKernel for SparseShift15 {
    fn view(&self) -> PlanView {
        self.view
    }

    fn r_store(&self) -> &RStore {
        &self.r
    }

    fn r_store_mut(&mut self) -> &mut RStore {
        &mut self.r
    }

    /// Replicates `A`, travels `S`; the result stays on the home block.
    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let side = self.canon_side();
        let t_a = self.replicate(&side, side.route);
        vec![self.dots_round(side.home, &t_a, side.stat, combine)]
    }

    /// Via the transposed roles (replicates `B`, travels `Sᵀ`);
    /// returned in the stationary `A` layout.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        assert!(
            !use_r,
            "1.5D sparse shifting holds R on the S-oriented home block; \
             use spmm_a_with for R·B (replicate-A layout output)"
        );
        self.spmm(&self.trans_side(), &self.st_home)
    }

    /// Returned in the stationary `B` layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        self.spmm(&self.canon_side(), &self.r.traveler(use_r))
    }

    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        self.fused(&self.trans_side(), x, elision, sampling)
    }

    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        self.fused(&self.canon_side(), y, elision, sampling)
    }

    /// The world: every rank holds a column block of all `m` rows.
    fn r_row_group<'a>(&'a self, world: &'a Comm) -> Option<&'a Comm> {
        Some(world)
    }

    /// Accumulates the full `m × slice` panel locally while the R-valued
    /// home block travels, then reduce-scatters along the fiber into
    /// the replicate `A` layout (GAT's convolution step).
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        let y_layout = self.stat_layout(Operand::B);
        let y_stat = y_layout.split(y);
        let (m, width) = (self.view.dims().m, y_layout.width());
        let mut t_full = Mat::zeros(m, width);
        let (traveler, sums) = self.r.traveler_of(vals);
        self.spmm_round(&traveler, width, |w, b| {
            kern::spmm_coo_acc(&mut t_full, b, &y_stat[w])
        });
        // Fiber reduce-scatter into the replicate layout rows.
        let c = self.gc.grid.c;
        let out = reduce_rows(&self.gc.fiber, &t_full, |vv| block_range(m, c, vv));
        (out, sums)
    }

    fn a_iterate(&self) -> Mat {
        Mat::vstack(&self.a_stat)
    }

    fn b_iterate(&self) -> Mat {
        Mat::vstack(&self.b_stat)
    }

    fn set_a(&mut self, comm: &Comm, x: &Mat) {
        self.a_rep = self.view.redistribute(comm, Operand::A, x, true);
        self.a_stat = self.stat_layout(Operand::A).split(x);
    }

    fn set_b(&mut self, comm: &Comm, y: &Mat) {
        self.b_rep = self.view.redistribute(comm, Operand::B, y, true);
        self.b_stat = self.stat_layout(Operand::B).split(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalProblem;
    use crate::worker::DistWorker;
    use dsk_comm::{MachineModel, Phase, SimWorld};
    use dsk_dense::ops::max_abs_diff;
    use std::sync::Arc;

    const FAMILY: AlgorithmFamily = AlgorithmFamily::SparseShift15;

    fn view(prob: &GlobalProblem, p: usize, c: usize) -> PlanView {
        PlanView::of(KernelId::Family(FAMILY), c, p, prob.dims)
    }

    #[test]
    fn sddmm_matches_reference() {
        for (p, c) in [(4, 1), (4, 2), (8, 2), (6, 3), (8, 8)] {
            let (m, n, r) = (26, 22, 8);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 51));
            let expect = prob.reference_sddmm().to_coo().to_dense();
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
                worker.sddmm();
                worker.gather_r(comm)
            });
            let got = out[0].value.as_ref().unwrap().to_dense();
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-9, "sddmm mismatch p={p} c={c}");
            }
        }
    }

    #[test]
    fn fused_b_matches_reference() {
        for elision in [Elision::None, Elision::ReplicationReuse] {
            let (p, c, m, n, r) = (6, 2, 20, 24, 7);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 52));
            let expect = prob.reference_fused_b();
            let view = view(&prob, p, c);
            let layout = move |g| view.b_layout_of(g);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
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
    fn fused_a_matches_reference() {
        for elision in [Elision::None, Elision::ReplicationReuse] {
            let (p, c, m, n, r) = (8, 2, 26, 18, 8);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 53));
            let expect = prob.reference_fused_a();
            let view = view(&prob, p, c);
            let layout = move |g| view.a_layout_of(g);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
                let got = worker.fused_mm_a(None, elision, Sampling::Values);
                crate::layout::gather_dense(comm, 0, &got, layout, m, r)
            });
            let got = out[0].value.as_ref().unwrap();
            assert!(
                max_abs_diff(got, &expect) < 1e-9,
                "fused_mm_a mismatch elision={elision:?}"
            );
        }
    }

    #[test]
    fn spmm_kernels_match_reference() {
        let (p, c, m, n, r) = (4, 2, 17, 23, 6);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 54));
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
    fn spmm_a_with_matches_reference() {
        // R·B where R = SDDMM(A,B,S), output in the replicate A layout.
        let (p, c, m, n, r) = (6, 3, 24, 21, 6);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 55));
        let expect = prob.reference_fused_a();
        let view = view(&prob, p, c);
        let layout = move |g| view.spmm_a_with_layout_of(g);
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            worker.sddmm();
            let got = worker.spmm_a_with(&worker.b_iterate());
            crate::layout::gather_dense(comm, 0, &got, layout, m, r)
        });
        assert!(max_abs_diff(out[0].value.as_ref().unwrap(), &expect) < 1e-9);
    }

    #[test]
    fn sparse_shift_words_are_3_per_nonzero() {
        let (p, c, m, n, r) = (8, 2, 32, 32, 8);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 56));
        let nnz = prob.nnz();
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let _ = worker.fused_mm_b(None, Elision::ReplicationReuse, Sampling::Values);
        });
        // Two rounds, every shift carrying one column block at 3 words
        // per nonzero: the accumulating dots round takes q shifts, the
        // SpMM's input lane q − 1. Total across all ranks and steps:
        // (2q − 1) · 3 · nnz.
        let q = p / c;
        let total: u64 = out
            .iter()
            .map(|o| o.stats.phase(Phase::Propagation).words_sent)
            .sum();
        assert_eq!(total, ((2 * q - 1) * 3 * nnz) as u64);
    }

    #[test]
    fn reuse_halves_replication_volume() {
        let (p, c, m, n, r) = (8, 4, 32, 32, 8);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 57));
        let mut repl_words = Vec::new();
        for elision in [Elision::None, Elision::ReplicationReuse] {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, FAMILY, c, &pr);
                let _ = worker.fused_mm_b(None, elision, Sampling::Values);
            });
            let total: u64 = out
                .iter()
                .map(|o| o.stats.phase(Phase::Replication).words_sent)
                .sum();
            repl_words.push(total);
        }
        assert_eq!(repl_words[0], 2 * repl_words[1]);
    }
}
