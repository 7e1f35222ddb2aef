//! The 2.5D dense-replicating algorithm (Algorithm 2 of the paper).
//!
//! Grid `q × q × c` with `q = √(p/c)` ([`GridComms25`]). Each of the `c`
//! layers runs a Cannon-style schedule on its `q × q` face:
//!
//! * `S` is cut into `q` macro block rows × `q·c` column blocks; layer
//!   `w` owns the column blocks `j ≡ w (mod c)` — together the layers
//!   partition `S`, so SDDMM outputs need no reduction and each layer
//!   sums a disjoint `1/c` of the `n`-contraction for SpMMA;
//! * `B` is cut into `q·c` block rows (aligned with `S`'s column
//!   blocks) × `q` r-slices;
//! * `A` is **replicated**: rank `(u, v, w)` owns the `w`-th sub-block
//!   of macro row `u` restricted to slice `v`; an all-gather along the
//!   fiber materializes `T = A[macro u, slice v]` (or `T` starts at
//!   zero and is reduce-scattered when `A` is the output).
//!
//! At step `t`, rank `(u, v, w)` holds the `S` block with column index
//! `σ·c + w` and the `B` block with row index `σ·c + w`, where
//! `σ = (u + v + t) mod q`; `S` shifts within grid rows and `B` within
//! grid columns. Blocks are **stored pre-skewed** (the paper notes the
//! initial alignment shift can be elided by filling buffers
//! appropriately, and excludes it from its analysis).
//!
//! A traveling SDDMM block accumulates slice-partial dot products
//! (visiting all `q` slices as it crosses its grid row); for SpMMB the
//! `B`-shaped output circulates as an accumulator alongside, completing
//! the `m`-contraction with no fiber traffic.

use dsk_comm::{Comm, CommPattern, Grid25, GridComms25, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CooMatrix;

use crate::common::{
    block_range, reduce_rows, replicate_rows, route, Elision, Routing, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RValues, Source};
use crate::staged::{Cut, StagedProblem};
use crate::state::KernelState;

/// Tag for traveling sparse blocks (row-ring).
const TAG_SPARSE: u32 = 120;
/// Tag for traveling dense panels (column-ring).
const TAG_DENSE: u32 = 121;

/// Per-rank state of the 2.5D dense-replicating algorithm.
pub struct DenseRepl25 {
    /// Grid communicators (row ring, column ring, fiber).
    pub gc: GridComms25,
    /// The pattern stores hold the canonical (pre-skewed) home blocks
    /// of `S` (R store) and of `Sᵀ`: rows local to macro row `u`,
    /// columns local to their column block; values = sampling values.
    /// Each operand's iterate is its travel-layout block, its replica
    /// copy its fiber sub-block.
    state: KernelState,
    /// Column-ring pattern of the orientation in which `A` travels
    /// (transposed) and of the one in which `B` does (canonical).
    routes: [Option<CommPattern>; 2],
}

impl DenseRepl25 {
    /// Build this rank's state on the plan's `view` from the shared
    /// staging `sp`. Under [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] each orientation, canonical first, exchanges
    /// this rank's need sets over the column ring: the panel that starts
    /// at member `o` has `σ`-index `o + v`, and member `u` reads (or
    /// writes) it at exactly the column support of `u`'s sparse block
    /// `σ·c + w`.
    pub fn from_staged(comm: &Comm, view: PlanView, routing: Routing, sp: &StagedProblem) -> Self {
        let (prob, c) = (&*sp.prob, view.c());
        let grid = Grid25::new(view.p(), c).expect("invalid 2.5D grid");
        let gc = GridComms25::build(comm, grid);
        let (q, u, v, w) = (grid.q, gc.u, gc.v, gc.w);
        let routed = |cut: &Cut| {
            route(&gc.col_ring, routing, || {
                let cols = |o: usize| cut.grid[u][(o + v) % q * c + w].cols.clone();
                (0..q).map(|o| RowSet::from_indices(cols(o))).collect()
            })
        };
        let s = sp.cut(&view, comm.rank(), false);
        let (r, route_b) = (s.coo(), routed(&s));
        let st = sp.cut(&view, comm.rank(), true);
        let routes = [routed(&st), route_b];
        let state = KernelState::new(view, comm, prob, r, Some(st.coo()));
        DenseRepl25 { gc, state, routes }
    }

    /// The home block of the orientation in which `y_op` travels: `S`
    /// for `B` (the canonical one: `S` and `B` travel, `A` is
    /// replicated), `Sᵀ` for `A` (the transposed one).
    fn home(&self, y_op: Operand) -> &CooMatrix {
        self.state.pattern(y_op.other()).coo_block()
    }

    fn q(&self) -> usize {
        self.gc.grid.q
    }

    /// Reduce-scatter a macro-row accumulator along the fiber back to
    /// this rank's sub-block.
    fn reduce_to_fiber(&self, t_buf: &Mat) -> Mat {
        let c = self.gc.grid.c;
        reduce_rows(&self.gc.fiber, t_buf, |ww| {
            block_range(t_buf.nrows(), c, ww)
        })
    }

    /// Row-ring pipeline for the traveling sparse block (one step
    /// backward per hop: its σ index advances by one).
    fn sparse_pipeline(&self) -> ShiftPipeline<'_> {
        let q = self.gc.row_ring.size();
        ShiftPipeline::new(&self.gc.row_ring, q - 1, TAG_SPARSE)
    }

    /// Column-ring pipeline for the traveling dense panel, dense or
    /// routed by `route`. The panel travels as a [`Mat`] payload (or a
    /// routed row bundle with zero-fill reconstruction), so its shape —
    /// including empty r-slices — survives the hop; callers cross-check
    /// each visit's row count against the schedule via
    /// [`DenseRepl25::check_panel`].
    fn dense_pipeline<'a>(&'a self, route: Option<&'a CommPattern>) -> ShiftPipeline<'a> {
        let q = self.gc.col_ring.size();
        ShiftPipeline::new(&self.gc.col_ring, q - 1, TAG_DENSE).routed(route)
    }

    /// Schedule cross-check for a visit: the panel held is the block
    /// row of the traveling dense matrix that the sparse block held
    /// addresses (empty panels carry no shape).
    fn check_panel(blk: &CooMatrix, y: &Mat) {
        debug_assert!(
            y.ncols() == 0 || y.nrows() == blk.ncols,
            "block/panel misalignment"
        );
    }

    /// All-gather the operand replicated while `y_op` travels along
    /// the fiber into its macro-row panel (as tall as the home block).
    fn replicate(&self, y_op: Operand) -> Mat {
        let (x, rows) = (self.state.replica(y_op.other()), self.home(y_op).nrows);
        replicate_rows(&self.gc.fiber, x, rows, None)
    }

    /// The column-ring pattern of the orientation in which `y_op`
    /// travels.
    fn route(&self, y_op: Operand) -> Option<&CommPattern> {
        self.routes[y_op as usize].as_ref()
    }

    /// SDDMM travel round: a copy of the home sparse block accumulates
    /// slice-partial combines as it crosses its grid row; `y` panels
    /// travel alongside. Returns the block back home, its values fully
    /// accumulated (no sampling).
    fn dots_round(
        &self,
        y_op: Operand,
        t_buf: &Mat,
        y0: &Mat,
        combine: &CombineSpec,
        route: Option<&CommPattern>,
    ) -> CooMatrix {
        let home = self.home(y_op);
        let q = self.q();
        let slice = block_range(self.state.view.dims().r, q, self.gc.v);
        let mut blk = home.clone();
        blk.vals.fill(0.0);
        let mut y = self.dense_pipeline(route).input(y0);
        let pipe_s = self.sparse_pipeline();
        for _ in 0..q {
            // The panel is an input lane: post its next hop before the
            // compute so the transfer hides behind it. The sparse block
            // accumulates this step's combines, so it exchanges after.
            Self::check_panel(&blk, y.block());
            let hop = y.post_mat();
            let (mut vals, yb) = (std::mem::take(&mut blk.vals), y.block());
            let com = combine.for_slice(slice.clone());
            self.gc
                .row_ring
                .compute(kern::sddmm_flops(blk.rows.len(), slice.len()), || {
                    kern::sddmm::sddmm_coo_acc_with(&mut vals, &blk, t_buf, yb, com)
                });
            blk.vals = vals;
            blk = pipe_s.exchange(blk);
            y.arrive(hop);
        }
        debug_assert_eq!(blk.nnz(), home.nnz(), "block failed to return home");
        blk
    }

    /// SpMM travel round with a replicated accumulator (`T += S·y` per
    /// step, `home` the valued home block) — the SpMMA data flow; caller
    /// reduce-scatters.
    fn spmm_out_round(&self, home: &CooMatrix, y0: &Mat) -> Mat {
        let width = y0.ncols();
        let mut t_out = Mat::zeros(home.nrows, width);
        let mut blk = self.sparse_pipeline().input(home);
        let mut y = self.dense_pipeline(self.route(Operand::B)).input(y0);
        for _ in 0..self.q() {
            // Both travelers are input lanes here (the accumulator is
            // replicated, not circulating): post both hops up front and
            // overlap the two transfers with the local SpMM.
            Self::check_panel(blk.block(), y.block());
            let hop_s = blk.post();
            let hop_y = y.post_mat();
            let (b, yb) = (blk.block(), y.block());
            self.gc
                .row_ring
                .compute(kern::spmm_flops(b.nnz(), width), || {
                    kern::spmm_coo_acc(&mut t_out, b, yb)
                });
            blk.arrive(hop_s);
            y.arrive(hop_y);
        }
        t_out
    }

    /// SpMM travel round with a circulating output accumulator (`out +=
    /// Sᵀ·T` per step, `out` shaped like the `y_op` iterate and
    /// traveling the column ring) — the SpMMB data flow.
    fn spmm_shift_acc_round(
        &self,
        y_op: Operand,
        home: &CooMatrix,
        t_buf: &Mat,
        route: Option<&CommPattern>,
    ) -> Mat {
        let width = t_buf.ncols();
        let mut out = Mat::zeros(self.state.operand(y_op).nrows(), width);
        let mut blk = self.sparse_pipeline().input(home);
        let pipe_y = self.dense_pipeline(route);
        for t in 0..self.q() {
            // The sparse block is read-only this step (input lane); the
            // output panel is written by the kernel, so it exchanges
            // only after the compute finishes.
            let hop = blk.post();
            let b = blk.block();
            debug_assert_eq!(b.ncols, out.nrows(), "block/accumulator misalignment");
            self.gc
                .row_ring
                .compute(kern::spmm_flops(b.nnz(), width), || {
                    kern::spmm_coo_t_acc(&mut out, b, t_buf)
                });
            blk.arrive(hop);
            out = pipe_y.exchange_mat(out, t);
        }
        out
    }
}

impl DistKernel for DenseRepl25 {
    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }

    /// Replicates `A`, travels `S` and `B`.
    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let (b, t_buf) = (self.state.operand(Operand::B), self.replicate(Operand::B));
        let route = self.route(Operand::B);
        vec![self.dots_round(Operand::B, &t_buf, b, combine, route).vals]
    }

    /// Returned in the fiber `A` layout.
    fn spmm_a(&mut self) -> Mat {
        let b = self.state.operand(Operand::B);
        let t_out = self.spmm_out_round(self.home(Operand::B), b);
        self.reduce_to_fiber(&t_out)
    }

    /// Returned in the travel `B` layout (pre-skewed home block).
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let t_buf = self.replicate(Operand::B);
        let (home, _) = self.state.r.traveler_of(Source::stored_if(use_r));
        self.spmm_shift_acc_round(Operand::B, &home, &t_buf, self.route(Operand::B))
    }

    /// On the orientation in which `out` travels: `y` (travel layout)
    /// defaults to the stored traveling operand; the result is in the
    /// same layout.
    fn fused(
        &mut self,
        out: Operand,
        y: Option<&Mat>,
        elision: Elision,
        sampling: Sampling,
    ) -> Mat {
        let route = self.route(out).filter(|_| elision == Elision::None);
        let t_buf = self.replicate(out);
        let y0 = y.unwrap_or(self.state.operand(out));
        let mut blk = self.dots_round(out, &t_buf, y0, &CombineSpec::Dot, route);
        sampling.apply(&mut blk.vals, &self.home(out).vals);
        // Unoptimized: without elision the SpMM call replicates again.
        let again = (elision == Elision::None).then(|| self.replicate(out));
        self.spmm_shift_acc_round(out, &blk, again.as_ref().unwrap_or(&t_buf), route)
    }

    /// Takes a travel-layout operand; returned in the fiber `A` layout.
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        let (traveler, sums) = self.state.r.traveler_of(vals.into());
        let t_out = self.spmm_out_round(&traveler, y);
        (self.reduce_to_fiber(&t_out), sums)
    }

    fn rhs_a(&mut self, comm: &Comm) -> Mat {
        // The SpMMA output lands in the fiber layout; the iterate lives
        // in the travel layout — pay the distribution shift (Fig. 9).
        let fiber = self.spmm_a();
        self.state
            .view
            .redistribute(comm, Operand::A, &fiber, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AlgorithmFamily;
    use crate::global::GlobalProblem;
    use crate::kernel::KernelId;
    use crate::worker::DistWorker;
    use dsk_comm::{MachineModel, Phase, SimWorld};
    use dsk_dense::ops::max_abs_diff;
    use std::sync::Arc;

    const FAMILY: AlgorithmFamily = AlgorithmFamily::DenseRepl25;

    fn view(prob: &GlobalProblem, p: usize, c: usize) -> PlanView {
        PlanView::of(KernelId::Family(FAMILY), c, p, prob.dims)
    }

    #[test]
    fn sddmm_matches_reference() {
        // (p, c): 4=2²·1, 8=2²·2, 18=3²·2, 16=4²·1
        for (p, c) in [(4, 1), (8, 2), (18, 2), (16, 1), (16, 4)] {
            let (m, n, r) = (26, 29, 8);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 61));
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
            let (p, c, m, n, r) = (8, 2, 24, 26, 7);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 62));
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
            let (p, c, m, n, r) = (18, 2, 30, 24, 9);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 63));
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
        let (p, c, m, n, r) = (8, 2, 22, 21, 6);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 64));
        let ea = prob.reference_spmm_a();
        let eb = prob.reference_spmm_b();
        let view = view(&prob, p, c);
        let la = move |g| view.spmm_a_with_layout_of(g);
        let lb = move |g| view.b_layout_of(g);
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let ga = worker.spmm_a();
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
    fn reuse_saves_one_fiber_allgather() {
        let (p, c, m, n, r) = (8, 2, 32, 32, 8);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 65));
        let mut repl = Vec::new();
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
            repl.push(total);
        }
        assert_eq!(repl[0], 2 * repl[1]);
    }

    #[test]
    fn propagation_carries_sparse_and_dense() {
        // FusedMM runs two travel rounds; each step shifts one sparse
        // block (3 words/nz) and one dense panel, except the last step
        // of the round's input lane.
        let (p, c, m, n, r) = (16, 4, 32, 32, 8);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 66));
        let nnz = prob.nnz() as u64;
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let _ = worker.fused_mm_b(None, Elision::ReplicationReuse, Sampling::Values);
        });
        let q = 2; // √(16/4)
        let total: u64 = out
            .iter()
            .map(|o| o.stats.phase(Phase::Propagation).words_sent)
            .sum();
        // Each round has one accumulator (q steps) and one input lane
        // (q − 1 steps): sparse 3·nnz and dense n·r words per step,
        // totalled across ranks.
        let expected = (2 * q - 1) * (3 * nnz + (n * r) as u64);
        assert_eq!(total, expected);
    }
}
