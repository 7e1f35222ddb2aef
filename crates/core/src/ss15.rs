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
    block_range, reduce_rows, replicate_rows, route, Elision, Routing, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RValues, Source};
use crate::staged::{Cut, StagedProblem};
use crate::state::KernelState;

/// Tag for traveling sparse blocks.
const TAG_SPARSE: u32 = 110;

/// Per-rank state of the 1.5D sparse-shifting algorithm.
pub struct SparseShift15 {
    /// Grid communicators (layer ring + replication fiber).
    pub gc: GridComms15,
    /// The pattern stores hold the home column blocks of `S` (R store)
    /// and of `Sᵀ` (rows global, columns local to block `u·c+v`; values
    /// = sampling values). Each operand's iterate blocks are its
    /// stationary blocks by slot `w` (rows `block(rows, p, w·c+v)` ×
    /// slice `u`); its replica copy is rows `block(rows, c, v)` × slice
    /// `u`.
    state: KernelState,
    /// Fiber pattern for the `A`-replicating paths (rows over `m`) and
    /// for the transposed, `B`-replicating ones (rows over `n`); `None`
    /// = dense all-gathers, the default.
    routes: [Option<CommPattern>; 2],
}

impl SparseShift15 {
    /// Build this rank's state on the plan's `view` from the shared
    /// staging `sp`. Under [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] it exchanges this rank's need sets over the
    /// fiber, `A` side first. A rank only ever reads the replicated
    /// panel at the rows its layer ring's traveling blocks address, a
    /// union that depends only on the fiber coordinate `v`; its entry
    /// `vv` is the slice of that union in fiber member `vv`'s replicate
    /// block (indices block-local).
    pub fn from_staged(comm: &Comm, view: PlanView, routing: Routing, sp: &StagedProblem) -> Self {
        let (prob, c) = (&*sp.prob, view.c());
        let grid = Grid15::new(view.p(), c).expect("invalid 1.5D grid");
        let gc = GridComms15::build(comm, grid);
        let (q, v) = (grid.layer_size(), gc.v);
        let s = sp.cut(&view, comm.rank(), false);
        let (r, st) = (s.coo(), sp.cut(&view, comm.rank(), true));
        let routed = |cut: &Cut, total: usize| {
            route(&gc.fiber, routing, || {
                let rows = (0..q).flat_map(|w| &cut.grid[0][w * c + v].rows);
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
        let routes = [routed(&s, prob.dims.m), routed(&st, prob.dims.n)];
        let state = KernelState::new(view, comm, prob, r, Some(st.coo()));
        SparseShift15 { gc, state, routes }
    }

    fn q(&self) -> usize {
        self.gc.grid.layer_size()
    }

    /// All-gather the replicated operand `rep` along the fiber into its
    /// full panel, routed by its fiber pattern when `routed`.
    fn replicate(&self, rep: Operand, routed: bool) -> Mat {
        let route = self.routes[rep as usize].as_ref().filter(|_| routed);
        let rows = rep.rows(self.state.view.dims());
        replicate_rows(&self.gc.fiber, self.state.replica(rep), rows, route)
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

    /// SDDMM propagation round: a copy of the home block (values
    /// zeroed) travels the ring accumulating per-slice partial combines;
    /// returns the block back home, its values fully accumulated
    /// (sampling not applied).
    fn dots_round(
        &self,
        home: &CooMatrix,
        x_full: &Mat,
        y_stat: &[Mat],
        combine: &CombineSpec,
    ) -> CooMatrix {
        let q = self.q();
        let pipe = self.pipeline();
        let mut blk = home.clone();
        blk.vals.fill(0.0);
        let slice = block_range(self.state.view.dims().r, q, self.gc.u);
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
        blk
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
        let layout = self.state.layout(out);
        let zeros = |rr: &std::ops::Range<usize>| Mat::zeros(rr.len(), x_full.ncols());
        let mut outs: Vec<Mat> = layout.row_ranges.iter().map(zeros).collect();
        self.spmm_round(home, x_full.ncols(), |w, b| {
            kern::spmm_coo_t_acc(&mut outs[w], b, x_full)
        });
        Mat::vstack(&outs)
    }

    /// SpMM into the stationary layout of `out`: replicate the other
    /// operand, travel the valued home block `blk`.
    fn spmm(&self, out: Operand, blk: &CooMatrix) -> Mat {
        let t = self.replicate(out.other(), true);
        self.scatter_round(blk, &t, out)
    }
}

impl DistKernel for SparseShift15 {
    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }

    /// Replicates `A`, travels `S`; the result stays on the home block.
    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let (home, t_a) = (self.state.r.coo_block(), self.replicate(Operand::A, true));
        let y_stat = self.state.blocks(Operand::B);
        vec![self.dots_round(home, &t_a, y_stat, combine).vals]
    }

    /// Via the transposed roles (replicates `B`, travels `Sᵀ`);
    /// returned in the stationary `A` layout.
    fn spmm_a(&mut self) -> Mat {
        self.spmm(Operand::A, self.state.pattern(Operand::B).coo_block())
    }

    /// Returned in the stationary `B` layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let (traveler, _) = self.state.r.traveler_of(Source::stored_if(use_r));
        self.spmm(Operand::B, &traveler)
    }

    /// On the orientation whose stationary operand is `out`: `y`
    /// (stationary layout, stacked) defaults to the stored stationary
    /// operand, read per slot; same layout out.
    fn fused(
        &mut self,
        out: Operand,
        y: Option<&Mat>,
        elision: Elision,
        sampling: Sampling,
    ) -> Mat {
        let home = self.state.pattern(out.other()).coo_block();
        let split = y.map(|stacked| self.state.layout(out).split(stacked));
        let y_stat = split.as_deref().unwrap_or(self.state.blocks(out));
        let routed = elision == Elision::None;
        let t = self.replicate(out.other(), routed);
        let mut blk = self.dots_round(home, &t, y_stat, &CombineSpec::Dot);
        sampling.apply(&mut blk.vals, &home.vals);
        // Unoptimized: without elision the SpMM call replicates again.
        let again = routed.then(|| self.replicate(out.other(), routed));
        self.scatter_round(&blk, again.as_ref().unwrap_or(&t), out)
    }

    /// Accumulates the full `m × slice` panel locally while the R-valued
    /// home block travels, then reduce-scatters along the fiber into
    /// the replicate `A` layout (GAT's convolution step).
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        let y_layout = self.state.layout(Operand::B);
        let y_stat = y_layout.split(y);
        let (m, width) = (self.state.view.dims().m, y_layout.width());
        let mut t_full = Mat::zeros(m, width);
        let (traveler, sums) = self.state.r.traveler_of(vals.into());
        self.spmm_round(&traveler, width, |w, b| {
            kern::spmm_coo_acc(&mut t_full, b, &y_stat[w])
        });
        // Fiber reduce-scatter into the replicate layout rows.
        let c = self.gc.grid.c;
        let out = reduce_rows(&self.gc.fiber, &t_full, |vv| block_range(m, c, vv));
        (out, sums)
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
