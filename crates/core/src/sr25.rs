//! The 2.5D sparse-replicating algorithm.
//!
//! Grid `q × q × c` with `q = √(p/c)`. The dual of the dense-replicating
//! 2.5D algorithm: here the **sparse matrix is replicated** along the
//! fiber and **both dense matrices propagate**. Its attractive property
//! (paper §V-D): only the sparse *values* ever cross the fiber — the
//! coordinates are shared by all `c` layers — so replication traffic is
//! proportional to `φ`, making the algorithm excellent for very sparse
//! `S`.
//!
//! * `S` is cut into `q × q` blocks; block `(u, v)`'s *pattern* lives on
//!   every fiber rank `(u, v, ·)`, its sampling *values* are split
//!   `1/c` per layer (an all-gather assembles them when a kernel
//!   starts).
//! * The r-dimension is cut into `q·c` slices. `A` panels
//!   `(macro row u) × slice` and `B` panels `(macro row v) × slice` are
//!   placed pre-skewed: rank `(u, v, w)` homes slice `((u+v) mod q)·c + w`
//!   of both; `A` travels the row ring, `B` the column ring, so the two
//!   panels at a rank always carry the same slice.
//! * SDDMM accumulates slice-partial dot products per layer over `q`
//!   steps; an **all-reduce of the values along the fiber** completes
//!   them (this is the only inter-layer traffic, `O(nnz/p)` words).
//! * SpMM circulates zero-initialized output panels (along the row ring
//!   for SpMMA, column ring for SpMMB) that accumulate the full
//!   contraction with no fiber traffic at all.
//!
//! No communication elision applies: there is no dense replication to
//! reuse and rows are sliced, so FusedMM is always two rounds, its SpMM
//! reading the SDDMM's sampled values as the call's own. Every SpMM is
//! one round that reads its values from the store's one source
//! (`rstore::Source`); R is written by `sddmm` alone.

use dsk_comm::{Comm, CommPattern, Grid25, GridComms25, Phase, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CsrMatrix;

use crate::common::{block_range, route, Elision, Routing, Sampling, ShiftPipeline};
use crate::kernel::{CombineSpec, DistKernel};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RValues, Source};
use crate::staged::StagedProblem;
use crate::state::KernelState;

/// Tag for `A` panels (row-ring traffic).
const TAG_A: u32 = 130;
/// Tag for `B` panels (column-ring traffic).
const TAG_B: u32 = 131;

/// Per-rank state of the 2.5D sparse-replicating algorithm.
pub struct SparseRepl25 {
    /// Grid communicators.
    pub gc: GridComms25,
    /// The R store holds the local `S` block's pattern (CSR) as a
    /// replicated share: the sampling values are distributed along the
    /// fiber, so the block carries only this layer's `1/c` share (a
    /// contiguous range of the CSR nonzero order, zero elsewhere). The
    /// fully reduced R values are held on every layer after `sddmm`.
    /// The operands are the home (pre-skewed) `A` and `B` panels.
    state: KernelState,
    /// Row-ring pattern for `A`-side panels and column-ring pattern for
    /// `B`-side panels (`None` = dense shifts).
    routes: [Option<CommPattern>; 2],
}

impl SparseRepl25 {
    /// Build this rank's state on the plan's `view` from the shared
    /// staging `sp`. Under [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] it exchanges this rank's need sets over the
    /// row ring, then the column ring. The stationary block `(u, v)`
    /// reads every visiting `A` panel at its row support and every `B`
    /// panel at its column support — the same sets whichever slice the
    /// panel carries, so each origin entry repeats them.
    pub fn from_staged(comm: &Comm, view: PlanView, routing: Routing, sp: &StagedProblem) -> Self {
        let (prob, c) = (&*sp.prob, view.c());
        let grid = Grid25::new(view.p(), c).expect("invalid 2.5D grid");
        let gc = GridComms25::build(comm, grid);
        let s = sp.cut(&view, comm.rank(), false);
        let (blk, q) = (s.cell(0), grid.q);
        let need = |support: &[u32]| vec![RowSet::from_indices(support.to_vec()); q];
        let routes = [
            route(&gc.row_ring, routing, || need(&blk.rows)),
            route(&gc.col_ring, routing, || need(&blk.cols)),
        ];
        let r = s.csr().replicated_share(gc.w, c);
        let state = KernelState::new(view, comm, prob, r, None);
        SparseRepl25 { gc, state, routes }
    }

    fn q(&self) -> usize {
        self.gc.grid.q
    }

    /// The stationary `S` block (pattern; its values are only this
    /// layer's sampling share).
    fn pattern(&self) -> &CsrMatrix {
        &self.state.r.csr_blocks()[0]
    }

    /// All-gather the distributed sampling values along the fiber
    /// (replication traffic — the only fiber traffic besides the SDDMM
    /// value all-reduce).
    fn allgather_sampling(&self) -> Vec<f64> {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let full = self.gc.fiber.allgatherv_f64(self.state.r.scored_sampling());
        debug_assert_eq!(full.len(), self.pattern().nnz());
        full
    }

    /// The pipeline `op`'s panels travel: `A` panels the row ring, `B`
    /// panels the column ring, one step backward per hop, routed by the
    /// ring's pattern. Panels travel as [`Mat`] payloads or routed row
    /// bundles, so the incoming slice width — slices differ by one
    /// column when `q·c ∤ r` — arrives with the data; callers
    /// cross-check it against the schedule.
    fn pipeline(&self, op: Operand) -> ShiftPipeline<'_> {
        let (ring, tag) = match op {
            Operand::A => (&self.gc.row_ring, TAG_A),
            Operand::B => (&self.gc.col_ring, TAG_B),
        };
        let route = self.routes[op as usize].as_ref();
        ShiftPipeline::new(ring, ring.size() - 1, tag).routed(route)
    }

    /// Width of the r-slice carried at step `t` (slices can differ by
    /// one column when `q·c ∤ r`).
    fn slice_at(&self, t: usize) -> std::ops::Range<usize> {
        let q = self.q();
        let sigma = (self.gc.u + self.gc.v + t) % q;
        block_range(
            self.state.view.dims().r,
            q * self.gc.grid.c,
            sigma * self.gc.grid.c + self.gc.w,
        )
    }

    /// SDDMM travel round from home panels `a0`/`b0`: both panels
    /// travel; this layer accumulates partial combines over its `q`
    /// slices, and an all-reduce along the fiber completes them (the
    /// fully reduced, unsampled values, replicated on every layer).
    fn dots_round(&self, a0: &Mat, b0: &Mat, combine: &CombineSpec) -> Vec<f64> {
        let s = self.pattern();
        let mut acc = vec![0.0; s.nnz()];
        let mut a = self.pipeline(Operand::A).input(a0);
        let mut b = self.pipeline(Operand::B).input(b0);
        for t in 0..self.q() {
            let slice = self.slice_at(t);
            debug_assert_eq!(a.block().ncols(), slice.len(), "panel slice misalignment");
            // Both panels are input lanes: post both hops before the
            // combine so the two ring transfers overlap it (and each
            // other).
            let hop_a = a.post_mat();
            let hop_b = b.post_mat();
            let com = combine.for_slice(slice.clone());
            let (ab, bb) = (a.block(), b.block());
            self.gc
                .row_ring
                .compute(kern::sddmm_flops(s.nnz(), slice.len()), || {
                    kern::sddmm::sddmm_csr_acc_with(&mut acc, s, ab, bb, com)
                });
            a.arrive(hop_a);
            b.arrive(hop_b);
        }
        let _ph = self.gc.fiber.phase(Phase::Replication);
        self.gc.fiber.allreduce_sum(&mut acc);
        acc
    }

    /// SpMM travel round producing `out` (SpMMA for `A`, SpMMB for
    /// `B`) with values from `src`: the other operand's panels, from
    /// home panel `x0`, travel their ring as an input lane, and a zero
    /// panel shaped like `out`'s home circulates its own ring
    /// accumulating `S·B` (`Sᵀ·A`) per slice. The stationary block is
    /// walked once per step, `q` times in all; made values are summed
    /// on the first walk and their row sums come back beside the panel.
    /// The sampling values are all-gathered along the fiber first (the
    /// store holds only this layer's share).
    fn spmm_round(&self, out: Operand, src: Source<'_>, x0: &Mat) -> (Mat, Vec<f64>) {
        let sampling = matches!(src, Source::Sampling).then(|| [self.allgather_sampling()]);
        let src = sampling.as_ref().map_or(src, |s| Source::Given(s));
        let vals = self.state.r.csr_values(src);
        let (nnz, mut sums) = (self.pattern().nnz(), vals.sums());
        let home = self.state.operand(out);
        let mut acc = Mat::zeros(home.nrows(), home.ncols());
        let mut x = self.pipeline(out.other()).input(x0);
        let pipe_out = self.pipeline(out);
        for t in 0..self.q() {
            debug_assert_eq!(acc.ncols(), x.block().ncols(), "panel slice misalignment");
            // The input panel is posted early; the accumulator is
            // written by the kernel and exchanges after.
            let hop = x.post_mat();
            let xb = x.block();
            let sums = (t == 0).then_some(&mut sums[..]);
            self.gc
                .row_ring
                .compute(kern::spmm_flops(nnz, xb.ncols()), || match out {
                    Operand::A => vals.spmm(0, &mut acc, xb, sums),
                    Operand::B => vals.spmm_t(0, &mut acc, xb),
                });
            // Schedule cross-check: an arriving accumulator panel carries
            // the next slice's width, or no shape when empty.
            acc = pipe_out.exchange_mat(acc, t);
            debug_assert!(acc.is_empty() || acc.ncols() == self.slice_at(t + 1).len());
            x.arrive(hop);
        }
        (acc, sums)
    }

    /// Multiply fully reduced SDDMM values by the sampling values,
    /// all-gathered along the fiber ([`Sampling::Values`]; nothing
    /// moves under [`Sampling::Ones`]).
    fn gather_and_sample(&self, mut dots: Vec<f64>, sampling: Sampling) -> Vec<f64> {
        if sampling == Sampling::Values {
            sampling.apply(&mut dots, &self.allgather_sampling());
        }
        dots
    }
}

impl DistKernel for SparseRepl25 {
    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }

    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let st = &self.state;
        vec![self.dots_round(st.operand(Operand::A), st.operand(Operand::B), combine)]
    }

    /// The store holds only this layer's share of the sampling values:
    /// after the dots' all-reduce, the rest are all-gathered.
    fn sddmm(&mut self) {
        let dots = self.dots(&CombineSpec::Dot).remove(0);
        let vals = self.gather_and_sample(dots, Sampling::Values);
        self.state.r.set(vec![vals]);
    }

    /// Returned in the `A` panel layout.
    fn spmm_a(&mut self) -> Mat {
        let b = self.state.operand(Operand::B);
        self.spmm_round(Operand::A, Source::Sampling, b).0
    }

    /// Returned in the `B` panel layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let a = self.state.operand(Operand::A);
        self.spmm_round(Operand::B, Source::stored_if(use_r), a).0
    }

    /// Two rounds, always (no elision applies: there is no dense
    /// replication to reuse and rows are sliced, paper §V-D); the SpMM
    /// reads the sampled dots.
    fn fused(
        &mut self,
        out: Operand,
        x: Option<&Mat>,
        _elision: Elision,
        sampling: Sampling,
    ) -> Mat {
        let st = &self.state;
        let (x, fixed) = (x.unwrap_or(st.operand(out)), st.operand(out.other()));
        let (a, b) = match out {
            Operand::A => (x, fixed),
            Operand::B => (fixed, x),
        };
        let dots = self.dots_round(a, b, &CombineSpec::Dot);
        let rvals = [self.gather_and_sample(dots, sampling)];
        self.spmm_round(out, Source::Given(&rvals), fixed).0
    }

    /// Made values are summed on the first of the block's `q` walks.
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        self.spmm_round(Operand::A, vals.into(), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AlgorithmFamily;
    use crate::global::GlobalProblem;
    use crate::kernel::KernelId;
    use crate::worker::DistWorker;
    use dsk_comm::{MachineModel, SimWorld};
    use dsk_dense::ops::max_abs_diff;
    use std::sync::Arc;

    const FAMILY: AlgorithmFamily = AlgorithmFamily::SparseRepl25;

    fn view(prob: &GlobalProblem, p: usize, c: usize) -> PlanView {
        PlanView::of(KernelId::Family(FAMILY), c, p, prob.dims)
    }

    #[test]
    fn sddmm_matches_reference() {
        for (p, c) in [(4, 1), (8, 2), (18, 2), (16, 4), (27, 3)] {
            let (m, n, r) = (27, 24, 13);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 71));
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
    fn fused_kernels_match_reference() {
        let (p, c, m, n, r) = (8, 2, 25, 22, 11);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 72));
        let ea = prob.reference_fused_a();
        let eb = prob.reference_fused_b();
        let view = view(&prob, p, c);
        let (la, lb) = (move |g| view.a_layout_of(g), move |g| view.b_layout_of(g));
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let ga = worker.fused_mm_a(None, Elision::None, Sampling::Values);
            let gb = worker.fused_mm_b(None, Elision::None, Sampling::Values);
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
    fn spmm_kernels_match_reference() {
        let (p, c, m, n, r) = (18, 2, 24, 27, 12);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 73));
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
    fn elision_is_rejected() {
        let (p, c) = (4, 1);
        let prob = Arc::new(GlobalProblem::erdos_renyi(16, 16, 4, 2, 74));
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker.fused_mm_a(None, Elision::ReplicationReuse, Sampling::Values)
            }))
            .is_err()
        });
        assert!(out.iter().all(|o| o.value));
    }

    #[test]
    fn fiber_traffic_is_values_only() {
        // Replication traffic must be proportional to nnz, not to the
        // dense matrices: allgather of values (c-1)/c·nnz_blk + one
        // all-reduce ≈ 3·(c-1)/c·nnz_blk words per rank.
        let (p, c, m, n, r) = (8, 2, 32, 32, 16);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 75));
        let nnz = prob.nnz() as u64;
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = DistWorker::from_global(comm, FAMILY, c, &prob);
            let _ = worker.fused_mm_a(None, Elision::None, Sampling::Values);
        });
        let total: u64 = out
            .iter()
            .map(|o| o.stats.phase(Phase::Replication).words_sent)
            .sum();
        // Per fiber of c ranks and nnz_blk values: allgather (c-1)·nnz_blk/c
        // + reduce-scatter (c-1)·nnz_blk/c + allgather (c-1)·nnz_blk/c,
        // summed over the q² fibers (each block replicated on c ranks):
        // 3·(c-1)/c·nnz total (< 3·nnz words; compare ≈ n·r dense words).
        let expected_max = 3 * nnz; // upper bound independent of r
        assert!(
            total <= expected_max,
            "fiber words {total} > {expected_max}"
        );
        assert!(total > 0);
    }
}
