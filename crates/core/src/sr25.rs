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
//! reuse and rows are sliced, so FusedMM is always two rounds.

use dsk_comm::{Comm, CommPattern, Grid25, GridComms25, Phase, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CsrMatrix;

use crate::common::{
    block_range, route, AlgorithmFamily, Elision, Routing, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RStore, RValues};
use crate::staged::StagedProblem;

/// Tag for `A` panels (row-ring traffic).
const TAG_A: u32 = 130;
/// Tag for `B` panels (column-ring traffic).
const TAG_B: u32 = 131;

/// Per-rank state of the 2.5D sparse-replicating algorithm.
pub struct SparseRepl25 {
    /// Grid communicators.
    pub gc: GridComms25,
    view: PlanView,
    /// The local `S` block's pattern (CSR) as a replicated-share store:
    /// the sampling values are distributed along the fiber, so the
    /// block carries only this layer's `1/c` share (a contiguous range
    /// of the CSR nonzero order, zero elsewhere). The fully reduced
    /// SDDMM values are available on every layer after a kernel.
    r: RStore,
    /// Home (pre-skewed) `A` panel.
    pub a_home: Mat,
    /// Home (pre-skewed) `B` panel.
    pub b_home: Mat,
    /// Row-ring pattern for `A`-side panels (`None` = dense shifts).
    route_a: Option<CommPattern>,
    /// Column-ring pattern for `B`-side panels.
    route_b: Option<CommPattern>,
}

impl SparseRepl25 {
    /// Build this rank's state from shared staging. Under
    /// [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] it exchanges this rank's need sets over the
    /// row ring, then the column ring. The stationary block `(u, v)`
    /// reads every visiting `A` panel at its row support and every `B`
    /// panel at its column support — the same sets whichever slice the
    /// panel carries, so each origin entry repeats them.
    pub fn from_staged(comm: &Comm, c: usize, routing: Routing, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid25::new(comm.size(), c).expect("invalid 2.5D grid");
        let gc = GridComms25::build(comm, grid);
        let q = grid.q;
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= q && n >= q, "matrix sides too small for grid");
        let (u, v, w) = (gc.u, gc.v, gc.w);

        let rows: Vec<_> = (0..q).map(|uu| block_range(m, q, uu)).collect();
        let cols: Vec<_> = (0..q).map(|vv| block_range(n, q, vv)).collect();
        let grid_s = staged.partition(false, &rows, &cols);
        let blk = &grid_s[u][v];
        let route_a = route(&gc.row_ring, routing, || {
            vec![RowSet::from_indices(blk.rows.clone()); q]
        });
        let route_b = route(&gc.col_ring, routing, || {
            vec![RowSet::from_indices(blk.cols.clone()); q]
        });
        let mut s_share = CsrMatrix::from_coo(blk);
        let part = block_range(s_share.nnz(), c, w);
        let vals = s_share.vals_mut();
        vals[..part.start].fill(0.0);
        vals[part.end..].fill(0.0);
        let offset = (rows[u].start, cols[v].start);

        let id = KernelId::Family(AlgorithmFamily::SparseRepl25);
        let view = PlanView::of(id, c, comm.size(), prob.dims);
        let g = comm.rank();
        SparseRepl25 {
            view,
            gc,
            r: RStore::csr((m, n), vec![s_share], vec![offset]).replicated_share(w, c),
            a_home: view.stage(prob, Operand::A, false, g),
            b_home: view.stage(prob, Operand::B, false, g),
            route_a,
            route_b,
        }
    }

    fn q(&self) -> usize {
        self.gc.grid.q
    }

    /// The stationary `S` block (pattern; its values are only this
    /// layer's sampling share).
    fn pattern(&self) -> &CsrMatrix {
        &self.r.csr_blocks()[0]
    }

    /// All-gather the distributed sampling values along the fiber
    /// (replication traffic — the only fiber traffic besides the SDDMM
    /// value all-reduce).
    fn allgather_sampling(&self) -> Vec<f64> {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let full = self.gc.fiber.allgatherv_f64(self.r.scored_sampling());
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
        let (ring, tag, route) = match op {
            Operand::A => (&self.gc.row_ring, TAG_A, &self.route_a),
            Operand::B => (&self.gc.col_ring, TAG_B, &self.route_b),
        };
        ShiftPipeline::new(ring, ring.size() - 1, tag).routed(route.as_ref())
    }

    /// Schedule cross-check for an arriving accumulator panel: empty
    /// panels carry no shape, all others must match the expected slice
    /// width.
    fn check_panel(got: Mat, next_width: usize) -> Mat {
        debug_assert!(got.is_empty() || got.ncols() == next_width);
        got
    }

    /// Width of the r-slice carried at step `t` (slices can differ by
    /// one column when `q·c ∤ r`).
    fn slice_at(&self, t: usize) -> std::ops::Range<usize> {
        let q = self.q();
        let sigma = (self.gc.u + self.gc.v + t) % q;
        block_range(
            self.view.dims().r,
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
    /// `B`): the other operand's panels, from home panel `x0`, travel
    /// their ring as an input lane, and a zero panel shaped like `out`'s
    /// home circulates its own ring accumulating `S·B` (`Sᵀ·A`) per
    /// slice. `s` is the stationary block carrying the values to
    /// multiply with.
    fn spmm_round(&self, out: Operand, s: &CsrMatrix, x0: &Mat) -> Mat {
        self.travel_round(out, s.nnz(), x0, |_, acc, xb| match out {
            Operand::A => kern::spmm_csr_acc(acc, s, xb),
            Operand::B => kern::spmm_csr_t_acc(acc, s, xb),
        })
    }

    /// [`SparseRepl25::spmm_round`]'s data flow with the local kernel
    /// `op(t, acc, x)` at step `t`, metered for `nnz` nonzeros: the
    /// stationary block is walked once per step, `q` times in all.
    fn travel_round(
        &self,
        out: Operand,
        nnz: usize,
        x0: &Mat,
        mut op: impl FnMut(usize, &mut Mat, &Mat),
    ) -> Mat {
        let (home, input) = match out {
            Operand::A => (&self.a_home, Operand::B),
            Operand::B => (&self.b_home, Operand::A),
        };
        let mut acc = Mat::zeros(home.nrows(), home.ncols());
        let mut x = self.pipeline(input).input(x0);
        let pipe_out = self.pipeline(out);
        for t in 0..self.q() {
            debug_assert_eq!(acc.ncols(), x.block().ncols(), "panel slice misalignment");
            // The input panel is posted early; the accumulator is
            // written by the kernel and exchanges after.
            let hop = x.post_mat();
            let xb = x.block();
            self.gc
                .row_ring
                .compute(kern::spmm_flops(nnz, xb.ncols()), || op(t, &mut acc, xb));
            let next = self.slice_at(t + 1).len();
            acc = Self::check_panel(pipe_out.exchange_mat(acc, t), next);
            x.arrive(hop);
        }
        acc
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

    /// The stationary block carrying the stored R values or, without
    /// `use_r`, the sampling values all-gathered along the fiber.
    fn s_valued(&self, use_r: bool) -> CsrMatrix {
        if use_r {
            self.pattern().with_vals(self.r.vals()[0].clone())
        } else {
            self.pattern().with_vals(self.allgather_sampling())
        }
    }

    /// The SDDMM half of a FusedMM from home panels `a0`/`b0`: the
    /// fully reduced, sampled values (replicated on every layer).
    ///
    /// # Panics
    ///
    /// Panics on any elision: there is no dense replication to reuse
    /// and rows are sliced (paper §V-D).
    fn fused_vals(&self, a0: &Mat, b0: &Mat, elision: Elision, sampling: Sampling) -> Vec<f64> {
        assert!(
            matches!(elision, Elision::None),
            "the 2.5D sparse-replicating algorithm admits no communication elision"
        );
        self.gather_and_sample(self.dots_round(a0, b0, &CombineSpec::Dot), sampling)
    }
}

impl DistKernel for SparseRepl25 {
    fn view(&self) -> PlanView {
        self.view
    }

    fn r_store(&self) -> &RStore {
        &self.r
    }

    fn r_store_mut(&mut self) -> &mut RStore {
        &mut self.r
    }

    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        vec![self.dots_round(&self.a_home, &self.b_home, combine)]
    }

    /// The store holds only this layer's share of the sampling values:
    /// after the dots' all-reduce, the rest are all-gathered.
    fn sddmm(&mut self) {
        let dots = self.dots_round(&self.a_home, &self.b_home, &CombineSpec::Dot);
        self.r
            .set(vec![self.gather_and_sample(dots, Sampling::Values)]);
    }

    /// Returned in the `A` panel layout.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        self.spmm_round(Operand::A, &self.s_valued(use_r), &self.b_home)
    }

    /// Returned in the `B` panel layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        self.spmm_round(Operand::B, &self.s_valued(use_r), &self.a_home)
    }

    /// Keeps the SDDMM values as the stored R.
    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let x = x.unwrap_or(&self.a_home);
        let rvals = self.fused_vals(x, &self.b_home, elision, sampling);
        self.r.set(vec![rvals]);
        self.spmm_round(Operand::A, &self.s_valued(true), &self.b_home)
    }

    /// Keeps the SDDMM values as the stored R.
    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let y = y.unwrap_or(&self.b_home);
        let rvals = self.fused_vals(&self.a_home, y, elision, sampling);
        self.r.set(vec![rvals]);
        self.spmm_round(Operand::B, &self.s_valued(true), &self.a_home)
    }

    /// The row ring (values are replicated along fibers, so layers
    /// don't sum): its members split macro row `u`'s columns.
    fn r_row_group<'a>(&'a self, _world: &'a Comm) -> Option<&'a Comm> {
        Some(&self.gc.row_ring)
    }

    /// Made values are summed on the first of the block's `q` walks.
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        let vals = self.r.csr_values(vals);
        let mut sums = vals.sums();
        let nnz = vals.blocks()[0].nnz();
        let out = self.travel_round(Operand::A, nnz, y, |t, acc, xb| {
            let sums = (t == 0).then_some(&mut sums[..]);
            vals.spmm(0, acc, xb, sums)
        });
        (out, sums)
    }

    fn a_iterate(&self) -> Mat {
        self.a_home.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.b_home.clone()
    }

    fn set_a(&mut self, _comm: &Comm, x: &Mat) {
        // Panel layout == iterate layout: no distribution shift.
        self.a_home = x.clone();
    }

    fn set_b(&mut self, _comm: &Comm, y: &Mat) {
        self.b_home = y.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalProblem;
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
