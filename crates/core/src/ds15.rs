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
//! Every SpMM and fused round reads its values from one source
//! (`rstore::Source`) over the `S` blocks (the R store) or the `Sᵀ` blocks (a
//! second store): the sampling values, the stored R, the call's sampled
//! dots, or ones — which the fused loop applies by skipping the
//! multiply, so no block is ever copied to carry values.
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

use dsk_comm::{Comm, CommPattern, Grid15, GridComms15, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CsrMatrix;

use crate::common::{
    block_range, reduce_rows, replicate_rows, route, union_range, Elision, Routing, Sampling,
    ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RValues, Source};
use crate::staged::StagedProblem;
use crate::state::KernelState;

/// Tag used for dense block shifts within a layer.
const TAG_SHIFT: u32 = 100;

/// Per-rank state of the 1.5D dense-shifting algorithm.
pub struct DenseShift15 {
    /// Grid communicators (layer ring + replication fiber).
    pub gc: GridComms15,
    /// The pattern stores hold the `S` (R store) and `Sᵀ` blocks by
    /// slot `w` (column block `j = w·c + v` of macro row `u`), values =
    /// sampling values; the operands are block row `g` of `A` and of
    /// `B`. The held ring tiles are those the right-hand-side rounds
    /// and iterate fused rounds received — `B`'s (`rhs_a`, FusedMMA)
    /// and `A`'s (`rhs_b`, FusedMMB): `q − 1` block rows,
    /// `(q − 1)·⌈n/p⌉·r` (`⌈m/p⌉`) words. A dense-routed plan fills them on every `rhs_*` call,
    /// whatever its elision; only local kernel fusion replays them.
    state: KernelState,
    /// Layer-ring communication pattern for pattern-routed propagation
    /// (`None` = dense shifts, the default).
    route: Option<CommPattern>,
}

impl DenseShift15 {
    /// Build this rank's state on the plan's `view` from the shared
    /// staging `sp`. Under [`Routing::Dense`] this sends nothing; under
    /// [`Routing::Pattern`] it exchanges this rank's need sets over the
    /// layer ring: for the tile from ring position `o`, the column
    /// support of the stationary block paired with it — exactly the
    /// rows of that tile this rank reads (inputs) or writes
    /// (circulating accumulators).
    pub fn from_staged(comm: &Comm, view: PlanView, routing: Routing, sp: &StagedProblem) -> Self {
        let prob = &*sp.prob;
        let grid = Grid15::new(view.p(), view.c()).expect("invalid 1.5D grid");
        let gc = GridComms15::build(comm, grid);
        let s = sp.cut(&view, comm.rank(), false);
        let (r, st) = (s.csr(), sp.cut(&view, comm.rank(), true));
        let route = route(&gc.layer, routing, || {
            s.blocks()
                .map(|b| RowSet::from_indices(b.cols.clone()))
                .collect()
        });
        let state = KernelState::new(view, comm, prob, r, Some(st.csr()));
        DenseShift15 { gc, state, route }
    }

    fn q(&self) -> usize {
        self.gc.grid.layer_size()
    }

    // ------------------------------------------------------------------
    // Building blocks
    // ------------------------------------------------------------------

    /// Reduce-scatter a macro-row accumulator of `out`'s rows along the
    /// fiber back to this rank's block row of `out` (`p`-grained ranges
    /// within macro row `u`).
    fn reduce_to_block(&self, out: Operand, t_buf: &Mat) -> Mat {
        let (p, c, u) = (self.gc.grid.p, self.gc.grid.c, self.gc.u);
        let total = out.rows(self.state.view.dims());
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
    /// (with `hold = Some(op)` its ring tiles go to, or replay from, the
    /// held tiles of `op`; dense routing only, since routed tiles are
    /// zero-filled partial panels), and each visit runs the local `op`
    /// on the stationary block of the slot where the visiting tile
    /// started and on that tile, metered at `flops(nnz, r)`.
    fn lane_round(
        &self,
        blocks: &[CsrMatrix],
        y0: &Mat,
        route: Option<&CommPattern>,
        hold: Option<Operand>,
        flops: fn(usize, usize) -> u64,
        mut op: impl FnMut(usize, &CsrMatrix, &Mat),
    ) {
        debug_assert!(
            hold.is_none() || route.is_none(),
            "routed tiles are partial"
        );
        let mut held = hold.map(|held| self.state.held(held));
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

    /// SDDMM propagation round over the `S` blocks: `A`-side `x` is
    /// replicated, `B`-side `y` shifts, dot products accumulate per slot.
    /// Returns raw dots (no sampling applied). `combine` generalizes the
    /// per-nonzero interaction (GAT attention uses an affine combine);
    /// full rows are co-located here, so it is used at full width.
    fn dots_of(&self, x: &Mat, y: &Mat, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let s = self.state.r.csr_blocks();
        let t_buf = replicate_rows(&self.gc.fiber, x, s[0].nrows(), None);
        let combine = combine.for_slice(0..self.state.view.dims().r);
        self.sddmm_round(s, &t_buf, y, combine, self.route.as_ref())
    }

    /// SDDMM propagation round over the given stationary blocks: `y`
    /// shifts, dot products accumulate per slot against `t_buf`.
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

    /// SpMM propagation round with a replicated (macro-row) accumulator
    /// of `out`'s rows: `T += R_w · y` per step over the blocks whose
    /// rows are `out`'s, with values from `src`, `y` shifting, then one
    /// reduce-scatter to this rank's block row of `out` (the SpMMA data
    /// flow over the `S` blocks). Made values' row sums come back
    /// beside it. `y` travels this kernel's route; `hold` as in
    /// [`DenseShift15::lane_round`].
    fn spmm_out(
        &self,
        out: Operand,
        src: Source<'_>,
        y0: &Mat,
        hold: Option<Operand>,
    ) -> (Mat, Vec<f64>) {
        let vals = self.state.pattern(out).csr_values(src);
        let (blocks, mut sums) = (vals.blocks(), vals.sums());
        let mut t_buf = Mat::zeros(blocks[0].nrows(), y0.ncols());
        let route = self.route.as_ref();
        self.lane_round(blocks, y0, route, hold, kern::spmm_flops, |w, _, y| {
            vals.spmm(w, &mut t_buf, y, Some(&mut sums))
        });
        (self.reduce_to_block(out, &t_buf), sums)
    }

    /// SpMM propagation round with a *circulating* accumulator of
    /// `out`'s rows: the output block rows shift around the ring, each
    /// rank adding `R_wᵀ · T` for its stationary block whose rows are
    /// the other operand's, with values from `src` (the SpMMB data
    /// flow, and the second half of replication reuse).
    fn spmm_shift_acc_round(
        &self,
        out: Operand,
        src: Source<'_>,
        t_buf: &Mat,
        route: Option<&CommPattern>,
    ) -> Mat {
        let vals = self.state.pattern(out.other()).csr_values(src);
        let pipe = self.pipeline(route);
        let r = t_buf.ncols();
        let mut acc = Mat::zeros(self.state.operand(out).nrows(), r);
        for t in 0..self.q() {
            let w = pipe.origin(t);
            let blk = &vals.blocks()[w];
            debug_assert_eq!(blk.ncols(), acc.nrows(), "block/accumulator misalignment");
            self.gc.layer.compute(kern::spmm_flops(blk.nnz(), r), || {
                vals.spmm_t(w, &mut acc, t_buf)
            });
            // Accumulator lane: the block is not final until the local
            // kernel has added its contribution, so the exchange cannot
            // be posted early.
            acc = pipe.exchange_mat(acc, t);
        }
        acc
    }
}

impl DistKernel for DenseShift15 {
    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }

    /// Replicates `A`, shifts `B`.
    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let st = &self.state;
        self.dots_of(st.operand(Operand::A), st.operand(Operand::B), combine)
    }

    /// Returned as this rank's `A`-shaped block row.
    fn spmm_a(&mut self) -> Mat {
        let b = self.state.operand(Operand::B);
        self.spmm_out(Operand::A, Source::Sampling, b, None).0
    }

    /// Returned as this rank's `B`-shaped block row: `A` is
    /// replicated, and the output circulates.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let rows = self.state.r.csr_blocks()[0].nrows();
        let t_buf = replicate_rows(&self.gc.fiber, self.state.operand(Operand::A), rows, None);
        let src = Source::stored_if(use_r);
        self.spmm_shift_acc_round(Operand::B, src, &t_buf, self.route.as_ref())
    }

    /// No elision runs the two kernels back to back on the `S` blocks,
    /// the SpMM reading the sampled dots. Replication reuse replicates
    /// the fixed operand once, over the blocks whose rows are its own:
    /// the SDDMM shifts the iterate, then the output circulates reusing
    /// the same `T` (FusedMMB without elision is this data flow on the
    /// routed ring, its SpMM call replicating `A` again). Local kernel
    /// fusion replicates the iterate over the blocks whose rows are its
    /// own and runs one fused SDDMM+SpMM round while the fixed operand
    /// travels (with `x`, an iterate call, the fixed operand's ring
    /// tiles are kept, or replayed when already held); the fused loop
    /// samples with the blocks' own values, or with ones by skipping
    /// the multiply.
    fn fused(
        &mut self,
        out: Operand,
        x: Option<&Mat>,
        elision: Elision,
        sampling: Sampling,
    ) -> Mat {
        let st = &self.state;
        let hold = x.is_some().then_some(out.other());
        let (x, fixed) = (x.unwrap_or(st.operand(out)), st.operand(out.other()));
        match elision {
            Elision::None if out == Operand::A => {
                let mut acc = self.dots_of(x, fixed, &CombineSpec::Dot);
                st.r.sample(&mut acc, sampling);
                self.spmm_out(out, Source::Given(&acc), fixed, None).0
            }
            Elision::None | Elision::ReplicationReuse => {
                let reuse = elision == Elision::ReplicationReuse;
                let route = self.route.as_ref().filter(|_| !reuse);
                let store = self.state.pattern(out.other());
                let (blocks, fiber) = (store.csr_blocks(), &self.gc.fiber);
                let t_buf = replicate_rows(fiber, fixed, blocks[0].nrows(), None);
                let dot = kern::SddmmCombine::Dot;
                let mut acc = self.sddmm_round(blocks, &t_buf, x, dot, route);
                store.sample(&mut acc, sampling);
                let again = (!reuse).then(|| replicate_rows(fiber, fixed, t_buf.nrows(), None));
                let t_buf = again.as_ref().unwrap_or(&t_buf);
                self.spmm_shift_acc_round(out, Source::Given(&acc), t_buf, route)
            }
            Elision::LocalKernelFusion => {
                let vals = self.state.pattern(out).csr_values(sampling.into());
                let blocks = vals.blocks();
                let t_in = replicate_rows(&self.gc.fiber, x, blocks[0].nrows(), None);
                let mut t_out = Mat::zeros(t_in.nrows(), fixed.ncols());
                self.lane_round(blocks, fixed, None, hold, kern::fused_flops, |w, _, y| {
                    vals.fused(w, &mut t_out, &t_in, y)
                });
                self.reduce_to_block(out, &t_out)
            }
        }
    }

    /// The SpMMA round, each stationary block walked once.
    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        self.spmm_out(Operand::A, vals.into(), y, None)
    }

    /// [`DistKernel::spmm_a`]'s `S·B` round; on dense routing it keeps
    /// `B`'s ring tiles, so every iterate call of the solve replays them.
    fn rhs_a(&mut self, _comm: &Comm) -> Mat {
        let hold = self.route.is_none().then_some(Operand::B);
        let b = self.state.operand(Operand::B);
        self.spmm_out(Operand::A, Source::Sampling, b, hold).0
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
        let (a, hold) = (self.state.operand(Operand::A), Some(Operand::A));
        self.spmm_out(Operand::B, Source::Sampling, a, hold).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AlgorithmFamily;
    use crate::common::ShiftMode;
    use crate::global::GlobalProblem;
    use crate::kernel::{KernelBuilder, KernelId};
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
    fn sampling_ones_ignores_s_values() {
        // FusedMM with Sampling::Ones must equal the reference on a
        // problem whose S values are all 1, bit for bit — even though
        // our S has random values — and so must a second call.
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
