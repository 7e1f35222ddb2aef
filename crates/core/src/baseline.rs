//! The PETSc-like 1D block-row baseline.
//!
//! The paper benchmarks against PETSc's `MatMatMult`, which requires a
//! 1D block-row distribution for every matrix and performs no
//! replication. For the off-diagonal part of the product, each rank
//! fetches exactly the remote dense rows its sparse columns touch (a
//! `VecScatter` in PETSc terms): sparsity-aware round-trip traffic that
//! scales poorly as `p` grows — on power-law matrices almost every rank
//! ends up fetching almost every row, which is why the paper reports
//! ≥10× speedups over this baseline. Following the paper, a FusedMM is
//! benchmarked as two back-to-back kernel calls with no reuse.
//!
//! The scatter *plan* (which rows go where) is computed once at
//! construction, mirroring PETSc's amortized symbolic phase; every call
//! pays the data movement.
//!
//! The baseline is a full [`DistKernel`] citizen: the same scatter that
//! feeds SpMM feeds an SDDMM (fetch the `B` rows, dot them against the
//! local `A` rows), so FusedMM, the generalized combine, and the R-value
//! surface all work — at the baseline's unfavorable communication cost,
//! which is the point of benchmarking it.

use std::collections::HashMap;

use dsk_comm::{Comm, Phase};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::partition::block_owner;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::common::{block_range, Elision, Sampling};
use crate::kernel::{CombineSpec, DistKernel};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RValues, Source};
use crate::staged::StagedProblem;
use crate::state::KernelState;

/// One direction's scatter plan.
struct Plan {
    /// For every peer rank: the *global* rows this rank must serve to
    /// it each call.
    serve: Vec<Vec<u32>>,
    /// Number of rows fetched from each peer (for assembling the
    /// stacked operand).
    fetch_counts: Vec<usize>,
    /// Global row of this rank's first local operand row.
    first_row: usize,
}

/// Per-rank state of the 1D block-row baseline.
pub struct Baseline1D {
    /// The pattern stores hold the local block rows of `S` (R store)
    /// and of `Sᵀ`, columns remapped into the stacked `[local rows ‖
    /// fetched rows]` space of their plans (each store's column map is
    /// the inverse remap); the `Sᵀ` store receives the transposed R
    /// values `Rᵀ·A` needs. The operands are block rows
    /// `block(m, p, rank)` of `A` and `block(n, p, rank)` of `B`.
    state: KernelState,
    /// World communicator (duplicated; owned by the worker so the
    /// [`DistKernel`] surface needs no per-call communicator).
    comm: Comm,
    /// The scatter plan of the orientation whose rows are each
    /// operand's: SpMMA / SDDMM (`S`-oriented, fetching `B` rows), then
    /// SpMMB (`Sᵀ`-oriented, fetching `A` rows).
    plans: [Plan; 2],
}

impl Baseline1D {
    /// Build this rank's state on the plan's `view` from shared staging,
    /// including the static scatter plans (construction traffic is
    /// charged to the `Setup` phase, matching PETSc's amortized symbolic
    /// factorization).
    pub fn from_staged(comm: &Comm, view: PlanView, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        // This rank's block row of S (of Sᵀ), remapped for its plan.
        let remapped = |transposed: bool| {
            let cut = staged.cut(&view, comm.rank(), transposed);
            let (plan, block, inv_col) = Self::build_plan(comm, cut.cell(0));
            (plan, cut.store(vec![block]).with_col_map(inv_col))
        };
        let ((plan_a, r), (plan_b, rt)) = (remapped(false), remapped(true));
        Baseline1D {
            state: KernelState::new(view, comm, prob, r, Some(rt)),
            comm: comm.dup(),
            plans: [plan_a, plan_b],
        }
    }

    /// Exchange the static fetch lists and remap the local block's
    /// columns (the operand's rows) into the stacked operand space.
    /// Returns the plan, the remapped block, and the inverse remap
    /// (global operand row of each stacked-operand index).
    fn build_plan(comm: &Comm, block: &CooMatrix) -> (Plan, CsrMatrix, Vec<u32>) {
        let (p, s_loc, operand_rows) = (comm.size(), CsrMatrix::from_coo(block), block.ncols);
        let my_range = block_range(operand_rows, p, comm.rank());

        // Unique non-local columns, grouped by owner.
        let mut needed: Vec<u32> = s_loc
            .indices()
            .iter()
            .copied()
            .filter(|&j| !my_range.contains(&(j as usize)))
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let mut requests: Vec<Vec<u32>> = vec![Vec::new(); p];
        for &j in &needed {
            requests[block_owner(operand_rows, p, j as usize)].push(j);
        }

        // Stacked operand rows: local rows first, then fetched rows in
        // (owner, request-order) sequence.
        let mut inv_col: Vec<u32> = (my_range.start as u32..my_range.end as u32).collect();
        inv_col.extend(requests.iter().flatten());
        let lookup: HashMap<u32, u32> = inv_col.iter().zip(0..).map(|(&j, k)| (j, k)).collect();
        let mut remapped = s_loc.to_coo();
        remapped.ncols = inv_col.len();
        for j in &mut remapped.cols {
            *j = lookup[j];
        }
        let plan = Plan {
            fetch_counts: requests.iter().map(Vec::len).collect(),
            // Tell each owner which of its rows we need (symbolic phase).
            serve: comm.alltoallv(requests),
            first_row: my_range.start,
        };
        (plan, CsrMatrix::from_coo(&remapped), inv_col)
    }

    /// Execute the per-call scatter: serve my rows to requesters,
    /// receive fetched rows, and stack them under the local operand.
    fn scatter_operand(&self, plan: &Plan, local: &Mat) -> Mat {
        let comm = &self.comm;
        let _ph = comm.phase(Phase::Propagation);
        let p = self.state.view.p();
        let r = local.ncols();
        let mut outgoing: Vec<Vec<f64>> = Vec::with_capacity(p);
        for peer in 0..p {
            let rows = &plan.serve[peer];
            let mut buf = Vec::with_capacity(rows.len() * r);
            for &g in rows {
                buf.extend_from_slice(local.row(g as usize - plan.first_row));
            }
            outgoing.push(buf);
        }
        let incoming = comm.alltoallv(outgoing);
        let fetched_total: usize = plan.fetch_counts.iter().sum();
        let mut stacked = Vec::with_capacity((local.nrows() + fetched_total) * r);
        stacked.extend_from_slice(local.as_slice());
        for (peer, data) in incoming.into_iter().enumerate() {
            debug_assert_eq!(data.len(), plan.fetch_counts[peer] * r);
            stacked.extend_from_slice(&data);
        }
        Mat::from_vec(local.nrows() + fetched_total, r, stacked)
    }

    /// Scatter + local SpMM of the orientation whose rows are `out`'s,
    /// with values from `src`: the shared body of SpMMA (`S`-oriented,
    /// operand `B`-side) and SpMMB (`Sᵀ`-oriented, operand `A`-side).
    /// Made values' row sums come back beside it.
    fn spmm_plan(&self, out: Operand, src: Source<'_>, local: &Mat) -> (Mat, Vec<f64>) {
        let plan = &self.plans[out as usize];
        let vals = self.state.pattern(out).csr_values(src);
        let (s, mut sums) = (&vals.blocks()[0], vals.sums());
        let operand = self.scatter_operand(plan, local);
        let r = self.state.view.dims().r;
        let mut out = Mat::zeros(s.nrows(), r);
        self.comm.compute(kern::spmm_flops(s.nnz(), r), || {
            vals.spmm(0, &mut out, &operand, Some(&mut sums))
        });
        (out, sums)
    }

    /// Redistribute the SDDMM result from the `S` orientation
    /// (partitioned by `A`'s block rows) into the `Sᵀ` store
    /// (partitioned by `B`'s block rows) — the value shuffle `Rᵀ·A`
    /// needs. Each nonzero travels as a transposed (row, col, value)
    /// triplet to the owner of its `Sᵀ` block row — one all-to-all of
    /// triplet bundles, so the cost is one message per peer carrying
    /// the paper's three words per nonzero; the traffic is charged to
    /// the propagation phase.
    fn transpose_r(&mut self) {
        let _ph = self.comm.phase(Phase::Propagation);
        let local = self.state.r.export().expect("no SDDMM result");
        let (p, d) = (self.state.view.p(), self.state.view.dims());
        type Triplets = (Vec<u32>, Vec<u32>, Vec<f64>);
        let mut outgoing: Vec<Triplets> = vec![Triplets::default(); p];
        for ((&gi, &gj), &v) in local.rows.iter().zip(&local.cols).zip(&local.vals) {
            let bucket = &mut outgoing[block_owner(d.n, p, gj as usize)];
            bucket.0.push(gj);
            bucket.1.push(gi);
            bucket.2.push(v);
        }
        let mut rt = CooMatrix::empty(d.n, d.m);
        for (rows, cols, vals) in self.comm.alltoallv(outgoing) {
            rt.rows.extend(rows);
            rt.cols.extend(cols);
            rt.vals.extend(vals);
        }
        self.state.pattern_mut(Operand::B).import(&rt);
    }

    /// Raw SDDMM accumulations through the plan of the orientation
    /// whose rows are `near`'s: fetch the needed rows of the far-side
    /// iterate `local` and combine them against this rank's near-side
    /// rows `x` — the shared body of the `S`-oriented SDDMM (`x` on the
    /// `A` side, fetching `B` rows) and its transpose. Values are
    /// aligned with the block's CSR order; no sampling applied.
    fn dots_plan(&self, near: Operand, x: &Mat, local: &Mat, combine: &CombineSpec) -> Vec<f64> {
        let (plan, r) = (&self.plans[near as usize], self.state.view.dims().r);
        let s = &self.state.pattern(near).csr_blocks()[0];
        let operand = self.scatter_operand(plan, local);
        let mut acc = vec![0.0; s.nnz()];
        self.comm.compute(kern::sddmm_flops(s.nnz(), r), || {
            kern::sddmm::sddmm_csr_acc_with(&mut acc, s, x, &operand, combine.for_slice(0..r))
        });
        acc
    }
}

impl DistKernel for Baseline1D {
    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }

    fn dots(&self, combine: &CombineSpec) -> Vec<Vec<f64>> {
        let st = &self.state;
        let (a, b) = (st.operand(Operand::A), st.operand(Operand::B));
        vec![self.dots_plan(Operand::A, a, b, combine)]
    }

    fn spmm_a(&mut self) -> Mat {
        let b = self.state.operand(Operand::B);
        self.spmm_plan(Operand::A, Source::Sampling, b).0
    }

    /// The baseline stores R in the `S` orientation; `Rᵀ·A` first
    /// redistributes the values into the `Sᵀ` store.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        if use_r {
            self.transpose_r();
        }
        let a = self.state.operand(Operand::A);
        self.spmm_plan(Operand::B, Source::stored_if(use_r), a).0
    }

    /// The SDDMM fetches the far-side operand's rows and combines them
    /// against the local rows of the iterate (the dot product is
    /// symmetric); the SpMM, a back-to-back second kernel, pays the
    /// scatter again. No elision applies.
    fn fused(&mut self, out: Operand, x: Option<&Mat>, _: Elision, sampling: Sampling) -> Mat {
        let st = &self.state;
        let (x, fixed) = (x.unwrap_or(st.operand(out)), st.operand(out.other()));
        let mut dots = [self.dots_plan(out, x, fixed, &CombineSpec::Dot)];
        self.state.pattern(out).sample(&mut dots, sampling);
        self.spmm_plan(out, Source::Given(&dots), fixed).0
    }

    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        self.spmm_plan(Operand::A, vals.into(), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalProblem;
    use crate::kernel::{KernelBuilder, KernelId};
    use dsk_comm::{MachineModel, SimWorld};
    use dsk_dense::ops::max_abs_diff;
    use std::sync::Arc;

    #[test]
    fn spmm_matches_reference() {
        for p in [1usize, 2, 5, 8] {
            let (m, n, r) = (24, 21, 5);
            let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 4, 81));
            let ea = prob.reference_spmm_a();
            let eb = prob.reference_spmm_b();
            let view = PlanView::of(KernelId::Baseline1D, 1, p, prob.dims);
            let (la, lb) = (move |g| view.a_layout_of(g), move |g| view.b_layout_of(g));
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = KernelBuilder::new(&prob).baseline().build(comm);
                let ga = worker.spmm_a();
                let gb = worker.spmm_b(false);
                (
                    crate::layout::gather_dense(comm, 0, &ga, la, m, r),
                    crate::layout::gather_dense(comm, 0, &gb, lb, n, r),
                )
            });
            let (ga, gb) = &out[0].value;
            assert!(max_abs_diff(ga.as_ref().unwrap(), &ea) < 1e-9, "p={p}");
            assert!(max_abs_diff(gb.as_ref().unwrap(), &eb) < 1e-9, "p={p}");
        }
    }

    #[test]
    fn traffic_grows_with_processor_count() {
        // The defining weakness: per-call fetch volume grows with p on
        // a matrix with scattered columns.
        let (m, n, r) = (64, 64, 8);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 8, 82));
        let mut per_rank_words = Vec::new();
        for p in [2usize, 8] {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = KernelBuilder::new(&pr).baseline().build(comm);
                let _ = worker.spmm_a();
            });
            let max_words = out
                .iter()
                .map(|o| o.stats.phase(Phase::Propagation).words_sent)
                .max()
                .unwrap();
            per_rank_words.push(max_words);
        }
        assert!(
            per_rank_words[1] > per_rank_words[0],
            "fetch volume should grow with p: {per_rank_words:?}"
        );
    }

    #[test]
    fn fused_pays_the_scatter_twice() {
        let (p, m, n, r) = (4, 16, 16, 4);
        let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 83));
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let single: u64 = {
            let pr = Arc::clone(&prob);
            let out = w.run(move |comm| {
                let mut worker = KernelBuilder::new(&pr).baseline().build(comm);
                let _ = worker.spmm_a();
            });
            out.iter()
                .map(|o| o.stats.phase(Phase::Propagation).words_sent)
                .sum()
        };
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let double: u64 = {
            let out = w.run(move |comm| {
                let mut worker = KernelBuilder::new(&prob).baseline().build(comm);
                let _ = worker.fused_mm_a(None, Elision::None, Sampling::Values);
            });
            out.iter()
                .map(|o| o.stats.phase(Phase::Propagation).words_sent)
                .sum()
        };
        assert_eq!(double, 2 * single);
    }
}
