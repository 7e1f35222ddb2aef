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

use dsk_comm::{Comm, Phase};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::partition::block_owner;
use dsk_sparse::CsrMatrix;

use crate::common::{block_range, Elision, Sampling};
use crate::kernel::{CombineSpec, DistKernel, KernelId};
use crate::planview::{Operand, PlanView};
use crate::rstore::{RStore, RValues};
use crate::staged::StagedProblem;

/// One direction's scatter plan.
struct Plan {
    /// For every peer rank: the *global* rows this rank must serve to
    /// it each call.
    serve: Vec<Vec<u32>>,
    /// Number of rows fetched from each peer (for assembling the
    /// stacked operand).
    fetch_counts: Vec<usize>,
}

/// Per-rank state of the 1D block-row baseline.
pub struct Baseline1D {
    view: PlanView,
    /// World communicator (duplicated; owned by the worker so the
    /// [`DistKernel`] surface needs no per-call communicator).
    comm: Comm,
    /// Local block rows of `A` (rows `block(m, p, rank)`).
    pub a_loc: Mat,
    /// Local block rows of `B` (rows `block(n, p, rank)`).
    pub b_loc: Mat,
    /// Plan for SpMMA / SDDMM (`S`-oriented: fetches `B` rows).
    plan_a: Plan,
    /// The local block row of `S`, columns remapped into the stacked
    /// `[local rows ‖ fetched rows]` space of `plan_a` (the store's
    /// column map is the inverse remap), with the SDDMM result on it.
    r: RStore,
    /// Plan for SpMMB (`Sᵀ`-oriented: fetches `A` rows).
    plan_b: Plan,
    /// The local block row of `Sᵀ`, remapped for `plan_b`.
    st_remapped: CsrMatrix,
    /// Global `S` row of each stacked-operand index of `plan_b`.
    st_inv_col: Vec<u32>,
}

impl Baseline1D {
    /// Build this rank's state from shared staging, including the
    /// static scatter plans (construction traffic is charged to the
    /// `Setup` phase, matching PETSc's amortized symbolic
    /// factorization).
    pub fn from_staged(comm: &Comm, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let p = comm.size();
        let me = comm.rank();
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= p && n >= p, "matrix sides must be at least p");

        let row_blocks_m: Vec<_> = (0..p).map(|g| block_range(m, p, g)).collect();
        let s_rows = staged.partition(false, &row_blocks_m, std::slice::from_ref(&(0..n)));
        let s_loc = CsrMatrix::from_coo(&s_rows[me][0]);
        let row_blocks_n: Vec<_> = (0..p).map(|g| block_range(n, p, g)).collect();
        let st_rows = staged.partition(true, &row_blocks_n, std::slice::from_ref(&(0..m)));
        let st_loc = CsrMatrix::from_coo(&st_rows[me][0]);

        let (plan_a, s_remapped, inv_col) = Self::build_plan(comm, &s_loc, n);
        let (plan_b, st_remapped, st_inv_col) = Self::build_plan(comm, &st_loc, m);
        let offset = (row_blocks_m[me].start, 0);
        let view = PlanView::of(KernelId::Baseline1D, 1, p, prob.dims);
        Baseline1D {
            view,
            comm: comm.dup(),
            a_loc: view.stage(prob, Operand::A, false, me),
            b_loc: view.stage(prob, Operand::B, false, me),
            plan_a,
            r: RStore::csr((m, n), vec![s_remapped], vec![offset]).with_col_map(inv_col),
            plan_b,
            st_remapped,
            st_inv_col,
        }
    }

    /// Exchange the static fetch lists and remap the local block's
    /// columns into the stacked operand space. Returns the plan, the
    /// remapped block, and the inverse remap (global operand row of
    /// each stacked-operand index).
    fn build_plan(
        comm: &Comm,
        s_loc: &CsrMatrix,
        operand_rows: usize,
    ) -> (Plan, CsrMatrix, Vec<u32>) {
        let p = comm.size();
        let me = comm.rank();
        let my_range = block_range(operand_rows, p, me);

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
        let fetch_counts: Vec<usize> = requests.iter().map(Vec::len).collect();
        // Tell each owner which of its rows we need (symbolic phase).
        let serve = comm.alltoallv(requests.clone());

        // Remap columns: local rows first, then fetched rows in
        // (owner, request-order) sequence.
        let mut lookup: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut next = my_range.len() as u32;
        for reqs in &requests {
            for &j in reqs {
                lookup.insert(j, next);
                next += 1;
            }
        }
        let coo = s_loc.to_coo();
        let mut remapped = dsk_sparse::CooMatrix::empty(s_loc.nrows(), next as usize);
        for (i, j, v) in coo.iter() {
            let col = if my_range.contains(&j) {
                (j - my_range.start) as u32
            } else {
                lookup[&(j as u32)]
            };
            remapped.push(i, col as usize, v);
        }
        let mut inv_col: Vec<u32> = (my_range.start as u32..my_range.end as u32).collect();
        for reqs in &requests {
            inv_col.extend_from_slice(reqs);
        }
        let plan = Plan {
            serve,
            fetch_counts,
        };
        (plan, CsrMatrix::from_coo(&remapped), inv_col)
    }

    /// Execute the per-call scatter: serve my rows to requesters,
    /// receive fetched rows, and stack them under the local operand.
    fn scatter_operand(&self, plan: &Plan, local: &Mat, operand_rows: usize) -> Mat {
        let comm = &self.comm;
        let _ph = comm.phase(Phase::Propagation);
        let p = self.view.p();
        let me = comm.rank();
        let my_start = block_range(operand_rows, p, me).start;
        let r = local.ncols();
        let mut outgoing: Vec<Vec<f64>> = Vec::with_capacity(p);
        for peer in 0..p {
            let rows = &plan.serve[peer];
            let mut buf = Vec::with_capacity(rows.len() * r);
            for &g in rows {
                buf.extend_from_slice(local.row(g as usize - my_start));
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

    /// Scatter + local SpMM through one plan: the shared body of SpMMA
    /// (`S`-oriented, operand `B`-side) and SpMMB (`Sᵀ`-oriented,
    /// operand `A`-side). `s` is the plan's remapped block carrying the
    /// values to multiply with.
    fn spmm_plan(&self, plan: &Plan, s: &CsrMatrix, local: &Mat, operand_rows: usize) -> Mat {
        let operand = self.scatter_operand(plan, local, operand_rows);
        let r = self.view.dims().r;
        let mut out = Mat::zeros(s.nrows(), r);
        self.comm.compute(kern::spmm_flops(s.nnz(), r), || {
            kern::spmm_csr_acc(&mut out, s, &operand)
        });
        out
    }

    /// Distributed SpMMA `s·operand_b` in 1D block rows (PETSc
    /// `MatMatMult` analogue); `s` is the `S`-oriented block.
    fn spmm_a_of(&self, s: &CsrMatrix, operand_b: &Mat) -> Mat {
        self.spmm_plan(&self.plan_a, s, operand_b, self.view.dims().n)
    }

    /// Redistribute the SDDMM result from the `S` orientation (values
    /// aligned with the R store's block, partitioned by `A`'s block
    /// rows) into the `Sᵀ` orientation (aligned with `st_remapped`,
    /// partitioned by `B`'s block rows) — the
    /// value shuffle `Rᵀ·A` needs. Each nonzero travels as a
    /// (row, col, value) triplet to the owner of its `Sᵀ` block row —
    /// one all-to-all of triplet bundles, so the cost is one message
    /// per peer carrying the paper's three words per nonzero; the
    /// traffic is charged to the propagation phase.
    fn r_vals_in_b_orientation(&self) -> Vec<f64> {
        let comm = &self.comm;
        let _ph = comm.phase(Phase::Propagation);
        let local = self.r.export().expect("no SDDMM result");
        let (p, n) = (self.view.p(), self.view.dims().n);

        // Bucket my R nonzeros (global coordinates) by the rank owning
        // the corresponding Sᵀ block row (= the S column's owner).
        type Triplets = (Vec<u32>, Vec<u32>, Vec<f64>);
        let mut outgoing: Vec<Triplets> = vec![Triplets::default(); p];
        for ((&gi, &gj), &v) in local.rows.iter().zip(&local.cols).zip(&local.vals) {
            let bucket = &mut outgoing[block_owner(n, p, gj as usize)];
            bucket.0.push(gi);
            bucket.1.push(gj);
            bucket.2.push(v);
        }
        let incoming = comm.alltoallv(outgoing);

        // Index my Sᵀ block's nonzeros by (local row, global S row).
        let my_start_n = block_range(n, p, comm.rank()).start as u32;
        let st = &self.st_remapped;
        let (tp, ti) = (st.indptr(), st.indices());
        let mut pos = std::collections::HashMap::with_capacity(st.nnz());
        for j in 0..st.nrows() {
            for k in tp[j]..tp[j + 1] {
                let gi = self.st_inv_col[ti[k] as usize];
                pos.insert((j as u32, gi), k);
            }
        }
        let mut vals = vec![0.0; st.nnz()];
        let mut filled = 0usize;
        for (rows, cols, rvals) in &incoming {
            for ((&gi, &gj), &v) in rows.iter().zip(cols).zip(rvals) {
                let lj = gj - my_start_n;
                let k = *pos
                    .get(&(lj, gi))
                    .expect("redistributed R value outside the Sᵀ pattern");
                vals[k] = v;
                filled += 1;
            }
        }
        debug_assert_eq!(filled, st.nnz(), "R redistribution must fill Sᵀ");
        vals
    }

    /// Raw SDDMM accumulations through one plan: fetch the needed rows
    /// of the far-side iterate `local` and combine them against this
    /// rank's near-side rows `x` — the shared body of the `S`-oriented
    /// SDDMM (`x` on the `A` side, fetching `B` rows) and its transpose.
    /// Values are aligned with `s`'s CSR order; no sampling applied.
    fn dots_plan(
        &self,
        plan: &Plan,
        s: &CsrMatrix,
        x: &Mat,
        local: &Mat,
        operand_rows: usize,
        combine: &CombineSpec,
    ) -> Vec<f64> {
        let r = self.view.dims().r;
        let operand = self.scatter_operand(plan, local, operand_rows);
        let mut acc = vec![0.0; s.nnz()];
        self.comm.compute(kern::sddmm_flops(s.nnz(), r), || {
            kern::sddmm::sddmm_csr_acc_with(&mut acc, s, x, &operand, combine.for_slice(0..r))
        });
        acc
    }

    /// [`dots_plan`](Self::dots_plan) in the `S` orientation.
    fn dots_a(&self, x: &Mat, combine: &CombineSpec) -> Vec<f64> {
        let s = self.s_remapped();
        self.dots_plan(&self.plan_a, s, x, &self.b_loc, self.view.dims().n, combine)
    }

    /// The `S`-oriented remapped block (values = sampling values).
    fn s_remapped(&self) -> &CsrMatrix {
        &self.r.csr_blocks()[0]
    }
}

impl DistKernel for Baseline1D {
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
        vec![self.dots_a(&self.a_loc, combine)]
    }

    fn spmm_a(&mut self, use_r: bool) -> Mat {
        self.spmm_a_of(&self.r.csr_valued(use_r)[0], &self.b_loc)
    }

    fn spmm_b(&mut self, use_r: bool) -> Mat {
        // The baseline stores R in the S orientation; Rᵀ·A first
        // redistributes the values into the Sᵀ orientation.
        let valued;
        let st = if use_r {
            valued = self.st_remapped.with_vals(self.r_vals_in_b_orientation());
            &valued
        } else {
            &self.st_remapped
        };
        self.spmm_plan(&self.plan_b, st, &self.a_loc, self.view.dims().m)
    }

    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        assert!(
            matches!(elision, Elision::None),
            "the 1D baseline admits no communication elision"
        );
        let s = self.s_remapped();
        let mut vals = self.dots_a(x.unwrap_or(&self.a_loc), &CombineSpec::Dot);
        sampling.apply(&mut vals, s.vals());
        // Back-to-back second kernel: pays the scatter again.
        self.spmm_a_of(&s.with_vals(vals), &self.b_loc)
    }

    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        assert!(
            matches!(elision, Elision::None),
            "the 1D baseline admits no communication elision"
        );
        let m = self.view.dims().m;
        // Transposed orientation: fetch A rows, combine against local
        // B-side rows (the dot product is symmetric).
        let st = &self.st_remapped;
        let y = y.unwrap_or(&self.b_loc);
        let mut vals = self.dots_plan(&self.plan_b, st, y, &self.a_loc, m, &CombineSpec::Dot);
        sampling.apply(&mut vals, st.vals());
        // Second kernel, fresh scatter: out = Rᵀ·A in B block rows.
        self.spmm_plan(&self.plan_b, &st.with_vals(vals), &self.a_loc, m)
    }

    /// None: block rows are whole on one rank.
    fn r_row_group<'a>(&'a self, _world: &'a Comm) -> Option<&'a Comm> {
        None
    }

    fn spmm_a_from(&self, y: &Mat, vals: RValues<'_>) -> (Mat, Vec<f64>) {
        let vals = self.r.csr_values(vals);
        let mut sums = vals.sums();
        let s = &vals.blocks()[0];
        let operand = self.scatter_operand(&self.plan_a, y, self.view.dims().n);
        let r = self.view.dims().r;
        let mut out = Mat::zeros(s.nrows(), r);
        self.comm.compute(kern::spmm_flops(s.nnz(), r), || {
            vals.spmm(0, &mut out, &operand, Some(&mut sums))
        });
        (out, sums)
    }

    fn a_iterate(&self) -> Mat {
        self.a_loc.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.b_loc.clone()
    }

    fn set_a(&mut self, _comm: &Comm, x: &Mat) {
        assert_eq!(x.nrows(), self.a_loc.nrows(), "A iterate shape mismatch");
        self.a_loc = x.clone();
    }

    fn set_b(&mut self, _comm: &Comm, y: &Mat) {
        assert_eq!(y.nrows(), self.b_loc.nrows(), "B iterate shape mismatch");
        self.b_loc = y.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalProblem;
    use crate::kernel::KernelBuilder;
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
                let ga = worker.spmm_a(false);
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
                let _ = worker.spmm_a(false);
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
                let _ = worker.spmm_a(false);
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
