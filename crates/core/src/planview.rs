//! World-free plan views: the Table II data distributions as pure
//! functions of `(kernel, c, p, dims)`.
//!
//! Every family's iterate layouts, R pattern bounds, row-sharing groups
//! and admissible elisions are grid arithmetic — they depend on the
//! plan and the problem shape, never on a live worker or communicator.
//! [`PlanView`] is the **only** place that arithmetic is written: live
//! kernels answer their `*_layout_of` / `row_group_*` / `supports` trait methods through the view they were
//! built with ([`DistKernel::view`](crate::kernel::DistKernel::view)),
//! and callers can ask *"where would rank `g` of a `p`-rank world hold
//! its state under this plan?"* for a world that is not running — the
//! question elastic resize ([`crate::session::Session::resize`]) must
//! answer on both sides of a process-count change, including on ranks
//! that are members of only one of the two worlds.

use std::ops::Range;

use crate::common::{block_range, union_range, AlgorithmFamily, Elision, ProblemDims};
use crate::global::GlobalProblem;
use crate::kernel::{KernelId, KernelPlan};
use crate::layout::{repartition_dense, DenseLayout};
use dsk_comm::{Comm, Grid25, Phase};
use dsk_dense::Mat;

/// Which dense operand a layout describes, and which one a FusedMM
/// returns ([`DistKernel::fused`](crate::kernel::DistKernel::fused)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The `m × r` matrix.
    A,
    /// The `n × r` matrix.
    B,
}

impl Operand {
    /// This operand of a global problem.
    pub(crate) fn of(self, prob: &GlobalProblem) -> &Mat {
        match self {
            Operand::A => &prob.a,
            Operand::B => &prob.b,
        }
    }

    /// Its row count in a problem of shape `d`.
    pub(crate) fn rows(self, d: ProblemDims) -> usize {
        match self {
            Operand::A => d.m,
            Operand::B => d.n,
        }
    }

    /// The other operand.
    pub(crate) fn other(self) -> Operand {
        match self {
            Operand::A => Operand::B,
            Operand::B => Operand::A,
        }
    }
}

/// A plan's data distributions for a hypothetical world of `p` ranks.
///
/// Pure and communication-free: all methods are closed-form grid
/// arithmetic, callable for any rank from any process. Ranks outside
/// the viewed world (`g ≥ p`) own nothing — [`empty_layout`],
/// [`empty_bounds`] — so a view can describe one roster's side of an
/// exchange over a wider communicator (a session transition's spares
/// and retirees contribute and receive nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanView {
    id: KernelId,
    c: usize,
    p: usize,
    dims: ProblemDims,
}

impl PlanView {
    /// View `plan` as realized on a world of `p` ranks.
    ///
    /// # Panics
    ///
    /// Panics when the plan's grid cannot be realized at `p` (e.g. a
    /// 1.5D plan whose `c` does not divide `p`).
    pub fn new(plan: &KernelPlan, p: usize, dims: ProblemDims) -> Self {
        Self::of(plan.id, plan.c, p, dims)
    }

    /// [`PlanView::new`] from the two plan fields a view depends on.
    pub(crate) fn of(id: KernelId, c: usize, p: usize, dims: ProblemDims) -> Self {
        assert!(p >= 1, "a plan view needs at least one rank");
        if let Some(family) = id.family() {
            assert!(
                family.valid_c(p, c),
                "{} cannot realize c = {c} on p = {p}",
                family.label(),
            );
        }
        PlanView { id, c, p, dims }
    }

    /// The viewed kernel.
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// The viewed world size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The viewed replication factor.
    pub fn c(&self) -> usize {
        self.c
    }

    /// The viewed problem shape.
    pub fn dims(&self) -> ProblemDims {
        self.dims
    }

    /// Whether the viewed kernel admits the elision strategy (paper
    /// §IV-B); the 1D baseline admits none.
    pub fn supports(&self, elision: Elision) -> bool {
        match self.id {
            KernelId::Family(f) => f.supports(elision),
            KernelId::Baseline1D => elision == Elision::None,
        }
    }

    /// `(q, u, v, w)` of rank `g` on the viewed 2.5D grid.
    fn coords25(&self, g: usize) -> (usize, usize, usize, usize) {
        let grid = Grid25::new(self.p, self.c).expect("invalid 2.5D grid");
        (grid.q, grid.row_pos(g), grid.col_pos(g), grid.fiber_pos(g))
    }

    /// Rank `g`'s share of `op` in the **iterate** layout (what fused
    /// calls consume and produce) or, with `replica`, in the layout the
    /// operand is held in when it plays the replicated role — the share
    /// a fiber all-gather assembles from and a reduce-scatter lands in.
    /// The two differ only where the iterate is not what gets
    /// replicated: 1.5D sparse shifting (stationary vs replicate) and
    /// 2.5D dense replication (travel vs fiber).
    pub(crate) fn layout_of(&self, op: Operand, replica: bool, g: usize) -> DenseLayout {
        let (d, p, c) = (self.dims, self.p, self.c);
        if g >= p {
            return empty_layout();
        }
        let rows = op.rows(d);
        match self.id {
            // Whole block rows, full width.
            KernelId::Family(AlgorithmFamily::DenseShift15) | KernelId::Baseline1D => {
                DenseLayout::single(block_range(rows, p, g), 0..d.r)
            }
            KernelId::Family(AlgorithmFamily::SparseShift15) => {
                let (q, u, v) = (p / c, g / c, g % c);
                let slice = block_range(d.r, q, u);
                if replica {
                    DenseLayout::single(block_range(rows, c, v), slice)
                } else {
                    // The row blocks the visiting sparse column blocks
                    // address: j ≡ v (mod c) of the p-way split.
                    DenseLayout {
                        row_ranges: (0..q).map(|w| block_range(rows, p, w * c + v)).collect(),
                        col_range: slice,
                    }
                }
            }
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                let (q, u, v, w) = self.coords25(g);
                let slice = block_range(d.r, q, v);
                if replica {
                    // The w-th c-way split of macro row u.
                    let mac = block_range(rows, q, u);
                    let sub = block_range(mac.len(), c, w);
                    DenseLayout::single(mac.start + sub.start..mac.start + sub.end, slice)
                } else {
                    // Cannon pre-skew: (u, v, w) homes block σ₀·c + w,
                    // σ₀ = (u + v) mod q.
                    let sigma0 = (u + v) % q;
                    DenseLayout::single(block_range(rows, q * c, sigma0 * c + w), slice)
                }
            }
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                // Pre-skewed home slices: A panels follow the grid row,
                // B panels the grid column.
                let (q, u, v, w) = self.coords25(g);
                let panel = match op {
                    Operand::A => block_range(d.m, q, u),
                    Operand::B => block_range(d.n, q, v),
                };
                let sigma0 = (u + v) % q;
                DenseLayout::single(panel, block_range(d.r, q * c, sigma0 * c + w))
            }
        }
    }

    /// Whether `op`'s replica layout differs from its iterate layout on
    /// some rank: only then does a kernel keep a replica-layout copy of
    /// it, and only then does [`PlanView::redistribute`] move anything.
    pub(crate) fn has_replica(&self, op: Operand) -> bool {
        (0..self.p).any(|g| self.layout_of(op, true, g) != self.layout_of(op, false, g))
    }

    /// The distribution shift of the paper's Fig. 9: repartition `x`,
    /// this rank's share of `op` in the iterate layout, into the
    /// replica layout (or back, when `to_replica` is false). Collective
    /// over `comm`, the world the view describes; charged to
    /// [`Phase::OutsideComm`].
    pub(crate) fn redistribute(&self, comm: &Comm, op: Operand, x: &Mat, to_replica: bool) -> Mat {
        let _ph = comm.phase(Phase::OutsideComm);
        let layout = |replica| move |g| self.layout_of(op, replica, g);
        repartition_dense(comm, x, layout(!to_replica), layout(to_replica))
    }

    /// The `A`-iterate layout of rank `g`.
    pub fn a_layout_of(&self, g: usize) -> DenseLayout {
        self.layout_of(Operand::A, false, g)
    }

    /// The `B`-iterate layout of rank `g`.
    pub fn b_layout_of(&self, g: usize) -> DenseLayout {
        self.layout_of(Operand::B, false, g)
    }

    /// The layout in which `spmm_a_with` returns its result on rank
    /// `g`: the `A` share a fiber reduce-scatter lands in.
    pub fn spmm_a_with_layout_of(&self, g: usize) -> DenseLayout {
        self.layout_of(Operand::A, true, g)
    }

    /// Global bounding rectangle `(rows, cols)` of rank `g`'s stored-R
    /// sparsity pattern under this plan (a conservative superset is
    /// allowed). Live migration and resize
    /// ([`crate::session::Session`]) use the *destination* plan's
    /// bounds to route each exported triplet only to the ranks that
    /// need it — an owner-targeted alltoallv moving `O(c·nnz)` words
    /// instead of the `O(p·nnz)` allgather.
    pub fn r_bounds_of(&self, g: usize) -> (Range<usize>, Range<usize>) {
        let (d, p, c) = (self.dims, self.p, self.c);
        if g >= p {
            return empty_bounds();
        }
        match self.id {
            KernelId::Family(AlgorithmFamily::DenseShift15) => {
                // Macro row u = g/c of S; its column blocks are strided
                // across the full width, so the column bound stays
                // conservative.
                (union_range(d.m, p, (g / c) * c, c), 0..d.n)
            }
            KernelId::Family(AlgorithmFamily::SparseShift15) => {
                // Rank g's home block is column block g of S.
                (0..d.m, block_range(d.n, p, g))
            }
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                // Canonical home block: macro row u, column block
                // σ₀·c + w of the q·c-way split (σ₀ = (u+v) mod q).
                let (q, u, v, w) = self.coords25(g);
                let sigma0 = (u + v) % q;
                (
                    block_range(d.m, q, u),
                    block_range(d.n, q * c, sigma0 * c + w),
                )
            }
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                // The (u, v) block of the q×q layer grid, identical on
                // every fiber layer.
                let (q, u, v, _) = self.coords25(g);
                (block_range(d.m, q, u), block_range(d.n, q, v))
            }
            KernelId::Baseline1D => (block_range(d.m, p, g), 0..d.n),
        }
    }

    /// Row-sharing color of rank `g` for `op`-iterates: ranks with
    /// equal color hold pieces of the same iterate rows.
    fn row_group(&self, op: Operand, g: usize) -> u64 {
        let group = match self.id {
            // Rows are whole on one rank: every rank is its own group.
            KernelId::Family(AlgorithmFamily::DenseShift15) | KernelId::Baseline1D => g,
            // Stationary layouts are shared by the layer (same fiber
            // coordinate v).
            KernelId::Family(AlgorithmFamily::SparseShift15) => g % self.c,
            // Travel layouts are shared by the Cannon anti-diagonal
            // {(u, v): u+v ≡ σ₀ (mod q)} within a layer w.
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                let (q, u, v, w) = self.coords25(g);
                ((u + v) % q) * self.c + w
            }
            // A panels are shared by the grid-row plane, B panels by
            // the grid-column plane.
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                let (_, u, v, _) = self.coords25(g);
                match op {
                    Operand::A => u,
                    Operand::B => v,
                }
            }
        };
        group as u64
    }

    /// Row-sharing color of rank `g` for `A`-iterates.
    pub fn row_group_a(&self, g: usize) -> u64 {
        self.row_group(Operand::A, g)
    }

    /// Row-sharing color of rank `g` for `B`-iterates.
    pub fn row_group_b(&self, g: usize) -> u64 {
        self.row_group(Operand::B, g)
    }
}

/// The empty layout: owns no rows and no columns — what a rank outside
/// the viewed world holds, so its side of a cross-world
/// [`crate::layout::repartition_dense`] contributes and receives
/// nothing.
pub fn empty_layout() -> DenseLayout {
    DenseLayout {
        row_ranges: Vec::new(),
        col_range: 0..0,
    }
}

/// The empty pattern-bounds rectangle; intersects nothing.
pub fn empty_bounds() -> (Range<usize>, Range<usize>) {
    (0..0, 0..0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Routing;

    fn plan_for(family: AlgorithmFamily, c: usize) -> KernelPlan {
        KernelPlan {
            id: KernelId::Family(family),
            c,
            elision: Elision::None,
            routing: Routing::Dense,
            predicted_comm_s: None,
        }
    }

    #[test]
    fn views_exist_for_worlds_not_running() {
        // The point of a view: interrogate a 6-rank plan from nowhere.
        let dims = ProblemDims::new(48, 48, 8);
        let plan = plan_for(AlgorithmFamily::DenseShift15, 2);
        let view = PlanView::new(&plan, 6, dims);
        let mut rows = 0;
        for g in 0..6 {
            rows += view.a_layout_of(g).local_rows();
        }
        assert_eq!(rows, 48, "layouts must tile the matrix exactly");
    }

    #[test]
    #[should_panic(expected = "cannot realize")]
    fn invalid_grid_is_rejected() {
        let dims = ProblemDims::new(48, 48, 8);
        let plan = plan_for(AlgorithmFamily::DenseShift15, 4);
        let _ = PlanView::new(&plan, 6, dims); // 4 ∤ 6
    }

    #[test]
    fn empty_layout_owns_nothing() {
        assert_eq!(empty_layout().local_rows(), 0);
        assert_eq!(empty_layout().width(), 0);
        let (r, c) = empty_bounds();
        assert!(r.is_empty() && c.is_empty());
        // Ranks outside the viewed world hold exactly that, whatever
        // the family's grid arithmetic would make of their index.
        let dims = ProblemDims::new(48, 48, 8);
        for family in AlgorithmFamily::ALL {
            let view = PlanView::new(&plan_for(family, 1), 4, dims);
            assert_eq!(view.a_layout_of(4), empty_layout(), "{family:?}");
            assert_eq!(view.b_layout_of(9), empty_layout(), "{family:?}");
            assert_eq!(view.r_bounds_of(4), empty_bounds(), "{family:?}");
        }
    }
}
