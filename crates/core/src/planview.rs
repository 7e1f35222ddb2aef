//! World-free plan views: the Table II data distributions as pure
//! functions of `(kernel, c, p, dims)`.
//!
//! Every family's iterate layouts, sparse block grid (the `S` and `Sᵀ`
//! blocks each rank stores, and the smallest matrix side the grid
//! admits), the groups of ranks that share stored R rows or iterate
//! rows, and admissible elisions are grid arithmetic — they depend on
//! the plan and the problem shape, never on a live worker or
//! communicator. [`PlanView`] is the **only** place that arithmetic is
//! written: every family cuts its sparse blocks from the view's grid
//! ([`StagedProblem`](crate::staged::StagedProblem) does the cut), the
//! row groups are read off its cells and layouts, a session routes
//! stored R values to the owners of their cells, callers ask a live
//! kernel's layouts, groups and admissibility of the view it was built
//! with ([`DistKernel::view`](crate::kernel::DistKernel::view)), the
//! planner drops the plans whose grid the problem's sides cannot hold,
//! and callers can ask *"where would rank `g` of a `p`-rank world hold
//! its state under this plan?"* for a world that is not running — the
//! question elastic resize ([`crate::session::Session::resize`]) must
//! answer on both sides of a process-count change, including on ranks
//! that are members of only one of the two worlds.

use std::collections::HashMap;
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
/// the viewed world (`g ≥ p`) own nothing — [`empty_layout`], no
/// cells — so a view can describe one roster's side of an
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

    /// The sparse half of Table II, rows then columns of `S`: each side
    /// is cut into `parts` blocks ([`block_range`]), taken `group` at a
    /// time ([`union_range`]). `Sᵀ` is the same cut on swapped dims.
    fn sparse_splits(&self) -> [(usize, usize); 2] {
        use AlgorithmFamily::*;
        let (p, c, q) = (self.p, self.c, || self.coords25(0).0);
        match self.id {
            // Macro rows aligned to unions of `c` operand block rows, ×
            // `p` column blocks.
            KernelId::Family(DenseShift15) => [(p, c), (p, 1)],
            // Full height × `p` column blocks.
            KernelId::Family(SparseShift15) => [(1, 1), (p, 1)],
            // `q` macro rows × `q·c` column blocks.
            KernelId::Family(DenseRepl25) => [(q(), 1), (q() * c, 1)],
            // The `q × q` layer grid.
            KernelId::Family(SparseRepl25) => [(q(), 1), (q(), 1)],
            // Block rows, full width.
            KernelId::Baseline1D => [(p, 1), (1, 1)],
        }
    }

    /// The block grid of `S` (of `Sᵀ` when `transposed`): its block-row
    /// and block-column ranges.
    pub(crate) fn sparse_grid(&self, transposed: bool) -> [Vec<Range<usize>>; 2] {
        let (m, n) = (self.dims.m, self.dims.n);
        let totals = if transposed { [n, m] } else { [m, n] };
        let splits = self.sparse_splits();
        [0, 1].map(|side| {
            let (total, (parts, group)) = (totals[side], splits[side]);
            (0..parts / group)
                .map(|b| union_range(total, parts, b * group, group))
                .collect()
        })
    }

    /// The grid cells `(block row, block column)` rank `g` stores, in
    /// slot order; the same cells of the `Sᵀ` grid hold its transposed
    /// blocks.
    pub(crate) fn cells(&self, g: usize) -> Vec<(usize, usize)> {
        use AlgorithmFamily::*;
        let (p, c) = (self.p, self.c);
        if g >= p {
            return Vec::new();
        }
        let (q, u, v, w) = match self.id.family() {
            Some(DenseRepl25 | SparseRepl25) => self.coords25(g),
            _ => (p / c, g / c, g % c, 0),
        };
        match self.id {
            // Within macro row u, the column blocks j ≡ v (mod c): slot
            // w holds block w·c + v.
            KernelId::Family(DenseShift15) => (0..q).map(|w| (u, w * c + v)).collect(),
            // The home column block g.
            KernelId::Family(SparseShift15) => vec![(0, g)],
            // Pre-skewed: column block σ₀·c + w, σ₀ = (u + v) mod q.
            KernelId::Family(DenseRepl25) => vec![(u, (u + v) % q * c + w)],
            // Block (u, v), identical on every fiber layer.
            KernelId::Family(SparseRepl25) => vec![(u, v)],
            KernelId::Baseline1D => vec![(g, 0)],
        }
    }

    /// The smallest matrix side the sparse grid admits: its finest cut,
    /// which `S` and `Sᵀ` lay on both sides.
    pub(crate) fn min_side(&self) -> usize {
        let [(rows, _), (cols, _)] = self.sparse_splits();
        rows.max(cols)
    }

    /// Whether the viewed problem's sides admit the sparse grid — the
    /// one shape precondition of building the plan.
    pub(crate) fn fits(&self) -> bool {
        self.dims.m.min(self.dims.n) >= self.min_side()
    }

    /// Each rank's R-row color: rank `g` shares its stored R rows with
    /// the ranks of its replica set whose cells lie in the same block
    /// row. Its replica index is how many lower ranks store identical
    /// cells, so the copies of a replicated block (2.5D sparse
    /// replication's fiber) reduce apart.
    pub(crate) fn r_row_colors(&self) -> Vec<u64> {
        let mut copies = HashMap::new();
        (0..self.p)
            .map(|g| {
                let cells = self.cells(g);
                let row = cells[0].0 as u64;
                let replica = copies.entry(cells).or_insert(0);
                *replica += 1;
                (*replica - 1) << 32 | row
            })
            .collect()
    }

    /// Row-sharing color of rank `g` for `op`-iterates: the lowest rank
    /// whose iterate layout holds the same rows.
    fn row_group(&self, op: Operand, g: usize) -> u64 {
        let rows = |h| self.layout_of(op, false, h).row_ranges;
        let mine = rows(g);
        (0..g).find(|&h| rows(h) == mine).unwrap_or(g) as u64
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::common::Routing;
    use crate::kernel::KernelBuilder;
    use crate::staged::StagedProblem;
    use dsk_comm::{MachineModel, SimWorld};
    use dsk_sparse::CooMatrix;

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
        // Ranks outside the viewed world hold exactly that, and no
        // cells, whatever the family's grid arithmetic would make of
        // their index.
        let dims = ProblemDims::new(48, 48, 8);
        for family in AlgorithmFamily::ALL {
            let view = PlanView::new(&plan_for(family, 1), 4, dims);
            assert_eq!(view.a_layout_of(4), empty_layout(), "{family:?}");
            assert_eq!(view.b_layout_of(9), empty_layout(), "{family:?}");
            assert!(view.cells(4).is_empty(), "{family:?}");
        }
    }

    /// Every kernel at every admissible `c` of `p ∈ {4, 8, 9, 16}`.
    fn every_view(dims: ProblemDims) -> Vec<PlanView> {
        let mut views = Vec::new();
        for p in [4, 8, 9, 16] {
            views.push(PlanView::of(KernelId::Baseline1D, 1, p, dims));
            for family in AlgorithmFamily::ALL {
                for c in (1..=p).filter(|&c| family.valid_c(p, c)) {
                    views.push(PlanView::of(KernelId::Family(family), c, p, dims));
                }
            }
        }
        views
    }

    #[test]
    fn cells_tile_s_once_per_replica_set() {
        let prob = GlobalProblem::erdos_renyi(37, 41, 5, 4, 211);
        let staged = StagedProblem::ephemeral(&prob);
        let tiles = |ranges: &[Range<usize>], total: usize| {
            ranges.windows(2).all(|w| w[0].end == w[1].start)
                && ranges.first().map(|r| r.start) == Some(0)
                && ranges.last().map(|r| r.end) == Some(total)
        };
        for view in every_view(prob.dims) {
            // 2.5D sparse replication holds each block on all c layers.
            let sr25 = view.id() == KernelId::Family(AlgorithmFamily::SparseRepl25);
            let copies = if sr25 { view.c() } else { 1 };
            for transposed in [false, true] {
                let [rows, cols] = view.sparse_grid(transposed);
                let (m, n) = (prob.dims.m, prob.dims.n);
                let (m, n) = if transposed { (n, m) } else { (m, n) };
                assert!(tiles(&rows, m) && tiles(&cols, n), "{view:?}");
                let mut held = vec![vec![0; cols.len()]; rows.len()];
                let mut nnz = 0;
                for g in 0..view.p() {
                    for (i, j) in view.cells(g) {
                        held[i][j] += 1;
                    }
                    let cut = staged.cut(&view, g, transposed);
                    nnz += cut.blocks().map(CooMatrix::nnz).sum::<usize>();
                }
                assert!(held.iter().flatten().all(|&k| k == copies), "{view:?}");
                assert_eq!(nnz, copies * prob.nnz(), "{view:?}");
            }
        }
    }

    #[test]
    fn exported_r_lies_inside_its_cells() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(37, 41, 5, 4, 212));
        for view in every_view(prob.dims) {
            let plan = KernelPlan {
                id: view.id(),
                ..plan_for(AlgorithmFamily::DenseShift15, view.c())
            };
            let builder = KernelBuilder::from_arc(Arc::clone(&prob));
            let world = SimWorld::new(view.p(), MachineModel::bandwidth_only());
            let out = world.run(move |comm| {
                let mut worker = builder.build_planned(comm, &plan);
                worker.sddmm();
                let local = worker.export_r().expect("sddmm stores R");
                let [rows, cols] = view.sparse_grid(false);
                let find = |grid: &[Range<usize>], x| grid.partition_point(|r| r.end <= x);
                let cells = view.cells(comm.rank());
                let outside = local
                    .iter()
                    .filter(|&(i, j, _)| !cells.contains(&(find(&rows, i), find(&cols, j))));
                (outside.count(), local.nnz())
            });
            assert!(out.iter().all(|o| o.value.0 == 0), "{view:?}");
            let exported: usize = out.iter().map(|o| o.value.1).sum();
            assert_eq!(exported, prob.nnz(), "{view:?}: each nonzero once");
        }
    }

    /// Whether two colorings split the ranks into the same groups.
    fn same_groups(a: &[u64], b: &[u64]) -> bool {
        let n = a.len();
        n == b.len() && (0..n).all(|g| (0..n).all(|h| (a[g] == a[h]) == (b[g] == b[h])))
    }

    #[test]
    fn derived_groups_are_the_table_ii_closed_forms() {
        use AlgorithmFamily::*;
        for view in every_view(ProblemDims::new(48, 48, 8)) {
            let (p, c) = (view.p(), view.c());
            // Rank g's (R rows, A iterate rows, B iterate rows) groups:
            // ds15 the fiber, ss15 the world, dr25 the grid row (q·c
            // ranks), sr25 the row ring (u, ·, w), the baseline alone;
            // iterates g, g mod c, σ₀·c + w, u for A and v for B, g.
            let closed = |g: usize| match view.id() {
                KernelId::Family(DenseShift15) => [g / c, g, g],
                KernelId::Family(SparseShift15) => [0, g % c, g % c],
                KernelId::Family(DenseRepl25) => {
                    let (q, u, v, w) = view.coords25(g);
                    [u, (u + v) % q * c + w, (u + v) % q * c + w]
                }
                KernelId::Family(SparseRepl25) => {
                    let (_, u, v, w) = view.coords25(g);
                    [u * c + w, u, v]
                }
                KernelId::Baseline1D => [g, g, g],
            };
            let derived = [
                view.r_row_colors(),
                (0..p).map(|g| view.row_group_a(g)).collect(),
                (0..p).map(|g| view.row_group_b(g)).collect(),
            ];
            for (k, colors) in derived.iter().enumerate() {
                let want: Vec<u64> = (0..p).map(|g| closed(g)[k] as u64).collect();
                assert!(same_groups(colors, &want), "{view:?}: groups {k}");
            }
        }
    }

    #[test]
    fn a_grid_fits_when_both_sides_hold_its_finest_cut() {
        let dims = ProblemDims::new(3, 8, 4);
        let view = |family, c| PlanView::new(&plan_for(family, c), 4, dims);
        assert!(!view(AlgorithmFamily::DenseShift15, 2).fits());
        assert!(!view(AlgorithmFamily::SparseShift15, 1).fits());
        assert!(view(AlgorithmFamily::SparseRepl25, 1).fits());
        assert!(view(AlgorithmFamily::SparseRepl25, 4).fits());
        assert_eq!(view(AlgorithmFamily::DenseRepl25, 4).min_side(), 4);
    }

    #[test]
    #[should_panic(
        expected = "DenseShift15), c: 2, p: 4, dims: ProblemDims { m: 3, n: 8, r: 4 } } needs sides of at least 4"
    )]
    fn a_cut_the_sides_cannot_hold_panics() {
        let prob = GlobalProblem::erdos_renyi(3, 8, 4, 2, 213);
        let view = PlanView::new(&plan_for(AlgorithmFamily::DenseShift15, 2), 4, prob.dims);
        let _ = StagedProblem::ephemeral(&prob).cut(&view, 0, false);
    }
}
