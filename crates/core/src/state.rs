//! The state every kernel holds, whatever its data flow.
//!
//! Each family moves data differently, but all of them keep the same
//! things between calls: the plan view they were built on, the ranks
//! that share their stored R rows, the stored SDDMM result on their own
//! pattern blocks, the `Sᵀ` blocks of the transposed-role data flows,
//! the two dense operands in the iterate layout, a replica-layout copy
//! of an operand where that layout differs from the iterate one, and
//! the ring tiles an iterate call kept. [`KernelState`] holds them once,
//! so the trait's view, R-store, row-sum, iterate and `set_*` methods
//! are provided over
//! [`DistKernel::state`](crate::kernel::DistKernel::state) and a family
//! file holds only its grid, its need sets, its block post-processing
//! and its rounds.

use std::cell::{RefCell, RefMut};

use dsk_comm::{Comm, Phase};
use dsk_dense::Mat;

use crate::global::GlobalProblem;
use crate::layout::DenseLayout;
use crate::planview::{Operand, PlanView};
use crate::rstore::RStore;

/// One rank's kernel state; operand-indexed arrays hold `A` then `B`.
pub struct KernelState {
    /// The plan view the kernel was built on.
    pub(crate) view: PlanView,
    /// The stored SDDMM result on this rank's pattern blocks: its `S`
    /// blocks, whose rows are `A`'s.
    pub(crate) r: RStore,
    /// Its `Sᵀ` blocks, whose rows are `B`'s, for the transposed-role
    /// data flows (none under 2.5D sparse replication, whose panels
    /// both travel against the one `S` block); values = sampling
    /// values.
    rt: Option<RStore>,
    /// The ranks, this one included, that hold pieces of this rank's
    /// stored R rows ([`PlanView::r_row_colors`]); `None` when the rows
    /// are whole here.
    r_rows: Option<Comm>,
    /// This rank's index in the world the kernel was built on.
    rank: usize,
    /// Each operand in the iterate layout, one block per row range of
    /// the layout.
    iterate: [Vec<Mat>; 2],
    /// Each operand in the replica layout, kept only where the view
    /// says it differs from the iterate layout
    /// ([`PlanView::has_replica`]).
    replica: [Option<Mat>; 2],
    /// Ring tiles of each operand that iterate calls received and
    /// replay; setting the operand empties them.
    held: [RefCell<Vec<Mat>>; 2],
}

impl KernelState {
    /// This rank's state under `view` on `comm`: its share of `prob`'s
    /// operands in the view's layouts, its pattern stores, `r` of the
    /// `S` blocks and `rt` of the `Sᵀ` blocks, and its R-row group, split
    /// from `comm` without communication.
    pub(crate) fn new(
        view: PlanView,
        comm: &Comm,
        prob: &GlobalProblem,
        r: RStore,
        rt: Option<RStore>,
    ) -> Self {
        let g = comm.rank();
        let ops = [Operand::A, Operand::B];
        let replica = |op: Operand| view.layout_of(op, true, g).extract(op.of(prob));
        let colors = view.r_row_colors();
        let r_rows = comm.split_by(|h| colors[h]);
        KernelState {
            view,
            r,
            rt,
            r_rows: (r_rows.size() > 1).then_some(r_rows),
            rank: g,
            iterate: ops.map(|op| view.layout_of(op, false, g).pieces(op.of(prob))),
            replica: ops.map(|op| view.has_replica(op).then(|| replica(op))),
            held: Default::default(),
        }
    }

    /// The pattern store whose rows are `op`'s: the R store of the `S`
    /// blocks for `A`, the `Sᵀ` blocks for `B`.
    pub(crate) fn pattern(&self, op: Operand) -> &RStore {
        match op {
            Operand::A => &self.r,
            Operand::B => self.rt.as_ref().expect("this layout holds no Sᵀ blocks"),
        }
    }

    /// Mutable access to [`KernelState::pattern`].
    pub(crate) fn pattern_mut(&mut self, op: Operand) -> &mut RStore {
        match op {
            Operand::A => &mut self.r,
            Operand::B => self.rt.as_mut().expect("this layout holds no Sᵀ blocks"),
        }
    }

    /// All-reduce local R row sums over the ranks that share the rows
    /// (charged to `phase`); where the rows are whole here the sums are
    /// final.
    pub(crate) fn reduce_row_sums(&self, phase: Phase, mut sums: Vec<f64>) -> Vec<f64> {
        if let Some(group) = &self.r_rows {
            let _ph = group.phase(phase);
            group.allreduce_sum(&mut sums);
        }
        sums
    }

    /// This rank's iterate layout of `op`.
    pub(crate) fn layout(&self, op: Operand) -> DenseLayout {
        self.view.layout_of(op, false, self.rank)
    }

    /// `op` in the iterate layout, one block per row range.
    pub(crate) fn blocks(&self, op: Operand) -> &[Mat] {
        &self.iterate[op as usize]
    }

    /// `op` in an iterate layout of one row range.
    pub(crate) fn operand(&self, op: Operand) -> &Mat {
        match self.blocks(op) {
            [x] => x,
            _ => panic!("the {op:?} iterate layout has several row ranges"),
        }
    }

    /// `op` in the replica layout: the kept copy, or the iterate where
    /// the two layouts coincide.
    pub(crate) fn replica(&self, op: Operand) -> &Mat {
        self.replica[op as usize]
            .as_ref()
            .unwrap_or_else(|| self.operand(op))
    }

    /// The ring tiles of `op` that iterate calls keep and replay.
    pub(crate) fn held(&self, op: Operand) -> RefMut<'_, Vec<Mat>> {
        self.held[op as usize].borrow_mut()
    }

    /// `op` in the iterate layout, stacked into one matrix.
    pub(crate) fn iterate(&self, op: Operand) -> Mat {
        Mat::vstack(self.blocks(op))
    }

    /// Replace `op` with `x`, this rank's share in the iterate layout:
    /// the replica copy, if kept, is shifted from it over `comm`
    /// (collective; [`PlanView::redistribute`]), and the held ring
    /// tiles of the old operand are dropped.
    pub(crate) fn set(&mut self, comm: &Comm, op: Operand, x: &Mat) {
        let layout = self.layout(op);
        assert_eq!(
            x.nrows(),
            layout.local_rows(),
            "{op:?} iterate shape mismatch"
        );
        let i = op as usize;
        if self.replica[i].is_some() {
            self.replica[i] = Some(self.view.redistribute(comm, op, x, true));
        }
        self.iterate[i] = layout.split(x);
        self.held[i].get_mut().clear();
    }
}
