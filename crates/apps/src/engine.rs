//! A family-agnostic application interface over an adaptive kernel
//! [`Session`].
//!
//! Applications iterate: the output of one FusedMM becomes an input of
//! the next. The [`DistKernel`](dsk_core::kernel::DistKernel) trait
//! pins down, per kernel:
//!
//! * the **iterate layout** for `A`-shaped and `B`-shaped vectors (the
//!   layout in which `fused_mm_*` consumes and produces them),
//! * the **row-sharing group** — which ranks split a row of the iterate
//!   (batched per-row dot products in CG need a reduction over exactly
//!   that group; it is trivial for 1.5D dense shifting, whose rows are
//!   whole, and the paper observes precisely this extra dot-product
//!   communication for the sparse-shifting/replicating variants),
//! * the **distribution shifts** needed to commit an iterate back as a
//!   kernel operand (2.5D and sparse-shifting algorithms re-partition;
//!   1.5D dense shifting does not) — charged to
//!   [`Phase::OutsideComm`], as in the paper's Fig. 9 accounting.
//!
//! The engine is a veneer over the wrapped [`Session`] and holds no
//! plan-dependent state: construction goes through
//! [`Session::builder`], every operation is a session call, and the
//! row-sharing groups are borrowed from the session per reduction
//! ([`Session::row_group_a`]). The session's one transition installs
//! everything that depends on the plan, so its caller may change the
//! plan under the engine — `session_mut().replan(..)`, `.migrate(..)`
//! or `.resize(..)`, the only ways a plan changes — and the next row
//! dot reduces over the new family's groups.

use dsk_comm::{Comm, Phase};
use dsk_core::common::{block_range, Sampling};
use dsk_core::session::Session;
use dsk_dense::Mat;

/// Family-agnostic application engine (one per rank), wrapping an
/// adaptive [`Session`].
pub struct AppEngine {
    session: Session,
}

impl AppEngine {
    /// Wrap a built session. The one constructor: configure the kernel
    /// (family, replication, elision, auto-planning) on
    /// [`Session::builder`] before handing the session over.
    pub fn new(session: Session) -> Self {
        AppEngine { session }
    }

    /// The wrapped session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The wrapped session, mutably — including its transitions
    /// (`replan`, `migrate`, `resize`).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The session's communicator.
    pub fn comm(&self) -> &Comm {
        self.session.comm()
    }

    /// The stored `A` operand in the iterate layout.
    pub fn a_iterate(&self) -> Mat {
        self.session.a_iterate()
    }

    /// The stored `B` operand in the iterate layout.
    pub fn b_iterate(&self) -> Mat {
        self.session.b_iterate()
    }

    /// FusedMMA with pattern sampling — the ALS normal-equation matvec
    /// `qᵢ = Σ_{j∈Ωᵢ} ⟨xᵢ, b_j⟩ b_j` — on an `A`-iterate `x`. An iterate
    /// call (see [`Session::fused_mm_a`]): on the 1.5D dense shift with
    /// local kernel fusion it shifts no `B` at all, replaying the ring
    /// tiles [`AppEngine::rhs_a`] kept, `(q − 1)·⌈n/p⌉·r` words per
    /// rank, until [`AppEngine::commit_b`].
    pub fn fused_a_ones(&mut self, x: &Mat) -> Mat {
        self.session.fused_mm_a(Some(x), Sampling::Ones)
    }

    /// FusedMMB with pattern sampling on a `B`-iterate `y`. The dual of
    /// [`AppEngine::fused_a_ones`]: it replays the `A` tiles
    /// [`AppEngine::rhs_b`] kept, `(q − 1)·⌈m/p⌉·r` words per rank,
    /// until [`AppEngine::commit_a`].
    pub fn fused_b_ones(&mut self, y: &Mat) -> Mat {
        self.session.fused_mm_b(Some(y), Sampling::Ones)
    }

    /// ALS right-hand side for the `A` phase: `S·B` (sampling values),
    /// delivered in the `A`-iterate layout (2.5D dense replication pays
    /// a distribution shift here). On the 1.5D dense shift this is the
    /// one round of the `A` solve that shifts `B`.
    pub fn rhs_a(&mut self) -> Mat {
        self.session.rhs_a()
    }

    /// ALS right-hand side for the `B` phase: `Sᵀ·A`, in the
    /// `B`-iterate layout. On the 1.5D dense shift this is the one round
    /// of the `B` solve that shifts `A`.
    pub fn rhs_b(&mut self) -> Mat {
        self.session.rhs_b()
    }

    fn row_dots(comm: &Comm, x: &Mat, y: &Mat, phase: Phase) -> Vec<f64> {
        assert_eq!(x.nrows(), y.nrows(), "row-dot shape mismatch");
        assert_eq!(x.ncols(), y.ncols(), "row-dot shape mismatch");
        let mut dots: Vec<f64> = (0..x.nrows())
            .map(|i| x.row(i).iter().zip(y.row(i)).map(|(a, b)| a * b).sum())
            .collect();
        if comm.size() > 1 {
            let _ph = comm.phase(phase);
            comm.allreduce_sum(&mut dots);
        }
        dots
    }

    /// How many ranks share each row of an `A`-iterate (1 when rows are
    /// whole).
    pub fn row_share_a(&self) -> usize {
        self.session.row_group_a().size()
    }

    /// How many ranks share each row of a `B`-iterate.
    pub fn row_share_b(&self) -> usize {
        self.session.row_group_b().size()
    }

    /// Global per-row dot products of two `A`-iterates (reduced over the
    /// row-sharing group; charged outside the fused kernels).
    pub fn row_dots_a(&self, x: &Mat, y: &Mat) -> Vec<f64> {
        Self::row_dots(self.session.row_group_a(), x, y, Phase::OutsideComm)
    }

    /// Global per-row dot products of two `B`-iterates.
    pub fn row_dots_b(&self, x: &Mat, y: &Mat) -> Vec<f64> {
        Self::row_dots(self.session.row_group_b(), x, y, Phase::OutsideComm)
    }

    /// Commit an `A`-iterate as the stored `A` operand, paying whatever
    /// distribution shift the kernel requires.
    pub fn commit_a(&mut self, x: &Mat) {
        self.session.commit_a(x);
    }

    /// Commit a `B`-iterate as the stored `B` operand.
    pub fn commit_b(&mut self, y: &Mat) {
        self.session.commit_b(y);
    }

    /// ALS squared loss `‖C̃ − mask(A·Bᵀ)‖²_F` over the observed
    /// entries (one generalized SDDMM plus a scalar all-reduce).
    pub fn loss(&mut self) -> f64 {
        self.session.loss()
    }

    /// The row-block layout (full-width contiguous rows) used as the
    /// staging layout for dense transforms like `H·W`.
    pub fn row_block_layout(
        rows: usize,
        r: usize,
        p: usize,
    ) -> impl Fn(usize) -> dsk_core::layout::DenseLayout {
        move |g| dsk_core::layout::DenseLayout::single(block_range(rows, p, g), 0..r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, SimWorld};
    use dsk_core::common::{AlgorithmFamily, Elision};
    use dsk_core::GlobalProblem;
    use std::sync::Arc;

    fn families() -> [(AlgorithmFamily, usize, Elision); 5] {
        use AlgorithmFamily::*;
        [
            (DenseShift15, 2, Elision::LocalKernelFusion),
            (DenseShift15, 2, Elision::ReplicationReuse),
            (SparseShift15, 2, Elision::ReplicationReuse),
            (DenseRepl25, 2, Elision::ReplicationReuse),
            (SparseRepl25, 2, Elision::None),
        ]
    }

    fn engine(
        comm: &Comm,
        family: AlgorithmFamily,
        c: usize,
        elision: Elision,
        prob: &GlobalProblem,
    ) -> AppEngine {
        AppEngine::new(
            Session::builder(prob)
                .family(family)
                .replication(c)
                .elision(elision)
                .build(comm),
        )
    }

    #[test]
    fn fused_iterate_layouts_are_closed() {
        // fused_a_ones must accept its own output — iterate in, iterate
        // out — for every family (the property CG relies on).
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 8, 3, 101));
        for (family, c, elision) in families() {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(8, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut eng = engine(comm, family, c, elision, &pr);
                let x0 = eng.a_iterate();
                let x1 = eng.fused_a_ones(&x0);
                assert_eq!(x1.nrows(), x0.nrows(), "{family:?}");
                assert_eq!(x1.ncols(), x0.ncols(), "{family:?}");
                let x2 = eng.fused_a_ones(&x1);
                (x2.nrows(), x2.ncols()) == (x0.nrows(), x0.ncols())
            });
            assert!(out.iter().all(|o| o.value), "{family:?}");
        }
    }

    #[test]
    fn row_dots_match_global_reference() {
        // Per-row dots of the A iterate with itself must equal the
        // global row norms of A, regardless of how rows are split.
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 8, 3, 102));
        let a = prob.a.clone();
        for (family, c, elision) in families() {
            let pr = Arc::clone(&prob);
            let aa = a.clone();
            let w = SimWorld::new(8, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let eng = engine(comm, family, c, elision, &pr);
                let x = eng.a_iterate();
                let dots = eng.row_dots_a(&x, &x);
                // Identify which global rows this iterate covers by
                // matching against the known global A row norms.
                let global: Vec<f64> = (0..aa.nrows())
                    .map(|i| aa.row(i).iter().map(|v| v * v).sum())
                    .collect();
                // Every local dot must appear among the global norms.
                dots.iter()
                    .all(|d| global.iter().any(|g| (g - d).abs() < 1e-9))
            });
            assert!(out.iter().all(|o| o.value), "{family:?}");
        }
    }

    #[test]
    fn commit_roundtrip_preserves_iterate() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 8, 3, 103));
        for (family, c, elision) in families() {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(8, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut eng = engine(comm, family, c, elision, &pr);
                let x = eng.a_iterate();
                eng.commit_a(&x);
                let x2 = eng.a_iterate();
                dsk_dense::ops::max_abs_diff(&x, &x2)
            });
            for o in &out {
                assert!(
                    o.value < 1e-12,
                    "{family:?} rank {} diff {}",
                    o.rank,
                    o.value
                );
            }
        }
    }

    #[test]
    fn loss_is_consistent_across_families() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 104));
        let mut losses = Vec::new();
        for (family, c, elision) in families() {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(8, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut eng = engine(comm, family, c, elision, &pr);
                eng.loss()
            });
            losses.push(out[0].value);
        }
        for l in &losses[1..] {
            assert!(
                (l - losses[0]).abs() < 1e-6 * losses[0].max(1.0),
                "{losses:?}"
            );
        }
    }

    #[test]
    fn auto_engine_runs_end_to_end() {
        // The planner-constructed engine must run the same loss path as
        // an explicitly configured one.
        let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 3, 105));
        let pr = Arc::clone(&prob);
        let w = SimWorld::new(8, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = AppEngine::new(Session::builder(&pr).build(comm));
            eng.loss()
        });
        let pr = Arc::clone(&prob);
        let w = SimWorld::new(8, MachineModel::bandwidth_only());
        let reference = w.run(move |comm| {
            let mut eng = engine(
                comm,
                AlgorithmFamily::DenseShift15,
                2,
                Elision::ReplicationReuse,
                &pr,
            );
            eng.loss()
        });
        assert!((out[0].value - reference[0].value).abs() < 1e-6 * reference[0].value.max(1.0));
    }

    #[test]
    fn migration_through_the_session_changes_row_sharing_groups() {
        // ds15 rows are whole (share = 1); after a migration to ss15
        // through `session_mut()` the engine reports that family's
        // layer-wide sharing.
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 8, 3, 106));
        let w = SimWorld::new(8, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = engine(
                comm,
                AlgorithmFamily::DenseShift15,
                2,
                Elision::ReplicationReuse,
                &prob,
            );
            let before = eng.row_share_a();
            eng.session_mut().migrate(
                dsk_core::theory::Algorithm::new(
                    AlgorithmFamily::SparseShift15,
                    Elision::ReplicationReuse,
                ),
                2,
            );
            (before, eng.row_share_a())
        });
        for o in &out {
            assert_eq!(o.value.0, 1, "ds15 rows are whole");
            assert_eq!(o.value.1, 4, "ss15 shares rows across the layer (q=4)");
        }
    }
}
