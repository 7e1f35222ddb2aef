//! The local microkernel variant library.
//!
//! Every local op the distributed algorithms call between communication
//! steps — SpMM, the SpMMB/transpose scatter, SDDMM, and the fused
//! SDDMM+SpMM kernel — exists in interchangeable implementations
//! behind the [`LocalKernel`] variant enum:
//!
//! * **`Naive`** — the row loops of [`crate::spmm`], [`crate::sddmm`]
//!   and [`crate::fused`], kept as the reference point every other
//!   variant is checked against;
//! * **`Blocked`** — register-blocked row kernels with width-specialized
//!   unrolled inner loops for r ∈ {8, 16, 32, 64} and a chunk-of-8
//!   generic fallback (multiple independent accumulators per row, one
//!   read-modify-write of the output per width chunk instead of one per
//!   nonzero);
//! * **`ParBlocked`** — the blocked row kernels on the workspace's
//!   scoped-thread machinery, split at row boundaries of the output (or
//!   of the pattern-aligned accumulator).
//!
//! The fused kernel and the CSR SDDMM's `Dot` combine are one row loop
//! for all three variants ([`crate::fused`]'s and [`crate::sddmm`]'s,
//! which keep up to eight nonzeros' dots in flight in the sequential
//! order): `Naive` and `Blocked` run it serially and bit for bit alike,
//! `ParBlocked` runs it per row chunk.
//!
//! Not every variant is admissible for every (op, format) pair; the
//! dispatch methods clamp deterministically via [`LocalKernel::clamp`]:
//! the transpose scatter's output rows collide across input rows, and
//! COO blocks — which arrive over the wire and are consumed once — run
//! serially, so both degrade `ParBlocked` to `Blocked`.
//!
//! Which variant runs is a fixed rule, not a run-time measurement:
//! [`LocalKernel::table`] names one variant per (op, format). A
//! caller's pin replaces the table for every op, clamped per op;
//! [`LocalPicks::resolve`] applies the two.

mod blocked;
mod parallel;

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::sddmm::SddmmCombine;

/// The local kernel ops a [`LocalKernel`] variant can implement. The
/// transpose scatter ([`LocalOp::SpmmT`]) is separate from row-major
/// SpMM because its parallelization story differs (output rows collide).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LocalOp {
    /// `out += S·B` (row-major gather).
    Spmm,
    /// `out += Sᵀ·A` (scatter into output rows indexed by S columns).
    SpmmT,
    /// Sampled dense-dense accumulation aligned with the pattern.
    Sddmm,
    /// The fused SDDMM+SpMM kernel.
    Fused,
}

impl LocalOp {
    /// All ops, in display order.
    pub const ALL: [LocalOp; 4] = [
        LocalOp::Spmm,
        LocalOp::SpmmT,
        LocalOp::Sddmm,
        LocalOp::Fused,
    ];

    /// Stable lower-case label (bench reports, scoreboards).
    pub fn label(self) -> &'static str {
        match self {
            LocalOp::Spmm => "spmm",
            LocalOp::SpmmT => "spmm-t",
            LocalOp::Sddmm => "sddmm",
            LocalOp::Fused => "fused",
        }
    }
}

/// Storage format of the sparse block a local kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SparseFormat {
    /// Compressed sparse rows — stationary blocks, reused across steps.
    Csr,
    /// Coordinate triplets — blocks that just arrived over the wire.
    Coo,
}

/// An interchangeable local kernel implementation. `Default` is
/// [`LocalKernel::Naive`], the original row loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LocalKernel {
    /// The original row loop (the pre-variant-library kernels).
    #[default]
    Naive,
    /// Register-blocked rows with width-specialized inner loops.
    Blocked,
    /// Thread-parallel register-blocked rows.
    ParBlocked,
}

impl LocalKernel {
    /// All variants, in display order.
    pub const ALL: [LocalKernel; 3] = [
        LocalKernel::Naive,
        LocalKernel::Blocked,
        LocalKernel::ParBlocked,
    ];

    /// Stable lower-case label (bench schema, scoreboards).
    pub fn label(self) -> &'static str {
        match self {
            LocalKernel::Naive => "naive",
            LocalKernel::Blocked => "blocked",
            LocalKernel::ParBlocked => "par-blocked",
        }
    }

    /// The variants admissible for an (op, format) pair, `Naive` first.
    pub fn admissible(op: LocalOp, format: SparseFormat) -> &'static [LocalKernel] {
        match (format, op) {
            (SparseFormat::Coo, _) | (SparseFormat::Csr, LocalOp::SpmmT) => {
                &[LocalKernel::Naive, LocalKernel::Blocked]
            }
            (SparseFormat::Csr, _) => &LocalKernel::ALL,
        }
    }

    /// Degrade `self` to the nearest admissible variant for (op,
    /// format): parallelism is dropped where the op can't split (the
    /// transpose scatter's output rows collide across input rows; COO
    /// blocks are consumed once, serially).
    pub fn clamp(self, op: LocalOp, format: SparseFormat) -> LocalKernel {
        if LocalKernel::admissible(op, format).contains(&self) {
            self
        } else {
            LocalKernel::Blocked
        }
    }

    /// The variant that runs for (op, format) when nothing is pinned.
    ///
    /// From the `tuner_sweep` microbenchmark (8 nnz/row, r = 32):
    /// `Blocked` wins SpMM on both formats and SDDMM on COO; the COO
    /// scatter follows the CSR one, which `Naive` wins. For CSR SDDMM and
    /// the fused kernel `Naive` and `Blocked` run the same chained row
    /// loop, so the pick is `Naive`. `ParBlocked` is never the rule: with
    /// several ranks per host it oversubscribes the cores, so only a pin
    /// selects it. The fused kernel has no COO form; its COO cell is
    /// never dispatched.
    pub fn table(op: LocalOp, format: SparseFormat) -> LocalKernel {
        match (op, format) {
            (LocalOp::Spmm, _) | (LocalOp::Sddmm, SparseFormat::Coo) => LocalKernel::Blocked,
            (LocalOp::SpmmT | LocalOp::Sddmm | LocalOp::Fused, _) => LocalKernel::Naive,
        }
    }

    // ------------------------------------------------------------------
    // Dispatch. Every variant is legal through every method: an op that
    // runs serially runs `ParBlocked` as `Blocked`, its clamp.
    // ------------------------------------------------------------------

    /// `out += S·B` on a CSR block through this variant.
    pub fn spmm_csr(self, out: &mut Mat, s: &CsrMatrix, b: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_csr_acc(out, s, b),
            LocalKernel::Blocked => blocked::blocked_spmm_csr_acc(out, s, b),
            LocalKernel::ParBlocked => parallel::par_blocked_spmm_csr_acc(out, s, b),
        }
    }

    /// `out += Sᵀ·A` on a CSR block through this variant.
    pub fn spmm_csr_t(self, out: &mut Mat, s: &CsrMatrix, a: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_csr_t_acc(out, s, a),
            LocalKernel::Blocked | LocalKernel::ParBlocked => {
                blocked::blocked_spmm_csr_t_acc(out, s, a)
            }
        }
    }

    /// SDDMM accumulation on a CSR block through this variant.
    pub fn sddmm_csr(
        self,
        acc: &mut [f64],
        s: &CsrMatrix,
        a_panel: &Mat,
        b_panel: &Mat,
        combine: SddmmCombine<'_>,
    ) {
        match self {
            LocalKernel::Naive => {
                crate::sddmm::sddmm_csr_acc_with(acc, s, a_panel, b_panel, combine)
            }
            LocalKernel::Blocked => {
                let affine = |x: &[f64], y: &[f64]| blocked::eval_blocked(combine, x, y);
                crate::sddmm::sddmm_csr_acc_by(acc, s, a_panel, b_panel, combine, affine)
            }
            LocalKernel::ParBlocked => {
                parallel::par_blocked_sddmm_csr_acc_with(acc, s, a_panel, b_panel, combine)
            }
        }
    }

    /// The fused SDDMM+SpMM kernel on a CSR block through this variant.
    pub fn fused_csr(self, out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
        match self {
            LocalKernel::Naive | LocalKernel::Blocked => crate::fused::fused_a_csr(out, s, a, b),
            LocalKernel::ParBlocked => parallel::par_blocked_fused_a_csr(out, s, a, b),
        }
    }

    /// `out += S·B` on a COO block through this variant.
    pub fn spmm_coo(self, out: &mut Mat, s: &CooMatrix, b: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_coo_acc(out, s, b),
            LocalKernel::Blocked | LocalKernel::ParBlocked => {
                blocked::blocked_spmm_coo_acc(out, s, b)
            }
        }
    }

    /// `out += Sᵀ·A` on a COO block through this variant.
    pub fn spmm_coo_t(self, out: &mut Mat, s: &CooMatrix, a: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_coo_t_acc(out, s, a),
            LocalKernel::Blocked | LocalKernel::ParBlocked => {
                blocked::blocked_spmm_coo_t_acc(out, s, a)
            }
        }
    }

    /// SDDMM accumulation on a COO block through this variant.
    pub fn sddmm_coo(
        self,
        acc: &mut [f64],
        s: &CooMatrix,
        a_panel: &Mat,
        b_panel: &Mat,
        combine: SddmmCombine<'_>,
    ) {
        match self {
            LocalKernel::Naive => {
                crate::sddmm::sddmm_coo_acc_with(acc, s, a_panel, b_panel, combine)
            }
            LocalKernel::Blocked | LocalKernel::ParBlocked => {
                blocked::blocked_sddmm_coo_acc_with(acc, s, a_panel, b_panel, combine)
            }
        }
    }
}

/// `out += S·B` on a CSR block whose values are made per row inside the
/// row loop and never stored: `fill(i, cols, vals)` writes row `i`'s
/// values (aligned with `cols`; empty rows get no call), which the
/// row's width-dispatched register-blocked gather then multiplies in.
/// One row loop serves every variant, like the fused kernel's: with
/// `fill` copying the block's own values it is bit for bit
/// [`LocalKernel::Blocked`]'s `spmm_csr`.
pub fn spmm_csr_filled(
    out: &mut Mat,
    s: &CsrMatrix,
    b: &Mat,
    fill: impl FnMut(usize, &[u32], &mut [f64]),
) {
    blocked::blocked_spmm_csr_fill_acc(out, s, b, fill)
}

/// The variants a distributed kernel family runs for its four local
/// ops. `Default` is all-[`LocalKernel::Naive`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalPicks {
    /// Variant for `out += S·B`.
    pub spmm: LocalKernel,
    /// Variant for the transpose scatter `out += Sᵀ·A`.
    pub spmm_t: LocalKernel,
    /// Variant for SDDMM accumulation.
    pub sddmm: LocalKernel,
    /// Variant for the fused SDDMM+SpMM kernel.
    pub fused: LocalKernel,
}

impl LocalPicks {
    /// The picks for blocks stored in `format`: `pin` clamped per op
    /// when set, else [`LocalKernel::table`].
    pub fn resolve(format: SparseFormat, pin: Option<LocalKernel>) -> LocalPicks {
        let pick = |op| pin.map_or(LocalKernel::table(op, format), |v| v.clamp(op, format));
        LocalPicks {
            spmm: pick(LocalOp::Spmm),
            spmm_t: pick(LocalOp::SpmmT),
            sddmm: pick(LocalOp::Sddmm),
            fused: pick(LocalOp::Fused),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_lands_in_the_admissible_set() {
        for op in LocalOp::ALL {
            for format in [SparseFormat::Csr, SparseFormat::Coo] {
                let adm = LocalKernel::admissible(op, format);
                assert_eq!(adm[0], LocalKernel::Naive);
                for v in LocalKernel::ALL {
                    let c = v.clamp(op, format);
                    assert!(
                        adm.contains(&c),
                        "{v:?} clamped to {c:?}, inadmissible for {op:?}/{format:?}"
                    );
                    // Admissible variants are fixed points.
                    if adm.contains(&v) {
                        assert_eq!(c, v);
                    }
                }
            }
        }
    }

    #[test]
    fn picks_follow_the_pin_clamped_per_op_else_the_table() {
        for format in [SparseFormat::Csr, SparseFormat::Coo] {
            let picks = LocalPicks::resolve(format, None);
            for (op, pick) in [
                (LocalOp::Spmm, picks.spmm),
                (LocalOp::SpmmT, picks.spmm_t),
                (LocalOp::Sddmm, picks.sddmm),
                (LocalOp::Fused, picks.fused),
            ] {
                assert_eq!(pick, LocalKernel::table(op, format), "{op:?}/{format:?}");
                assert!(LocalKernel::admissible(op, format).contains(&pick));
            }
        }
        let csr = LocalPicks::resolve(SparseFormat::Csr, Some(LocalKernel::ParBlocked));
        assert_eq!(csr.spmm, LocalKernel::ParBlocked);
        assert_eq!(csr.spmm_t, LocalKernel::Blocked);
        let coo = LocalPicks::resolve(SparseFormat::Coo, Some(LocalKernel::ParBlocked));
        assert_eq!(coo.spmm, LocalKernel::Blocked);
    }
}
