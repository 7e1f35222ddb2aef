//! The grids the planner-regret sweep (`fig6_phase_diagram`) measures,
//! at three scales.
//!
//! The paper's Figure 6 sweeps r ∈ {64,…,448} × nnz/row ∈ {21,…,149}
//! at m = 2²²; the sweep here runs proportionally smaller values so the
//! φ = nnz/(n·r) range brackets the same crossover.

/// How large a sweep runs: `Smoke` finishes in seconds (the CI
/// perf-gate leg), `Quick` in a couple of minutes, `Full` reproduces
/// the figure-scale grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepScale {
    /// Tiny grid at p = 8 — seconds, deterministic, CI-gated.
    Smoke,
    /// The `--quick` grid at p = 32.
    Quick,
    /// The figure-scale grid at p = 32.
    Full,
}

impl SweepScale {
    /// Resolve from the process arguments (`--smoke` / `--quick`,
    /// default [`SweepScale::Full`]).
    pub fn from_args() -> SweepScale {
        if std::env::args().any(|a| a == "--smoke") {
            SweepScale::Smoke
        } else if std::env::args().any(|a| a == "--quick") {
            SweepScale::Quick
        } else {
            SweepScale::Full
        }
    }

    /// Profile label written into BENCH reports.
    pub fn label(&self) -> &'static str {
        match self {
            SweepScale::Smoke => "smoke",
            SweepScale::Quick => "quick",
            SweepScale::Full => "full",
        }
    }
}

/// The planner-regret sweep grid at one [`SweepScale`].
#[derive(Debug, Clone)]
pub struct Fig6Grid {
    /// Rank count of every world.
    pub p: usize,
    /// Square sparse-matrix side.
    pub m: usize,
    /// Embedding widths swept.
    pub rs: Vec<usize>,
    /// Nonzeros-per-row values swept.
    pub nnzs: Vec<usize>,
}

/// The Figure 6 grid extended with the sweep's rank count. Smoke keeps
/// the φ range bracketing the 1.5D crossover (0.03125 … 2.5) so the
/// regret sweep still exercises both sides of the phase diagram, at
/// sizes where all candidates run in seconds. The nnz/row = 1 column is
/// the sparse-routing scenario: at its widest-r corner the row supports
/// are sparse enough that the planner's pick itself is pattern-routed,
/// so the sweep measures routed execution winning end-to-end (not just
/// scored losing rows).
pub fn fig6_regret_grid(scale: SweepScale) -> Fig6Grid {
    match scale {
        SweepScale::Smoke => Fig6Grid {
            p: 8,
            m: 1 << 10,
            rs: vec![8, 16, 32],
            nnzs: vec![1, 2, 8, 20],
        },
        SweepScale::Quick | SweepScale::Full => Fig6Grid {
            p: 32,
            m: if scale == SweepScale::Quick {
                1 << 12
            } else {
                1 << 14
            },
            rs: (1..=7).map(|k| 8 * k).collect(),      // 8..56
            nnzs: (0..7).map(|k| 2 + 3 * k).collect(), // 2..20
        },
    }
}

/// A drifting-sparsity schedule: one problem side and embedding width,
/// with a sequence of per-phase nonzeros-per-row values that decays
/// across the Fig. 6 phase boundary — the shape of an iterative
/// application that prunes as it trains (SparCML's observation).
#[derive(Debug, Clone)]
pub struct DriftGrid {
    /// Rank count of every world.
    pub p: usize,
    /// Square sparse-matrix side.
    pub m: usize,
    /// Embedding width (fixed across phases).
    pub r: usize,
    /// Nonzeros-per-row of each phase, in order (strictly decaying).
    pub schedule: Vec<usize>,
}

/// The drifting-nnz grid measured by the `adaptive` scenario of the
/// regret sweep. The schedule's φ spans both sides of the 1.5D
/// crossover, so a static phase-0 plan is predictably wrong by the last
/// phase while per-phase re-planning tracks the drift.
pub fn drifting_nnz_grid(scale: SweepScale) -> DriftGrid {
    match scale {
        SweepScale::Smoke => DriftGrid {
            p: 8,
            m: 1 << 10,
            r: 32,
            schedule: vec![20, 8, 2],
        },
        SweepScale::Quick | SweepScale::Full => DriftGrid {
            p: 32,
            m: if scale == SweepScale::Quick {
                1 << 12
            } else {
                1 << 14
            },
            r: 32,
            schedule: vec![20, 12, 6, 2],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_grids_bracket_the_crossover_at_every_scale() {
        for scale in [SweepScale::Smoke, SweepScale::Quick, SweepScale::Full] {
            let g = fig6_regret_grid(scale);
            let phi_min = g.nnzs[0] as f64 / *g.rs.last().unwrap() as f64;
            let phi_max = *g.nnzs.last().unwrap() as f64 / g.rs[0] as f64;
            assert!(phi_min < 0.2, "{scale:?}: {phi_min}");
            assert!(phi_max > 1.0, "{scale:?}: {phi_max}");
            assert!(g.p >= 8 && g.m >= 1 << 10, "{scale:?}");
        }
        // Smoke must stay small enough for a CI leg.
        let smoke = fig6_regret_grid(SweepScale::Smoke);
        assert!(smoke.m <= 1 << 10 && smoke.rs.len() * smoke.nnzs.len() <= 16);
    }

    #[test]
    fn drifting_schedule_decays_across_the_crossover() {
        for scale in [SweepScale::Smoke, SweepScale::Quick, SweepScale::Full] {
            let g = drifting_nnz_grid(scale);
            assert!(
                g.schedule.windows(2).all(|w| w[0] > w[1]),
                "{scale:?}: schedule must strictly decay"
            );
            let phi_first = g.schedule[0] as f64 / g.r as f64;
            let phi_last = *g.schedule.last().unwrap() as f64 / g.r as f64;
            assert!(
                phi_first > 0.3,
                "{scale:?}: starts dense-side ({phi_first})"
            );
            assert!(phi_last < 0.2, "{scale:?}: ends sparse-side ({phi_last})");
        }
    }
}
