//! Collaborative filtering by alternating least squares (paper §VI-E).
//!
//! Factor a sparsely observed matrix `C ≈ A·B^T` by alternately fixing
//! one factor and solving the per-row ridge-regression normal equations
//! of the other:
//!
//! ```text
//! (Σ_{j∈Ωᵢ} b_j b_jᵀ + λI) aᵢ = Σ_{j∈Ωᵢ} C̃ᵢⱼ b_j
//! ```
//!
//! Following Zhao & Canny (the paper's reference \[1\]), the conjugate-
//! gradient solver is *batched*: the query vectors `M·x` for all rows
//! are computed at once as a single FusedMM with pattern sampling,
//!
//! ```text
//! qᵢ = Σ_{j∈Ωᵢ} ⟨xᵢ, b_j⟩ b_j + λ xᵢ  =  FusedMMA(S, X, B) + λX,
//! ```
//!
//! so each CG iteration is one distributed FusedMM plus per-row scalar
//! work. The right-hand sides are one SpMM with the observation values.
//! The fixed factor cannot change within a solve, so a family that
//! shifts it need do so only once: on the 1.5D dense shift with local
//! kernel fusion the right-hand-side round keeps the fixed factor's ring
//! tiles and every FusedMM of the solve replays them, moving only the
//! iterate, so each factor crosses the ring once per sweep. Per the
//! paper's benchmark, a run performs `cg_iters` iterations for the `A`
//! factor and `cg_iters` for `B` (10 + 10 = 20 by default).

use dsk_comm::Phase;
use dsk_dense::Mat;

use crate::engine::AppEngine;

/// ALS hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AlsConfig {
    /// Ridge regularization λ.
    pub lambda: f64,
    /// CG iterations per factor phase (the paper uses 10).
    pub cg_iters: usize,
    /// Outer ALS sweeps (each = one A phase + one B phase).
    pub sweeps: usize,
    /// Whether to evaluate the loss before and after (adds one SDDMM
    /// each; benchmarks switch this off).
    pub track_loss: bool,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig {
            lambda: 0.1,
            cg_iters: 10,
            sweeps: 1,
            track_loss: true,
        }
    }
}

/// Outcome of an ALS run on one rank.
#[derive(Debug, Clone)]
pub struct AlsReport {
    /// Squared loss over observed entries before optimization (if
    /// tracked).
    pub initial_loss: Option<f64>,
    /// Squared loss after optimization (if tracked).
    pub final_loss: Option<f64>,
    /// Global residual norms `‖r‖²` at the end of each CG phase.
    pub phase_residuals: Vec<f64>,
}

// Reports cross process boundaries under the socket backend.
impl dsk_comm::Payload for AlsReport {
    fn words(&self) -> usize {
        2 + self.phase_residuals.len()
    }
}

impl dsk_comm::WirePayload for AlsReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.initial_loss.encode(buf);
        self.final_loss.encode(buf);
        self.phase_residuals.encode(buf);
    }
    fn decode(r: &mut dsk_comm::WireReader<'_>) -> Self {
        AlsReport {
            initial_loss: Option::<f64>::decode(r),
            final_loss: Option::<f64>::decode(r),
            phase_residuals: Vec::<f64>::decode(r),
        }
    }
}

/// Which factor a CG phase solves for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Solve for `A` (matvec = FusedMMA with pattern sampling).
    A,
    /// Solve for `B` (matvec = FusedMMB with pattern sampling).
    B,
}

/// Batched conjugate gradients: solves `(M + λI)x = rhs` row-wise,
/// where `M` is applied to all rows at once as one FusedMM and per-row
/// inner products are globally reduced over the row-sharing group.
/// Returns the iterate after `iters` steps and the final `Σᵢ‖rᵢ‖²`.
fn batched_cg(
    engine: &mut AppEngine,
    side: Side,
    rhs: &Mat,
    lambda: f64,
    iters: usize,
) -> (Mat, f64) {
    let row_dots = |eng: &AppEngine, a: &Mat, b: &Mat| match side {
        Side::A => eng.row_dots_a(a, b),
        Side::B => eng.row_dots_b(a, b),
    };
    let mut x = Mat::zeros(rhs.nrows(), rhs.ncols());
    let mut r = rhs.clone();
    let mut p = r.clone();
    let mut rs = row_dots(engine, &r, &r);
    for _ in 0..iters {
        let mut ap = match side {
            Side::A => engine.fused_a_ones(&p),
            Side::B => engine.fused_b_ones(&p),
        };
        // + λ p, locally.
        for (av, pv) in ap.as_mut_slice().iter_mut().zip(p.as_slice()) {
            *av += lambda * pv;
        }
        let pap = row_dots(engine, &p, &ap);
        // Per-row α; rows already converged (rs≈0) stay put.
        let alpha: Vec<f64> = rs
            .iter()
            .zip(&pap)
            .map(|(&rsi, &papi)| if papi.abs() > 1e-300 { rsi / papi } else { 0.0 })
            .collect();
        for i in 0..x.nrows() {
            let a = alpha[i];
            for ((xv, pv), (rv, av)) in x
                .row_mut(i)
                .iter_mut()
                .zip(p.row(i))
                .map(|(xv, pv)| (xv, *pv))
                .zip(r.row_mut(i).iter_mut().zip(ap.row(i)))
            {
                *xv += a * pv;
                *rv -= a * av;
            }
        }
        let rs_new = row_dots(engine, &r, &r);
        let beta: Vec<f64> = rs_new
            .iter()
            .zip(&rs)
            .map(|(&n, &o)| if o.abs() > 1e-300 { n / o } else { 0.0 })
            .collect();
        for i in 0..p.nrows() {
            let b = beta[i];
            for (pv, rv) in p.row_mut(i).iter_mut().zip(r.row(i)) {
                *pv = rv + b * *pv;
            }
        }
        rs = rs_new;
    }
    (x, rs.iter().sum())
}

/// One ALS sweep (A phase + B phase), pushing the two phase residuals.
fn als_sweep(engine: &mut AppEngine, cfg: &AlsConfig, phase_residuals: &mut Vec<f64>) {
    // --- A phase: fix B, solve for A ----------------------------------
    let rhs = engine.rhs_a();
    let (x, resid) = batched_cg(engine, Side::A, &rhs, cfg.lambda, cfg.cg_iters);
    let resid = {
        // Ranks sharing rows hold identical (already-global) per-row
        // dots; normalize by the sharing factor.
        let comm = engine.comm();
        let _ph = comm.phase(Phase::OutsideComm);
        comm.allreduce_scalar(resid) / engine.row_share_a() as f64
    };
    phase_residuals.push(resid);
    engine.commit_a(&x);

    // --- B phase: fix A, solve for B ----------------------------------
    let rhs = engine.rhs_b();
    let (y, resid) = batched_cg(engine, Side::B, &rhs, cfg.lambda, cfg.cg_iters);
    let resid = {
        let comm = engine.comm();
        let _ph = comm.phase(Phase::OutsideComm);
        comm.allreduce_scalar(resid) / engine.row_share_b() as f64
    };
    phase_residuals.push(resid);
    engine.commit_b(&y);
}

/// Run ALS on an [`AppEngine`]. The engine's stored `S` values are the
/// observations `C̃`; its stored `A`/`B` are the initial factors.
/// Re-planning is the caller's business
/// (`engine.session_mut().replan(..)` between two `run_als` calls):
/// factors and loss carry over exactly, only the distribution changes.
pub fn run_als(engine: &mut AppEngine, cfg: &AlsConfig) -> AlsReport {
    let initial_loss = cfg.track_loss.then(|| engine.loss());
    let mut phase_residuals = Vec::with_capacity(2 * cfg.sweeps);
    for _ in 0..cfg.sweeps {
        als_sweep(engine, cfg, &mut phase_residuals);
    }
    let final_loss = cfg.track_loss.then(|| engine.loss());
    AlsReport {
        initial_loss,
        final_loss,
        phase_residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{Comm, MachineModel, SimWorld};
    use dsk_core::common::{AlgorithmFamily, Elision};
    use dsk_core::session::Session;
    use dsk_core::GlobalProblem;
    use std::sync::Arc;

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

    /// A low-rank-ish completion problem: observations from a random
    /// rank-`r` product plus noiseless sampling, so ALS can drive the
    /// loss near zero.
    fn completion_problem(m: usize, n: usize, r: usize, seed: u64) -> GlobalProblem {
        let a_true = Mat::random(m, r, seed);
        let b_true = Mat::random(n, r, seed + 1);
        let mut s = dsk_sparse::gen::erdos_renyi(m, n, 6, seed + 2);
        let vals: Vec<f64> = s
            .iter()
            .map(|(i, j, _)| dsk_dense::ops::row_dot(&a_true, i, &b_true, j))
            .collect();
        s.vals = vals;
        // Start from fresh random factors.
        let a0 = Mat::random(m, r, seed + 3);
        let b0 = Mat::random(n, r, seed + 4);
        GlobalProblem::new(s, a0, b0)
    }

    #[test]
    fn als_reduces_loss_on_ds15() {
        let prob = Arc::new(completion_problem(24, 24, 4, 200));
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut eng = engine(
                comm,
                AlgorithmFamily::DenseShift15,
                2,
                Elision::LocalKernelFusion,
                &prob,
            );
            run_als(
                &mut eng,
                &AlsConfig {
                    lambda: 0.01,
                    sweeps: 2,
                    ..AlsConfig::default()
                },
            )
        });
        let rep = &out[0].value;
        let (li, lf) = (rep.initial_loss.unwrap(), rep.final_loss.unwrap());
        assert!(lf < 0.05 * li, "ALS failed to reduce loss: {li} -> {lf}");
    }

    #[test]
    fn als_agrees_across_families() {
        // Same math, different distributions: final losses must agree.
        let prob = Arc::new(completion_problem(24, 24, 4, 201));
        let cases = [
            (AlgorithmFamily::DenseShift15, 2, Elision::ReplicationReuse),
            // Every matvec replays the tiles the rhs rounds stored.
            (AlgorithmFamily::DenseShift15, 2, Elision::LocalKernelFusion),
            (AlgorithmFamily::SparseShift15, 2, Elision::ReplicationReuse),
            (AlgorithmFamily::DenseRepl25, 2, Elision::ReplicationReuse),
            (AlgorithmFamily::SparseRepl25, 2, Elision::None),
        ];
        let mut finals = Vec::new();
        for (family, c, elision) in cases {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(8, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut eng = engine(comm, family, c, elision, &pr);
                run_als(
                    &mut eng,
                    &AlsConfig {
                        sweeps: 1,
                        cg_iters: 5,
                        ..AlsConfig::default()
                    },
                )
            });
            finals.push(out[0].value.final_loss.unwrap());
        }
        for f in &finals[1..] {
            assert!(
                (f - finals[0]).abs() < 1e-6 * finals[0].max(1e-9),
                "family losses diverge: {finals:?}"
            );
        }
    }

    /// A sweep shifts each factor once: on the 1.5D dense shift with
    /// local kernel fusion, the right-hand-side rounds ship the fixed
    /// factor and every CG matvec replays its tiles, so each rank sends
    /// exactly `2·(q − 1)·⌈n/p⌉·r` propagation words per sweep, however
    /// many CG iterations it runs.
    #[test]
    fn propagation_words_per_sweep_do_not_grow_with_cg_iterations() {
        let (n, r, p) = (24, 4, 4);
        let prob = Arc::new(completion_problem(n, n, r, 203));
        let words = [2usize, 6].map(|cg_iters| {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(p, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut eng = engine(
                    comm,
                    AlgorithmFamily::DenseShift15,
                    1,
                    Elision::LocalKernelFusion,
                    &pr,
                );
                let cfg = AlsConfig {
                    cg_iters,
                    track_loss: false,
                    ..AlsConfig::default()
                };
                run_als(&mut eng, &cfg);
                eng.session().stats().phase(Phase::Propagation).words_sent
            });
            out.iter().map(|o| o.value).collect::<Vec<u64>>()
        });
        // 144 words: each factor's q − 1 = 3 blocks of 6 × 4 entries.
        let once = (2 * (p - 1) * n.div_ceil(p) * r) as u64;
        for (cg_iters, per_rank) in [2, 6].iter().zip(&words) {
            assert!(
                per_rank.iter().all(|&w| w == once),
                "cg_iters={cg_iters}: {per_rank:?}, expected {once} per rank"
            );
        }
    }

    #[test]
    fn residuals_shrink_with_more_cg_iterations() {
        let prob = Arc::new(completion_problem(16, 16, 3, 202));
        let mut resids = Vec::new();
        for iters in [2usize, 8] {
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(4, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut eng = engine(
                    comm,
                    AlgorithmFamily::DenseShift15,
                    2,
                    Elision::ReplicationReuse,
                    &pr,
                );
                run_als(
                    &mut eng,
                    &AlsConfig {
                        cg_iters: iters,
                        track_loss: false,
                        ..AlsConfig::default()
                    },
                )
            });
            resids.push(out[0].value.phase_residuals[0]);
        }
        assert!(
            resids[1] < resids[0],
            "CG residual did not shrink: {resids:?}"
        );
    }
}
