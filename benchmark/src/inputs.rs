//! The five workloads: what each one is, why it is here, and how its
//! inputs and its serial reference are made from `--seed`.

use std::sync::Arc;
use std::time::Instant;

use distributed_sparse_kernels::apps::gat::gat_forward_reference;
use distributed_sparse_kernels::apps::{run_als, AlsConfig, AppEngine, GatConfig, GatHead};
use distributed_sparse_kernels::dense::ops::row_dot;
use distributed_sparse_kernels::prelude::*;
use distributed_sparse_kernels::sparse::gen::{self, RmatParams};
use distributed_sparse_kernels::sparse::permute::random_symmetric_permute;

/// Every world has four ranks: the smallest world that has a
/// replication fibre (c = 2) and a ring (p/c = 2) at once.
pub const P: usize = 4;
/// Steps run and checked, but not timed, after each cold build.
pub const WARMUP_STEPS: usize = 5;

/// What one step of the workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fused_mm_b` on a `KernelBuilder` worker.
    Fused,
    /// `run_als` with one sweep on an `AppEngine`.
    Als,
    /// `GatEngine::forward`.
    Gat,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub backend: BackendKind,
    pub model: MachineModel,
    /// Pin 1.5D dense shifting, c = 2, dense routing (the planner's
    /// own pick otherwise).
    pub pinned: bool,
    /// Relative tolerance of the per-step output check.
    pub tol: f64,
    pub why: &'static str,
}

/// `fused-latency`'s injected-delay model: ≈ 1 GB/s links, so a 4 MB
/// tile costs ≈ 4.2 ms, under the backend's 5 ms per-message clamp.
fn latency_model() -> MachineModel {
    MachineModel {
        alpha_s: 50e-6,
        beta_s_per_word: 8e-9,
        gamma_s_per_flop: MachineModel::cori_knl().gamma_s_per_flop,
    }
}

pub fn specs() -> [Spec; 5] {
    let cori = MachineModel::cori_knl();
    [
        Spec {
            name: "fused-compute",
            kind: Kind::Fused,
            backend: BackendKind::InProc,
            model: cori,
            pinned: false,
            tol: 1e-9,
            why: "ER 32768^2, r=32, 32 nnz/row, inproc, planner's pick: local kernels are ~80% of the step, transport almost none; a kernel or tuner gain shows here, a transport change must not",
        },
        Spec {
            name: "fused-comm",
            kind: Kind::Fused,
            backend: BackendKind::Socket,
            model: cori,
            pinned: true,
            tol: 1e-9,
            why: "ER 8192^2, r=256, 4 nnz/row, 4 processes over Unix sockets, pinned 1.5D dense shift c=2: 16 MB of dense tiles per rank per step; the message hot path is the step",
        },
        Spec {
            name: "fused-latency",
            kind: Kind::Fused,
            backend: BackendKind::WireDelay,
            model: latency_model(),
            pinned: true,
            tol: 1e-9,
            why: "ER 16384^2, r=64, 16 nnz/row, wire-delay at 50us + 8ns/word, pinned 1.5D dense shift c=2: injected delay beside the compute; only comm/compute overlap can shorten it",
        },
        Spec {
            name: "als-sweep",
            kind: Kind::Als,
            backend: BackendKind::Socket,
            model: cori,
            pinned: false,
            tol: 1e-3,
            why: "planted rank-16 ratings 16384^2, 12 obs/row, one ALS sweep (10+10 CG) over sockets on the planner's pick: many small messages, row-dot reductions, both fused kernels",
        },
        Spec {
            name: "gat-forward",
            kind: Kind::Gat,
            backend: BackendKind::InProc,
            model: cori,
            pinned: false,
            tol: 1e-6,
            why: "R-MAT scale 15, edge factor 8, permuted, r=32, 2 heads, inproc: power-law rows, generalized SDDMM + row softmax + SpMM; load imbalance and outside-kernel work",
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

pub const ALS_CONFIG: AlsConfig = AlsConfig {
    lambda: 0.02,
    cg_iters: 10,
    sweeps: 1,
    track_loss: false,
};

pub const GAT_CONFIG: GatConfig = GatConfig {
    heads: 2,
    negative_slope: 0.2,
};

/// A workload's generated inputs (the program receives only these).
pub struct Inputs {
    pub prob: Arc<GlobalProblem>,
    /// GAT attention heads (empty for the other kinds).
    pub heads: Vec<GatHead>,
}

/// Distinct sub-seeds from `--seed` (splitmix64 increments).
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let prob = match spec.name {
        "fused-compute" => GlobalProblem::erdos_renyi(32768, 32768, 32, 32, sub_seed(seed, 1)),
        "fused-comm" => GlobalProblem::erdos_renyi(8192, 8192, 256, 4, sub_seed(seed, 1)),
        "fused-latency" => GlobalProblem::erdos_renyi(16384, 16384, 64, 16, sub_seed(seed, 1)),
        "als-sweep" => {
            let (n, rank) = (16384, 16);
            let a_true = Mat::random(n, rank, sub_seed(seed, 1));
            let b_true = Mat::random(n, rank, sub_seed(seed, 2));
            let mut s = gen::erdos_renyi(n, n, 12, sub_seed(seed, 3));
            s.vals = s
                .iter()
                .map(|(i, j, _)| row_dot(&a_true, i, &b_true, j))
                .collect();
            GlobalProblem::new(
                s,
                Mat::random(n, rank, sub_seed(seed, 4)),
                Mat::random(n, rank, sub_seed(seed, 5)),
            )
        }
        "gat-forward" => {
            let raw = gen::rmat(RmatParams::graph500(15, 8, sub_seed(seed, 1)));
            let (s, _) = random_symmetric_permute(&raw, sub_seed(seed, 2));
            let h = Mat::random(s.nrows, 32, sub_seed(seed, 3));
            GlobalProblem::new(s, h.clone(), h)
        }
        other => unreachable!("no generator for workload {other}"),
    };
    let heads = if spec.kind == Kind::Gat {
        (0..GAT_CONFIG.heads as u64)
            .map(|i| GatHead::random(prob.dims.r, sub_seed(seed, 10 + i)))
            .collect()
    } else {
        Vec::new()
    };
    Inputs {
        prob: Arc::new(prob),
        heads,
    }
}

/// The plain single-threaded solve every step is checked against.
pub struct Reference {
    /// Fused/GAT: ‖output‖² every step must reproduce. ALS: the loss
    /// after the first sweep on one rank.
    pub value: f64,
    /// Wall seconds of one serial step.
    pub step_s: f64,
}

fn sum_sq(m: &Mat) -> f64 {
    m.as_slice().iter().map(|v| v * v).sum()
}

pub fn reference(spec: &Spec, inputs: &Inputs) -> Reference {
    let t = Instant::now();
    match spec.kind {
        Kind::Fused => {
            let out = inputs.prob.reference_fused_b();
            Reference {
                step_s: t.elapsed().as_secs_f64(),
                value: sum_sq(&out),
            }
        }
        Kind::Gat => {
            let out = gat_forward_reference(&inputs.prob, &inputs.heads, &GAT_CONFIG);
            Reference {
                step_s: t.elapsed().as_secs_f64(),
                value: sum_sq(&out),
            }
        }
        Kind::Als => {
            let prob = Arc::clone(&inputs.prob);
            let world = SimWorld::new(1, spec.model).backend(BackendKind::InProc);
            let out = world.run(move |comm| {
                let mut engine =
                    AppEngine::new(Session::builder_arc(Arc::clone(&prob)).build(comm));
                run_als(&mut engine, &ALS_CONFIG);
                let loss = engine.loss();
                // Time the second sweep: the first pays the cold caches.
                let t = Instant::now();
                run_als(&mut engine, &ALS_CONFIG);
                (loss, t.elapsed().as_secs_f64())
            });
            let (loss, step_s) = out.into_iter().next().expect("one rank").value;
            Reference {
                value: loss,
                step_s,
            }
        }
    }
}
