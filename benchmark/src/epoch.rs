//! The per-rank program of one epoch (`SimWorld::run` call): cold
//! build, warm-up steps, timed steps, each step barrier-to-barrier and
//! checked. Under the socket backend every rank process runs this same
//! code, so everything here is a pure function of its arguments.

use std::sync::Arc;
use std::time::Instant;

use distributed_sparse_kernels::apps::{run_als, AppEngine, GatEngine};
use distributed_sparse_kernels::comm::{
    Payload, PhaseCounters, RankStats, WirePayload, WireReader,
};
use distributed_sparse_kernels::prelude::*;

use crate::inputs::{Inputs, Kind, Spec, ALS_CONFIG, GAT_CONFIG};

/// Seconds since this process first asked. Rank 0 always lives in the
/// launcher process (a thread of it in memory, the process itself under
/// sockets), so its stamps share a clock with the launcher's spans.
pub fn now_s() -> f64 {
    static T0: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The kernel builder a fused workload (and the plan report) uses.
pub fn kernel_builder(spec: &Spec, staged: &Arc<StagedProblem>) -> KernelBuilder<'static> {
    let b = KernelBuilder::from_staged_arc(Arc::clone(staged));
    if spec.pinned {
        b.family(AlgorithmFamily::DenseShift15)
            .replication(2)
            .routing(Routing::Dense)
    } else {
        b.auto()
    }
}

/// A built workload on one rank: what `step` drives.
pub enum Engine<'a> {
    Fused {
        worker: DistWorker,
        last: Option<Mat>,
    },
    Als {
        engine: Box<AppEngine>,
    },
    Gat {
        engine: Box<GatEngine>,
        inputs: &'a Inputs,
        last: Option<Mat>,
    },
}

impl<'a> Engine<'a> {
    /// The cold build: partition, local CSR, pattern exchange, tuner.
    pub fn build(
        spec: &Spec,
        inputs: &'a Inputs,
        staged: &Arc<StagedProblem>,
        comm: &Comm,
    ) -> Self {
        let session = || {
            Session::builder_staged(Arc::clone(staged))
                .auto()
                .build(comm)
        };
        match spec.kind {
            Kind::Fused => Engine::Fused {
                worker: kernel_builder(spec, staged).build(comm),
                last: None,
            },
            Kind::Als => Engine::Als {
                engine: Box::new(AppEngine::new(session())),
            },
            Kind::Gat => Engine::Gat {
                engine: Box::new(GatEngine::new(session())),
                inputs,
                last: None,
            },
        }
    }

    /// One timed operation.
    pub fn step(&mut self) {
        match self {
            Engine::Fused { worker, last } => {
                let elision = worker.plan().elision;
                *last = Some(worker.fused_mm_b(None, elision, Sampling::Values));
            }
            Engine::Als { engine } => {
                run_als(engine, &ALS_CONFIG);
            }
            Engine::Gat {
                engine,
                inputs,
                last,
            } => *last = Some(engine.forward(&inputs.heads, &GAT_CONFIG)),
        }
    }

    /// This rank's share of the last step's verification value: local
    /// ‖output‖² (summed over ranks by the launcher), or for ALS the
    /// global loss (collective; the same on every rank).
    pub fn check(&mut self) -> f64 {
        match self {
            Engine::Fused { last, .. } | Engine::Gat { last, .. } => last
                .take()
                .map_or(f64::NAN, |m| m.as_slice().iter().map(|v| v * v).sum()),
            Engine::Als { engine } => engine.loss(),
        }
    }

    pub fn worker_mut(&mut self) -> &mut DistWorker {
        match self {
            Engine::Fused { worker, .. } => worker,
            Engine::Als { engine } => engine.session_mut().worker_mut(),
            Engine::Gat { engine, .. } => engine.session_mut().worker_mut(),
        }
    }
}

/// `f`, barrier to barrier, in wall seconds on this rank.
pub fn timed(comm: &Comm, f: impl FnOnce()) -> (f64, f64) {
    comm.barrier();
    let t0 = now_s();
    f();
    comm.barrier();
    (t0, now_s() - t0)
}

/// This rank's counters with wall time flushed up to now (wall is
/// otherwise booked only at phase transitions).
fn snapshot(comm: &Comm) -> RankStats {
    let current = comm.set_phase(Phase::Setup);
    comm.set_phase(current);
    comm.stats_snapshot()
}

/// What an epoch does after its cold build.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    pub warmup: usize,
    pub steps: usize,
    /// Keep a stats snapshot per timed step (the traced run's counts).
    pub per_step_stats: bool,
}

/// One rank's account of an epoch, shipped back as the outcome value.
#[derive(Debug, Clone)]
pub struct RankReport {
    pub plan: KernelPlan,
    /// Process-clock stamps ([`now_s`]): closure entry, build end.
    pub enter_at: f64,
    pub built_at: f64,
    /// Wall seconds inside the warm-up steps.
    pub warmup_s: f64,
    /// Start stamp and wall seconds of each timed step.
    pub step_at: Vec<f64>,
    pub step_s: Vec<f64>,
    /// Verification value of every step, warm-up first.
    pub checks: Vec<f64>,
    /// Wall seconds spent verifying (not a step, not set-up).
    pub check_s: f64,
    /// Stats after the build, before the first and after the last
    /// timed step; with `per_step_stats` also after each timed step.
    pub built: RankStats,
    pub timed0: RankStats,
    pub timed1: RankStats,
    pub per_step: Vec<RankStats>,
}

/// `after − before`, phase by phase: the counters of an interval as
/// stats of their own, so `RankStats` and `AggregateStats` fold them.
pub fn stats_between(before: &RankStats, after: &RankStats) -> RankStats {
    let mut out = RankStats::default();
    for p in Phase::ALL {
        let (a, b) = (after.phase(p), before.phase(p));
        *out.phase_mut(p) = PhaseCounters {
            msgs_sent: a.msgs_sent - b.msgs_sent,
            words_sent: a.words_sent - b.words_sent,
            msgs_recv: a.msgs_recv - b.msgs_recv,
            words_recv: a.words_recv - b.words_recv,
            wire_bytes_sent: a.wire_bytes_sent - b.wire_bytes_sent,
            flops: a.flops - b.flops,
            modeled_s: a.modeled_s - b.modeled_s,
            wall_s: a.wall_s - b.wall_s,
            stall_s: a.stall_s - b.stall_s,
        };
    }
    out
}

impl RankReport {
    /// This rank's counters over its timed steps alone.
    pub fn timed_window(&self) -> RankStats {
        stats_between(&self.timed0, &self.timed1)
    }
}

pub fn run_rank(
    spec: &Spec,
    inputs: &Inputs,
    staged: &Arc<StagedProblem>,
    prog: Program,
    comm: &Comm,
) -> RankReport {
    let enter_at = now_s();
    let mut engine = Engine::build(spec, inputs, staged, comm);
    let built_at = now_s();
    let built = snapshot(comm);
    let plan = engine.worker_mut().plan();

    let mut checks = Vec::with_capacity(prog.warmup + prog.steps);
    let mut check_s = 0.0;
    // Verification runs with accounting paused, so the counters below
    // cover the steps and nothing else.
    let mut verify = |engine: &mut Engine<'_>| {
        let t = Instant::now();
        let _paused = comm.paused_stats();
        checks.push(engine.check());
        check_s += t.elapsed().as_secs_f64();
    };
    let mut warmup_s = 0.0;
    for _ in 0..prog.warmup {
        warmup_s += timed(comm, || engine.step()).1;
        verify(&mut engine);
    }
    let timed0 = snapshot(comm);
    let mut step_at = Vec::with_capacity(prog.steps);
    let mut step_s = Vec::with_capacity(prog.steps);
    let mut per_step = Vec::new();
    for _ in 0..prog.steps {
        let (at, s) = timed(comm, || engine.step());
        step_at.push(at);
        step_s.push(s);
        verify(&mut engine);
        if prog.per_step_stats {
            per_step.push(snapshot(comm));
        }
    }
    let timed1 = snapshot(comm);
    RankReport {
        plan,
        enter_at,
        built_at,
        warmup_s,
        step_at,
        step_s,
        checks,
        check_s,
        built,
        timed0,
        timed1,
        per_step,
    }
}

impl Payload for RankReport {
    fn words(&self) -> usize {
        8 + self.step_at.len() + self.step_s.len() + self.checks.len()
    }
}

impl WirePayload for RankReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.plan.encode(buf);
        for v in [self.enter_at, self.built_at, self.warmup_s, self.check_s] {
            v.encode(buf);
        }
        for v in [&self.step_at, &self.step_s, &self.checks] {
            v.encode(buf);
        }
        for s in [&self.built, &self.timed0, &self.timed1] {
            s.encode(buf);
        }
        (self.per_step.len() as u64).encode(buf);
        for s in &self.per_step {
            s.encode(buf);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        let plan = KernelPlan::decode(r);
        let [enter_at, built_at, warmup_s, check_s] = [(); 4].map(|()| f64::decode(r));
        let [step_at, step_s, checks] = [(); 3].map(|()| Vec::<f64>::decode(r));
        let [built, timed0, timed1] = [(); 3].map(|()| RankStats::decode(r));
        let n = r.read_len();
        let per_step = (0..n).map(|_| RankStats::decode(r)).collect();
        RankReport {
            plan,
            enter_at,
            built_at,
            warmup_s,
            step_at,
            step_s,
            checks,
            check_s,
            built,
            timed0,
            timed1,
            per_step,
        }
    }
}
