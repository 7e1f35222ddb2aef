//! The launcher's side of a workload: trials, verification, and the
//! metrics folded from what the ranks report.
//!
//! A trial is one `SimWorld::run` epoch on a **fresh** `StagedProblem`
//! (cold tuner and pattern caches): cold build, warm-up steps, timed
//! steps. The first trial of a run calibrates the step count to
//! `--seconds` and is discarded as warm-up of the process itself.

use std::sync::{Arc, Mutex};

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::comm::{AggregateStats, RankStats};
use distributed_sparse_kernels::kernels::LocalKernel;
use distributed_sparse_kernels::prelude::*;

use crate::epoch::{kernel_builder, run_rank, stats_between, Program, RankReport};
use crate::inputs::{Inputs, Kind, Reference, Spec, P, WARMUP_STEPS};
use crate::spans::Recorder;
use crate::stat::{iqr_over_median, median, sorted, tail};

/// Timed steps of the calibration trial.
const CALIBRATION_STEPS: usize = 6;
/// Bounds on the timed steps of a kept trial.
const MIN_STEPS: usize = 8;
const MAX_STEPS: usize = 400;

/// Operations attempted and failed so far, shared with `main` so a
/// panic still leaves an account.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Operations of the trials not yet finished; counted failed if
    /// the workload panics.
    pub pending: u64,
}

pub type SharedTally = Arc<Mutex<Tally>>;

/// One finished trial as the launcher saw it.
pub struct Trial {
    pub index: usize,
    /// Whether rank 0 kept a stats snapshot (and a span) per step.
    pub traced: bool,
    /// What the tuner settled on for the plan's dominant local op, read
    /// off the scoreboard of the staging the epoch built on.
    pub local_variant: Option<LocalKernel>,
    pub stage_s: f64,
    pub plan_s: f64,
    pub run_s: f64,
    pub ranks: Vec<RankReport>,
}

impl Trial {
    fn rank0(&self) -> &RankReport {
        &self.ranks[0]
    }

    pub fn step_ms(&self) -> f64 {
        1e3 * median(&self.rank0().step_s)
    }

    /// Everything that is neither a step nor its verification: stage,
    /// plan, thread spawn or epoch rendezvous, cold build (partition,
    /// pattern exchange, tuner), drain and outcome collection.
    pub fn setup_s(&self) -> f64 {
        let r = self.rank0();
        let in_steps = r.warmup_s + r.step_s.iter().sum::<f64>() + r.check_s;
        self.stage_s + self.plan_s + (self.run_s - in_steps)
    }
}

pub struct Runner<'a> {
    pub spec: Spec,
    pub inputs: Arc<Inputs>,
    /// `None` in a spawned rank, which verifies nothing.
    pub reference: Option<&'a Reference>,
    pub tally: SharedTally,
    pub rec: Recorder,
    trials_run: usize,
}

fn ops(prog: Program) -> u64 {
    (1 + prog.warmup + prog.steps) as u64
}

impl<'a> Runner<'a> {
    pub fn new(
        spec: Spec,
        inputs: Arc<Inputs>,
        reference: Option<&'a Reference>,
        tally: SharedTally,
        rec: Recorder,
    ) -> Self {
        Runner {
            spec,
            inputs,
            reference,
            tally,
            rec,
            trials_run: 0,
        }
    }

    /// Tell the tally how many operations the trials still to come
    /// hold, so that a panic counts them failed.
    pub fn expect(&self, trials: usize, prog: Program) {
        self.tally.lock().expect("tally lock").pending = trials as u64 * ops(prog);
    }

    /// Run one trial and verify every step of it.
    pub fn trial(&mut self, prog: Program) -> Trial {
        let index = self.trials_run;
        self.trials_run += 1;
        self.rec.set_trial(index);
        let spec = self.spec;

        let staged = self.rec.span("setup.stage", || {
            Arc::new(StagedProblem::new(Arc::clone(&self.inputs.prob)))
        });
        // Sessions plan inside `build`; planning here as well is what a
        // caller does to inspect the pick, and it is timed as set-up.
        self.rec.span("setup.plan", || {
            std::hint::black_box(kernel_builder(&spec, &staged).plan_with(P, spec.model))
        });
        let world = SimWorld::new(P, spec.model).backend(spec.backend);
        let inputs = Arc::clone(&self.inputs);
        let staged_in = Arc::clone(&staged);
        let epoch = self.rec.open("epoch");
        let outcomes = world.run(move |comm| run_rank(&spec, &inputs, &staged_in, prog, comm));
        self.rec.close();
        let ranks: Vec<RankReport> = outcomes.into_iter().map(|o| o.value).collect();

        let trial = Trial {
            index,
            traced: prog.per_step_stats,
            local_variant: local_variant(&spec, &staged, &ranks[0].plan),
            stage_s: self.rec.total("setup.stage", index),
            plan_s: self.rec.total("setup.plan", index),
            run_s: self.rec.total("epoch", index),
            ranks,
        };
        self.add_rank0_spans(epoch, &trial, prog);
        let failed = self
            .reference
            .map_or(0, |reference| self.verify(&trial, reference));
        let mut t = self.tally.lock().expect("tally lock");
        t.attempted += ops(prog);
        t.failed += failed;
        t.pending = t.pending.saturating_sub(ops(prog));
        trial
    }

    /// Rank 0's in-epoch stamps, nested under the epoch span.
    fn add_rank0_spans(&mut self, epoch: usize, trial: &Trial, prog: Program) {
        let r = trial.rank0();
        let rec = &mut self.rec;
        let built = phase_counts(&RankStats::default(), &r.built);
        rec.add(Some(epoch), "build", r.enter_at, r.built_at, built);
        let first_step = r.step_at.first().copied().unwrap_or(r.built_at);
        rec.add(Some(epoch), "warmup", r.built_at, first_step, Vec::new());
        if prog.per_step_stats {
            let mut before = &r.timed0;
            for (i, after) in r.per_step.iter().enumerate() {
                let (at, s) = (r.step_at[i], r.step_s[i]);
                let counts = phase_counts(before, after);
                rec.add(Some(epoch), &format!("step[{i}]"), at, at + s, counts);
                before = after;
            }
        }
    }

    /// Failed operations of a trial: steps whose output misses the
    /// reference.
    fn verify(&self, trial: &Trial, reference: &Reference) -> u64 {
        let steps = trial.rank0().checks.len();
        let tol = self.spec.tol;
        let close = |got: f64, want: f64| (got - want).abs() <= tol * want.abs();
        let mut failed = 0;
        match self.spec.kind {
            Kind::Fused | Kind::Gat => {
                let want = reference.value;
                for i in 0..steps {
                    let got: f64 = trial.ranks.iter().map(|r| r.checks[i]).sum();
                    if !close(got, want) {
                        eprintln!(
                            "{}: step {i} of trial {}: |out|^2 = {got:e}, reference {want:e}",
                            self.spec.name, trial.index
                        );
                        failed += 1;
                    }
                }
            }
            Kind::Als => {
                // The loss must fall with every sweep, and after the
                // first equal the one-rank run's. Only the first: ten
                // CG iterations on rank-deficient rows amplify the
                // summation-order differences between tuner picks about
                // tenfold a sweep (3e-6 after one, 1e-3 after four).
                let loss = &trial.rank0().checks;
                for i in 0..steps {
                    let falls = i == 0 || loss[i] < loss[i - 1];
                    let matches = i > 0 || close(loss[0], reference.value);
                    if !(falls && matches) {
                        eprintln!(
                            "{}: sweep {i} of trial {}: loss {:e} after {:e}; one-rank sweep 0: {:e}",
                            self.spec.name,
                            trial.index,
                            loss[i],
                            loss[i.saturating_sub(1)],
                            reference.value
                        );
                        failed += 1;
                    }
                }
            }
        }
        failed
    }

    /// The calibration trial (discarded), then the step count that
    /// fills `seconds` of timed steps over `kept` trials.
    pub fn calibrate(&mut self, seconds: f64, kept: usize) -> usize {
        let prog = Program {
            warmup: WARMUP_STEPS,
            steps: CALIBRATION_STEPS,
            per_step_stats: false,
        };
        self.expect(1, prog);
        // Every process of a socket world sees the same outcome values,
        // so every process derives the same step count. From the median
        // of the faster half: this first trial of the process runs
        // slow, and its median would under-fill the budget.
        let trial = self.trial(prog);
        let steps = sorted(&trial.rank0().step_s);
        let step_s = median(&steps[..steps.len().div_ceil(2)]);
        ((seconds / kept as f64 / step_s).round() as usize).clamp(MIN_STEPS, MAX_STEPS)
    }
}

fn local_variant(
    spec: &Spec,
    staged: &Arc<StagedProblem>,
    plan: &KernelPlan,
) -> Option<LocalKernel> {
    kernel_builder(spec, staged)
        .plan_candidates_with(P, spec.model)
        .into_iter()
        .find(|c| {
            Some(c.algorithm) == plan.algorithm() && c.c == plan.c && c.routing == plan.routing
        })
        .map(|c| c.local_variant)
}

/// The counts a span carries: per-phase wall, then stall, messages,
/// words and wire bytes of the interval.
fn phase_counts(before: &RankStats, after: &RankStats) -> Vec<(String, f64)> {
    let between = stats_between(before, after);
    let mut out: Vec<(String, f64)> = Phase::ALL
        .iter()
        .map(|&p| (format!("wall_s.{}", p.label()), between.phase(p).wall_s))
        .filter(|(_, v)| *v > 0.0)
        .collect();
    let t = between.total();
    out.extend([
        ("stall_s".to_string(), t.stall_s),
        ("msgs_sent".to_string(), t.msgs_sent as f64),
        ("words_sent".to_string(), t.words_sent as f64),
        ("wire_bytes_sent".to_string(), t.wire_bytes_sent as f64),
    ]);
    out
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Busiest rank's words sent per timed step, all phases but `Setup`.
fn max_words_per_step(trial: &Trial) -> f64 {
    let steps = trial.rank0().step_s.len() as f64;
    trial
        .ranks
        .iter()
        .map(|r| r.timed_window().total().words_sent)
        .max()
        .unwrap_or(0) as f64
        / steps
}

/// Peak resident set (`VmHWM`) of this process so far: all ranks under
/// the in-memory backends, rank 0 under `socket`. Not an end-to-end
/// metric: ranks race to fill the shared partition cache, and how many
/// duplicate partitions are alive at once swings the peak by ±15 %.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a set of kept trials.
pub fn end_to_end(kept: &[Trial]) -> Vec<Metric> {
    let step: Vec<f64> = kept.iter().map(Trial::step_ms).collect();
    let setup: Vec<f64> = kept.iter().map(Trial::setup_s).collect();
    vec![
        metric("step_ms", median(&step), "ms"),
        metric("setup_s", median(&setup), "s"),
        metric("max_words_per_step", max_words_per_step(&kept[0]), "words"),
    ]
}

/// IQR of the trials' median step times over their median.
pub fn trial_spread(kept: &[Trial]) -> f64 {
    iqr_over_median(&kept.iter().map(Trial::step_ms).collect::<Vec<_>>())
}

/// The per-layer metrics that come out of the workload's own trials:
/// exact counts, the phase split of the step, build-time meters.
pub fn from_trials(spec: &Spec, kept: &[Trial], reference: &Reference) -> Vec<Metric> {
    let mut out = Vec::new();
    let nsteps: f64 = kept.iter().map(|t| t.rank0().step_s.len() as f64).sum();

    // Each trial's timed steps, aggregated over ranks the way the
    // paper and the planner do (`AggregateStats`: per phase, the busiest
    // rank's time and the ranks' total traffic).
    let timed: Vec<AggregateStats> = kept
        .iter()
        .map(|t| {
            let windows: Vec<RankStats> = t.ranks.iter().map(RankReport::timed_window).collect();
            AggregateStats::from_ranks(&windows)
        })
        .collect();

    // Exact counts, all ranks, from one trial (they repeat exactly).
    let steps0 = kept[0].rank0().step_s.len() as f64;
    let msgs: u64 = Phase::ALL
        .iter()
        .filter(|&&p| p != Phase::Setup)
        .map(|p| timed[0].total_msgs_sent[p.index()])
        .sum();
    let per_step = |count: u64| count as f64 / steps0;
    out.push(metric("comm.msgs_per_step", per_step(msgs), "count"));
    let words = per_step(timed[0].words_total());
    out.push(metric("comm.words_per_step", words, "words"));
    let wire_bytes = per_step(timed[0].wire_bytes_total());
    out.push(metric("comm.wire_bytes_per_step", wire_bytes, "bytes"));

    // The Fig. 5 split: the busiest rank's wall in each phase over the
    // timed steps, as a share of the steps' wall (the same on every
    // rank, barrier to barrier). `other` is the remainder: time in no
    // kernel or application phase, and the closing barrier's wait.
    let steps_wall: f64 = kept
        .iter()
        .map(|t| t.rank0().step_s.iter().sum::<f64>())
        .sum();
    let named = [
        ("core.repl_frac", Phase::Replication),
        ("core.prop_frac", Phase::Propagation),
        ("core.comp_frac", Phase::Computation),
        ("apps.outside_comm_frac", Phase::OutsideComm),
        ("apps.outside_compute_frac", Phase::OutsideCompute),
    ];
    let mut other = 1.0;
    for (name, phase) in named {
        let wall: f64 = timed.iter().map(|a| a.max_wall_s[phase.index()]).sum();
        other -= wall / steps_wall;
        out.push(metric(name, wall / steps_wall, "frac"));
    }
    out.push(metric("core.other_frac", other, "frac"));
    // A part of the communication phases above, not a further addend.
    let stall: f64 = timed
        .iter()
        .map(|a| a.max_stall_s.iter().sum::<f64>())
        .sum();
    out.push(metric("core.stall_frac", stall / steps_wall, "frac"));

    // Step wall against the alpha-beta-gamma time of the steps' own
    // counts, and against the plain single-threaded solve.
    let modeled: f64 = timed.iter().map(AggregateStats::modeled_total_s).sum();
    let wall_over_modeled = steps_wall / modeled;
    out.push(metric("core.wall_over_modeled", wall_over_modeled, "ratio"));
    out.push(metric(
        "core.serial_ratio",
        steps_wall / nsteps / reference.step_s,
        "ratio",
    ));

    // Cold-build meters, busiest rank, median over trials.
    let over_trials = |f: &dyn Fn(&RankReport) -> f64| {
        1e3 * median(
            &kept
                .iter()
                .map(|t| t.ranks.iter().map(f).fold(0.0, f64::max))
                .collect::<Vec<_>>(),
        )
    };
    out.push(metric(
        "core.build_ms",
        over_trials(&|r| r.built_at - r.enter_at),
        "ms",
    ));
    out.push(metric(
        "kernels.tune_ms",
        over_trials(&|r| r.built.phase(Phase::LocalTuning).wall_s),
        "ms",
    ));
    out.push(metric(
        "core.pattern_exchange_ms",
        over_trials(&|r| r.built.phase(Phase::PatternExchange).wall_s),
        "ms",
    ));
    // `StagedProblem::new` is lazy: the staging work (partition, local
    // CSR) runs in the build's `Setup` phase, so both are counted.
    let stage: Vec<f64> = kept
        .iter()
        .map(|t| {
            t.stage_s
                + t.ranks
                    .iter()
                    .map(|r| r.built.phase(Phase::Setup).wall_s)
                    .fold(0.0, f64::max)
        })
        .collect();
    out.push(metric("core.stage_ms", 1e3 * median(&stage), "ms"));
    out.push(metric(
        "core.plan_ms",
        1e3 * median(&kept.iter().map(|t| t.plan_s).collect::<Vec<_>>()),
        "ms",
    ));

    let all_steps: Vec<f64> = kept
        .iter()
        .flat_map(|t| t.rank0().step_s.iter().map(|s| 1e3 * s))
        .collect();
    if let Some((pct, value)) = tail(&all_steps) {
        println!(
            "# {} core.step_tail_ms is the {pct:.1}th percentile of {} steps",
            spec.name,
            all_steps.len()
        );
        out.push(metric("core.step_tail_ms", value, "ms"));
    } else {
        out.push(metric(
            "core.step_tail_ms",
            all_steps.iter().copied().fold(0.0, f64::max),
            "ms",
        ));
    }
    out.push(metric(
        "bench.trial_spread_frac",
        trial_spread(kept),
        "frac",
    ));
    out
}

/// Whether this process takes part in the workload's epochs: the
/// launcher always, a spawned socket rank only for socket worlds (it
/// re-executes `main`, and must not replay in-memory worlds).
pub fn takes_part(backend: BackendKind) -> bool {
    !is_worker_process() || backend == BackendKind::Socket
}
