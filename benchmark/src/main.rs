//! `dsk-benchmark`: the repo's wall-clock benchmark.
//!
//! ```text
//! dsk-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dsk-benchmark --suite [--seed <n>] [--seconds <s>] [--check]
//! ```
//!
//! One workload per OS process: under the socket backend the spawned
//! ranks re-execute `main` with the same arguments, so a process that
//! mixed workloads would replay the others beside the one being timed.
//! See `benchmark/README.md` for the workloads and the metrics.

mod epoch;
mod inputs;
mod layers;
mod measure;
mod spans;
mod stat;
mod suite;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::prelude::*;

use epoch::Program;
use inputs::{Spec, P, WARMUP_STEPS};
use measure::{Metric, Runner, SharedTally, Tally, Trial};

/// Where results, traces and the socket rendezvous directories go.
/// Relative, so Unix socket paths stay short wherever the checkout is.
pub const OUT_DIR: &str = "benchmark/out";
const TMP_DIR: &str = "benchmark/out/tmp";

/// Trials kept per untraced run (after the discarded calibration).
const KEPT_TRIALS: usize = 7;
/// Kept trials of a traced run: untraced and traced alternate.
const TRACED_RUN_TRIALS: usize = 4;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub suite: bool,
    pub check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dsk-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      dsk-benchmark --suite [--seed N] [--seconds S] [--check]\n\
         workloads: {}",
        inputs::specs().map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        suite: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--suite" => args.suite = true,
            "--check" => {
                args.suite = true;
                args.check = true;
            }
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        usage();
    }
    args
}

/// Ambient settings that would change what is measured are cleared;
/// a mismatched protocol fails in a minute, not five.
fn sanitize_env() {
    for var in [
        "DSK_COMM_BACKEND",
        "DSK_LOCAL_KERNEL",
        "DSK_THREADS",
        "DSK_SHIFT_PIPELINE",
        "DSK_TRACE",
        "DSK_SOCKET_ADDR",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("DSK_WATCHDOG_SECS", "60");
    // The socket launcher makes its rendezvous directory under the
    // temp dir: keep it inside the checkout.
    std::env::set_var("TMPDIR", TMP_DIR);
}

/// glibc's malloc adapts its mmap and trim thresholds to the sizes a
/// process happens to free, so whether a 4 MB message buffer is a warm
/// heap block or a fresh `mmap` (a page fault per 4 KB) depends on the
/// allocation history: the same workload measured 60 ms a step with
/// heap reuse, 152 ms with every buffer mapped afresh, and 70 to 80 ms,
/// seed by seed, left adaptive. The thresholds are pinned to heap reuse
/// (the usual setting for message-passing programs); they are read at
/// start-up, so the process re-executes itself once with them set.
fn pin_allocator() {
    const PINS: [(&str, &str); 2] = [
        ("MALLOC_MMAP_THRESHOLD_", "33554432"),
        ("MALLOC_TRIM_THRESHOLD_", "134217728"),
    ];
    if PINS
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(v))
    {
        return;
    }
    use std::os::unix::process::CommandExt;
    let exe = std::env::current_exe().expect("own executable path");
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(PINS)
        .exec();
    panic!("re-executing with the allocator pinned: {err}");
}

fn main() {
    let args = parse_args();
    pin_allocator();
    sanitize_env();
    if args.suite {
        std::process::exit(suite::run(&args));
    }
    let Some(spec) = args.workload.as_deref().and_then(inputs::spec) else {
        usage()
    };

    if is_worker_process() {
        // A spawned socket rank: the identical sequence of socket
        // epochs and nothing else.
        workload(&spec, &args, &SharedTally::default());
        return;
    }

    std::fs::create_dir_all(TMP_DIR).expect("create benchmark/out/tmp");
    let tally = SharedTally::default();
    // On its own thread: a panic is caught per workload, and the socket
    // pool (a thread-local of the launching thread) is torn down at
    // thread exit, before the orphan check below.
    let run = {
        let (spec, args, tally) = (spec, args.clone(), Arc::clone(&tally));
        std::thread::spawn(move || workload(&spec, &args, &tally)).join()
    };
    let leftovers = wait_for_teardown();

    let Tally {
        mut attempted,
        mut failed,
        pending,
    } = *tally.lock().unwrap_or_else(|e| e.into_inner());
    let metrics = match run {
        Ok(metrics) => metrics,
        Err(_) => {
            // The panic message is already on stderr; what had not
            // finished counts as failed.
            attempted += pending.max(1);
            failed += pending.max(1);
            Vec::new()
        }
    };
    if let Some(what) = leftovers {
        eprintln!("{}: {what}", spec.name);
        failed += 1;
        attempted += 1;
    }
    let correct = failed == 0 && !metrics.is_empty();
    println!(
        "{} fail_share {} frac",
        spec.name,
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    std::process::exit(i32::from(!correct));
}

/// After the workload thread ended: wait for the launcher's reaper to
/// collect the rank processes and remove the rendezvous directory.
/// Returns what survived, if anything did.
fn wait_for_teardown() -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let left: Vec<PathBuf> = std::fs::read_dir(TMP_DIR)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .collect();
        // Children of an ended thread are re-parented to a live one.
        let children: String = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
            .collect();
        if left.is_empty() && children.trim().is_empty() {
            let _ = std::fs::remove_dir(TMP_DIR);
            return None;
        }
        if Instant::now() >= deadline {
            return Some(format!(
                "survived the run: socket directories {left:?}, child processes [{}]",
                children.trim()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One workload, start to finish. Returns the metrics of the mode
/// (`--trace 0`: end to end; `--trace 1`: per layer); empty in a
/// spawned rank, which only takes its part in the socket epochs.
fn workload(spec: &Spec, args: &Args, tally: &SharedTally) -> Vec<Metric> {
    let launcher = !is_worker_process();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut rec = spans::Recorder::default();
    rec.open("workload");

    // The meters that bring up worlds come first, so that the socket
    // one sees the process pool's first spawn.
    if args.trace {
        rec.span("layers.comm", || {
            if launcher {
                metrics.extend(layers::transport());
            }
            metrics.extend(layers::world_loops(BackendKind::InProc));
            metrics.extend(layers::world_loops(BackendKind::Socket));
        });
    }
    if !measure::takes_part(spec.backend) {
        return Vec::new();
    }

    let inputs = rec.span("setup.generate", || {
        Arc::new(inputs::generate(spec, args.seed))
    });
    let reference = launcher.then(|| rec.span("reference", || inputs::reference(spec, &inputs)));
    let mut runner = Runner::new(
        *spec,
        Arc::clone(&inputs),
        reference.as_ref(),
        Arc::clone(tally),
        rec,
    );

    let kept_trials = if args.trace {
        TRACED_RUN_TRIALS
    } else {
        KEPT_TRIALS
    };
    let steps = runner.calibrate(args.seconds, kept_trials);
    let prog = |traced| Program {
        warmup: WARMUP_STEPS,
        steps,
        per_step_stats: traced,
    };
    runner.expect(kept_trials, prog(false));
    // In a traced run every second kept trial is traced.
    let kept: Vec<Trial> = (0..kept_trials)
        .map(|i| runner.trial(prog(args.trace && i % 2 == 1)))
        .collect();
    let mut rec = runner.rec;
    if args.trace {
        metrics.extend(rec.span("layers.ratios", || layers::ratios(spec, &inputs, 4)));
    }
    let Some(reference) = reference.as_ref() else {
        return Vec::new();
    };

    describe(spec, args, &kept);
    // Before the kernel meters, whose stream arrays would dwarf it.
    let peak_rss = measure::peak_rss_mb();
    if args.trace {
        metrics.extend(measure::from_trials(spec, &kept, reference));
        metrics.push(measure::metric("bench.peak_rss_mb", peak_rss, "MB"));
        metrics.extend(rec.span("layers.kernels", || layers::kernels(&inputs)));
        metrics.extend(rec.span("layers.codecs", || layers::codecs(&inputs)));
        let t = *tally.lock().expect("tally lock");
        let fail_share = t.failed as f64 / t.attempted.max(1) as f64;
        metrics.push(measure::metric("bench.fail_share", fail_share, "frac"));
        rec.close();
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, rec.to_chrome_json(spec.name)).expect("write trace file");
        println!("# {} trace written to {}", spec.name, path.display());
    } else {
        metrics.extend(measure::end_to_end(&kept));
        // Not in the result line, but worth a line of their own.
        let spread = measure::trial_spread(&kept);
        println!("{} bench.trial_spread_frac {spread} frac", spec.name);
        println!("{} bench.peak_rss_mb {peak_rss} MB", spec.name);
    }
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", spec.name);
    }
    metrics
}

/// The `# ...` notes of a run: what was run and what the planner and
/// the tuner picked, then one line per kept trial.
fn describe(spec: &Spec, args: &Args, kept: &[Trial]) {
    let plan = kept[0].ranks[0].plan;
    println!(
        "# {} seed={} p={P} backend={} steps/trial={} kept_trials={} plan={} c={} elision={} \
         routing={} local_variant={:?}",
        spec.name,
        args.seed,
        spec.backend.label(),
        kept[0].ranks[0].step_s.len(),
        kept.len(),
        plan.id.label(),
        plan.c,
        plan.elision.label(),
        plan.routing.label(),
        kept[0].local_variant,
    );
    for t in kept {
        println!(
            "# {} trial {}: step_ms={:.3} setup_s={:.4} traced={} local_variant={:?}",
            spec.name,
            t.index,
            t.step_ms(),
            t.setup_s(),
            t.traced,
            t.local_variant
        );
    }
}

/// The result line of the contract: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
