//! Suite mode: every workload, untraced then traced, each run in its
//! own OS process; prints every metric, writes `out/result.json`, and
//! with `--check` runs the whole set twice and compares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::{inputs, layers, Args, OUT_DIR};

/// The end-to-end metrics and the share by which each may worsen —
/// the same names and bounds as `BENCHMARK.json`.
pub const END_TO_END: [(&str, f64); 3] = [
    ("step_ms", 0.15),
    ("setup_s", 0.25),
    ("max_words_per_step", 0.01),
];

/// One workload's two runs: `# ...` notes and `metric -> (value, unit)`.
#[derive(Debug, Default)]
struct WorkloadResult {
    why: &'static str,
    notes: Vec<String>,
    metrics: BTreeMap<String, (f64, String)>,
    ok: bool,
}

/// Run one workload process and fold its `workload metric value unit`
/// lines into `into`. Returns whether it exited 0.
fn run_one(name: &str, args: &Args, trace: bool, into: &mut WorkloadResult) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("run a workload process");
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with('#') {
            println!("{line}");
            into.notes.push(line.trim_start_matches("# ").to_string());
        } else if let [w, metric, value, unit] = fields[..] {
            if w == name {
                println!("{line}");
                if let Ok(v) = value.parse::<f64>() {
                    // First run wins: the untraced run's view of a
                    // metric both runs print is the one compared.
                    into.metrics
                        .entry(metric.to_string())
                        .or_insert((v, unit.to_string()));
                }
            }
        }
    }
    out.status.success()
}

fn run_set(args: &Args, reversed: bool) -> BTreeMap<&'static str, WorkloadResult> {
    let mut specs = inputs::specs().to_vec();
    if reversed {
        specs.reverse();
    }
    let mut set = BTreeMap::new();
    for spec in specs {
        let mut result = WorkloadResult {
            why: spec.why,
            ..Default::default()
        };
        let untraced = run_one(spec.name, args, false, &mut result);
        let traced = run_one(spec.name, args, true, &mut result);
        result.ok = untraced && traced;
        set.insert(spec.name, result);
    }
    set
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn write_result(args: &Args, set: &BTreeMap<&'static str, WorkloadResult>) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"git_sha\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {nproc},\n  \
         \"llc_bytes\": {},\n  \"workloads\": {{",
        git_sha(),
        args.seed,
        args.seconds,
        layers::llc_bytes(),
    );
    for (i, (name, result)) in set.iter().enumerate() {
        let notes: Vec<String> = result
            .notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace(['"', '\\'], "'")))
            .collect();
        let metrics: Vec<String> = result
            .metrics
            .iter()
            .map(|(m, (v, unit))| {
                format!("        \"{m}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = write!(
            out,
            "{}\n    \"{name}\": {{\n      \"why\": \"{}\",\n      \"ok\": {},\n      \"notes\": [{}],\n      \
             \"metrics\": {{\n{}\n      }}\n    }}",
            if i == 0 { "" } else { "," },
            result.why,
            result.ok,
            notes.join(", "),
            metrics.join(",\n"),
        );
    }
    out.push_str("\n  }\n}\n");
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let path = format!("{OUT_DIR}/result.json");
    std::fs::write(&path, out).expect("write result.json");
    println!("# results written to {path}");
}

/// Returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let first = run_set(args, false);
    write_result(args, &first);
    let mut ok = first.values().all(|r| r.ok);
    if args.check {
        // Same seed, workload order reversed: order effects and drift
        // must stay inside each metric's own bound.
        let second = run_set(args, true);
        ok &= second.values().all(|r| r.ok);
        println!("# check: workload metric first second rel_diff bound trial_spread_first trial_spread_second");
        for (name, a) in &first {
            let b = &second[name];
            let value =
                |r: &WorkloadResult, m: &str| r.metrics.get(m).map_or(f64::NAN, |(v, _)| *v);
            for (metric, bound) in END_TO_END {
                let (x, y) = (value(a, metric), value(b, metric));
                let diff = (x - y).abs() / x.abs().min(y.abs());
                // NaN (a missing value) fails too.
                let within = diff <= bound;
                ok &= within;
                println!(
                    "check {name} {metric} {x} {y} {diff:.4} {bound} {} {} {}",
                    value(a, "bench.trial_spread_frac"),
                    value(b, "bench.trial_spread_frac"),
                    if within { "ok" } else { "OUTSIDE-BOUND" },
                );
            }
            let (fa, fb) = (value(a, "fail_share"), value(b, "fail_share"));
            println!("check {name} fail_share {fa} {fb}");
            ok &= fa == 0.0 && fb == 0.0;
        }
    }
    i32::from(!ok)
}
