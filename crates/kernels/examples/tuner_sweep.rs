//! Table smoke sweep: measure every admissible local-kernel variant for
//! every (format, op) cell on one block (n = 2¹¹, 8 nnz/row, r = 32) and
//! check the fixed table's pick ([`LocalKernel::table`]) against `Naive`
//! **on the same measurement harness**. The process exits nonzero if any
//! table pick measures slower than the naive reference beyond a noise
//! tolerance (with one head-to-head re-measurement before declaring
//! failure).
//!
//! ```text
//! cargo run --release -p dsk-kernels --example tuner_sweep
//! ```
//!
//! Output is one table row per (format, op, variant) — median wall time
//! per iteration and GFLOP/s via the `dsk_kernels::*_flops` helpers —
//! plus a per-cell summary line naming the table's pick, its measured
//! speedup over naive and the measured fastest variant — the evidence
//! for revisiting a cell of the table on new hardware. Good for the
//! relative comparison the gate makes; absolute numbers are machine
//! noise.

use std::time::{Duration, Instant};

use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_kernels::{LocalKernel, LocalOp, SparseFormat};
use dsk_sparse::{gen, CooMatrix, CsrMatrix};

/// A table pick may re-measure slower than naive by this factor before
/// the sweep calls it a regression (microbench noise, not a bad pick).
const NOISE_TOL: f64 = 1.10;

/// Measure `f`, returning seconds per iteration (median of batches).
fn measure(mut f: impl FnMut()) -> f64 {
    // Warm-up: one call, then size batches to ~10 ms each.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((0.01 / once) as usize).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(9);
    let deadline = Instant::now() + Duration::from_millis(300);
    while samples.len() < 9 && (samples.len() < 3 || Instant::now() < deadline) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Print the table row of a measured timing.
fn row(group: &str, name: &str, s_per_iter: f64, flops: u64) {
    println!(
        "{group:<28} {name:<24} {:>12.3} µs/iter {:>10.2} Gelem/s",
        s_per_iter * 1e6,
        flops as f64 / s_per_iter / 1e9
    );
}

fn op_flops(op: LocalOp, nnz: usize, r: usize) -> u64 {
    match op {
        LocalOp::Spmm | LocalOp::SpmmT => kern::spmm_flops(nnz, r),
        LocalOp::Sddmm => kern::sddmm_flops(nnz, r),
        LocalOp::Fused => kern::fused_flops(nnz, r),
    }
}

/// Scratch buffers shared by every measured iteration (allocation stays
/// out of the timed closure; the accumulating output is fine for timing).
struct Scratch {
    out: Mat,
    acc: Vec<f64>,
}

fn run_csr(v: LocalKernel, op: LocalOp, s: &CsrMatrix, a: &Mat, b: &Mat, w: &mut Scratch) {
    match op {
        LocalOp::Spmm => v.spmm_csr(&mut w.out, s, b),
        LocalOp::SpmmT => v.spmm_csr_t(&mut w.out, s, a),
        LocalOp::Sddmm => v.sddmm_csr(&mut w.acc, s, a, b, kern::SddmmCombine::Dot),
        LocalOp::Fused => v.fused_csr(&mut w.out, s, a, b),
    }
}

fn run_coo(v: LocalKernel, op: LocalOp, s: &CooMatrix, a: &Mat, b: &Mat, w: &mut Scratch) {
    match op {
        LocalOp::Spmm => v.spmm_coo(&mut w.out, s, b),
        LocalOp::SpmmT => v.spmm_coo_t(&mut w.out, s, a),
        LocalOp::Sddmm => v.sddmm_coo(&mut w.acc, s, a, b, kern::SddmmCombine::Dot),
        LocalOp::Fused => unreachable!("no COO fused kernel"),
    }
}

/// Sweep one (format, op): time every admissible variant and return
/// `(pick, pick_s, naive_s, fastest)` — where `pick` is the table's
/// variant and `fastest` the measured argmin over the admissible set.
fn sweep_op(
    format: SparseFormat,
    op: LocalOp,
    nnz: usize,
    r: usize,
    mut run: impl FnMut(LocalKernel),
) -> (LocalKernel, f64, f64, LocalKernel) {
    let pick = LocalKernel::table(op, format);
    let flops = op_flops(op, nnz, r);
    let mut timings: Vec<(LocalKernel, f64)> = Vec::new();
    let fmt_label = match format {
        SparseFormat::Csr => "csr",
        SparseFormat::Coo => "coo",
    };
    for &v in LocalKernel::admissible(op, format) {
        let s_per_iter = measure(|| run(v));
        row(
            &format!("{fmt_label}/{}", op.label()),
            &format!("{}/r={r}", v.label()),
            s_per_iter,
            flops,
        );
        timings.push((v, s_per_iter));
    }
    let time_of = |want: LocalKernel| {
        timings
            .iter()
            .find(|(v, _)| *v == want)
            .map(|(_, t)| *t)
            .expect("variant not in the admissible sweep")
    };
    let fastest = timings
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0;
    let mut pick_s = time_of(pick);
    let mut naive_s = time_of(LocalKernel::Naive);
    if pick_s > naive_s * NOISE_TOL {
        // One head-to-head re-measurement before trusting a "slower than
        // naive" verdict: take the min of both samples per variant.
        pick_s = pick_s.min(measure(|| run(pick)));
        naive_s = naive_s.min(measure(|| run(LocalKernel::Naive)));
    }
    (pick, pick_s, naive_s, fastest)
}

fn main() {
    let (n, nnz_row, r) = (1 << 11, 8, 32);

    let coo = gen::erdos_renyi(n, n, nnz_row, 11);
    let s = CsrMatrix::from_coo(&coo);
    let a = Mat::random(n, r, 1);
    let b = Mat::random(n, r, 2);
    let nnz = s.nnz();

    println!("\n=== local kernel table sweep (n = {n}, {nnz_row} nnz/row, r = {r}) ===");
    println!(
        "{:<28} {:<24} {:>17} {:>18}",
        "group", "case", "time", "throughput"
    );

    let mut summaries: Vec<(String, LocalKernel, f64, f64, LocalKernel)> = Vec::new();

    for op in LocalOp::ALL {
        let mut w = Scratch {
            out: Mat::zeros(n, r),
            acc: vec![0.0; nnz],
        };
        let (pick, pick_s, naive_s, fastest) = sweep_op(SparseFormat::Csr, op, nnz, r, |v| {
            run_csr(v, op, &s, &a, &b, &mut w)
        });
        summaries.push((
            format!("csr/{}", op.label()),
            pick,
            pick_s,
            naive_s,
            fastest,
        ));
    }
    for op in [LocalOp::Spmm, LocalOp::SpmmT, LocalOp::Sddmm] {
        let mut w = Scratch {
            out: Mat::zeros(n, r),
            acc: vec![0.0; nnz],
        };
        let (pick, pick_s, naive_s, fastest) = sweep_op(SparseFormat::Coo, op, nnz, r, |v| {
            run_coo(v, op, &coo, &a, &b, &mut w)
        });
        summaries.push((
            format!("coo/{}", op.label()),
            pick,
            pick_s,
            naive_s,
            fastest,
        ));
    }

    println!();
    let mut failed = false;
    let mut beat_naive = false;
    for (name, pick, pick_s, naive_s, fastest) in &summaries {
        let speedup = naive_s / pick_s;
        let verdict = if *pick_s > naive_s * NOISE_TOL {
            failed = true;
            "SLOWER THAN NAIVE"
        } else {
            "ok"
        };
        if *pick != LocalKernel::Naive && speedup > 1.0 {
            beat_naive = true;
        }
        println!(
            "table {name:<12} -> {:<12} {speedup:>6.2}x vs naive (measured fastest: {:<12}) {verdict}",
            pick.label(),
            fastest.label(),
        );
    }
    if beat_naive {
        println!("the table picks a non-naive variant measurably faster than naive on this shape");
    }
    if failed {
        eprintln!(
            "tuner_sweep: a table pick measured slower than naive (beyond {NOISE_TOL}x tolerance)"
        );
        std::process::exit(1);
    }
}
