//! Communication-cost explorer: evaluate the paper's Table III/IV
//! theory for a problem you describe, without running anything.
//!
//! ```text
//! cargo run --release --example comm_cost_explorer -- [p] [n] [r] [nnz_per_row]
//! ```
//!
//! Prints the planner's whole scoreboard — every FusedMM candidate
//! (dense-shift *and* pattern-routed variants) with its modeled
//! words/messages per processor, optimal replication factor, and
//! predicted time — exactly as `KernelBuilder::plan` ranks them
//! (index 0 is what `.auto()` would build), then a dense-vs-routed
//! comparison per algorithm showing what sparse-aware routing saves at
//! this shape. Uses the planning-only `KernelBuilder::for_shape`, so
//! paper-scale shapes (n = 2²² and beyond) score instantly with
//! nothing materialized.
//!
//! The counts are the paper's Table III less one hop per input lane:
//! a block a ring round only reads stops one hop short of home, so the
//! round ships `q − 1` hops where the paper's in-place buffer needs `q`
//! (see `core::theory`). The Table IV optima are unchanged.

use distributed_sparse_kernels::comm::MachineModel;
use distributed_sparse_kernels::core::kernel::KernelBuilder;
use distributed_sparse_kernels::core::theory;
use distributed_sparse_kernels::core::{ProblemDims, Routing};

/// The `idx`-th argument, `default` when absent; an argument that is
/// not a whole number panics naming it, so a typo never silently
/// explores the default shape.
fn arg(idx: usize, name: &str, default: usize) -> usize {
    std::env::args().nth(idx).map_or(default, |s| {
        s.parse()
            .unwrap_or_else(|_| panic!("argument {idx} ({name}) must be a whole number, got {s:?}"))
    })
}

fn main() {
    let p = arg(1, "p", 256);
    let n = arg(2, "n", 1 << 22);
    let r = arg(3, "r", 256);
    let nnz_per_row = arg(4, "nnz_per_row", 32);
    let dims = ProblemDims::new(n, n, r);
    let nnz = n * nnz_per_row;
    let phi = dims.phi(nnz);
    let model = MachineModel::cori_knl();

    println!("p = {p}, n = {n}, r = {r}, nnz/row = {nnz_per_row}  →  φ = {phi:.4}\n");
    println!(
        "| {:<4} | {:<42} | {:<8} | {:>6} | {:>14} | {:>9} | {:>12} |",
        "rank", "algorithm", "routing", "best c", "words/proc", "msgs/proc", "est. time (s)",
    );
    println!(
        "|{:-<6}|{:-<44}|{:-<10}|{:-<8}|{:-<16}|{:-<11}|{:-<14}|",
        "", "", "", "", "", "", ""
    );

    let builder = KernelBuilder::for_shape(dims, nnz);
    let candidates = builder.plan_candidates_with(p, model);
    for (i, cand) in candidates.iter().enumerate() {
        println!(
            "| {:<4} | {:<42} | {:<8} | {:>6} | {:>14.0} | {:>9.0} | {:>12.5} |",
            i + 1,
            cand.algorithm.label(),
            cand.routing.label(),
            cand.c,
            cand.words_per_proc,
            cand.msgs_per_proc,
            cand.predicted_total_s(),
        );
    }

    // Dense vs pattern-routed, side by side per algorithm: what the
    // sparse-aware shifts save at this shape (at each variant's own
    // optimal c), and the α price of learning the pattern. Routed rows
    // exist only for non-elided algorithms — elision already rewrites
    // the schedule, so the planner never stacks both.
    println!("\n### Dense shifts vs pattern-routed shifts\n");
    println!(
        "| {:<42} | {:>14} | {:>14} | {:>7} | {:>9} | {:>9} |",
        "algorithm", "dense w/proc", "routed w/proc", "saved", "msgs Δ", "time Δ"
    );
    println!(
        "|{:-<44}|{:-<16}|{:-<16}|{:-<9}|{:-<11}|{:-<11}|",
        "", "", "", "", "", ""
    );
    for cand in candidates.iter().filter(|c| c.routing == Routing::Dense) {
        let alg = cand.algorithm;
        if !alg.admits(Routing::Pattern) {
            continue;
        }
        let routed_c = candidates
            .iter()
            .find(|r| r.algorithm == alg && r.routing == Routing::Pattern)
            .map(|r| r.c)
            .unwrap_or(cand.c);
        let Some(rw) = theory::words_for_routing(alg, Routing::Pattern, p, routed_c, dims, nnz)
        else {
            continue;
        };
        let rm = theory::messages_for_routing(alg, Routing::Pattern, p, routed_c).unwrap();
        let dm = theory::messages_for_routing(alg, Routing::Dense, p, cand.c).unwrap();
        let rt =
            theory::predicted_comm_time_for(&model, alg, Routing::Pattern, p, routed_c, dims, nnz)
                .unwrap();
        let dt = theory::predicted_comm_time_for(&model, alg, Routing::Dense, p, cand.c, dims, nnz)
            .unwrap();
        println!(
            "| {:<42} | {:>14.0} | {:>14.0} | {:>6.1}% | {:>+9.0} | {:>+8.1}% |",
            alg.label(),
            cand.words_per_proc,
            rw,
            100.0 * (1.0 - rw / cand.words_per_proc),
            rm - dm,
            100.0 * (rt / dt - 1.0),
        );
    }
    println!(
        "\nrouted rows ship only the rows each peer's sparse structure reads \
         (expected union fraction of an Erdős–Rényi block at this φ); the msgs Δ \
         column is the extra latency of the pattern exchange."
    );

    let plan = builder.plan_with(p, model);
    println!(
        "\nplanner pick: {} at c = {} (comm {:.5} s)",
        plan.algorithm().unwrap().label(),
        plan.c,
        plan.predicted_comm_s.unwrap()
    );
    println!(
        "rule of thumb from the paper: low φ → shift/replicate the sparse matrix; \
         high φ → shift/replicate a dense matrix. Here φ = {phi:.3}."
    );
}
