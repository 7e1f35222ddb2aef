//! # dsk-bench — the four gates CI runs
//!
//! | binary | gate |
//! |--------|------|
//! | `fig6_phase_diagram` | Fig. 6 — predicted & observed best algorithm over (r, nnz/row) as the planner-regret sweep: every scored candidate measured per grid point and backend, written as a versioned `BENCH_*.json` report ([`json`]) |
//! | `bench_gate` | diff two `BENCH_*.json` reports under tolerances; CI gates the PR's smoke report against the committed `BENCH_baseline.json` |
//! | `trace_check` | validate a `DSK_TRACE` export and prove a traced sweep left every gated metric byte-identical |
//! | `tuner_sweep` | every admissible local-kernel variant measured per op; fails when the tuner's pick is slower than naive |
//!
//! A binary that no CI step invokes does not belong here (CI checks
//! the set). The paper's other figures and tables are answered by
//! tests and by the repo benchmark (`benchmark/`, `BENCHMARK.json`) —
//! `ARCHITECTURE.md` §6 has the map.
//!
//! Gated times are **modeled** (α-β-γ with Cori-like constants)
//! computed from message/word/flop counts measured during real
//! execution of the distributed algorithms; wall clocks are recorded
//! beside them and bounded one-sidedly at most.

pub mod harness;
pub mod json;
pub mod workloads;

pub use harness::{run_fused, FusedRow, Pick};
pub use json::{BenchPoint, BenchReport, CandidateTiming, GateTolerances, Json};
