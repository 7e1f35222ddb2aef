//! The stays-deleted rules: each row names a line that would bring back
//! a second copy of something that has one home in this workspace (a
//! ring surface, a fiber collective, a value source, a roster authority,
//! a deleted option or crate), where it must not appear, and why.
//!
//! A pattern is handed to the system `grep` in the syntax of its row, so
//! it means exactly what its text says in `grep -E` (or `grep -G`). Files
//! are listed with `std::fs` from the workspace root; `.git`, the build
//! dirs `.gitignore` lists and this file (its rows hold the patterns) are
//! skipped. A row whose path selects no file fails instead of passing:
//! renaming a file must not switch its rules off.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A pattern and the `grep` syntax it is written in.
#[derive(Clone, Copy)]
enum Re {
    /// Extended (`grep -E`).
    E(&'static str),
    /// Basic (`grep -G`).
    G(&'static str),
}
use Re::{E, G};

impl Re {
    /// The `grep` arguments that select this pattern.
    fn args(self) -> [&'static str; 3] {
        match self {
            E(p) => ["-E", "-e", p],
            G(p) => ["-G", "-e", p],
        }
    }
}

enum Check {
    /// No line matches.
    None(Re),
    /// Exactly this many lines match.
    Exactly(usize, Re),
    /// At most this many lines match.
    AtMost(usize, Re),
    /// No line matches the first pattern, unless it also matches the
    /// second.
    NoneUnless(Re, Re),
    /// The functions that hold a line matching the pattern are exactly
    /// these. A function runs from a line matching [`FN_START`] (its
    /// first match on the line names it) to the next such line.
    WritersAre(&'static [&'static str], Re),
    /// None of the row's paths exists.
    Absent,
}

const FN_START: Re = E("fn [a-z_0-9]+");

struct Rule {
    check: Check,
    /// What the row scans; none means every file. `*.rs` is every `.rs`
    /// file at any depth, `d/*.rs` the `.rs` files directly in `d`,
    /// `d/**` everything under `d`, and any other path a file or a dir.
    paths: &'static [&'static str],
    /// Paths the row skips, in the same forms.
    exclude: &'static [&'static str],
    /// Scan only the lines above a file's first `#[cfg(test)]` line.
    non_test: bool,
    message: &'static str,
    why: &'static str,
}

const THIS_FILE: &str = "tests/source_rules.rs";
const RS: &[&str] = &["*.rs"];
const FAMILIES4: &[&str] = &[
    "crates/core/src/ds15.rs",
    "crates/core/src/ss15.rs",
    "crates/core/src/dr25.rs",
    "crates/core/src/sr25.rs",
];
const FAMILIES5: &[&str] = &[
    "crates/core/src/ds15.rs",
    "crates/core/src/ss15.rs",
    "crates/core/src/dr25.rs",
    "crates/core/src/sr25.rs",
    "crates/core/src/baseline.rs",
];
const COMM_RS: &[&str] = &["crates/comm/src/comm.rs"];
const SESSION_RS: &[&str] = &["crates/core/src/session.rs"];
const NOTHING: &[&str] = &[];

const ONE_BODY_WHY: &str = "One body per message: comm.rs charges a send in one place and a \
    receive in one place (every entry point composes the post body and the complete body).";
const DENSE_STAGING_WHY: &str = "Table II dense staging and the Fig. 9 distribution shift have \
    one home (KernelState::new and PlanView::redistribute over DenseLayout), and SDDMM is \
    provided over DistKernel::dots: the non-test code of a family file cuts no dense block, \
    repartitions nothing and samples no SDDMM itself. Only sr25.rs overrides sddmm (its store \
    holds a 1/c share of the sampling values). `\\.block\\([^)]` spares InputLane::block().";
const DENSE_STAGING_MESSAGE: &str = "a family file stages, shifts or samples dense operands by \
    hand (use KernelState, PlanView::redistribute, DenseLayout, the provided sddmm)";
const SESSION_KNOB_WHY: &str = "SessionBuilder holds the planner's constraints and the roster: \
    tracing is DSK_TRACE / trace::enable_to, and a session plans under its communicator's model.";
const BENCH_GONE_WHY: &str = "The Fig. 6 sweep is a golden test (tests/phase_diagram.rs) and \
    the trace-export checks live in tests/trace_invariants.rs: the report crate, its committed \
    baseline and its gate binaries stay gone.";

const RULES: &[Rule] = &[
    Rule {
        check: Check::None(E(r"dsk_comm::pattern|COLLECTIVE_TAG_BASE|TAG_SPARSE_ALL")),
        paths: RS,
        exclude: &["crates/comm/**"],
        non_test: false,
        message: "dsk-comm pattern-module paths or collective wire tags leaked outside \
            crates/comm (use the crate-root re-exports)",
        why: "The sparse collectives are dsk-comm's subsystem: its module paths and collective \
            wire tags are internal to the crate.",
    },
    Rule {
        check: Check::None(E(
            r"sparse_allgather|sparse_alltoallv|CommPattern|RowBundle|RowSet",
        )),
        paths: RS,
        exclude: &["crates/comm/**", "crates/core/**"],
        non_test: false,
        message: "sparse-collective primitives named outside dsk-comm/dsk-core (route through \
            the planner: KernelBuilder::routing)",
        why: "The primitives (CommPattern / RowSet / RowBundle / sparse_* collectives) are \
            consumed only by dsk-core's kernel layer; every other crate selects routing through \
            the planner (KernelBuilder::routing / Routing candidates).",
    },
    Rule {
        check: Check::None(E(
            r"variants::|ParBlocked|LocalPicks|set_local_pin|DSK_THREADS|par_threads|LocalKernel::table|tuner_sweep|par_out_rows|par_acc_rows",
        )),
        paths: RS,
        exclude: &["benchmark/**"],
        non_test: false,
        message: "a local-kernel variant, its table, pin or thread count is back (each op runs \
            its one loop)",
        why: "Each local op has one loop per block format (dsk-kernels), bitwise the \
            one-nonzero-at-a-time order: the variant library, its per-(op, format) table and \
            pin, the thread-parallel variant and its thread-count variable stay deleted. (The \
            benchmark still clears the old variable.)",
    },
    Rule {
        check: Check::None(E(r"sendrecv|recv\(|\.shift\(")),
        paths: FAMILIES4,
        exclude: NOTHING,
        non_test: false,
        message: "raw point-to-point comm in an algorithm family (route shifts through \
            ShiftPipeline)",
        why: "Ring propagation in the four algorithm families flows through the ShiftPipeline \
            surface (input lanes, exchange), which keeps pipelined and blocking execution \
            bit-identical in data and accounting; a raw call in a family file forfeits both.",
    },
    Rule {
        check: Check::None(E(r"\.begin(_mat)?\(|\b(y0|a0|b0)\.clone\(\)")),
        paths: FAMILIES4,
        exclude: NOTHING,
        non_test: false,
        message: "an algorithm family posts ring hops or clones a home block itself (use an \
            InputLane)",
        why: "An input lane (ShiftPipeline::input) lends the home block to its first visit and \
            stops one hop short of home; a family that posts its own hops or clones a home block \
            before a ring brings back the homeward hop the accounting no longer counts.",
    },
    Rule {
        check: Check::None(E(r"union_over|RowBundle|fn (forward_|ship_input|slot\b)")),
        paths: FAMILIES4,
        exclude: NOTHING,
        non_test: false,
        message: "an algorithm family computes forward sets or ring positions (use \
            ShiftPipeline::routed / origin)",
        why: "A routed ring works out its own forward sets: ShiftPipeline knows where each tile \
            started (origin) and which members it visits, so a family file never unions need \
            sets, gathers a row bundle or computes a ring position itself.",
    },
    Rule {
        check: Check::None(E(
            r"fn (map_r|r_row_sums|scale_r_rows|sq_loss_local|export_r|import_r|gather_r|.*_layout_of)",
        )),
        paths: FAMILIES5,
        exclude: NOTHING,
        non_test: false,
        message: "a family file re-implements a family-independent DistKernel method (use \
            RStore / PlanView)",
        why: "The stored-R surface lives in rstore.rs (provided DistKernel methods over r_store) \
            and Table II layout arithmetic in planview.rs (callers ask DistKernel::view); a \
            family file's own copy forks the one surface the conformance suites pin.",
    },
    Rule {
        check: Check::None(E(r"fn r_row_group|PlanView::of\(|KernelId::Family\(")),
        paths: FAMILIES5,
        exclude: NOTHING,
        non_test: true,
        message: "a family names its row group or builds its own view",
        why: "Table II says who shares what: KernelBuilder::build_planned makes the plan's \
            PlanView once and hands it to every from_staged, KernelState splits the R-row group \
            from the view's cells, and PlanView::row_group_a/b read the iterate groups off its \
            layouts.",
    },
    Rule {
        check: Check::None(E(r"r_bounds_of|empty_bounds|row_plane")),
        paths: &["crates", "src", "tests", "examples"],
        exclude: NOTHING,
        non_test: false,
        message: "an R bounding box or the 2.5D row plane is back (route R to the owners of its \
            cells; the R-row group comes from PlanView)",
        why: "A session routes each stored R triplet to the ranks whose new cells hold it, and \
            the R-row group is split from the view's cells: no bounding box (which spans the \
            other fiber members' blocks of a strided layout) and no hand-built row plane.",
    },
    Rule {
        check: Check::None(E(r"\.partition\(|sides must be|too small for grid")),
        paths: FAMILIES5,
        exclude: NOTHING,
        non_test: false,
        message: "a family file cuts its own sparse blocks or checks the matrix sides itself (use \
            StagedProblem::cut over the PlanView's sparse layout)",
        why: "Table II's sparse layout (the S/Sᵀ block grid, the cells each rank stores, the \
            smallest side the grid admits) lives once in planview.rs; every from_staged cuts its \
            blocks through StagedProblem::cut, which checks the sides once (PlanView::fits), and \
            the planner searches c only among the grids that pass that check.",
    },
    Rule {
        check: Check::None(E(
            r"repartition_dense|rows_block\(|\.block\([^)]|fn sddmm_general",
        )),
        paths: FAMILIES5,
        exclude: NOTHING,
        non_test: true,
        message: DENSE_STAGING_MESSAGE,
        why: DENSE_STAGING_WHY,
    },
    Rule {
        check: Check::None(E(r"fn sddmm\(")),
        paths: &[
            "crates/core/src/ds15.rs",
            "crates/core/src/ss15.rs",
            "crates/core/src/dr25.rs",
            "crates/core/src/baseline.rs",
        ],
        exclude: NOTHING,
        non_test: true,
        message: DENSE_STAGING_MESSAGE,
        why: DENSE_STAGING_WHY,
    },
    Rule {
        check: Check::None(E(
            r"fn (view|r_store|r_store_mut|a_iterate|b_iterate|set_a|set_b|fused_mm_a|fused_mm_b)\b|admits no|requires co-located",
        )),
        paths: FAMILIES5,
        exclude: NOTHING,
        non_test: true,
        message: "a family file re-implements kernel state, fused dispatch or an elision check \
            (use KernelState and the provided DistKernel methods)",
        why: "The state every kernel holds (plan view, R store, operands, replica copies, held \
            ring tiles) lives once in state.rs, and the FusedMM entry checks admissibility once \
            (PlanView::supports in the provided fused_mm_a/b).",
    },
    Rule {
        check: Check::None(E(r"csr_valued|sampled_blocks|s_valued|fn traveler\b")),
        paths: &["crates/core/src"],
        exclude: NOTHING,
        non_test: false,
        message: "a second value mechanism is back (pass an rstore::Source)",
        why: "Every R-patterned SpMM reads its values from one source (rstore::Source: \
            sampling, stored R, given, ones, PairExp).",
    },
    Rule {
        check: Check::None(G("with_vals")),
        paths: &["crates/core/src/*.rs"],
        exclude: &["crates/core/src/rstore.rs"],
        non_test: true,
        message: "a dsk-core file copies a block to carry values (pass them as an rstore::Source)",
        why: "No block is copied to carry values outside rstore.rs, whose travelers are the \
            messages.",
    },
    Rule {
        check: Check::WritersAre(
            &["sddmm"],
            E(r"r\.set\(|r_store_mut\(|\.r\.(map|scale_rows|import)\("),
        ),
        paths: &["crates/core/src/sr25.rs"],
        exclude: NOTHING,
        non_test: true,
        message: "crates/core/src/sr25.rs writes R outside sddmm; a fused call leaves R untouched",
        why: "A FusedMM's SDDMM is the call's own, so sr25.rs writes R in its sddmm override \
            alone.",
    },
    Rule {
        check: Check::None(G("scale_r_rows")),
        paths: &["crates/apps/src/*.rs"],
        exclude: NOTHING,
        non_test: true,
        message: "a dsk-apps file scales the stored R rows (GAT scales the SpMM output rows by \
            1/s instead)",
        why: "GAT normalizes its attention in the SpMM's output rows (softmax(E)·HW = \
            diag(1/s)·(E·HW), s summed in the SpMM's own walk).",
    },
    Rule {
        check: Check::None(E(r"set_r_pair_sums|set_pair_sums")),
        paths: RS,
        exclude: NOTHING,
        non_test: false,
        message: "the stored-attention fill is back (make E inside the SpMM: \
            DistKernel::spmm_a_pair_exp)",
        why: "GAT's attention is made inside the SpMM's row loop from per-node factors \
            (PairExp) and never stored.",
    },
    Rule {
        check: Check::None(E(
            r"TuneRequest|tune_csr|tune_coo|tune\.measure|LocalKernel::(Naive|Blocked|Tiled|ParTiled|ParNaive)",
        )),
        paths: RS,
        exclude: NOTHING,
        non_test: false,
        message: "the local-kernel tuner or a deleted variant is back (each op runs its one loop)",
        why: "Nothing measures or chooses a local kernel: the build-time tuner and every \
            variant but the one loop per op stay deleted.",
    },
    Rule {
        check: Check::None(E(
            r"rendezvous::|roster_for|local_hello|validate_peer|\bRoster\b",
        )),
        paths: RS,
        exclude: &["crates/comm/**"],
        non_test: false,
        message:
            "rendezvous/roster internals named outside crates/comm (use SimWorld::run/try_run \
            and the typed errors)",
        why: "The rendezvous protocol (Hello version gate, Roster codec, survivor-roster \
            arithmetic) is dsk-comm's subsystem: the rest of the workspace sees only \
            SimWorld::run/try_run and the typed EpochError/HandshakeError results.",
    },
    Rule {
        check: Check::None(E(
            r"DEAD_POOL_IDS|fn (dead_ids|mark_dead|clear_dead|world_rank_of|observer_rendezvous)\b|pub observer:|mis-classified",
        )),
        paths: &["crates/comm/src"],
        exclude: NOTHING,
        non_test: false,
        message: "a socket worker computes its own role again (the coordinator roster echo is \
            the roster)",
        why: "Only the coordinator tracks liveness and computes a roster. A worker takes its \
            role from the coordinator's roster echo; it keeps no dead set, announces no role in \
            its Hello and has no second dial-in body.",
    },
    Rule {
        check: Check::None(E(r"replay_inproc|SPAWN_EPOCH|cannot grow a socket world")),
        paths: RS,
        exclude: NOTHING,
        non_test: false,
        message: "the in-process epoch replay, the spawn-epoch variable or the growth refusal is \
            back (grown workers read the verdict log)",
        why: "A grown socket worker catches up by reading the verdicts of the epochs it missed \
            from the launcher's log: it never re-runs them in-process, needs no spawn-epoch \
            variable, and the pool grows after a death too.",
    },
    Rule {
        check: Check::NoneUnless(G("KernelPlan {"), G("-> KernelPlan {")),
        paths: &["crates/core/src/session.rs", "crates/apps/src"],
        exclude: NOTHING,
        non_test: false,
        message: "a KernelPlan literal in session.rs or dsk-apps (plans come from \
            PlannedCandidate::plan())",
        why: "Every change of the plan in force goes through Session's one transition (choose \
            -> move -> install), so plans come from PlannedCandidate::plan(). (`-> KernelPlan {` \
            is a return type, not a literal.)",
    },
    Rule {
        check: Check::Exactly(1, G("build_planned(")),
        paths: SESSION_RS,
        exclude: NOTHING,
        non_test: false,
        message: "session.rs must build workers in exactly one place (the transition mover)",
        why: "The mover of Session's one transition holds the session's only worker \
            construction.",
    },
    Rule {
        check: Check::None(E(
            r"auto_replan|every_n_calls|drift_ratio|maybe_auto_replan|last_auto_check|last_planned_nnz|pinned_model",
        )),
        paths: RS,
        exclude: NOTHING,
        non_test: false,
        message: "the automatic replan cadence or the session model pin is back (callers run \
            Session::replan)",
        why: "The transition runs only when the caller asks (replan / migrate / resize): no \
            automatic cadence or drift gate inside the session, and a session plans under its \
            communicator's model.",
    },
    Rule {
        check: Check::None(E(r"pub fn trace\b")),
        paths: SESSION_RS,
        exclude: NOTHING,
        non_test: true,
        message: "SessionBuilder::trace is back (use DSK_TRACE / trace::enable_to; sessions plan \
            under the communicator's model)",
        why: SESSION_KNOB_WHY,
    },
    Rule {
        check: Check::None(E(r"pub fn model\b")),
        paths: SESSION_RS,
        exclude: NOTHING,
        non_test: true,
        message: "SessionBuilder::model is back (use DSK_TRACE / trace::enable_to; sessions plan \
            under the communicator's model)",
        why: SESSION_KNOB_WHY,
    },
    Rule {
        check: Check::None(G("DSK_SHIFT_PIPELIN[E]")),
        paths: NOTHING,
        exclude: &["benchmark/**", "CHANGES.md"],
        non_test: false,
        message: "the deleted shift-mode environment knob is named again",
        why: "The blocking shift reference is selected in code (ShiftMode::scoped), not by an \
            ambient variable. The bracket keeps the pattern from matching itself.",
    },
    Rule {
        check: Check::None(E(r"\bto_bytes\(")),
        paths: &["crates/comm/src"],
        exclude: &["crates/comm/src/frame.rs", "crates/comm/src/launch.rs"],
        non_test: false,
        message: "Frame::to_bytes on a per-message path (write_frame gathers header and payload \
            without the copy)",
        why: "The message hot path's copy budget is one user-space pass per side: every \
            per-message write gathers header and payload in place (frame::write_frame).",
    },
    Rule {
        check: Check::Exactly(2, E(r"\bto_bytes\(")),
        paths: &["crates/comm/src/launch.rs"],
        exclude: NOTHING,
        non_test: false,
        message: "launch.rs pre-serializes exactly two control broadcasts (OutcomeSet, Abort)",
        why: "A frame is serialized into a combined buffer only where the same bytes go to \
            several peers: the launcher's OutcomeSet and Abort broadcasts.",
    },
    Rule {
        check: Check::None(E(r"allgather\(.*\.to_vec\(\)")),
        paths: FAMILIES4,
        exclude: NOTHING,
        non_test: false,
        message: "a family all-gathers a copy of its block (use allgatherv_f64 on the slice)",
        why: "Replication lends its block: the families call allgatherv_f64(&[f64]) (encode \
            from the slice, parts land in the output once), never an owning all-gather of a \
            copy.",
    },
    Rule {
        check: Check::Exactly(1, E(r"record_send\(")),
        paths: COMM_RS,
        exclude: NOTHING,
        non_test: false,
        message: "crates/comm/src/comm.rs must match 'record_send\\(' exactly once (one post \
            body, one complete body)",
        why: ONE_BODY_WHY,
    },
    Rule {
        check: Check::Exactly(1, E(r"record_recv\(")),
        paths: COMM_RS,
        exclude: NOTHING,
        non_test: false,
        message: "crates/comm/src/comm.rs must match 'record_recv\\(' exactly once (one post \
            body, one complete body)",
        why: ONE_BODY_WHY,
    },
    Rule {
        check: Check::Exactly(1, E(r"backend\.post\(")),
        paths: COMM_RS,
        exclude: NOTHING,
        non_test: false,
        message: "crates/comm/src/comm.rs must match 'backend\\.post\\(' exactly once (one post \
            body, one complete body)",
        why: ONE_BODY_WHY,
    },
    Rule {
        check: Check::Exactly(1, E(r"backend\.take\(")),
        paths: COMM_RS,
        exclude: NOTHING,
        non_test: false,
        message: "crates/comm/src/comm.rs must match 'backend\\.take\\(' exactly once (one post \
            body, one complete body)",
        why: ONE_BODY_WHY,
    },
    Rule {
        check: Check::AtMost(2, E(r"trace::(mark|complete|span)\(")),
        paths: COMM_RS,
        exclude: NOTHING,
        non_test: false,
        message: "comm.rs emits trace events outside its two message bodies",
        why: "Each message body feeds the trace once, so the file holds at most two trace \
            calls.",
    },
    Rule {
        check: Check::None(E(r"trace::|\bCow\b|Staged")),
        paths: &["crates/core/src/common.rs"],
        exclude: NOTHING,
        non_test: false,
        message: "common.rs names trace:: or Cow/Staged again (a ring step is a post and a wait)",
        why: "The pipeline is its comm calls: no trace vocabulary of its own, no second \
            (staged) realisation of a step.",
    },
    Rule {
        check: Check::None(E(r"TraceKind::Shift|pipeline\.(post|stage|wait|exchange)")),
        paths: NOTHING,
        exclude: &["CHANGES.md", ".github/**"],
        non_test: false,
        message: "the deleted shift trace category or a pipeline.* event is named again",
        why: "The pipeline is its comm calls, traced by the post and complete bodies: it has no \
            trace category or events of its own.",
    },
    Rule {
        check: Check::None(E(r"allgatherv_f64|reduce_scatter_sum|sparse_allgather")),
        paths: &[
            "crates/core/src/ds15.rs",
            "crates/core/src/ss15.rs",
            "crates/core/src/dr25.rs",
        ],
        exclude: NOTHING,
        non_test: false,
        message: "a family file holds a fiber collective body (use common::replicate_rows / \
            reduce_rows)",
        why: "The fiber step lives beside the ring step: replicate_rows / reduce_rows \
            (common.rs) are the only dense fiber collectives of the dense-replicating families. \
            (sr25's sampling-value all-gather and value all-reduce are a different collective \
            and stay.)",
    },
    Rule {
        check: Check::None(E(
            r"fn finalize\b|fn apply_sampling\b|fn sample\b|CommPattern::exchange\(",
        )),
        paths: FAMILIES5,
        exclude: NOTHING,
        non_test: false,
        message: "a family file re-grows finalize/apply_sampling/sample or a pattern-exchange \
            body (use Sampling::apply / common::route)",
        why: "Sampling::apply is the only sampling step (the baseline's included), and \
            common::route the only pattern exchange.",
    },
    Rule {
        check: Check::None(E(
            r"PlanPatterns|plan_patterns|derive_needs|enable_pattern_routing",
        )),
        paths: RS,
        exclude: NOTHING,
        non_test: false,
        message: "a world-free need-set derivation or the staged pattern cache is back (derive \
            in from_staged, exchange with common::route)",
        why: "Need sets are derived where the blocks are cut (from_staged) and exchanged by \
            common::route: no world-free derivation, no staged pattern cache.",
    },
    Rule {
        check: Check::Absent,
        paths: &["crates/bench", "BENCH_baseline.json"],
        exclude: NOTHING,
        non_test: false,
        message: "crates/bench or BENCH_baseline.json is back (pin modeled numbers in a test)",
        why: BENCH_GONE_WHY,
    },
    Rule {
        check: Check::None(E(r"BenchReport|bench_gate|trace_check")),
        paths: RS,
        exclude: NOTHING,
        non_test: false,
        message: "a deleted bench report type or gate binary is named again",
        why: BENCH_GONE_WHY,
    },
    Rule {
        check: Check::None(E(
            r"TcpStream|TcpListener|DSK_SOCKET_ADDR|SOCKET_ADDR_ENV_VAR|parse_hostfile|tcp_endpoint|native_endian|ENDIAN_(LE|BE)|CAPS_REQUIRED|CAP_(WORD_ACCOUNTING|SPARSE_COLLECTIVES|ELASTIC_EPOCHS)",
        )),
        paths: RS,
        exclude: &["benchmark/**"],
        non_test: false,
        message: "a second socket transport or the Hello endian/capability fields are back \
            (ranks meet over Unix-domain sockets only)",
        why: "The launcher spawns every pool process itself, on its own host, so ranks meet \
            over Unix-domain sockets only: no TCP variant, no address variable or hostfile, and \
            no Hello endianness or capability fields beside the protocol version.",
    },
];

/// Every file under `root` a rule may read, relative and sorted.
fn walk(root: &Path) -> Vec<String> {
    let ignored: Vec<String> = fs::read_to_string(root.join(".gitignore"))
        .unwrap_or_default()
        .lines()
        .map(|l| l.trim().trim_matches('/').to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut files = Vec::new();
    let mut dirs = vec![String::new()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(root.join(&dir)).expect("a readable dir") {
            let entry = entry.expect("a readable dir entry");
            let name = entry.file_name().into_string().expect("a UTF-8 file name");
            let rel = if dir.is_empty() {
                name.clone()
            } else {
                format!("{dir}/{name}")
            };
            if name == ".git" || rel == THIS_FILE || ignored.contains(&rel) {
                continue;
            }
            let kind = entry.file_type().expect("a file type");
            if kind.is_dir() {
                dirs.push(rel);
            } else if kind.is_file() {
                files.push(rel);
            }
        }
    }
    files.sort();
    files
}

/// Whether path spec `spec` (see [`Rule::paths`]) selects `path`.
fn selects(spec: &str, path: &str) -> bool {
    let under = |dir: &str| path.strip_prefix(dir).is_some_and(|r| r.starts_with('/'));
    if let Some(dir) = spec.strip_suffix("/**") {
        under(dir)
    } else if let Some(suffix) = spec.strip_prefix('*') {
        path.ends_with(suffix)
    } else if let Some((dir, suffix)) = spec.split_once("/*") {
        path.strip_prefix(dir)
            .and_then(|r| r.strip_prefix('/'))
            .is_some_and(|name| !name.contains('/') && name.ends_with(suffix))
    } else {
        path == spec || under(spec)
    }
}

/// Runs `grep` in `root` with `args`, on `input` when given, and
/// returns its output lines; "no match" is no lines, any other failure
/// (a bad pattern, an unreadable file) an error.
fn grep(root: &Path, args: &[&str], input: Option<Vec<u8>>) -> Result<Vec<String>, String> {
    let mut child = Command::new("grep")
        .args(args)
        .current_dir(root)
        .env("LC_ALL", "C")
        .stdin(if input.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run grep: {e}"))?;
    // Fed from a thread, so a large output cannot block the feed.
    let feeder = input.map(|bytes| {
        let mut stdin = child.stdin.take().expect("a piped stdin");
        std::thread::spawn(move || stdin.write_all(&bytes))
    });
    let out = child.wait_with_output().map_err(|e| format!("grep: {e}"))?;
    if let Some(feeder) = feeder {
        feeder
            .join()
            .expect("the feeder thread")
            .map_err(|e| format!("feeding grep: {e}"))?;
    }
    match out.status.code() {
        Some(0) => Ok(String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(String::from)
            .collect()),
        Some(1) => Ok(Vec::new()),
        _ => Err(format!(
            "grep {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The lines of `files` that match `re`, each as `path:line:text`
/// (`path:line:match` per match with `only_matching`).
fn matches(
    root: &Path,
    files: &[&String],
    non_test: bool,
    re: Re,
    only_matching: bool,
) -> Result<Vec<String>, String> {
    let mut args = vec!["-nH"];
    args.extend(re.args());
    if only_matching {
        args.push("-o");
    }
    if !non_test {
        args.push("--");
        args.extend(files.iter().map(|f| f.as_str()));
        return grep(root, &args, None);
    }
    let mut lines = Vec::new();
    for f in files {
        let text = fs::read(root.join(f)).map_err(|e| format!("{f}: {e}"))?;
        let above: Vec<u8> = text
            .split_inclusive(|&b| b == b'\n')
            .take_while(|line| !line.starts_with(b"#[cfg(test)]"))
            .flatten()
            .copied()
            .collect();
        let label = format!("--label={f}");
        lines.extend(grep(root, &[&args[..], &[&label]].concat(), Some(above))?);
    }
    Ok(lines)
}

/// `path:line:rest` split into its parts.
fn place(hit: &str) -> (&str, usize, &str) {
    let (path, rest) = hit.split_once(':').expect("a path");
    let (line, rest) = rest.split_once(':').expect("a line number");
    (path, line.parse().expect("a line number"), rest)
}

/// What `rule` finds wrong in the tree at `root` (whose files are
/// `files`), or `Ok` when it holds.
fn check(root: &Path, files: &[String], rule: &Rule) -> Result<(), String> {
    if let Check::Absent = rule.check {
        let back: Vec<_> = rule
            .paths
            .iter()
            .filter(|p| root.join(p).exists())
            .collect();
        return if back.is_empty() {
            Ok(())
        } else {
            Err(format!("exists: {back:?}"))
        };
    }
    let kept = |f: &&String| !rule.exclude.iter().any(|x| selects(x, f));
    let mut scanned: BTreeSet<&String> = BTreeSet::new();
    if rule.paths.is_empty() {
        scanned.extend(files.iter().filter(kept));
    }
    for spec in rule.paths {
        let selected: Vec<&String> = files
            .iter()
            .filter(|f| selects(spec, f))
            .filter(kept)
            .collect();
        if selected.is_empty() {
            return Err(format!("`{spec}` selects no file"));
        }
        scanned.extend(selected);
    }
    let scanned: Vec<&String> = scanned.into_iter().collect();
    let lines = |re| matches(root, &scanned, rule.non_test, re, false);
    let (hits, allowed) = match rule.check {
        Check::None(re) => (lines(re)?, 0..=0),
        Check::Exactly(n, re) => (lines(re)?, n..=n),
        Check::AtMost(n, re) => (lines(re)?, 0..=n),
        Check::NoneUnless(re, unless) => {
            let text: Vec<u8> = lines(re)?
                .iter()
                .flat_map(|h| [h.as_bytes(), b"\n"])
                .flatten()
                .copied()
                .collect();
            let mut args = vec!["-v"];
            args.extend(unless.args());
            (grep(root, &args, Some(text))?, 0..=0)
        }
        Check::WritersAre(allowed, re) => {
            // A line's first function-start match names the function.
            let mut starts = BTreeMap::new();
            for hit in matches(root, &scanned, rule.non_test, FN_START, true)? {
                let (path, line, text) = place(&hit);
                let name = text
                    .strip_prefix("fn ")
                    .expect("a function start")
                    .to_string();
                starts.entry((path.to_string(), line)).or_insert(name);
            }
            let writers: BTreeSet<String> = lines(re)?
                .iter()
                .map(|hit| {
                    let (path, line, _) = place(hit);
                    let range = (path.to_string(), 0)..=(path.to_string(), line);
                    starts
                        .range(range)
                        .next_back()
                        .map(|(_, f)| f.clone())
                        .unwrap_or_default()
                })
                .collect();
            let allowed: BTreeSet<String> = allowed.iter().map(|f| f.to_string()).collect();
            return if writers == allowed {
                Ok(())
            } else {
                Err(format!(
                    "written in {writers:?}, allowed only in {allowed:?}"
                ))
            };
        }
        Check::Absent => unreachable!("handled above"),
    };
    if allowed.contains(&hits.len()) {
        return Ok(());
    }
    let expected = match (*allowed.start(), *allowed.end()) {
        (0, 0) => "none".to_string(),
        (lo, hi) if lo == hi => format!("exactly {lo}"),
        (_, hi) => format!("at most {hi}"),
    };
    Err(format!(
        "{} matching line(s), expected {expected}:\n{}",
        hits.len(),
        hits.join("\n")
    ))
}

#[test]
fn every_stays_deleted_rule_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = walk(root);
    let broken: Vec<String> = RULES
        .iter()
        .filter_map(|rule| {
            let found = check(root, &files, rule).err()?;
            Some(format!(
                "{}\n  why: {}\n  {}",
                rule.message,
                rule.why,
                found.replace('\n', "\n  ")
            ))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "{} of {} source rules fail:\n\n{}",
        broken.len(),
        RULES.len(),
        broken.join("\n\n")
    );
}

/// Removes a scratch tree when the test that made it ends.
struct RemoveDir(PathBuf);

impl Drop for RemoveDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn the_scanner_finds_a_planted_line_and_refuses_a_missing_path() {
    let dir =
        RemoveDir(std::env::temp_dir().join(format!("dsk-source-rules-{}", std::process::id())));
    let root = dir.0.as_path();
    fs::create_dir_all(root.join("src")).unwrap();
    let text =
        "fn kept() {}\n// planted sendrecv\n#[cfg(test)]\nmod tests { fn only_in_tests() {} }\n";
    fs::write(root.join("src/a.rs"), text).unwrap();
    let files = walk(root);
    assert_eq!(files, ["src/a.rs"]);
    let rule = |check, paths, non_test| Rule {
        check,
        paths,
        exclude: NOTHING,
        non_test,
        message: "",
        why: "",
    };

    let planted = check(
        root,
        &files,
        &rule(Check::None(E(r"sendrecv")), &["src/a.rs"], true),
    );
    assert_eq!(
        planted.unwrap_err(),
        "1 matching line(s), expected none:\nsrc/a.rs:2:// planted sendrecv"
    );
    let in_tests = rule(Check::None(E(r"only_in_tests")), &["src/*.rs"], true);
    assert_eq!(check(root, &files, &in_tests), Ok(()));
    let missing = rule(Check::None(E(r"sendrecv")), &["src/missing.rs"], false);
    assert_eq!(
        check(root, &files, &missing).unwrap_err(),
        "`src/missing.rs` selects no file"
    );
    let bad_pattern = rule(Check::None(E(r"(")), &["src"], false);
    assert!(check(root, &files, &bad_pattern)
        .unwrap_err()
        .starts_with("grep "));
}
