//! Integration: correctness invariants of the `dsk-trace` recorder —
//! spans nest, per-rank clocks are offset-aligned at the epoch sync
//! anchor, a mid-epoch rank death still flushes the survivors' buffers,
//! the Chrome export is well-formed JSON with one named track per rank,
//! and (the load-bearing one) tracing never perturbs a modeled counter.
//!
//! Trace state is process-global (thread-local recorders drain into one
//! sink), so every test serializes on [`LOCK`] and resets the sink
//! before and after its runs.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::comm::trace::{self, ArgVal, TraceEvent, TraceKind, SYNC_EVENT};
use distributed_sparse_kernels::comm::{BackendKind, MachineModel, Phase, RankStats, SimWorld};
use distributed_sparse_kernels::core::theory::Algorithm;
use distributed_sparse_kernels::core::worker::DistWorker;
use distributed_sparse_kernels::core::{AlgorithmFamily, Elision, GlobalProblem, Sampling};

/// Tests in this binary run on parallel threads but the trace sink is
/// process-global: serialize, tolerating a poisoned lock from an
/// unrelated assert failure.
static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fused_epoch(world: &SimWorld, prob: &Arc<GlobalProblem>) -> Vec<RankStats> {
    let prob = Arc::clone(prob);
    let alg = Algorithm::new(AlgorithmFamily::DenseShift15, Elision::ReplicationReuse);
    let out = world.run(move |comm| {
        let mut w = DistWorker::from_global(comm, alg.family, 2, &prob);
        let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
    });
    out.into_iter().map(|o| o.stats).collect()
}

/// Per-rank phase spans partition the timeline: sorted by start, each
/// span ends before (or exactly when) the next begins.
#[test]
fn phase_spans_partition_each_rank_timeline() {
    let _g = serialized();
    trace::reset();
    trace::set_override(true);
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9101));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let _ = fused_epoch(&world, &prob);
    let events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    assert!(!events.is_empty(), "an enabled trace must record events");
    for rank in 0..8u32 {
        let mut phases: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.rank == rank && e.kind == TraceKind::Phase)
            .collect();
        assert!(!phases.is_empty(), "rank {rank} must have phase spans");
        phases.sort_by_key(|e| e.ts_ns);
        for w in phases.windows(2) {
            assert!(
                w[0].end_ns() <= w[1].ts_ns,
                "rank {rank}: phase spans overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Point-to-point comm spans nest inside a single phase span of the
/// same rank, and that span carries the matching phase attribute.
#[test]
fn comm_spans_nest_inside_phase_spans() {
    let _g = serialized();
    trace::reset();
    trace::set_override(true);
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9102));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let _ = fused_epoch(&world, &prob);
    let events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    let comm_spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Comm && e.dur_ns > 0)
        .collect();
    assert!(
        !comm_spans.is_empty(),
        "the shift family must record comm wait spans"
    );
    for c in comm_spans {
        let parent = events.iter().find(|p| {
            p.rank == c.rank
                && p.kind == TraceKind::Phase
                && p.ts_ns <= c.ts_ns
                && c.end_ns() <= p.end_ns()
        });
        let parent = parent.unwrap_or_else(|| {
            panic!("comm span {c:?} must nest inside one phase span of its rank")
        });
        assert_eq!(
            parent.phase, c.phase,
            "the enclosing phase span must match the span's phase attribute"
        );
    }
}

/// One clock splits phases: the instant that closes a phase's `wall_s`
/// bucket is the instant that closes its trace span, so per rank and
/// phase the span durations sum to the accounted wall time.
#[test]
fn phase_spans_sum_to_the_accounted_wall_time() {
    let _g = serialized();
    trace::reset();
    trace::set_override(true);
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9106));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let stats = fused_epoch(&world, &prob);
    let events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    for (rank, stats) in stats.iter().enumerate() {
        for p in Phase::ALL {
            let name = format!("phase.{}", p.label());
            let spans_s: f64 = events
                .iter()
                .filter(|e| e.rank as usize == rank && e.name == name)
                .map(|e| e.dur_ns as f64 * 1e-9)
                .sum();
            let wall_s = stats.phase(p).wall_s;
            assert!(
                (spans_s - wall_s).abs() <= 1e-6,
                "rank {rank} {p:?}: spans sum to {spans_s}s but wall_s is {wall_s}s"
            );
        }
    }
}

/// One event vocabulary: a ring step is its post and its wait (no
/// `pipeline.*` duplicates), and every wait span says how long the
/// thread was blocked on arrival and how long the decode took.
#[test]
fn wait_spans_carry_stall_and_decode_and_nothing_is_named_pipeline() {
    let _g = serialized();
    trace::reset();
    trace::set_override(true);
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9107));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let _ = fused_epoch(&world, &prob);
    let events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    assert!(
        !events.iter().any(|e| e.name.starts_with("pipeline.")),
        "the pipeline must not duplicate its comm events"
    );
    let waits: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name.ends_with(".wait"))
        .collect();
    assert!(!waits.is_empty(), "a fused epoch must record wait spans");
    for w in waits {
        for key in ["stall_s", "decode_s"] {
            let arg = w.args.iter().find(|(k, _)| k == key);
            assert!(
                matches!(arg, Some((_, ArgVal::Num(x))) if *x >= 0.0),
                "wait span {w:?} must carry a numeric {key}"
            );
        }
    }
}

/// After the gather re-anchors each rank's clock, every rank's
/// [`SYNC_EVENT`] mark sits at the same instant — the per-process
/// monotonic clocks are offset-aligned at the epoch rendezvous.
#[test]
fn sync_anchors_coincide_across_ranks() {
    let _g = serialized();
    trace::reset();
    trace::set_override(true);
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9103));
    let world = SimWorld::new(6, MachineModel::bandwidth_only());
    let _ = fused_epoch(&world, &prob);
    let events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    let syncs: Vec<&TraceEvent> = events.iter().filter(|e| e.name == SYNC_EVENT).collect();
    assert_eq!(syncs.len(), 6, "one sync anchor per rank");
    let ranks: Vec<u32> = syncs.iter().map(|e| e.rank).collect();
    for r in 0..6u32 {
        assert!(ranks.contains(&r), "rank {r} must emit a sync anchor");
    }
    let t0 = syncs[0].ts_ns;
    for s in &syncs {
        assert_eq!(
            s.ts_ns, t0,
            "rank {}'s sync anchor must coincide with rank {}'s",
            s.rank, syncs[0].rank
        );
    }
}

/// A mid-epoch rank death aborts the epoch with a typed error, but the
/// trace survives: the survivors' buffers are still flushed into the
/// sink (in-memory backends recover every rank's partial timeline; the
/// socket abort path flushes the launcher's own).
#[test]
fn rank_death_still_flushes_survivor_buffers() {
    let _g = serialized();
    trace::reset();
    trace::set_override(true);
    let backend = BackendKind::from_env();
    let world = SimWorld::new(4, MachineModel::bandwidth_only());
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = world.try_run(move |comm| {
        comm.set_phase(Phase::Propagation);
        let v = vec![1.0f64; 8];
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let _: Vec<f64> = comm.sendrecv(next, prev, 7, v);
        // Rank 2 needs only rank 1 to finish its exchange; without the
        // barrier it can die (and poison the epoch) before rank 3 has
        // even posted, leaving rank 0 with no completed comm span.
        comm.barrier();
        if comm.rank() == 2 {
            if backend == BackendKind::Socket && is_worker_process() {
                std::process::exit(3);
            }
            panic!("simulated node failure");
        }
    });
    std::panic::set_hook(default_hook);
    let events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    let err = result.expect_err("the epoch must abort when a rank dies");
    assert_eq!(err.dead, vec![2]);
    assert!(
        events.iter().any(|e| e.rank == 0),
        "survivor rank 0's buffer must be flushed despite the abort"
    );
    assert!(
        events.iter().any(|e| e.name == "epoch.abort"),
        "the abort must leave an epoch.abort mark in the trace"
    );
    if backend != BackendKind::Socket {
        for rank in [0u32, 1, 3] {
            assert!(
                events
                    .iter()
                    .any(|e| e.rank == rank && e.kind == TraceKind::Comm),
                "survivor rank {rank}'s comm events must be recovered"
            );
        }
    }
}

/// The tentpole guarantee: tracing is modeled-cost-free. Every modeled
/// per-phase counter — words, messages, wire bytes, flops, and modeled
/// seconds down to the bit — is identical with tracing on and off.
/// Only the measured wall/stall clocks may differ.
#[test]
fn tracing_leaves_modeled_counters_byte_identical() {
    let _g = serialized();
    trace::reset();
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9104));
    let world = SimWorld::new(8, MachineModel::cori_knl());
    trace::set_override(false);
    let untraced = fused_epoch(&world, &prob);
    trace::set_override(true);
    let traced = fused_epoch(&world, &prob);
    let traced_events = trace::snapshot();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    assert!(
        !traced_events.is_empty(),
        "the traced leg must actually have recorded events"
    );
    for (u, t) in untraced.iter().zip(&traced) {
        for p in Phase::ALL {
            let (a, b) = (u.phase(p), t.phase(p));
            assert_eq!(a.msgs_sent, b.msgs_sent, "{p:?} msgs_sent");
            assert_eq!(a.words_sent, b.words_sent, "{p:?} words_sent");
            assert_eq!(a.msgs_recv, b.msgs_recv, "{p:?} msgs_recv");
            assert_eq!(a.words_recv, b.words_recv, "{p:?} words_recv");
            assert_eq!(a.wire_bytes_sent, b.wire_bytes_sent, "{p:?} wire_bytes");
            assert_eq!(a.flops, b.flops, "{p:?} flops");
            assert_eq!(
                a.modeled_s.to_bits(),
                b.modeled_s.to_bits(),
                "{p:?} modeled_s must be byte-identical"
            );
        }
    }
}

/// One event object of the exported document: its own members as
/// `(key, raw value text)`.
type Members = Vec<(String, String)>;

/// A JSON well-formedness scan just deep enough for the Chrome export:
/// every string closes and holds only legal escapes and no raw control
/// character, brackets balance, and one value fills the document. The
/// objects directly inside the top-level `traceEvents` array come back
/// with their members as raw text.
fn scan_events(doc: &str) -> Result<Vec<Members>, String> {
    let b = doc.as_bytes();
    let mut stack: Vec<u8> = Vec::new();
    let mut events: Vec<Members> = Vec::new();
    let (mut key, mut value_at) = (None::<String>, 0);
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                loop {
                    match b.get(i) {
                        None => return Err(format!("string at byte {start} never closes")),
                        Some(b'"') => break,
                        Some(b'\\') => match b.get(i + 1) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                            Some(b'u')
                                if b.get(i + 2..i + 6)
                                    .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
                            {
                                i += 6
                            }
                            _ => return Err(format!("bad escape at byte {i}")),
                        },
                        Some(&c) if c < 0x20 => {
                            return Err(format!("raw control byte {c:#04x} at byte {i}"))
                        }
                        Some(_) => i += 1,
                    }
                }
                if stack == b"{[{" && key.is_none() {
                    key = Some(doc[start..i].to_string());
                }
            }
            b'{' | b'[' => {
                if stack.is_empty() && i != doc.len() - doc.trim_start().len() {
                    return Err(format!("text before the document at byte {i}"));
                }
                if stack == b"{[" && b[i] == b'{' {
                    events.push(Vec::new());
                }
                stack.push(b[i]);
            }
            b':' if stack == b"{[{" => value_at = i + 1,
            c @ (b',' | b'}' | b']') => {
                if stack == b"{[{" && c != b']' {
                    let k = key
                        .take()
                        .ok_or(format!("member without a key at byte {i}"))?;
                    let v = doc[value_at..i].trim().to_string();
                    events.last_mut().expect("inside an event").push((k, v));
                }
                if c != b',' {
                    let open = if c == b'}' { b'{' } else { b'[' };
                    if stack.pop() != Some(open) {
                        return Err(format!("unbalanced {:?} at byte {i}", c as char));
                    }
                    if stack.is_empty() && !doc[i + 1..].trim().is_empty() {
                        return Err(format!("text after the document at byte {i}"));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    if !stack.is_empty() {
        return Err(format!("{} bracket(s) never close", stack.len()));
    }
    Ok(events)
}

fn member<'a>(event: &'a Members, key: &str) -> Option<&'a str> {
    event
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The exported Chrome trace of a p = 8 epoch is well-formed JSON with
/// one named track per rank: tids exactly 0..8, each with a
/// `thread_name` record; every event has a name, a numeric `ts` and a
/// `tid`; and the `"ph":"X"` records are the recorder's spans, each with
/// a numeric `dur`.
#[test]
fn chrome_export_has_one_named_track_per_rank() {
    let _g = serialized();
    trace::reset();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chrome_export_tracks.json");
    trace::enable_to(&path);
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9108));
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let _ = fused_epoch(&world, &prob);
    let spans = trace::snapshot().iter().filter(|e| e.dur_ns > 0).count();
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    let doc = std::fs::read_to_string(&path).expect("the launcher writes the export");
    let events = scan_events(&doc).unwrap_or_else(|e| panic!("malformed export: {e}"));
    let (mut tids, mut named, mut x) = (Vec::new(), Vec::new(), 0);
    for e in &events {
        let tid: u32 = member(e, "tid")
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("event without an integer tid: {e:?}"));
        let name = member(e, "name").unwrap_or_else(|| panic!("event without a name: {e:?}"));
        assert!(name.starts_with('"'), "non-string name: {e:?}");
        match member(e, "ph") {
            Some("\"M\"") => {
                if name == "\"thread_name\"" {
                    named.push(tid);
                }
                continue;
            }
            Some("\"X\"") => {
                x += 1;
                let dur = member(e, "dur").and_then(|d| d.parse::<f64>().ok());
                assert!(dur.is_some(), "span without a numeric dur: {e:?}");
            }
            _ => {}
        }
        let ts = member(e, "ts").and_then(|t| t.parse::<f64>().ok());
        assert!(ts.is_some(), "event without a numeric ts: {e:?}");
        tids.push(tid);
    }
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids, (0..8).collect::<Vec<u32>>(), "one track per rank");
    for t in &tids {
        assert!(named.contains(t), "tid {t} has no thread_name record");
    }
    assert!(spans > 0, "a fused epoch records spans");
    assert_eq!(x, spans, "every recorded span is one \"ph\":\"X\" record");
}

/// Names and string args are escaped: quotes, backslashes, newlines and
/// other control characters still export a well-formed document that
/// carries them as JSON escapes.
#[test]
fn chrome_export_escapes_hostile_names_and_args() {
    let _g = serialized();
    trace::reset();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chrome_export_escapes.json");
    trace::enable_to(&path);
    let hostile = "say \"hi\" \\ then\nstop \u{1}";
    let world = SimWorld::new(2, MachineModel::bandwidth_only());
    let _ = world.run(move |_| {
        trace::mark(TraceKind::Mark, hostile, || {
            vec![("detail".to_string(), ArgVal::Str(hostile.to_string()))]
        });
    });
    trace::set_override(false);
    trace::reset();
    if is_worker_process() {
        return;
    }
    let doc = std::fs::read_to_string(&path).expect("the launcher writes the export");
    let events = scan_events(&doc).unwrap_or_else(|e| panic!("malformed export: {e}"));
    let escaped = r#""say \"hi\" \\ then\nstop \u0001""#;
    let marks: Vec<&Members> = events
        .iter()
        .filter(|e| member(e, "name") == Some(escaped))
        .collect();
    assert_eq!(marks.len(), 2, "one escaped mark per rank in {doc}");
    for m in marks {
        let args = member(m, "args").expect("a mark carries args");
        assert!(args.contains(&format!("\"detail\":{escaped}")), "{args}");
    }
}

/// With tracing disabled, nothing reaches the sink: the hooks are one
/// cached-flag branch and record no events.
#[test]
fn disabled_tracing_records_nothing() {
    let _g = serialized();
    trace::reset();
    trace::set_override(false);
    if std::env::var_os(trace::TRACE_ENV_VAR).is_some() {
        return; // the environment force-enables tracing; nothing to test
    }
    let prob = Arc::new(GlobalProblem::erdos_renyi(16, 16, 4, 3, 9105));
    let world = SimWorld::new(4, MachineModel::bandwidth_only());
    let _ = fused_epoch(&world, &prob);
    let events = trace::snapshot();
    trace::reset();
    if is_worker_process() {
        return;
    }
    assert!(events.is_empty(), "disabled tracing must record nothing");
}
