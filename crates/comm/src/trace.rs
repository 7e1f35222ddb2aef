//! `dsk-trace`: per-rank span/event timelines with cross-rank gather
//! and Chrome trace-event (Perfetto) export.
//!
//! The accounting layer ([`crate::stats`]) answers *how much* — words,
//! messages, modeled seconds per phase. This module answers *when*: a
//! per-rank, lock-cheap recorder captures `{ts, dur, rank, phase, kind,
//! name, args}` events against a per-process monotonic clock, so one
//! can see that rank 3 stalled in a shift wait while rank 0 was still
//! staging, or that a short epoch was dominated by its rendezvous.
//!
//! # Recording model
//!
//! Every rank owns a thread-local ring buffer ([`RING_CAP`] events; the
//! oldest events are dropped when an epoch overflows it). Recording is
//! gated by a thread-local `bool` — when tracing is disabled, every
//! hook compiles down to one cached-flag branch with **zero
//! allocations** (argument vectors are built behind `FnOnce` closures
//! that are never called). Tracing is *modeled-cost-free by
//! construction*: the recorder only ever *reads* — `Comm`'s one
//! instrumentation hook hands it the clock reads and counts it has
//! just charged to [`crate::stats::RankStats`], and no hook posts a
//! message — so every modeled counter is byte-identical between traced
//! and untraced runs (pinned by the workspace test
//! `tests/trace_invariants.rs`), in the same way [`Phase::LocalTuning`]
//! is barred from modeled traffic.
//!
//! # Event vocabulary
//!
//! | kind (`cat`) | name | shape | emitted by |
//! |---|---|---|---|
//! | `phase` | `phase.<label>` | span | every phase transition ([`Comm::set_phase`](crate::Comm::set_phase)); its duration is the `wall_s` the same clock read charged |
//! | `comm` | `send.post` | instant | `Comm`'s one post body, lone send (args `dst`, `words`) |
//! | `comm` | `shift.post` | instant | the same body, send half of an exchange — `sendrecv`, `shift`, `shift_begin` |
//! | `comm` | `recv.wait` | span | `Comm`'s one complete body, lone receive — `recv`, `recv_begin` + `wait` (args `src`, `words`, `stall_s`, `decode_s`) |
//! | `comm` | `shift.wait` | span | the same body, receive half of an exchange (same args) |
//! | `epoch` | `epoch.rendezvous` | span | socket rendezvous (launcher and members) |
//! | `epoch` | [`SYNC_EVENT`] | instant | the per-epoch clock-alignment anchor |
//! | `epoch` | `epoch.abort` | instant | elastic abort (`try_run` failure path) |
//! | `session` | `session.replan` / `session.migrate` / `session.resize` | span | `dsk-core`'s `Session` |
//! | `mark` | `trace.dropped` | instant | ring-buffer overflow notice |
//!
//! Blocking calls are `begin(..).wait()`, so they emit the same post
//! instant and wait span as their non-blocking spelling; `stall_s` is
//! the time inside the backend's `take`, `decode_s` the time turning
//! the parcel into a value. There is no `shift` category: a
//! `ShiftPipeline` step is exactly its post and its wait — two events
//! per pipelined ring step where there used to be four.
//!
//! # Gather and export
//!
//! At epoch end each rank drains its buffer. Under the in-memory
//! backends the world merges the per-thread buffers directly; under the
//! socket backend each member's events piggyback on the `Outcome`
//! control frame it already sends to rank 0 (control frames never enter
//! word accounting), and the launcher merges them. Per rank, timestamps
//! are re-anchored so the [`SYNC_EVENT`] mark (emitted when the epoch's
//! rendezvous completes) sits at the same instant on every track —
//! per-process monotonic clocks are offset-aligned at the rendezvous.
//! Successive epochs of one process are laid out left to right with a
//! 1 ms gap. When a trace path is configured (`DSK_TRACE=path` or
//! [`enable_to`]), the launcher
//! process rewrites the Chrome trace-event JSON file after every epoch:
//! load it at `ui.perfetto.dev` (or `chrome://tracing`) and each rank
//! appears as one track with its nested phase spans.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::payload::WireReader;
use crate::stats::Phase;

/// Environment variable naming the Chrome trace-event JSON output path.
/// Setting it (to a non-empty value) enables tracing process-wide.
pub const TRACE_ENV_VAR: &str = "DSK_TRACE";

/// Per-rank, per-epoch ring-buffer capacity; the oldest events are
/// dropped (and counted in a `trace.dropped` mark) beyond this.
pub const RING_CAP: usize = 1 << 16;

/// Name of the per-epoch clock-alignment anchor event: every rank emits
/// it when its epoch rendezvous completes, and the gather step shifts
/// each rank's timeline so these marks coincide.
pub const SYNC_EVENT: &str = "epoch.sync";

/// Coarse category of a trace event (the Chrome `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A phase span mirroring the [`Phase`] accounting taxonomy.
    Phase = 0,
    /// Point-to-point communication (posts, waits, stalls).
    Comm = 1,
    /// Epoch lifecycle: rendezvous, sync anchor, abort.
    Epoch = 2,
    /// Session-level re-planning, migration, and resizing.
    Session = 3,
    /// Bookkeeping marks (e.g. ring-buffer overflow).
    Mark = 5,
}

impl TraceKind {
    /// Chrome `cat` label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Phase => "phase",
            TraceKind::Comm => "comm",
            TraceKind::Epoch => "epoch",
            TraceKind::Session => "session",
            TraceKind::Mark => "mark",
        }
    }

    fn from_u8(b: u8) -> TraceKind {
        match b {
            0 => TraceKind::Phase,
            1 => TraceKind::Comm,
            2 => TraceKind::Epoch,
            3 => TraceKind::Session,
            _ => TraceKind::Mark,
        }
    }
}

/// One event argument value (rendered into the Chrome `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// A numeric argument (counts, seconds, ranks).
    Num(f64),
    /// A string argument (variant names, failure details).
    Str(String),
}

/// One recorded span (`dur_ns > 0`) or instant (`dur_ns == 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds relative to the rank's epoch anchor (may be negative
    /// for events preceding the rendezvous-complete sync mark).
    pub ts_ns: i64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// World rank that recorded the event.
    pub rank: u32,
    /// Accounting phase active when the event was recorded.
    pub phase: Phase,
    /// Event category.
    pub kind: TraceKind,
    /// Event name (see the module-level vocabulary table).
    pub name: String,
    /// Event arguments.
    pub args: Vec<(String, ArgVal)>,
}

impl TraceEvent {
    /// End timestamp (`ts_ns + dur_ns`).
    pub fn end_ns(&self) -> i64 {
        self.ts_ns + self.dur_ns as i64
    }
}

// ---------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------

/// Programmatic process-wide enable (tests, [`enable_to`]).
static OVERRIDE_ON: AtomicBool = AtomicBool::new(false);
/// Programmatic output path (takes precedence over the environment).
static OVERRIDE_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

fn env_path() -> Option<&'static PathBuf> {
    static PATH: OnceLock<Option<PathBuf>> = OnceLock::new();
    PATH.get_or_init(|| {
        std::env::var_os(TRACE_ENV_VAR)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
    .as_ref()
}

/// Whether tracing is enabled for this process (`DSK_TRACE` set, or a
/// programmatic enable via [`set_override`] / [`enable_to`]).
pub fn enabled() -> bool {
    env_path().is_some() || OVERRIDE_ON.load(Ordering::Relaxed)
}

/// The configured export path, if any: the programmatic override wins,
/// else `DSK_TRACE`. `None` means record in memory only (tests).
pub fn configured_path() -> Option<PathBuf> {
    let over = OVERRIDE_PATH.lock().unwrap().clone();
    over.or_else(|| env_path().cloned())
}

/// Programmatically enable (`true`) or disable (`false`) tracing
/// process-wide, independent of `DSK_TRACE`. Disabling does not clear
/// already-recorded events; see [`reset`].
pub fn set_override(on: bool) {
    OVERRIDE_ON.store(on, Ordering::Relaxed);
}

/// Programmatically enable tracing and set the export path (the code
/// equivalent of `DSK_TRACE=path`). An empty path keeps the recording
/// in memory only.
pub fn enable_to(path: &Path) {
    if !path.as_os_str().is_empty() {
        *OVERRIDE_PATH.lock().unwrap() = Some(path.to_path_buf());
    }
    OVERRIDE_ON.store(true, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Per-rank recorder
// ---------------------------------------------------------------------

struct LocalTrace {
    rank: u32,
    base: Instant,
    phase: Phase,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl LocalTrace {
    fn new(rank: u32) -> Self {
        LocalTrace {
            rank,
            base: Instant::now(),
            phase: Phase::Setup,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    fn ts_of(&self, t: Instant) -> i64 {
        if t >= self.base {
            t.duration_since(self.base).as_nanos() as i64
        } else {
            -(self.base.duration_since(t).as_nanos() as i64)
        }
    }

    fn push(&mut self, e: TraceEvent) {
        if self.events.len() >= RING_CAP {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Option<LocalTrace>> = const { RefCell::new(None) };
}

/// Whether this thread currently records trace events. The fast path
/// every hook checks first — a cached bool, no allocation.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Install a recorder for `rank` on the current thread (no-op when
/// tracing is disabled or a recorder is already installed). The
/// monotonic clock base is *now*.
pub fn install(rank: usize) {
    if !enabled() || active() {
        return;
    }
    LOCAL.with(|l| *l.borrow_mut() = Some(LocalTrace::new(rank as u32)));
    ACTIVE.with(|a| a.set(true));
}

/// Emit the per-epoch clock-alignment anchor ([`SYNC_EVENT`]).
pub fn sync() {
    mark(TraceKind::Epoch, SYNC_EVENT, Vec::new);
}

/// [`install`] + [`sync`] for worlds with no rendezvous (the in-memory
/// backends, where rank threads start together on one process clock).
pub fn install_and_sync(rank: usize) {
    if enabled() && !active() {
        install(rank);
        sync();
    }
}

fn record(
    kind: TraceKind,
    name: &str,
    start: Option<Instant>,
    dur_ns: u64,
    args: Vec<(String, ArgVal)>,
) {
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let Some(t) = slot.as_mut() else { return };
        let ts = t.ts_of(start.unwrap_or_else(Instant::now));
        let e = TraceEvent {
            ts_ns: ts,
            dur_ns,
            rank: t.rank,
            phase: t.phase,
            kind,
            name: name.to_string(),
            args,
        };
        t.push(e);
    });
}

/// Record an instant event. `args` is only invoked when the thread is
/// actively recording, so a disabled trace allocates nothing.
#[inline]
pub fn mark(kind: TraceKind, name: &str, args: impl FnOnce() -> Vec<(String, ArgVal)>) {
    if !active() {
        return;
    }
    record(kind, name, None, 0, args());
}

/// Record a span that started at `start` and ends now.
#[inline]
pub fn complete(
    kind: TraceKind,
    name: &str,
    start: Instant,
    args: impl FnOnce() -> Vec<(String, ArgVal)>,
) {
    span(kind, name, start, Instant::now(), args);
}

/// Record the span `[start, end]` from clock reads the caller already
/// holds (the ones it charged its counters from).
#[inline]
pub fn span(
    kind: TraceKind,
    name: &str,
    start: Instant,
    end: Instant,
    args: impl FnOnce() -> Vec<(String, ArgVal)>,
) {
    if !active() {
        return;
    }
    let dur = end.duration_since(start).as_nanos() as u64;
    record(kind, name, Some(start), dur, args());
}

/// Close the phase span of `closed` over `[since, now]` and stamp later
/// events with `next`. Fed by `Comm`'s one phase-clock transition with
/// the instants that closed its `wall_s` bucket, so the phase track
/// partitions wall time exactly like the accounting does — the two are
/// one clock read, not two kept equal.
#[inline]
pub fn phase_span(closed: Phase, since: Instant, now: Instant, next: Phase) {
    if !active() {
        return;
    }
    let dur = now.duration_since(since).as_nanos() as u64;
    if dur > 0 {
        let name = format!("phase.{}", closed.label());
        record(TraceKind::Phase, &name, Some(since), dur, Vec::new());
    }
    LOCAL.with(|l| {
        if let Some(t) = l.borrow_mut().as_mut() {
            t.phase = next;
        }
    });
}

/// Stop recording on this thread and take the buffered events (the
/// rank's `Comm` closed its last phase span when the closure returned).
/// Returns an empty vector when the thread was not recording.
pub fn drain() -> Vec<TraceEvent> {
    if !active() {
        return Vec::new();
    }
    ACTIVE.with(|a| a.set(false));
    LOCAL.with(|l| {
        let Some(t) = l.borrow_mut().take() else {
            return Vec::new();
        };
        let mut out: Vec<TraceEvent> = t.events.into();
        if t.dropped > 0 {
            let last_ts = out.last().map_or(0, TraceEvent::end_ns);
            out.push(TraceEvent {
                ts_ns: last_ts,
                dur_ns: 0,
                rank: t.rank,
                phase: t.phase,
                kind: TraceKind::Mark,
                name: "trace.dropped".to_string(),
                args: vec![("events".to_string(), ArgVal::Num(t.dropped as f64))],
            });
        }
        out
    })
}

// ---------------------------------------------------------------------
// Wire codec (Outcome-frame piggyback)
// ---------------------------------------------------------------------

/// Append the wire encoding of `events` to `buf` (the launcher protocol
/// appends this to each `Outcome` control frame — control frames never
/// enter word accounting, so the piggyback is modeled-cost-free).
pub fn encode_events(events: &[TraceEvent], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        buf.extend_from_slice(&e.ts_ns.to_le_bytes());
        buf.extend_from_slice(&e.dur_ns.to_le_bytes());
        buf.extend_from_slice(&e.rank.to_le_bytes());
        buf.push(e.phase.index() as u8);
        buf.push(e.kind as u8);
        let name = e.name.as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        buf.extend_from_slice(&(e.args.len() as u16).to_le_bytes());
        for (k, v) in &e.args {
            let kb = k.as_bytes();
            buf.extend_from_slice(&(kb.len() as u16).to_le_bytes());
            buf.extend_from_slice(kb);
            match v {
                ArgVal::Num(x) => {
                    buf.push(0);
                    buf.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                ArgVal::Str(s) => {
                    buf.push(1);
                    let sb = s.as_bytes();
                    buf.extend_from_slice(&(sb.len() as u16).to_le_bytes());
                    buf.extend_from_slice(sb);
                }
            }
        }
    }
}

/// Decode a block written by [`encode_events`].
pub fn decode_events(r: &mut WireReader<'_>) -> Vec<TraceEvent> {
    let n = r.read_len();
    let mut out = Vec::with_capacity(n.min(RING_CAP + 1));
    for _ in 0..n {
        let ts_ns = r.u64() as i64;
        let dur_ns = r.u64();
        let rank = r.u32();
        let phase = Phase::ALL[(r.u8() as usize).min(Phase::ALL.len() - 1)];
        let kind = TraceKind::from_u8(r.u8());
        let name_len = r.u16() as usize;
        let name = String::from_utf8_lossy(r.bytes(name_len)).into_owned();
        let n_args = r.u16() as usize;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            let klen = r.u16() as usize;
            let key = String::from_utf8_lossy(r.bytes(klen)).into_owned();
            let val = match r.u8() {
                0 => ArgVal::Num(f64::from_bits(r.u64())),
                _ => {
                    let slen = r.u16() as usize;
                    ArgVal::Str(String::from_utf8_lossy(r.bytes(slen)).into_owned())
                }
            };
            args.push((key, val));
        }
        out.push(TraceEvent {
            ts_ns,
            dur_ns,
            rank,
            phase,
            kind,
            name,
            args,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Gather + export
// ---------------------------------------------------------------------

struct Sink {
    events: Vec<TraceEvent>,
    next_offset_ns: i64,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    events: Vec::new(),
    next_offset_ns: 0,
});

/// Merge one epoch's per-rank buffers into the process-wide trace and
/// rewrite the export file (if a path is configured). Each rank's
/// timeline is re-anchored so its [`SYNC_EVENT`] mark coincides with
/// every other rank's — offset-aligning the per-process clocks at the
/// epoch rendezvous — and the whole epoch is appended after all prior
/// epochs with a 1 ms gap. Worker processes (socket backend) skip the
/// merge entirely: only the launcher exports.
pub fn gather_epoch(per_rank: Vec<Vec<TraceEvent>>) {
    if crate::launch::is_worker_process() {
        return;
    }
    let mut all: Vec<TraceEvent> = Vec::new();
    for events in per_rank {
        let anchor = events
            .iter()
            .find(|e| e.name == SYNC_EVENT)
            .map_or(0, |e| e.ts_ns);
        for mut e in events {
            e.ts_ns -= anchor;
            all.push(e);
        }
    }
    if all.is_empty() {
        return;
    }
    all.sort_by_key(|e| (e.ts_ns, e.rank));
    let min = all.first().map_or(0, |e| e.ts_ns);
    let max = all.iter().map(TraceEvent::end_ns).max().unwrap_or(min);
    let path = {
        let mut sink = SINK.lock().unwrap();
        let off = sink.next_offset_ns - min;
        for e in &mut all {
            e.ts_ns += off;
        }
        sink.next_offset_ns += (max - min) + 1_000_000;
        sink.events.extend(all);
        configured_path()
    };
    if let Some(p) = path {
        write_chrome_trace(&p);
    }
}

/// A copy of every event gathered so far in this process (all epochs,
/// export-normalized timestamps). Test surface.
pub fn snapshot() -> Vec<TraceEvent> {
    SINK.lock().unwrap().events.clone()
}

/// Clear the gathered trace and restart the epoch layout at t = 0
/// (tests isolate themselves with this; hold their own serialization
/// lock around it).
pub fn reset() {
    let mut sink = SINK.lock().unwrap();
    sink.events.clear();
    sink.next_offset_ns = 0;
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_chrome_trace(path: &Path) {
    let events = snapshot();
    let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut s = String::with_capacity(events.len() * 96 + 256);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |s: &mut String| {
        if !std::mem::take(&mut first) {
            s.push(',');
        }
    };
    for r in &ranks {
        sep(&mut s);
        s.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{r},\
             \"args\":{{\"name\":\"rank {r}\"}}}}"
        ));
        sep(&mut s);
        s.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":{r},\
             \"args\":{{\"sort_index\":{r}}}}}"
        ));
    }
    for e in &events {
        sep(&mut s);
        let ts_us = e.ts_ns as f64 / 1000.0;
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{:.3}",
            json_escape(&e.name),
            e.kind.label(),
            e.rank,
            ts_us
        ));
        if e.dur_ns == 0 {
            s.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        } else {
            s.push_str(&format!(
                ",\"ph\":\"X\",\"dur\":{:.3}",
                e.dur_ns as f64 / 1000.0
            ));
        }
        s.push_str(",\"args\":{");
        s.push_str(&format!("\"phase\":\"{}\"", e.phase.label()));
        for (k, v) in &e.args {
            match v {
                ArgVal::Num(x) => s.push_str(&format!(",\"{}\":{}", json_escape(k), fmt_num(*x))),
                ArgVal::Str(t) => {
                    s.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(t)))
                }
            }
        }
        s.push_str("}}");
    }
    s.push_str("]}");
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("dsk-trace: failed to write {}: {e}", path.display());
    }
}

fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let s = format!("{x}");
        if s.contains(['e', '.']) {
            s
        } else {
            format!("{s}.0")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_the_wire_codec() {
        let events = vec![
            TraceEvent {
                ts_ns: -1234,
                dur_ns: 567,
                rank: 3,
                phase: Phase::Propagation,
                kind: TraceKind::Comm,
                name: "shift.wait".to_string(),
                args: vec![
                    ("stall_s".to_string(), ArgVal::Num(0.25)),
                    ("peer".to_string(), ArgVal::Str("rank 2".to_string())),
                ],
            },
            TraceEvent {
                ts_ns: 0,
                dur_ns: 0,
                rank: 0,
                phase: Phase::Setup,
                kind: TraceKind::Epoch,
                name: SYNC_EVENT.to_string(),
                args: Vec::new(),
            },
        ];
        let mut buf = Vec::new();
        encode_events(&events, &mut buf);
        let mut r = WireReader::new(&buf);
        let back = decode_events(&mut r);
        assert!(r.is_empty());
        assert_eq!(back, events);
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        assert!(!active());
        mark(TraceKind::Mark, "ignored", || {
            panic!("args closure must not run when tracing is off")
        });
        assert!(drain().is_empty());
    }

    #[test]
    fn json_number_formatting_stays_parseable() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.5), "0.5");
        assert_eq!(fmt_num(f64::NAN), "null");
    }
}
