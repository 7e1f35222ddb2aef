//! The process launcher: how a [`SimWorld`] with
//! [`BackendKind::Socket`](crate::BackendKind) turns ranks into real OS
//! processes.
//!
//! # The SPMD re-exec model
//!
//! A socket world cannot hand a Rust closure to another process, so the
//! launcher re-runs the *program*: rank 0 (the launcher — the process
//! the user started) spawns the current executable once per additional
//! rank, with `DSK_RANK` and `DSK_RENDEZVOUS` in the environment. Inside
//! a `cargo test` binary the child re-runs exactly the current test
//! (libtest names each test's thread after the test, so the launcher
//! passes `<name> --exact --test-threads=1`); plain binaries (examples,
//! benches) are re-run with their original arguments. Every process
//! runs the *same deterministic program*, and each `SimWorld::run` /
//! `try_run` call on a socket backend is one **epoch** of it:
//!
//! * every process counts socket epochs on its live thread (the test's
//!   thread, or a plain binary's main thread); the counter is the epoch
//!   id. A worker that meets a socket epoch on another thread exits
//!   with that rule named: no coordinator serves it, no verdict names it;
//! * the launcher keeps a **verdict log**, one entry per epoch: its
//!   [`Roster`] and the verdict frame it ended with (below), or the text
//!   of the launcher panic that ended it. A worker spawned at epoch `k`
//!   reads the first `k` entries once, from a file the launcher writes
//!   into the rendezvous dir before the spawn. For those epochs it
//!   skips the closure and returns the logged verdict through the decode
//!   a live worker uses — the same outcomes, the same [`EpochError`], or
//!   the same panic — so the pool may grow at any epoch, after a death
//!   too;
//! * at each live epoch every pool process dials the coordinator with
//!   its pool id and reads back the epoch's [`Roster`] (see
//!   [`crate::rendezvous`] for the version-checked handshake). The echo
//!   *is* the roster: the worker at position `w` is world rank `w`, and
//!   a worker absent from it (worlds may shrink) *observes*: it skips the
//!   closure and awaits the verdict on the same stream;
//! * members mesh up pairwise (each binds `<base>/r<pool_id>.sock` in
//!   the launcher's private temp dir and dials every lower world rank),
//!   validating a [`Hello`] (world rank, world size, epoch) on every
//!   connection, so diverged processes fail loudly.
//!
//! The contract: **an epoch acts on the program only through its
//! returned value.** A worker runs its own rank's closure in a live
//! epoch and no closure in an epoch before its spawn, so a closure's
//! side effects (a static it bumps, a file it writes) reach only the
//! process that ran it. State that outlives an epoch travels in the
//! value — the outcome broadcast is an elastic program's checkpoint.
//!
//! # The epoch protocol
//!
//! One protocol, one body per role (launcher, rank-0 epoch, member,
//! observer). After its closure every rank drains (`Bye` to every peer,
//! wait for every peer's `Bye`, require an empty mailbox), members send
//! their encoded value + [`RankStats`] to rank 0 in an `Outcome` frame,
//! and every process waits for rank 0's **verdict**:
//!
//! * `OutcomeSet` — the epoch completed, and **every process returns
//!   the identical `Vec<RankOutcome<T>>`** (hence `T: WirePayload`).
//! * `Abort` — a rank failed. A local failure (a closure panic, a
//!   poisoned receive, a leaked message) reaches rank 0 in an `Error`
//!   frame; rank 0 nudges blocked members, collects a check-in from
//!   every member (an `Outcome`, an `Error`, or its process exit) and
//!   broadcasts the dead **pool ids**. Every survivor derives the
//!   identical [`EpochError`] from them.
//!
//! [`SimWorld::try_run`] returns that `EpochError` and the pool
//! survives: the coordinator drops the dead children, so the next
//! roster ([`crate::rendezvous::roster_for`] over the live pool ids)
//! omits them. Liveness lives in the coordinator's pool alone.
//! [`SimWorld::run`] is the same epoch plus teardown: the launcher
//! kills the pool and panics with `rank N panicked: …`, like the
//! in-memory backends, and a worker exits non-zero. One limitation is
//! enforced rather than half-supported: the coordinator (pool id 0 =
//! world rank 0) is not expendable — its death kills the pool.
//!
//! # Failure containment
//!
//! A child that dies silently poisons every peer's mailbox
//! (milliseconds, not the 300 s watchdog). A failure the protocol
//! cannot end consistently — a failed rendezvous, members unresponsive
//! through an abort, a member lost between its `Outcome` and the
//! broadcast — panics in the launcher, which kills the pool before the
//! panic propagates; children also poll their parent pid while waiting. On
//! success, children finish their copy of the program and exit 0; a
//! reaper thread collects them.
//!
//! [`Hello`]: crate::frame::Hello
//! [`Roster`]: crate::rendezvous::Roster
//! [`EpochError`]: crate::world::EpochError

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::backend::CommBackend;
use crate::comm::Comm;
use crate::frame::{
    read_frame, write_frame, DecodeError, Frame, FrameKind, Hello, TIMEOUT_AT_BOUNDARY,
};
use crate::payload::{WirePayload, WireReader};
use crate::rendezvous::{self, Roster};
use crate::socket::{connect_deadline, SocketBackend, SocketListener};
use crate::stats::RankStats;
use crate::trace::{self, ArgVal, TraceEvent, TraceKind};
use crate::world::{
    panic_text, run_rank, trace_abort, EpochError, EpochFailure, RankOutcome, SimWorld,
};

/// Rank of a spawned worker process.
pub const RANK_ENV_VAR: &str = "DSK_RANK";
/// Rendezvous base: a directory for Unix-domain sockets.
pub const RENDEZVOUS_ENV_VAR: &str = "DSK_RENDEZVOUS";
/// Test name the pool serves (workers ignore socket worlds on other
/// threads).
pub const TEST_NAME_ENV_VAR: &str = "DSK_TEST_NAME";

/// How long ranks wait for the per-epoch rendezvous (covers child boot
/// plus the program's run-up to the epoch).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// Slack added to the receive watchdog for post-closure control waits.
const CONTROL_SLACK: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// Role detection
// ---------------------------------------------------------------------

/// A spawned worker's identity: its pool id, the rendezvous dir, the
/// thread it serves, and the verdicts it missed.
#[derive(Debug)]
struct ChildInfo {
    rank: usize,
    base: String,
    test_name: Option<String>,
    initial_ppid: u32,
    /// The verdicts of the epochs before this worker's spawn.
    missed: Vec<LogEntry>,
}

/// This process's worker identity; `None` in the launcher.
fn child() -> Option<&'static ChildInfo> {
    static CHILD: OnceLock<Option<ChildInfo>> = OnceLock::new();
    let info = CHILD.get_or_init(|| {
        let rank = std::env::var(RANK_ENV_VAR).ok()?;
        let rank = rank.parse().expect("DSK_RANK must be a rank number");
        let base = std::env::var(RENDEZVOUS_ENV_VAR).expect("DSK_RENDEZVOUS missing");
        Some(ChildInfo {
            missed: read_log(&pool_file(&base, rank, "log")),
            rank,
            base,
            test_name: std::env::var(TEST_NAME_ENV_VAR).ok(),
            initial_ppid: std::os::unix::process::parent_id(),
        })
    });
    info.as_ref()
}

/// Whether this process is a spawned socket worker (a `DSK_RANK` child)
/// rather than the process the user started. Benchmark mains use this
/// to skip report writing in workers.
pub fn is_worker_process() -> bool {
    child().is_some()
}

fn parent_died(info: &ChildInfo) -> Option<String> {
    let now = std::os::unix::process::parent_id();
    (now != info.initial_ppid).then(|| {
        format!(
            "launcher process exited (ppid {} → {now})",
            info.initial_ppid
        )
    })
}

/// Pool process `pool_id`'s file in the rendezvous dir: the socket it
/// listens on (`sock`), or the verdict log written for its spawn (`log`).
fn pool_file(base: &str, pool_id: usize, ext: &str) -> PathBuf {
    Path::new(base).join(format!("r{pool_id}.{ext}"))
}

// ---------------------------------------------------------------------
// Per-thread epoch counter, verdict log and pools
// ---------------------------------------------------------------------

/// One socket epoch as it ended: its roster and its verdict frame — an
/// `OutcomeSet` (trace events stripped), an `Abort`, or an `Error`
/// carrying the text of the launcher panic that ended the epoch.
type LogEntry = (Roster, Frame);

thread_local! {
    static EPOCH: Cell<u64> = const { Cell::new(0) };
    /// The launcher's verdict log: one entry per epoch of [`EPOCH`].
    /// Not in [`Pool`], because a rebuilt pool's workers need it whole.
    static LOG: RefCell<Vec<LogEntry>> = const { RefCell::new(Vec::new()) };
    static POOL: RefCell<Option<Pool>> = const { RefCell::new(None) };
    static CHILD_LISTENER: RefCell<Option<SocketListener>> = const { RefCell::new(None) };
}

fn next_epoch() -> u64 {
    EPOCH.with(|e| e.replace(e.get() + 1))
}

struct Pool {
    /// Live children as `(pool id, process)`, pool ids ascending.
    /// Pool id 0 is the launcher itself and never appears here. This
    /// is the only record of liveness: rosters are computed from it.
    children: Vec<(usize, Child)>,
    /// Children ever spawned: the last pool id handed out.
    spawned: usize,
    /// Rank 0's persistent rendezvous listener.
    listener: SocketListener,
    /// The rendezvous dir: a private temp dir, removed at drop.
    base: String,
}

impl Pool {
    fn kill_all(&mut self) {
        for (_, c) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.children.clear();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // No epoch rendezvouses here any more, so the dir goes now, not
        // after the children: the process may exit before they do.
        let _ = std::fs::remove_dir_all(&self.base);
        // Children finish their own copy of the program; reap them off
        // the test thread so a slow child never blocks completion.
        let children = std::mem::take(&mut self.children);
        if children.is_empty() {
            return;
        }
        let _ = std::thread::Builder::new()
            .name("dsk-pool-reaper".to_string())
            .spawn(move || {
                for (_, mut c) in children {
                    let _ = c.wait();
                }
            });
    }
}

/// Kill this thread's pool, if any; the next epoch builds a fresh one.
fn kill_pool() {
    if let Some(mut pool) = POOL.with(|pool| pool.borrow_mut().take()) {
        pool.kill_all();
    }
}

/// Spawn pool process `pool_id`, handing it the verdicts of every
/// epoch so far.
fn spawn_child(pool_id: usize, base: &str, test_name: Option<&str>) -> Child {
    let mut log = Vec::new();
    LOG.with(|entries| {
        for (roster, verdict) in entries.borrow().iter() {
            let roster = Frame::control(FrameKind::Roster, 0, roster.to_payload());
            write_frame(&mut log, &roster).expect("writing to a Vec");
            write_frame(&mut log, verdict).expect("writing to a Vec");
        }
    });
    let path = pool_file(base, pool_id, "log");
    std::fs::write(&path, log).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
    let exe = std::env::current_exe().expect("current_exe for socket worker spawn");
    let mut cmd = Command::new(exe);
    match test_name {
        Some(name) => {
            cmd.args([name, "--exact", "--test-threads=1", "--nocapture", "-q"]);
            cmd.env(TEST_NAME_ENV_VAR, name);
        }
        None => {
            cmd.args(std::env::args().skip(1));
        }
    }
    cmd.env(RANK_ENV_VAR, pool_id.to_string())
        .env(RENDEZVOUS_ENV_VAR, base)
        .stdin(Stdio::null())
        // Workers re-print the whole program's stdout; drop it. Stderr
        // stays inherited so panic backtraces reach the console.
        .stdout(Stdio::null());
    cmd.spawn().expect("spawn socket worker process")
}

/// A worker's missed verdicts, as [`spawn_child`] wrote them.
fn read_log(path: &Path) -> Vec<LogEntry> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"));
    let _ = std::fs::remove_file(path); // read once
    let mut r = bytes.as_slice();
    let mut frame = || read_frame(&mut r).unwrap_or_else(|e| panic!("bad frame in {path:?}: {e}"));
    let mut log = Vec::new();
    while let Some(roster) = frame() {
        let roster = Roster::from_payload(&roster.payload)
            .unwrap_or_else(|e| panic!("bad Roster in {path:?}: {e}"));
        log.push((roster, frame().expect("every logged roster has a verdict")));
    }
    log
}

/// The test this thread is running, as libtest names it — `None` when
/// not on a libtest test thread (examples, doctests, plain mains).
fn current_test_name() -> Option<String> {
    match std::thread::current().name() {
        Some("main") | None => None,
        Some(name) => Some(name.to_string()),
    }
}

// ---------------------------------------------------------------------
// Outcome encoding
// ---------------------------------------------------------------------

/// One rank's epoch outcome on the wire: encoded value, stats, and the
/// rank's drained trace events (empty when tracing is off — the trace
/// section rides the `Outcome` **control** frame, so it never enters
/// word accounting).
type OutcomeEntry = (Vec<u8>, RankStats, Vec<TraceEvent>);

fn encode_outcome(value_bytes: &[u8], stats: &RankStats, events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value_bytes.len() + 64);
    buf.extend_from_slice(&(value_bytes.len() as u64).to_le_bytes());
    buf.extend_from_slice(value_bytes);
    stats.encode(&mut buf);
    trace::encode_events(events, &mut buf);
    buf
}

fn decode_outcome(bytes: &[u8]) -> OutcomeEntry {
    let mut r = WireReader::new(bytes);
    let n = r.read_len();
    let value = r.bytes(n).to_vec();
    let stats = RankStats::decode(&mut r);
    let events = trace::decode_events(&mut r);
    assert!(r.is_empty(), "trailing bytes in outcome frame");
    (value, stats, events)
}

fn encode_outcome_set(entries: &[OutcomeEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (value, stats, events) in entries {
        let one = encode_outcome(value, stats, events);
        buf.extend_from_slice(&(one.len() as u64).to_le_bytes());
        buf.extend_from_slice(&one);
    }
    buf
}

fn decode_outcome_set(bytes: &[u8]) -> Vec<OutcomeEntry> {
    let mut r = WireReader::new(bytes);
    // Each entry opens with its own 8-byte length.
    let n = r.read_count(8);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.read_len();
        let one = r.bytes(len);
        out.push(decode_outcome(one));
    }
    assert!(r.is_empty(), "trailing bytes in outcome set");
    out
}

// ---------------------------------------------------------------------
// Handshake helpers
// ---------------------------------------------------------------------

fn send_hello(stream: &mut UnixStream, hello: Hello) -> Result<(), String> {
    write_frame(
        stream,
        &Frame::control(FrameKind::Hello, hello.rank as usize, hello.to_payload()),
    )
    .map(|_| ())
    .map_err(|e| format!("sending Hello: {e}"))
}

/// Read one control frame of kind `kind` before `deadline` and return
/// its payload.
fn read_control(
    stream: &mut UnixStream,
    kind: FrameKind,
    deadline: Instant,
) -> Result<Vec<u8>, String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    stream
        .set_read_timeout(Some(remaining.max(Duration::from_millis(10))))
        .map_err(|e| format!("setting handshake timeout: {e}"))?;
    let frame = read_frame(stream)
        .map_err(|e| format!("reading {kind:?}: {e}"))?
        .ok_or_else(|| format!("peer closed during handshake (awaiting {kind:?})"))?;
    if frame.kind != kind {
        return Err(format!("expected {kind:?}, got {:?}", frame.kind));
    }
    Ok(frame.payload)
}

fn validate_hello(hello: &Hello, epoch: u64, n: usize) -> Result<(), String> {
    rendezvous::validate_peer(hello).map_err(|e| e.to_string())?;
    if hello.epoch != epoch || hello.world_size as usize != n {
        return Err(format!(
            "rank {} is at epoch {} of a {}-rank world, this is epoch {epoch} of {n} \
             ranks — the SPMD program diverged across processes",
            hello.rank, hello.epoch, hello.world_size
        ));
    }
    Ok(())
}

/// Decode an `Abort` payload into the epoch's failure. Every surviving
/// process derives the identical [`EpochError`] from the identical
/// payload and the roster it ran under. `rank`/`cause` are this
/// process's own view of the root cause (the error's detail when it
/// has none).
fn failure_from_abort(
    payload: &[u8],
    roster: &Roster,
    rank: Option<usize>,
    cause: Option<String>,
) -> EpochFailure {
    let abort =
        Roster::from_payload(payload).unwrap_or_else(|e| panic!("undecodable Abort payload: {e}"));
    let dead_pool: Vec<usize> = abort.members.iter().map(|&m| m as usize).collect();
    // Dead pool ids → world ranks of the aborted epoch (observers that
    // died have no world rank).
    let dead: Vec<usize> = dead_pool
        .iter()
        .filter_map(|d| roster.members.iter().position(|&m| m as usize == *d))
        .collect();
    let detail = if dead_pool.is_empty() {
        "a rank failed without dying (see its stderr for the panic)".to_string()
    } else {
        format!("pool process(es) {dead_pool:?} died mid-epoch")
    };
    EpochFailure {
        cause: cause.unwrap_or_else(|| detail.clone()),
        rank,
        error: EpochError {
            epoch: abort.epoch,
            dead,
            detail,
        },
        pooled: true,
    }
}

/// Decode an epoch's verdict frame into the epoch's result — the one
/// decode that members, observers and a grown worker's missed epochs
/// share. `cause` is this process's own view of a failure's root cause.
/// A logged `Error` is the launcher's panic, raised again.
fn decode_verdict<T: WirePayload>(
    verdict: &Frame,
    roster: &Roster,
    cause: Option<String>,
) -> Result<Vec<RankOutcome<T>>, EpochFailure> {
    match verdict.kind {
        FrameKind::OutcomeSet => Ok(decode_outcome_set(&verdict.payload)
            .into_iter()
            .enumerate()
            .map(|(rank, (value, stats, _events))| RankOutcome {
                rank,
                value: T::from_wire(&value),
                stats,
            })
            .collect()),
        FrameKind::Abort => Err(failure_from_abort(&verdict.payload, roster, None, cause)),
        FrameKind::Error => panic!("{}", String::from_utf8_lossy(&verdict.payload)),
        kind => panic!("expected an epoch verdict, got {kind:?}"),
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Run one socket-backed epoch in this process's role. Called by
/// [`SimWorld::run`] and [`SimWorld::try_run`] whenever the backend
/// kind is `Socket`; see the module docs for the protocol.
pub(crate) fn socket_epoch<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
) -> Result<Vec<RankOutcome<T>>, EpochFailure>
where
    T: WirePayload,
{
    let epoch = next_epoch();
    let Some(info) = child() else {
        return run_logged(world, f, epoch);
    };
    if !on_live_thread(info) {
        child_fail(
            None,
            format!(
                "rank {}: socket epoch {epoch} ran off this worker's live thread ({}) — a \
                 worker runs socket epochs only there, and holds no verdict for others",
                info.rank,
                info.test_name.as_deref().unwrap_or("main"),
            ),
        );
    }
    match info.missed.get(epoch as usize) {
        // An epoch before this worker's spawn: its logged verdict, with
        // no pool of this process's to tear down.
        Some((roster, verdict)) => {
            decode_verdict(verdict, roster, None).map_err(|e| EpochFailure { pooled: false, ..e })
        }
        None => run_as_worker(world, f, epoch, info),
    }
}

/// The launcher's epoch, logged: [`run_rank0_epoch`] logs the verdict it
/// delivers. An epoch that unwinds instead kills the pool, so a failing
/// test never leaves worker processes behind, and is logged as its
/// panic's text (under a roster of no members: a replay needs none).
fn run_logged<T: WirePayload>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    epoch: u64,
) -> Result<Vec<RankOutcome<T>>, EpochFailure> {
    let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_as_launcher(world, f, epoch)
    }));
    let logged = || LOG.with(|log| log.borrow().len() as u64);
    if let Err(p) = &ended {
        kill_pool();
        if logged() == epoch {
            let text = panic_text(&**p).into_bytes();
            let verdict = Frame::control(FrameKind::Error, 0, text);
            log_verdict(&rendezvous::roster_for(epoch, &[], 0), verdict);
        }
    }
    assert_eq!(logged(), epoch + 1, "one logged verdict per epoch");
    ended.unwrap_or_else(|p| std::panic::resume_unwind(p))
}

fn log_verdict(roster: &Roster, verdict: Frame) {
    LOG.with(|log| log.borrow_mut().push((roster.clone(), verdict)));
}

/// [`SimWorld::run`]'s teardown after a failed pooled epoch: the
/// launcher kills its pool, a worker dies with the cause on stderr.
pub(crate) fn teardown(cause: &str) {
    if child().is_some() {
        child_fail(None, cause.to_string());
    }
    kill_pool();
}

fn on_live_thread(info: &ChildInfo) -> bool {
    match (&info.test_name, current_test_name()) {
        (Some(want), Some(have)) => *want == have,
        (Some(_), None) => false,
        (None, have) => have.is_none(),
    }
}

/// Send a control frame, reporting a dead writer instead of panicking.
fn try_control(
    backend: &SocketBackend,
    dst: usize,
    kind: FrameKind,
    payload: Vec<u8>,
) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        backend.send_control(dst, kind, payload);
    }))
    .map_err(|p| panic_text(&*p))
}

/// The drain protocol every rank runs after its closure: `Bye` to every
/// peer, wait for every peer's `Bye` (all data of the epoch is then in
/// local mailboxes), and require that nothing is left unreceived.
fn drain_epoch(backend: &SocketBackend, deadline: Instant) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.bye_all()))
        .map_err(|p| panic_text(&*p))?;
    backend.wait_byes(deadline)?;
    match backend.pending_messages() {
        0 => Ok(()),
        leaked => Err(format!(
            "{leaked} message(s) were sent but never received — protocol bug"
        )),
    }
}

// ---------------------------------------------------------------------
// Launcher (rank 0)
// ---------------------------------------------------------------------

/// Build or grow the pool for an epoch of `n` ranks. Returns `None`
/// when no pool exists (single-rank world: peerless backend).
fn ensure_pool(pool_slot: &mut Option<Pool>, n: usize) -> Option<&mut Pool> {
    if pool_slot.is_none() && n > 1 {
        static POOL_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = POOL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dsk-sock-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create rendezvous dir");
        let base = dir.to_str().expect("rendezvous dir is UTF-8").to_string();
        let listener =
            SocketListener::bind(&pool_file(&base, 0, "sock")).expect("bind rank 0 listener");
        *pool_slot = Some(Pool {
            children: Vec::new(),
            spawned: 0,
            listener,
            base,
        });
    }
    let pool = pool_slot.as_mut()?;
    // Fill the pool up to the world: a new worker reads the verdicts of
    // the earlier epochs and joins live here.
    let test_name = current_test_name();
    while pool.children.len() + 1 < n {
        pool.spawned += 1;
        let id = pool.spawned;
        let child = spawn_child(id, &pool.base, test_name.as_deref());
        pool.children.push((id, child));
    }
    Some(pool)
}

/// Accept one connection on `listener` before `deadline` and return its
/// validated [`Hello`] with the stream. Accepts run in 200 ms slices;
/// between slices `idle` may name a reason to stop waiting (a worker
/// that exited, a launcher that is gone).
fn accept_hello(
    listener: &SocketListener,
    epoch: u64,
    n: usize,
    deadline: Instant,
    mut idle: impl FnMut() -> Option<String>,
) -> Result<(Hello, UnixStream), String> {
    loop {
        let slice = (Instant::now() + Duration::from_millis(200)).min(deadline);
        match listener.accept_deadline(slice) {
            Ok(mut stream) => {
                let hello = read_control(&mut stream, FrameKind::Hello, deadline)?;
                let hello = Hello::from_payload(&hello).map_err(|e| format!("bad Hello: {e}"))?;
                validate_hello(&hello, epoch, n)?;
                return Ok((hello, stream));
            }
            Err(e) => {
                if let Some(why) = idle() {
                    return Err(why);
                }
                if Instant::now() >= deadline {
                    return Err(e);
                }
            }
        }
    }
}

/// Observer streams, tagged with their pool ids.
type Observers = Vec<(usize, UnixStream)>;

/// The coordinator's half of the rendezvous: accept a Hello from every
/// live pool worker, validate it (protocol version, epoch, world
/// size, pool id), echo the epoch [`Roster`] — which alone tells each
/// worker its role — and hand back the assembled member backend plus
/// the observer streams (tagged with their pool ids).
fn launcher_rendezvous(
    pool: &mut Pool,
    world: &SimWorld,
    epoch: u64,
    roster: &Roster,
) -> Result<(Arc<SocketBackend>, Observers), String> {
    let n = world.nranks();
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let roster_frame = Frame::control(FrameKind::Roster, 0, roster.to_payload());

    let mut member_streams: Vec<Option<UnixStream>> = (0..n).map(|_| None).collect();
    let mut observers: Observers = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    while seen.len() < pool.children.len() {
        let (hello, mut stream) = accept_hello(&pool.listener, epoch, n, deadline, || {
            pool.children
                .iter_mut()
                .filter(|(id, _)| !seen.contains(id))
                .find_map(|(id, c)| {
                    let status = c.try_wait().ok()??;
                    Some(format!(
                        "rank {id} exited during rendezvous ({status}) — \
                         worker process failed before joining epoch {epoch}"
                    ))
                })
        })?;
        let r = hello.rank as usize;
        if seen.contains(&r) || !pool.children.iter().any(|(id, _)| *id == r) {
            return Err(format!("unexpected Hello from rank {r}"));
        }
        // The stream is idle: the worker reads the echo before doing
        // anything else.
        write_frame(&mut stream, &roster_frame)
            .map_err(|e| format!("sending Roster to rank {r}: {e}"))?;
        seen.insert(r);
        match roster.members.iter().position(|&m| m as usize == r) {
            Some(w) => member_streams[w] = Some(stream),
            None => observers.push((r, stream)),
        }
    }
    let backend = SocketBackend::assemble(0, n, world.recv_timeout_raw(), member_streams)
        .map_err(|e| format!("assembling the launcher backend: {e}"))?;
    Ok((backend, observers))
}

fn run_as_launcher<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    epoch: u64,
) -> Result<Vec<RankOutcome<T>>, EpochFailure>
where
    T: WirePayload,
{
    let n = world.nranks();
    POOL.with(|pool_cell| {
        let mut pool_slot = pool_cell.borrow_mut();
        let Some(pool) = ensure_pool(&mut pool_slot, n) else {
            // Single-rank world with no pool: a peerless socket backend
            // whose lone rank is the coordinator.
            trace::install_and_sync(0);
            let backend = SocketBackend::assemble(0, 1, world.recv_timeout_raw(), vec![None])
                .expect("assemble peerless socket backend");
            let roster = rendezvous::roster_for(epoch, &[0], 1);
            return run_rank0_epoch(world, f, backend, Vec::new(), &mut Vec::new(), &roster);
        };
        let mut live = vec![0usize];
        live.extend(pool.children.iter().map(|(id, _)| *id));
        let roster = rendezvous::roster_for(epoch, &live, n);
        let rdv_start = Instant::now();
        let (backend, observers) = launcher_rendezvous(pool, world, epoch, &roster)
            .unwrap_or_else(|e| panic!("socket rendezvous failed: {e}"));
        trace_rendezvous(0, epoch, n, rdv_start);
        // Both outcomes are *handled* — the pool survives an abort.
        run_rank0_epoch(world, f, backend, observers, &mut pool.children, &roster)
    })
}

/// Rank 0's epoch body: run the closure, drain, collect member
/// outcomes, and deliver the verdict. A clean epoch broadcasts the
/// outcome set (members via the backend, observers directly); any
/// failure enters the abort protocol instead — collect a check-in from
/// every member, broadcast the dead pool ids, shrink `children`, and
/// return the shared [`EpochError`]. A failure the protocol cannot end
/// consistently panics, and [`run_logged`] kills the pool.
fn run_rank0_epoch<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    backend: Arc<SocketBackend>,
    mut observers: Observers,
    children: &mut Vec<(usize, Child)>,
    roster: &Roster,
) -> Result<Vec<RankOutcome<T>>, EpochFailure>
where
    T: WirePayload,
{
    let n = world.nranks();
    let run = run_rank(
        Arc::clone(&backend) as Arc<dyn CommBackend>,
        *world.model(),
        0,
        f,
    );
    let control_deadline = Instant::now() + world.recv_timeout_raw() + CONTROL_SLACK;
    let closure_failed = run.result.is_err();
    let collected = run.result.and_then(|value| {
        drain_epoch(&backend, control_deadline)?;
        Ok((value, backend.wait_outcomes(control_deadline)?))
    });

    let root_cause = match collected {
        Err(msg) => msg,
        Ok((value, member_outcomes)) => {
            let mut entries: Vec<OutcomeEntry> = Vec::with_capacity(n);
            entries.push((value.to_wire(), run.stats.clone(), trace::drain()));
            for bytes in member_outcomes.into_iter().skip(1) {
                entries.push(decode_outcome(&bytes));
            }
            // One serialized broadcast buffer serves members and
            // observers. Synchronous writes: a short-lived launcher main
            // must not exit before the broadcast bytes reach the sockets
            // (the per-peer writers are idle here — their Byes flushed
            // before any Outcome could have arrived).
            let mut set_frame =
                Frame::control(FrameKind::OutcomeSet, 0, encode_outcome_set(&entries));
            let set_frame_bytes = set_frame.to_bytes();
            for r in 1..n {
                if let Err(e) = backend.write_frame_bytes_sync(r, &set_frame_bytes) {
                    // A member died *after* reporting its outcome: some
                    // of its peers may already hold the broadcast, so an
                    // abort would split the survivors' control flow.
                    panic!("broadcasting outcomes to rank {r} failed: {e}");
                }
            }
            for (_, obs) in &mut observers {
                // A dead observer cannot split the members' control flow;
                // its exit is caught at the next rendezvous.
                let _ = obs.write_all(&set_frame_bytes);
            }
            backend.mark_finished();
            let events: Vec<Vec<TraceEvent>> = entries
                .iter_mut()
                .map(|e| std::mem::take(&mut e.2))
                .collect();
            if events.iter().any(|e| !e.is_empty()) {
                // The log keeps the verdict without its trace events.
                set_frame.payload = encode_outcome_set(&entries);
            }
            log_verdict(roster, set_frame);
            trace::gather_epoch(events);
            // Rank 0 keeps its own typed value; members' values decode
            // from their outcome bytes.
            let mut out = Vec::with_capacity(n);
            out.push(RankOutcome {
                rank: 0,
                value,
                stats: run.stats,
            });
            for (rank, (bytes, stats, _)) in entries.iter().enumerate().skip(1) {
                out.push(RankOutcome {
                    rank,
                    value: T::from_wire(bytes),
                    stats: stats.clone(),
                });
            }
            return Ok(out);
        }
    };

    // ----- Abort protocol -----
    // Pin the root cause before the nudge below draws collateral Error
    // frames: a member's reported panic outranks whatever it made rank 0
    // fail with, then rank 0's own panic, then a protocol-level failure
    // with no single culprit.
    let (culprit, cause) = match backend.first_error() {
        Some((rank, msg)) => (Some(rank), msg),
        None => (closure_failed.then_some(0), root_cause.clone()),
    };
    // Nudge survivors blocked in data receives: an Error frame poisons
    // their mailbox, so they fail over to their own abort path fast
    // instead of waiting out the watchdog.
    let nudge = format!("epoch aborted: {root_cause}").into_bytes();
    for w in 1..n {
        let _ = try_control(&backend, w, FrameKind::Error, nudge.clone());
    }

    // Collect a verdict for every member world rank: an Outcome or
    // Error frame (alive, past its epoch body) or its process's exit
    // status (dead). Unaccounted members past the deadline mean the
    // abort cannot complete consistently.
    let mut dead_pool_ids: BTreeSet<usize> = BTreeSet::new();
    loop {
        for (id, c) in children.iter_mut() {
            if let Ok(Some(_)) = c.try_wait() {
                dead_pool_ids.insert(*id);
            }
        }
        let checkin = backend.member_checkin();
        let covered =
            (1..n).all(|w| checkin[w] || dead_pool_ids.contains(&(roster.members[w] as usize)));
        if covered {
            break;
        }
        if Instant::now() >= control_deadline {
            panic!(
                "epoch abort failed: surviving member(s) stayed unresponsive after a \
                 mid-epoch failure: {root_cause}"
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Broadcast the verdict: the dead pool ids, Roster-encoded. Members
    // get it through their writer threads; observer streams are
    // launcher-owned and idle, so a direct write is safe.
    let abort_payload = Roster {
        epoch: roster.epoch,
        members: dead_pool_ids.iter().map(|&id| id as u32).collect(),
    }
    .to_payload();
    let abort_frame = Frame::control(FrameKind::Abort, 0, abort_payload.clone());
    let abort_frame_bytes = abort_frame.to_bytes();
    for w in 1..n {
        if !dead_pool_ids.contains(&(roster.members[w] as usize)) {
            let _ = try_control(&backend, w, FrameKind::Abort, abort_payload.clone());
        }
    }
    for (id, obs) in &mut observers {
        if !dead_pool_ids.contains(id) {
            let _ = obs.write_all(&abort_frame_bytes);
        }
    }
    backend.mark_finished();
    log_verdict(roster, abort_frame);

    // Rank 0's own timeline still reaches the trace file: survivors'
    // buffers cannot ride Outcome frames through an abort (under the
    // in-memory backends they do survive — see `SimWorld::epoch`).
    trace_abort(&root_cause);
    trace::gather_epoch(vec![trace::drain()]);

    // Shrink the pool: the dead children are already reaped (try_wait
    // returned their status) — drop their handles.
    children.retain(|(id, _)| !dead_pool_ids.contains(id));
    Err(failure_from_abort(
        &abort_payload,
        roster,
        culprit,
        Some(cause),
    ))
}

// ---------------------------------------------------------------------
// Worker processes
// ---------------------------------------------------------------------

fn child_fail(backend: Option<&SocketBackend>, msg: String) -> ! {
    if let Some(b) = backend {
        // Best-effort: route the root cause to rank 0, give the writer
        // thread a moment to flush, then die non-zero.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.send_control(0, FrameKind::Error, msg.clone().into_bytes());
        }));
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = writeln!(std::io::stderr(), "socket worker failed: {msg}");
    std::process::exit(101);
}

/// The seat the coordinator's roster echo gives a worker for one epoch.
enum Seat {
    /// World rank `w` of the roster, meshed with the other members.
    Member(Arc<SocketBackend>, usize),
    /// Not on the roster: only the coordinator stream, for the verdict.
    Observer(UnixStream),
}

/// A worker's half of the rendezvous: bind this pool id's listener,
/// dial the coordinator with the pool id, and take the echoed
/// [`Roster`] as the epoch's roster. A member then meshes with the
/// other members (world-rank Hellos) and assembles its backend.
fn worker_rendezvous(
    world: &SimWorld,
    epoch: u64,
    info: &ChildInfo,
) -> Result<(Seat, Roster), String> {
    let n = world.nranks();
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let abort = || parent_died(info);
    CHILD_LISTENER.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let ep = pool_file(&info.base, info.rank, "sock");
            *slot = Some(SocketListener::bind(&ep).map_err(|e| format!("binding {ep:?}: {e}"))?);
        }
        let listener = slot.as_ref().expect("the listener is bound above");

        let mut s0 = connect_deadline(&pool_file(&info.base, 0, "sock"), deadline, &abort)?;
        send_hello(
            &mut s0,
            rendezvous::local_hello(info.rank as u32, n as u32, epoch),
        )?;
        let roster = read_control(&mut s0, FrameKind::Roster, deadline)?;
        let roster = Roster::from_payload(&roster).map_err(|e| format!("bad Roster: {e}"))?;
        if roster.epoch != epoch || roster.members.len() != n {
            return Err(format!(
                "the coordinator sent a {}-member roster for epoch {}, expected {n} members \
                 at epoch {epoch}",
                roster.members.len(),
                roster.epoch
            ));
        }
        let Some(w) = roster.members.iter().position(|&m| m as usize == info.rank) else {
            return Ok((Seat::Observer(s0), roster));
        };

        // Mesh: dial every lower member at its pool id's endpoint with
        // a world-rank Hello, then accept every higher member. Backlog
        // queues make the order safe.
        let mut streams: Vec<Option<UnixStream>> = (0..n).map(|_| None).collect();
        streams[0] = Some(s0);
        for peer_w in 1..w {
            let ep = pool_file(&info.base, roster.members[peer_w] as usize, "sock");
            let mut s = connect_deadline(&ep, deadline, &abort)?;
            send_hello(&mut s, rendezvous::local_hello(w as u32, n as u32, epoch))?;
            streams[peer_w] = Some(s);
        }
        for _ in w + 1..n {
            let (hello, stream) = accept_hello(listener, epoch, n, deadline, abort)?;
            let r = hello.rank as usize;
            if r <= w || r >= n || streams[r].is_some() {
                return Err(format!("unexpected Hello from rank {r}"));
            }
            streams[r] = Some(stream);
        }
        let backend = SocketBackend::assemble(w, n, world.recv_timeout_raw(), streams)
            .map_err(|e| format!("assembling the worker backend: {e}"))?;
        Ok((Seat::Member(backend, w), roster))
    })
}

/// A worker's epoch: rendezvous, then the member body or the observer
/// wait, as the roster echo decides.
fn run_as_worker<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    epoch: u64,
    info: &ChildInfo,
) -> Result<Vec<RankOutcome<T>>, EpochFailure>
where
    T: WirePayload,
{
    let rdv_start = Instant::now();
    let (seat, roster) = worker_rendezvous(world, epoch, info)
        .unwrap_or_else(|e| child_fail(None, format!("rank {}: {e}", info.rank)));
    match seat {
        Seat::Member(backend, w) => {
            trace_rendezvous(w, epoch, world.nranks(), rdv_start);
            run_as_member(world, f, backend, w, &roster)
        }
        Seat::Observer(stream) => run_as_observer(world, info, stream, &roster),
    }
}

/// Start a rank's per-epoch recorder: the rendezvous that just
/// completed becomes the epoch's first span (its timestamp is negative
/// — before the clock anchor), and the [`trace::SYNC_EVENT`] mark at
/// rendezvous-complete is what the launcher aligns all ranks' clocks
/// on.
fn trace_rendezvous(world_rank: usize, epoch: u64, n: usize, rdv_start: Instant) {
    trace::install(world_rank);
    trace::complete(TraceKind::Epoch, "epoch.rendezvous", rdv_start, || {
        vec![
            ("epoch".to_string(), ArgVal::Num(epoch as f64)),
            ("ranks".to_string(), ArgVal::Num(n as f64)),
        ]
    });
    trace::sync();
}

/// A member's epoch body: closure, drain, `Outcome` to rank 0. Any
/// local failure is reported to the coordinator instead, and both paths
/// converge on [`SocketBackend::wait_verdict`] — the epoch ends in the
/// identical `Ok(outcomes)` or [`EpochError`] on every surviving
/// process.
fn run_as_member<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    backend: Arc<SocketBackend>,
    me: usize,
    roster: &Roster,
) -> Result<Vec<RankOutcome<T>>, EpochFailure>
where
    T: WirePayload,
{
    let run = run_rank(
        Arc::clone(&backend) as Arc<dyn CommBackend>,
        *world.model(),
        me,
        f,
    );
    let my_trace = trace::drain();
    let control_deadline = Instant::now() + world.recv_timeout_raw() + CONTROL_SLACK;
    let reported = run.result.and_then(|value| {
        drain_epoch(&backend, control_deadline)?;
        let outcome = encode_outcome(&value.to_wire(), &run.stats, &my_trace);
        try_control(&backend, 0, FrameKind::Outcome, outcome)
    });
    if let Err(msg) = &reported {
        // Report the root cause; the coordinator counts this as our
        // check-in and will answer with the verdict.
        let _ = try_control(&backend, 0, FrameKind::Error, msg.clone().into_bytes());
    }
    let verdict = backend
        .wait_verdict(control_deadline)
        .unwrap_or_else(|e| child_fail(Some(backend.as_ref()), format!("rank {me}: {e}")));
    if let (FrameKind::OutcomeSet, Err(msg)) = (verdict.kind, &reported) {
        // The coordinator declared success but this rank failed — the
        // abort machinery diverged; contain loudly.
        child_fail(
            Some(backend.as_ref()),
            format!("rank {me}: epoch verdict disagreement after local failure: {msg}"),
        );
    }
    backend.mark_finished();
    decode_verdict(&verdict, roster, reported.err())
}

/// An observer's epoch: wait (bounded) on the coordinator stream for
/// the verdict of the epoch the members run, polling parent health. An
/// `Abort` names dead pool ids; the roster maps them to world ranks.
fn run_as_observer<T: WirePayload>(
    world: &SimWorld,
    info: &ChildInfo,
    mut stream: UnixStream,
    roster: &Roster,
) -> Result<Vec<RankOutcome<T>>, EpochFailure> {
    let wait_deadline = Instant::now() + world.recv_timeout_raw() + HANDSHAKE_TIMEOUT;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let failure = loop {
        if let Some(why) = parent_died(info) {
            break why;
        }
        match read_frame(&mut stream) {
            Ok(Some(frame)) if matches!(frame.kind, FrameKind::OutcomeSet | FrameKind::Abort) => {
                return decode_verdict(&frame, roster, None);
            }
            Ok(Some(frame)) => break format!("expected an epoch verdict, got {:?}", frame.kind),
            Ok(None) => break "launcher closed before the epoch verdict".to_string(),
            Err(DecodeError::Io(e)) if e.contains(TIMEOUT_AT_BOUNDARY) => {
                if Instant::now() >= wait_deadline {
                    break "timed out awaiting the epoch verdict".to_string();
                }
            }
            Err(e) => break e.to_string(),
        }
    };
    child_fail(None, format!("rank {}: {failure}", info.rank))
}
