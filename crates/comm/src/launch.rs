//! The process launcher: how a [`SimWorld`] with
//! [`BackendKind::Socket`](crate::BackendKind) turns ranks into real OS
//! processes.
//!
//! # The SPMD re-exec model
//!
//! A socket world cannot hand a Rust closure to another process, so the
//! launcher re-runs the *program*: rank 0 (the launcher — the process
//! the user started) spawns the current executable once per additional
//! rank, with `DSK_RANK`, `DSK_SPAWN_EPOCH`, and `DSK_RENDEZVOUS` in
//! the environment. Inside a `cargo test` binary the child re-runs
//! exactly the current test (libtest names each test's thread after the
//! test, so the launcher passes `<name> --exact --test-threads=1`);
//! plain binaries (examples, benches) are re-run with their original
//! arguments. Every process therefore executes the *same deterministic
//! program*, and each `SimWorld::run` / `try_run` call on a socket
//! backend is one **epoch** of that program:
//!
//! * the launcher and all pool processes count socket-backed epochs on
//!   their test thread; the counter is the epoch id;
//! * a child joins live epochs at `DSK_SPAWN_EPOCH` and replays any
//!   earlier socket epochs on the in-process backend (word accounting
//!   is backend-invariant, so the replay reproduces the same values —
//!   and, for an epoch that failed, the same `Ok`/`Err` control flow
//!   and dead world ranks, though the textual detail may differ);
//! * at each epoch every pool process **rendezvouses** with the
//!   coordinator: it dials in with its pool id and reads back the
//!   epoch's [`Roster`] — see [`crate::rendezvous`] for the handshake
//!   (protocol-version validation with a typed rejection). The echo
//!   *is* the roster: a worker whose pool id sits at position `w` is
//!   world rank `w`, and a worker whose pool id is absent (worlds may
//!   shrink between epochs) is an *observer* that skips the closure
//!   and awaits the epoch's verdict on the same stream;
//! * members mesh up pairwise (every worker binds a Unix-domain
//!   listener at `<base>/r<pool_id>.sock` in the launcher's private
//!   temp dir, and dials every lower world rank), validating a
//!   [`Hello`] (world rank, world size, epoch) on every connection, so
//!   diverged or stale processes fail loudly instead of corrupting the
//!   mesh.
//!
//! # The epoch protocol
//!
//! There is one protocol, with one body per role (launcher, rank-0
//! epoch, member, observer). After its closure every rank runs the
//! drain protocol (`Bye` to every peer, wait for every peer's `Bye`,
//! then require an empty mailbox), members send their encoded value +
//! [`RankStats`] to rank 0 in an `Outcome` frame, and every process
//! then waits for rank 0's **verdict**:
//!
//! * `OutcomeSet` — the epoch completed. Rank 0 broadcasts the full
//!   outcome set and **every process returns the identical
//!   `Vec<RankOutcome<T>>`**, keeping the SPMD program in lockstep for
//!   the next epoch. This is why socket worlds require
//!   `T: WirePayload`: results genuinely cross process boundaries.
//! * `Abort` — a rank failed. Any local failure (a panic in the
//!   closure, a poisoned receive, a leaked message) is reported to
//!   rank 0 in an `Error` frame; rank 0 nudges members that are still
//!   blocked, collects a check-in from every member (an `Outcome`, an
//!   `Error`, or the member's process exit), and broadcasts an `Abort`
//!   frame naming the dead **pool ids**. Every surviving process
//!   derives the identical [`EpochError`] from it.
//!
//! What the caller does with a failed epoch is the only difference
//! between the two entry points. [`SimWorld::try_run`] returns the
//! `EpochError` and the pool survives: the coordinator drops the dead
//! children from its pool, so the next epoch's roster
//! ([`crate::rendezvous::roster_for`] over the live pool ids) omits
//! them, and every worker learns its new seat from the echo. Liveness
//! is tracked in the coordinator's pool alone; no worker keeps a dead
//! set or computes a roster. [`SimWorld::run`] is the same epoch
//! plus teardown: the launcher kills the whole pool and panics with the
//! root cause as `rank N panicked: …`, matching the in-memory backends'
//! diagnostics, and a worker exits non-zero — no orphaned processes.
//!
//! Two hard limitations are enforced rather than half-supported: the
//! coordinator itself (pool id 0 = world rank 0) is not expendable —
//! its death kills the pool; and the pool cannot **grow** after a
//! death, because a freshly spawned worker would have to replay the
//! failed epoch in-process, which is not reproducible (a worker that
//! died via `process::exit` would kill the replayer). Restart the
//! program to rebuild a full pool.
//!
//! # Failure containment
//!
//! A child that dies silently triggers mailbox poison at every peer
//! (milliseconds, not the 300 s watchdog). A failure the protocol
//! cannot end consistently — a failed rendezvous, members that stay
//! unresponsive through an abort, a member lost between its `Outcome`
//! and the broadcast — panics in the launcher, and an epoch guard
//! kills the whole pool before the panic propagates; children
//! additionally poll their parent pid while waiting. On success,
//! children simply finish their copy of the program and exit 0; a
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
use crate::socket::{connect_deadline, EpochVerdict, SocketBackend, SocketListener};
use crate::stats::RankStats;
use crate::trace::{self, ArgVal, TraceEvent, TraceKind};
use crate::world::{
    panic_text, run_rank, trace_abort, EpochError, EpochFailure, RankOutcome, SimWorld,
};
use crate::BackendKind;
/// Rank of a spawned worker process.
pub const RANK_ENV_VAR: &str = "DSK_RANK";
/// First epoch a spawned worker joins live (earlier socket epochs
/// replay in-process).
pub const SPAWN_EPOCH_ENV_VAR: &str = "DSK_SPAWN_EPOCH";
/// Rendezvous base: a directory for Unix-domain sockets.
pub const RENDEZVOUS_ENV_VAR: &str = "DSK_RENDEZVOUS";
/// Test name the pool serves (workers ignore socket worlds on other
/// threads).
pub const TEST_NAME_ENV_VAR: &str = "DSK_TEST_NAME";

/// How long ranks wait for the per-epoch rendezvous (covers child boot
/// plus replay of earlier epochs).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// Slack added to the receive watchdog for post-closure control waits.
const CONTROL_SLACK: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// Role detection
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ChildInfo {
    rank: usize,
    spawn_epoch: u64,
    base: String,
    test_name: Option<String>,
    initial_ppid: u32,
}

#[derive(Debug, Clone)]
enum Role {
    Launcher,
    Child(ChildInfo),
}

fn role() -> &'static Role {
    static ROLE: OnceLock<Role> = OnceLock::new();
    ROLE.get_or_init(|| match std::env::var(RANK_ENV_VAR) {
        Err(_) => Role::Launcher,
        Ok(r) => Role::Child(ChildInfo {
            rank: r.parse().expect("DSK_RANK must be a rank number"),
            spawn_epoch: std::env::var(SPAWN_EPOCH_ENV_VAR)
                .expect("DSK_SPAWN_EPOCH missing")
                .parse()
                .expect("DSK_SPAWN_EPOCH must be an epoch number"),
            base: std::env::var(RENDEZVOUS_ENV_VAR).expect("DSK_RENDEZVOUS missing"),
            test_name: std::env::var(TEST_NAME_ENV_VAR).ok(),
            initial_ppid: std::os::unix::process::parent_id(),
        }),
    })
}

/// Whether this process is a spawned socket worker (a `DSK_RANK` child)
/// rather than the process the user started. Benchmark mains use this
/// to skip report writing in workers.
pub fn is_worker_process() -> bool {
    matches!(role(), Role::Child(_))
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

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

/// The socket pool process `pool_id` listens on.
fn endpoint_for(base: &str, pool_id: usize) -> PathBuf {
    Path::new(base).join(format!("r{pool_id}.sock"))
}

// ---------------------------------------------------------------------
// Per-thread epoch counter and pools
// ---------------------------------------------------------------------

thread_local! {
    static EPOCH: Cell<u64> = const { Cell::new(0) };
    static POOL: RefCell<Option<Pool>> = const { RefCell::new(None) };
    static CHILD_LISTENER: RefCell<Option<SocketListener>> = const { RefCell::new(None) };
}

fn next_epoch() -> u64 {
    EPOCH.with(|e| {
        let cur = e.get();
        e.set(cur + 1);
        cur
    })
}

struct Pool {
    /// Live children as `(pool id, process)`, pool ids ascending.
    /// Pool id 0 is the launcher itself and never appears here. This
    /// is the only record of liveness: rosters are computed from it.
    children: Vec<(usize, Child)>,
    /// Children ever spawned; `children.len() < spawned` exactly when
    /// one of them died.
    spawned: usize,
    /// Rank 0's persistent rendezvous listener.
    listener: SocketListener,
    /// The rendezvous dir: a private temp dir, removed at drop.
    base: String,
    dead: bool,
}

impl Pool {
    fn kill_all(&mut self) {
        self.dead = true;
        for (_, c) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.children.clear();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Children finish their own copy of the program; reap them off
        // the test thread so a slow child never blocks completion.
        let children = std::mem::take(&mut self.children);
        let dir = std::mem::take(&mut self.base);
        if children.is_empty() {
            let _ = std::fs::remove_dir_all(dir);
            return;
        }
        let _ = std::thread::Builder::new()
            .name("dsk-pool-reaper".to_string())
            .spawn(move || {
                for (_, mut c) in children {
                    let _ = c.wait();
                }
                let _ = std::fs::remove_dir_all(dir);
            });
    }
}

/// Kills the pool if an epoch unwinds before completing, so a failing
/// test never leaves worker processes behind. A *handled* abort disarms
/// it — the pool survives a rank death (whether it survives the caller
/// is [`teardown`]'s business).
struct EpochGuard<'a, 'b> {
    pool: &'a mut std::cell::RefMut<'b, Option<Pool>>,
    armed: bool,
}

impl Drop for EpochGuard<'_, '_> {
    fn drop(&mut self) {
        if self.armed {
            if let Some(p) = self.pool.as_mut() {
                p.kill_all();
            }
        }
    }
}

fn spawn_child(rank: usize, epoch: u64, base: &str, test_name: Option<&str>) -> Child {
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
    cmd.env(RANK_ENV_VAR, rank.to_string())
        .env(SPAWN_EPOCH_ENV_VAR, epoch.to_string())
        .env(RENDEZVOUS_ENV_VAR, base)
        .stdin(Stdio::null())
        // Workers re-print the whole program's stdout; drop it. Stderr
        // stays inherited so panic backtraces reach the console.
        .stdout(Stdio::null());
    cmd.spawn().expect("spawn socket worker process")
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

fn outcomes_from_set<T: WirePayload>(set: &[OutcomeEntry]) -> Vec<RankOutcome<T>> {
    set.iter()
        .enumerate()
        .map(|(rank, (value, stats, _events))| RankOutcome {
            rank,
            value: T::from_wire(value),
            stats: stats.clone(),
        })
        .collect()
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

fn read_hello(stream: &mut UnixStream, deadline: Instant) -> Result<Hello, String> {
    let payload = read_control(stream, FrameKind::Hello, deadline)?;
    Hello::from_payload(&payload).map_err(|e| format!("bad Hello payload: {e}"))
}

fn read_roster(stream: &mut UnixStream, deadline: Instant) -> Result<Roster, String> {
    let payload = read_control(stream, FrameKind::Roster, deadline)?;
    Roster::from_payload(&payload).map_err(|e| format!("bad Roster payload: {e}"))
}

fn validate_hello(hello: &Hello, epoch: u64, n: usize) -> Result<(), String> {
    rendezvous::validate_peer(hello).map_err(|e| e.to_string())?;
    if hello.epoch != epoch {
        return Err(format!(
            "rank {} is at epoch {}, this world is epoch {epoch} — \
             the SPMD program diverged across processes",
            hello.rank, hello.epoch
        ));
    }
    if hello.world_size as usize != n {
        return Err(format!(
            "rank {} expects a {}-rank world, this world has {n} ranks — \
             the SPMD program diverged across processes",
            hello.rank, hello.world_size
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
    match role() {
        Role::Launcher => run_as_launcher(world, f, epoch),
        // Not this worker's live epoch: the in-process backend
        // reproduces the same values, word counts and verdict.
        Role::Child(info) if !on_live_thread(info, epoch) => replay_inproc(world, f),
        Role::Child(info) => run_as_worker(world, f, epoch, info),
    }
}

/// [`SimWorld::run`]'s teardown after a failed pooled epoch: the
/// launcher kills its pool, a worker dies with the cause on stderr.
pub(crate) fn teardown(cause: &str) {
    match role() {
        Role::Launcher => POOL.with(|pool| {
            if let Some(pool) = pool.borrow_mut().as_mut() {
                pool.kill_all();
            }
        }),
        Role::Child(_) => child_fail(None, cause.to_string()),
    }
}

fn on_live_thread(info: &ChildInfo, epoch: u64) -> bool {
    let on_my_thread = match (&info.test_name, current_test_name()) {
        (Some(want), Some(have)) => *want == have,
        (Some(_), None) => false,
        (None, have) => have.is_none(),
    };
    on_my_thread && epoch >= info.spawn_epoch
}

fn replay_inproc<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
) -> Result<Vec<RankOutcome<T>>, EpochFailure>
where
    T: WirePayload,
{
    SimWorld::new(world.nranks(), *world.model())
        .with_recv_timeout(world.recv_timeout_raw())
        .backend(BackendKind::InProc)
        .epoch(f)
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

/// Build or grow the pool for an epoch of `n` ranks. Returns `false`
/// when no pool exists (single-rank world: peerless backend).
fn ensure_pool(pool_slot: &mut Option<Pool>, n: usize, epoch: u64) -> bool {
    let need_fresh = pool_slot.as_ref().is_none_or(|p| p.dead);
    if need_fresh && n > 1 {
        *pool_slot = None; // drop (and reap) any dead pool first
        static POOL_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = POOL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dsk-sock-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create rendezvous dir");
        let base = dir.to_str().expect("rendezvous dir is UTF-8").to_string();
        let listener = SocketListener::bind(&endpoint_for(&base, 0)).expect("bind rank 0 listener");
        let test_name = current_test_name();
        let children = (1..n)
            .map(|r| (r, spawn_child(r, epoch, &base, test_name.as_deref())))
            .collect();
        *pool_slot = Some(Pool {
            children,
            spawned: n - 1,
            listener,
            base,
            dead: false,
        });
    } else if let Some(pool) = pool_slot.as_mut() {
        // Grow the pool when a later world is wider: new workers replay
        // earlier epochs in-process and join live here.
        if pool.children.len() + 1 < n {
            assert!(
                pool.children.len() == pool.spawned,
                "cannot grow a socket world after a rank death: a fresh worker would have \
                 to replay the aborted epoch in-process, which is not reproducible — \
                 restart the program to rebuild a full pool"
            );
            let test_name = current_test_name();
            while pool.children.len() + 1 < n {
                pool.spawned += 1;
                let r = pool.spawned;
                pool.children
                    .push((r, spawn_child(r, epoch, &pool.base, test_name.as_deref())));
            }
        }
    }
    pool_slot.is_some()
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
                let hello = read_hello(&mut stream, deadline)?;
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
        if !ensure_pool(&mut pool_slot, n, epoch) {
            // Single-rank world with no pool: a peerless socket backend
            // whose lone rank is the coordinator.
            trace::install_and_sync(0);
            let backend = SocketBackend::assemble(0, 1, world.recv_timeout_raw(), vec![None])
                .expect("assemble peerless socket backend");
            let roster = rendezvous::roster_for(epoch, &[0], 1);
            return run_rank0_epoch(world, f, backend, Vec::new(), &mut Vec::new(), &roster);
        }

        let mut guard = EpochGuard {
            pool: &mut pool_slot,
            armed: true,
        };
        let pool = guard.pool.as_mut().unwrap();
        let mut live = vec![0usize];
        live.extend(pool.children.iter().map(|(id, _)| *id));
        let roster = rendezvous::roster_for(epoch, &live, n);
        trace::install(0);
        let rdv_start = Instant::now();
        let (backend, observers) =
            launcher_rendezvous(pool, world, epoch, &roster).unwrap_or_else(|e| {
                pool.kill_all();
                panic!("socket rendezvous failed: {e}")
            });
        trace::complete(TraceKind::Epoch, "epoch.rendezvous", rdv_start, || {
            vec![
                ("epoch".to_string(), ArgVal::Num(epoch as f64)),
                ("ranks".to_string(), ArgVal::Num(n as f64)),
            ]
        });
        trace::sync();
        let result = run_rank0_epoch(world, f, backend, observers, &mut pool.children, &roster);
        // Both outcomes are *handled* — the pool survives an abort.
        guard.armed = false;
        result
    })
}

/// Rank 0's epoch body: run the closure, drain, collect member
/// outcomes, and deliver the verdict. A clean epoch broadcasts the
/// outcome set (members via the backend, observers directly); any
/// failure enters the abort protocol instead — collect a check-in from
/// every member, broadcast the dead pool ids, shrink `children`, and
/// return the shared [`EpochError`]. A failure the protocol cannot end
/// consistently panics, and the caller's [`EpochGuard`] kills the pool.
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
            let set_frame_bytes =
                Frame::control(FrameKind::OutcomeSet, 0, encode_outcome_set(&entries)).to_bytes();
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
            trace::gather_epoch(
                entries
                    .iter_mut()
                    .map(|e| std::mem::take(&mut e.2))
                    .collect(),
            );
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
    let abort_frame_bytes = Frame::control(FrameKind::Abort, 0, abort_payload.clone()).to_bytes();
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
            let ep = endpoint_for(&info.base, info.rank);
            *slot = Some(SocketListener::bind(&ep).map_err(|e| format!("binding {ep:?}: {e}"))?);
        }
        let listener = slot.as_ref().expect("the listener is bound above");

        let mut s0 = connect_deadline(&endpoint_for(&info.base, 0), deadline, &abort)?;
        send_hello(
            &mut s0,
            rendezvous::local_hello(info.rank as u32, n as u32, epoch),
        )?;
        let roster = read_roster(&mut s0, deadline)?;
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
            let ep = endpoint_for(&info.base, roster.members[peer_w] as usize);
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
            member_trace_begin(w, epoch, world.nranks(), rdv_start);
            run_as_member(world, f, backend, w, &roster)
        }
        Seat::Observer(stream) => run_as_observer(world, info, stream, &roster),
    }
}

/// Start a member's per-epoch recorder: the rendezvous that just
/// completed becomes the epoch's first span (its timestamp is negative
/// — before the clock anchor), and the [`trace::SYNC_EVENT`] mark at
/// rendezvous-complete is what the launcher aligns all ranks' clocks
/// on.
fn member_trace_begin(world_rank: usize, epoch: u64, n: usize, rdv_start: Instant) {
    if !trace::enabled() {
        return;
    }
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
    match backend.wait_verdict(control_deadline) {
        Ok(EpochVerdict::Outcomes(set)) => {
            if let Err(msg) = reported {
                // The coordinator declared success but this rank failed
                // — the abort machinery diverged; contain loudly.
                child_fail(
                    Some(backend.as_ref()),
                    format!("rank {me}: epoch verdict disagreement after local failure: {msg}"),
                );
            }
            backend.mark_finished();
            Ok(outcomes_from_set(&decode_outcome_set(&set)))
        }
        Ok(EpochVerdict::Aborted(payload)) => {
            backend.mark_finished();
            Err(failure_from_abort(&payload, roster, None, reported.err()))
        }
        Err(e) => child_fail(Some(backend.as_ref()), format!("rank {me}: {e}")),
    }
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
            Ok(Some(frame)) if frame.kind == FrameKind::OutcomeSet => {
                return Ok(outcomes_from_set(&decode_outcome_set(&frame.payload)));
            }
            Ok(Some(frame)) if frame.kind == FrameKind::Abort => {
                return Err(failure_from_abort(&frame.payload, roster, None, None));
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
