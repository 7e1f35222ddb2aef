//! The socket transport: a [`CommBackend`] whose ranks are separate OS
//! processes exchanging [`frame`](crate::frame)-encoded messages over
//! Unix-domain sockets.
//!
//! Each rank process holds one stream per peer, dialed at that peer's
//! `<base>/r<pool_id>.sock` listener in the launcher's private temp
//! dir ([`crate::launch`]). Sends are decoupled through **per-peer
//! writer threads** (a slow peer never blocks the algorithm thread),
//! and a **reader thread per peer**
//! demultiplexes incoming frames into the same keyed [`Mailbox`] the
//! in-memory backends use — `Data` frames by their `(src, context,
//! tag)` key, control frames (`Bye`, `Outcome`, `OutcomeSet`, `Error`)
//! into the epoch-control state the launcher drives.
//!
//! When tracing is on ([`crate::trace`]), each member's drained trace
//! events ride as an extra section of its `Outcome` control frame and
//! come back inside the `OutcomeSet` broadcast. Control frames are
//! invisible to word accounting, so the piggyback never perturbs a
//! modeled counter.
//!
//! Failure handling is wired to the existing watchdog/drain hooks: a
//! peer that disconnects mid-epoch or sends an undecodable frame
//! *poisons* the mailbox, so a blocked receive panics with the root
//! cause in milliseconds instead of waiting out the receive watchdog.
//!
//! The backend also keeps an exact count of `Data`-frame bytes written
//! to its sockets ([`SocketBackend::data_bytes_written`]): because
//! [`CommBackend::frame_overhead`] reports the frame-header size,
//! `wire_bytes_sent` in the per-rank statistics equals bytes genuinely
//! transmitted.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::backend::{CommBackend, Parcel};
use crate::frame::{
    read_frame_into, write_frame, Frame, FrameKind, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use crate::pool::BufferPool;
use crate::transport::{Mailbox, MsgKey};

// ---------------------------------------------------------------------
// Rendezvous listener and dialer
// ---------------------------------------------------------------------

/// A bound rendezvous listener. It owns its socket file and removes it
/// on drop.
#[derive(Debug)]
pub struct SocketListener {
    listener: UnixListener,
    path: PathBuf,
}

impl SocketListener {
    /// Bind `path`, replacing a stale socket file if present.
    pub fn bind(path: &Path) -> std::io::Result<SocketListener> {
        let _ = std::fs::remove_file(path);
        Ok(SocketListener {
            listener: UnixListener::bind(path)?,
            path: path.to_path_buf(),
        })
    }

    /// Accept one connection before `deadline` (polling accept so a
    /// missing peer cannot hang the rendezvous).
    pub fn accept_deadline(&self, deadline: Instant) -> Result<UnixStream, String> {
        let l = &self.listener;
        l.set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        loop {
            match l.accept() {
                Ok((stream, _)) => {
                    let _ = l.set_nonblocking(false);
                    return Ok(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let _ = l.set_nonblocking(false);
                        return Err("rendezvous accept timed out".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = l.set_nonblocking(false);
                    return Err(format!("rendezvous accept failed: {e}"));
                }
            }
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Connect to the socket at `path`, retrying until `deadline` (the peer
/// may still be binding its listener). `abort` is polled between
/// retries so a child can stop waiting when its parent died.
pub fn connect_deadline(
    path: &Path,
    deadline: Instant,
    abort: &dyn Fn() -> Option<String>,
) -> Result<UnixStream, String> {
    loop {
        if let Some(why) = abort() {
            return Err(why);
        }
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("rendezvous connect to {path:?} timed out: {e}"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Epoch control state (byes / outcomes / errors)
// ---------------------------------------------------------------------

#[derive(Default)]
struct CtrlState {
    byes: Vec<bool>,
    eofs: Vec<bool>,
    outcomes: Vec<Option<Vec<u8>>>,
    outcome_set: Option<Vec<u8>>,
    /// Rank 0's `Abort` broadcast payload (the dead
    /// pool ids, [`Roster`](crate::rendezvous::Roster)-encoded).
    abort: Option<Vec<u8>>,
    errors: VecDeque<(usize, String)>,
}

struct Ctrl {
    state: Mutex<CtrlState>,
    cv: Condvar,
    /// Set when the epoch completed; later EOFs are normal teardown.
    finished: AtomicBool,
}

impl Ctrl {
    fn new(n: usize) -> Arc<Ctrl> {
        Arc::new(Ctrl {
            state: Mutex::new(CtrlState {
                byes: vec![false; n],
                eofs: vec![false; n],
                outcomes: (0..n).map(|_| None).collect(),
                outcome_set: None,
                abort: None,
                errors: VecDeque::new(),
            }),
            cv: Condvar::new(),
            finished: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CtrlState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The first peer failure reported in an `Error` frame, as the text a
/// blocked control wait fails with.
fn reported_error(st: &CtrlState) -> Option<String> {
    let (rank, msg) = st.errors.front()?;
    Some(format!("rank {rank} panicked: {msg}"))
}

// ---------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------

/// The socket transport backend for one rank process of one epoch.
/// Constructed by the launcher ([`crate::launch`]) from a fully
/// connected stream mesh; consumers select it with
/// [`BackendKind::Socket`](crate::BackendKind) and never name this type.
pub struct SocketBackend {
    me: usize,
    nranks: usize,
    mailbox: Arc<Mailbox<Parcel>>,
    /// Per-peer writer-thread inboxes (`None` at `me`). Mutexed because
    /// `std::sync::mpsc::Sender` predates `Sync` on some toolchains.
    writers: Vec<Option<Mutex<Sender<Frame>>>>,
    /// The streams themselves, for the synchronous broadcast writes.
    streams: Vec<Option<UnixStream>>,
    ctrl: Arc<Ctrl>,
    data_bytes: Arc<AtomicU64>,
    /// Payload buffers cycling between the encoder, the writer threads,
    /// the reader threads and the decoder (see [`BufferPool`]).
    pool: Arc<BufferPool>,
}

impl SocketBackend {
    /// Assemble the backend from a connected mesh: `peers[r]` is the
    /// stream to rank `r` (`None` at `me`). Spawns one reader and one
    /// writer thread per peer.
    pub fn assemble(
        me: usize,
        nranks: usize,
        recv_timeout: Duration,
        peers: Vec<Option<UnixStream>>,
    ) -> std::io::Result<Arc<SocketBackend>> {
        assert_eq!(peers.len(), nranks, "one stream slot per rank");
        let mailbox = Arc::new(Mailbox::new(nranks, recv_timeout));
        let ctrl = Ctrl::new(nranks);
        let data_bytes = Arc::new(AtomicU64::new(0));
        let pool = Arc::new(BufferPool::new());
        let mut writers: Vec<Option<Mutex<Sender<Frame>>>> = Vec::with_capacity(nranks);
        let mut streams: Vec<Option<UnixStream>> = Vec::with_capacity(nranks);

        for (peer, slot) in peers.into_iter().enumerate() {
            let Some(stream) = slot else {
                assert_eq!(peer, me, "missing stream for peer {peer}");
                writers.push(None);
                streams.push(None);
                continue;
            };
            stream.set_read_timeout(None)?;
            let reader = stream.try_clone()?;
            let writer = stream.try_clone()?;
            streams.push(Some(stream));

            // Reader: demux frames into the mailbox / control state.
            {
                let mailbox = Arc::clone(&mailbox);
                let ctrl = Arc::clone(&ctrl);
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("dsk-sock-r{me}-from{peer}"))
                    // Read from the concrete stream type: std fills a
                    // vector's spare capacity without zeroing it only
                    // for readers it knows never look at the buffer.
                    .spawn(move || reader_loop(me, peer, reader, &mailbox, &ctrl, &pool))
                    .expect("spawn socket reader");
            }

            // Writer: drain the frame queue onto the socket.
            let (tx, rx) = mpsc::channel::<Frame>();
            {
                let mailbox = Arc::clone(&mailbox);
                let data_bytes = Arc::clone(&data_bytes);
                let ctrl = Arc::clone(&ctrl);
                let pool = Arc::clone(&pool);
                let mut writer = writer;
                std::thread::Builder::new()
                    .name(format!("dsk-sock-w{me}-to{peer}"))
                    .spawn(move || {
                        for frame in rx {
                            let is_data = frame.kind == FrameKind::Data;
                            match write_frame(&mut writer, &frame) {
                                Ok(n) => {
                                    if is_data {
                                        data_bytes.fetch_add(n as u64, Ordering::Relaxed);
                                    }
                                    pool.give(frame.payload);
                                }
                                Err(e) => {
                                    if !ctrl.finished.load(Ordering::SeqCst) {
                                        mailbox.poison(format!(
                                            "rank {me}: socket write to rank {peer} failed: {e}"
                                        ));
                                    }
                                    return;
                                }
                            }
                        }
                        // Channel closed: epoch teardown.
                        let _ = writer.flush();
                    })
                    .expect("spawn socket writer");
            }
            writers.push(Some(Mutex::new(tx)));
        }

        Ok(Arc::new(SocketBackend {
            me,
            nranks,
            mailbox,
            writers,
            streams,
            ctrl,
            data_bytes,
            pool,
        }))
    }

    fn enqueue(&self, dst: usize, frame: Frame) {
        let Some(tx) = &self.writers[dst] else {
            panic!("rank {}: no writer for peer {dst}", self.me);
        };
        let sent = tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(frame)
            .is_ok();
        if !sent {
            // Writer thread exited on an I/O error; surface its poison.
            if let Some(msg) = self.mailbox.poison_message() {
                panic!("{msg}");
            }
            panic!("rank {}: writer to rank {dst} is gone", self.me);
        }
    }

    /// Send a control frame to one peer.
    pub fn send_control(&self, dst: usize, kind: FrameKind, payload: Vec<u8>) {
        self.enqueue(dst, Frame::control(kind, self.me, payload));
    }

    /// Write pre-serialized frame bytes to one peer **synchronously**,
    /// bypassing the writer thread. Only safe when that writer is
    /// provably idle — the launcher uses it for the final `OutcomeSet`
    /// broadcast (its writers drained their `Bye`s before any member
    /// could have sent the `Outcome`s that gate the broadcast), so a
    /// short-lived main cannot exit before the bytes reach the socket,
    /// and one serialized buffer serves every member without clones.
    pub fn write_frame_bytes_sync(&self, dst: usize, bytes: &[u8]) -> std::io::Result<()> {
        let Some(stream) = &self.streams[dst] else {
            panic!("rank {}: no stream for peer {dst}", self.me);
        };
        (&*stream).write_all(bytes)
    }

    /// Send `Bye` to every peer (end of this rank's data traffic).
    pub fn bye_all(&self) {
        for dst in 0..self.nranks {
            if dst != self.me {
                self.send_control(dst, FrameKind::Bye, Vec::new());
            }
        }
    }

    fn wait_ctrl<R>(
        &self,
        deadline: Instant,
        what: &str,
        mut ready: impl FnMut(&mut CtrlState) -> Option<Result<R, String>>,
    ) -> Result<R, String> {
        let mut st = self.ctrl.lock();
        loop {
            if let Some(r) = ready(&mut st) {
                return r;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "rank {}: timed out waiting for {what} (socket watchdog)",
                    self.me
                ));
            }
            let (guard, _) = self
                .ctrl
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Wait until every peer's `Bye` arrived (all data this epoch is in
    /// local mailboxes — the drain barrier). A peer's reported failure
    /// ends the wait with that failure.
    pub fn wait_byes(&self, deadline: Instant) -> Result<(), String> {
        let me = self.me;
        self.wait_ctrl(deadline, "peer Bye frames", |st| {
            if let Some(e) = reported_error(st) {
                return Some(Err(e));
            }
            for r in 0..st.byes.len() {
                if r != me && !st.byes[r] {
                    if st.eofs[r] {
                        return Some(Err(format!("rank {r} exited before finishing the epoch")));
                    }
                    return None;
                }
            }
            Some(Ok(()))
        })
    }

    /// Rank 0: wait for every member's `Outcome` payload. A member's
    /// reported failure ends the wait with that failure.
    pub fn wait_outcomes(&self, deadline: Instant) -> Result<Vec<Vec<u8>>, String> {
        let me = self.me;
        self.wait_ctrl(deadline, "member outcomes", |st| {
            if let Some(e) = reported_error(st) {
                return Some(Err(e));
            }
            for r in 0..st.outcomes.len() {
                if r != me && st.outcomes[r].is_none() {
                    if st.eofs[r] {
                        return Some(Err(format!("rank {r} exited before reporting its outcome")));
                    }
                    return None;
                }
            }
            Some(Ok(st
                .outcomes
                .iter_mut()
                .map(|o| o.take().unwrap_or_default())
                .collect()))
        })
    }

    /// The first `Error` frame received, if any (the root cause the
    /// launcher re-panics with).
    pub fn first_error(&self) -> Option<(usize, String)> {
        self.ctrl.lock().errors.front().cloned()
    }

    /// Members: wait for rank 0's end-of-epoch verdict — the
    /// `OutcomeSet` broadcast or an `Abort` — and return it as the frame
    /// it arrived in. Unlike
    /// [`wait_byes`](Self::wait_byes) this deliberately ignores queued
    /// `Error` frames: during an abort they are expected traffic, and
    /// the verdict frame is the only authority on how the epoch ended.
    pub fn wait_verdict(&self, deadline: Instant) -> Result<Frame, String> {
        self.wait_ctrl(deadline, "the epoch verdict", |st| {
            if let Some(payload) = st.abort.take() {
                return Some(Ok(Frame::control(FrameKind::Abort, 0, payload)));
            }
            if let Some(set) = st.outcome_set.take() {
                return Some(Ok(Frame::control(FrameKind::OutcomeSet, 0, set)));
            }
            st.eofs[0].then(|| Err("rank 0 exited before delivering an epoch verdict".to_string()))
        })
    }

    /// Rank 0, abort collection: which member world ranks have
    /// checked in — an `Outcome`, an `Error`, or a closed stream all
    /// count, because each proves the member is past (or out of) its
    /// epoch body.
    pub fn member_checkin(&self) -> Vec<bool> {
        let st = self.ctrl.lock();
        (0..self.nranks)
            .map(|r| {
                r == self.me
                    || st.outcomes[r].is_some()
                    || st.eofs[r]
                    || st.errors.iter().any(|(er, _)| *er == r)
            })
            .collect()
    }

    /// Mark the epoch complete: subsequent EOFs are normal teardown and
    /// no longer poison the mailbox.
    pub fn mark_finished(&self) {
        self.ctrl.finished.store(true, Ordering::SeqCst);
    }

    /// Exact `Data`-frame bytes written to this rank's sockets so far
    /// (headers included; control frames excluded).
    pub fn data_bytes_written(&self) -> u64 {
        self.data_bytes.load(Ordering::Relaxed)
    }
}

fn reader_loop(
    me: usize,
    peer: usize,
    mut stream: impl Read,
    mailbox: &Mailbox<Parcel>,
    ctrl: &Ctrl,
    pool: &BufferPool,
) {
    loop {
        match read_frame_into(&mut stream, |len| pool.take(len)) {
            Ok(Some(frame)) => {
                let src = frame.src as usize;
                match frame.kind {
                    FrameKind::Data => {
                        let key: MsgKey = (src, frame.context, frame.tag);
                        mailbox.post(me, key, Parcel::Bytes(frame.payload));
                    }
                    FrameKind::Bye => {
                        ctrl.lock().byes[peer] = true;
                        ctrl.cv.notify_all();
                    }
                    FrameKind::Outcome => {
                        ctrl.lock().outcomes[peer] = Some(frame.payload);
                        ctrl.cv.notify_all();
                    }
                    FrameKind::OutcomeSet => {
                        ctrl.lock().outcome_set = Some(frame.payload);
                        ctrl.cv.notify_all();
                    }
                    FrameKind::Error => {
                        let msg = String::from_utf8_lossy(&frame.payload).into_owned();
                        mailbox.poison(format!("rank {peer} panicked: {msg}"));
                        ctrl.lock().errors.push_back((peer, msg));
                        ctrl.cv.notify_all();
                    }
                    FrameKind::Abort => {
                        // Rank 0 aborted the epoch. Stash the payload
                        // for `wait_verdict` AND poison the mailbox so
                        // a receive blocked on data that will never
                        // arrive fails over to the abort path fast.
                        let mut st = ctrl.lock();
                        st.abort = Some(frame.payload);
                        drop(st);
                        ctrl.cv.notify_all();
                        mailbox.poison(format!("rank {me}: epoch aborted by the coordinator"));
                    }
                    FrameKind::Hello => {
                        mailbox.poison(format!(
                            "rank {me}: unexpected mid-epoch Hello from rank {peer}"
                        ));
                    }
                    FrameKind::Roster => {
                        mailbox.poison(format!(
                            "rank {me}: unexpected mid-epoch Roster from rank {peer}"
                        ));
                    }
                }
            }
            Ok(None) => {
                // EOF. Normal after the epoch finished or after the
                // peer's Bye; fatal mid-epoch.
                let finished = ctrl.finished.load(Ordering::SeqCst);
                let mut st = ctrl.lock();
                st.eofs[peer] = true;
                let had_bye = st.byes[peer];
                drop(st);
                ctrl.cv.notify_all();
                if !finished && !had_bye {
                    mailbox.poison(format!(
                        "rank {me}: rank {peer} disconnected mid-epoch (peer process died?)"
                    ));
                }
                return;
            }
            Err(e) => {
                if !ctrl.finished.load(Ordering::SeqCst) {
                    mailbox.poison(format!(
                        "rank {me}: undecodable frame from rank {peer}: {e}"
                    ));
                    let mut st = ctrl.lock();
                    st.eofs[peer] = true;
                    st.errors
                        .push_back((peer, format!("undecodable frame: {e}")));
                    drop(st);
                    ctrl.cv.notify_all();
                }
                return;
            }
        }
    }
}

impl CommBackend for SocketBackend {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn serializes(&self) -> bool {
        true
    }

    fn recv_timeout(&self) -> Duration {
        self.mailbox.recv_timeout()
    }

    fn post(&self, dst: usize, key: MsgKey, parcel: Parcel) {
        let Parcel::Bytes(payload) = parcel else {
            panic!("socket backend requires encoded parcels — a typed message bypassed WirePayload")
        };
        if dst == self.me {
            // Self-delivery stays local (the collectives never do this,
            // but the contract allows it).
            self.mailbox.post(dst, key, Parcel::Bytes(payload));
        } else {
            // Checked here, on the sending rank's own thread: past the
            // cap the peer would only see an undecodable frame, and
            // past 4 GiB the length field would wrap.
            assert!(
                payload.len() <= MAX_FRAME_PAYLOAD,
                "rank {}: a {}-byte message to rank {dst} (tag {}) exceeds the \
                 {MAX_FRAME_PAYLOAD}-byte frame payload cap",
                self.me,
                payload.len(),
                key.2
            );
            self.enqueue(dst, Frame::data(key.0, key.1, key.2, payload));
        }
    }

    fn take(&self, me: usize, key: MsgKey) -> Parcel {
        debug_assert_eq!(me, self.me, "socket backend serves exactly one rank");
        self.mailbox.take(me, key)
    }

    fn probe(&self, me: usize, key: MsgKey) -> bool {
        self.mailbox.probe(me, key)
    }

    fn pending_messages(&self) -> usize {
        self.mailbox.pending_messages()
    }

    fn frame_overhead(&self) -> u64 {
        FRAME_HEADER_LEN as u64
    }

    fn buffer(&self, capacity: usize) -> Vec<u8> {
        self.pool.take(capacity)
    }

    fn recycle(&self, buf: Vec<u8>) {
        self.pool.give(buf);
    }

    fn poison(&self, msg: &str) {
        self.mailbox.poison(msg.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    /// Two "ranks" in one process, connected by a real socketpair: data
    /// frames route into the peer's mailbox with the right key, and the
    /// byte counter matches the frames' wire length exactly.
    #[test]
    fn socketpair_mesh_delivers_and_counts_bytes() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(5), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(5), vec![Some(s10), None]).unwrap();

        let payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        b0.post(1, (0, 77, 3), Parcel::Bytes(payload.clone()));
        match b1.take(1, (0, 77, 3)) {
            Parcel::Bytes(got) => assert_eq!(got, payload),
            Parcel::Typed(_) => panic!("socket backend must carry bytes"),
        }
        // Wait for the writer thread to finish counting.
        let expect = (FRAME_HEADER_LEN + payload.len()) as u64;
        let t0 = Instant::now();
        while b0.data_bytes_written() != expect {
            assert!(t0.elapsed() < Duration::from_secs(5), "byte counter lagged");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b0.frame_overhead(), FRAME_HEADER_LEN as u64);
        assert_eq!(b1.pending_messages(), 0);
        b0.mark_finished();
        b1.mark_finished();
    }

    /// The frame cap is enforced where the message is posted — on the
    /// sending rank's own thread, naming the size — not discovered by
    /// the peer as an undecodable frame.
    #[test]
    #[should_panic(expected = "exceeds the 268435456-byte frame payload cap")]
    fn oversized_post_is_rejected_at_the_sender() {
        let (s01, _s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(5), vec![None, Some(s01)]).unwrap();
        b0.mark_finished();
        // Zero pages are mapped lazily: this costs address space only.
        b0.post(
            1,
            (0, 0, 0),
            Parcel::Bytes(vec![0u8; MAX_FRAME_PAYLOAD + 1]),
        );
    }

    /// Buffers make the full circuit: the reader fills a pooled buffer,
    /// the receiver hands it back, the next large receive reuses it.
    #[test]
    fn received_payload_buffers_are_reused() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(5), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(5), vec![Some(s10), None]).unwrap();
        let big = crate::pool::POOL_MIN_BYTES * 2;
        let recv = |key| match b1.take(1, key) {
            Parcel::Bytes(got) => got,
            Parcel::Typed(_) => panic!("socket backend must carry bytes"),
        };
        b0.post(1, (0, 1, 1), Parcel::Bytes(vec![7u8; big]));
        let first = recv((0, 1, 1));
        assert_eq!(first, vec![7u8; big]);
        let addr = first.as_ptr();
        b1.recycle(first);
        b0.post(1, (0, 1, 2), Parcel::Bytes(vec![9u8; big - 100]));
        let second = recv((0, 1, 2));
        assert_eq!(second, vec![9u8; big - 100], "no stale bytes, exact length");
        assert_eq!(second.as_ptr(), addr, "the recycled buffer was read into");
        b0.mark_finished();
        b1.mark_finished();
    }

    #[test]
    fn bye_protocol_and_control_waits() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(5), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(5), vec![Some(s10), None]).unwrap();
        b0.bye_all();
        b1.bye_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        b0.wait_byes(deadline).unwrap();
        b1.wait_byes(deadline).unwrap();

        b1.send_control(0, FrameKind::Outcome, vec![42]);
        let outs = b0.wait_outcomes(deadline).unwrap();
        assert_eq!(outs[1], vec![42]);
        b0.send_control(1, FrameKind::OutcomeSet, vec![9, 9]);
        let verdict = b1.wait_verdict(deadline).unwrap();
        assert_eq!(verdict.kind, FrameKind::OutcomeSet);
        assert_eq!(verdict.payload, vec![9, 9]);
        b0.mark_finished();
        b1.mark_finished();
    }

    /// A peer dying mid-epoch poisons the mailbox: a blocked receive
    /// fails in milliseconds with the root cause, not after the 300 s
    /// watchdog.
    #[test]
    #[should_panic(expected = "disconnected mid-epoch")]
    fn peer_death_poisons_blocked_receive() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(300), vec![None, Some(s01)]).unwrap();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let _ = s10.shutdown(std::net::Shutdown::Both);
            drop(s10);
        });
        let _ = b0.take(0, (1, 0, 0));
    }

    /// An Error frame carries the peer's panic message as the poison
    /// root cause.
    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn error_frame_becomes_root_cause() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(300), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(300), vec![Some(s10), None]).unwrap();
        b1.send_control(0, FrameKind::Error, b"boom".to_vec());
        let _ = b0.take(0, (1, 0, 0));
    }

    /// Garbage on the wire yields a clean DecodeError-based poison — no
    /// panic in the reader, no hang in the receiver.
    #[test]
    #[should_panic(expected = "undecodable frame")]
    fn garbage_frames_poison_cleanly() {
        let (s01, mut raw) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(300), vec![None, Some(s01)]).unwrap();
        raw.write_all(b"this is definitely not a frame header......")
            .unwrap();
        raw.flush().unwrap();
        let _ = b0.take(0, (1, 0, 0));
    }

    /// A listener replaces a stale file at its path, accepts a dial to
    /// that path, and removes its socket file when dropped.
    #[test]
    fn listener_owns_its_socket_file() {
        let dir = std::env::temp_dir().join(format!("dsk-listener-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.sock");
        std::fs::write(&path, b"stale").unwrap();
        let listener = SocketListener::bind(&path).expect("bind");
        let deadline = Instant::now() + Duration::from_secs(5);
        let _client = connect_deadline(&path, deadline, &|| None).expect("connect");
        listener.accept_deadline(deadline).expect("accept");
        drop(listener);
        assert!(!path.exists(), "the socket file outlived its listener");
        let _ = std::fs::remove_dir(&dir);
    }
}
