//! The per-rank communicator handle: point-to-point messaging, phase
//! accounting, compute metering, and communicator splitting.
//!
//! A [`Comm`] is what a distributed algorithm receives instead of an MPI
//! communicator. All traffic it generates is charged to the rank's
//! [`RankStats`] under the currently active [`Phase`], using the world's
//! [`MachineModel`] for modeled time. The physical realization of each
//! message is delegated to the world's
//! [`CommBackend`]: under the in-process
//! backend values move by ownership, under the wire backend they are
//! encoded through [`WirePayload`] — algorithm code cannot tell the
//! difference, and word accounting (hence modeled time) is identical
//! under both.
//!
//! # One body per message
//!
//! Every message passes through exactly two bodies. **Post**
//! (`Comm::post`): encode or box the value, hand it to the backend,
//! charge the send — the full `α + β·w` for a lone send, nothing for the
//! send half of an exchange — and count the wire bytes. **Complete**
//! (the body behind [`RecvHandle::wait`]): check the ticket, time the
//! backend's `take` as *stall*, time the decode apart from it, charge
//! `α + β·w` or, for an exchange, `α + β·max(w_out, w_in)`. Every
//! public entry point is a one-to-three-line composition of the two,
//! and a blocking call *is* its non-blocking spelling awaited at once:
//! `recv` = `recv_begin(..).wait()`, `sendrecv` / `shift` = post +
//! `recv_begin(..).wait()`. Each body ends in the one place that
//! charges [`RankStats`] and, when a trace is recording, pushes the
//! matching event from the same clock reads.
//!
//! # Completion contract
//!
//! A rank may start transfers and complete them later:
//! [`Comm::recv_begin`] / [`Comm::shift_begin`] return a [`RecvHandle`]
//! with `poll`/`wait`. ([`Comm::send`] needs no handle: sends are
//! buffered and complete at post time — the mailbox is unbounded,
//! exactly like an eager-protocol MPI send.) The contract, enforced at
//! runtime:
//!
//! * **Ordering** — delivery is FIFO per `(src, context, tag)` key, and
//!   receives on one key must complete **in posting order**. The rule
//!   covers blocking calls too, since they take a ticket like any
//!   handle: a blocking `recv` (or `sendrecv`, `shift`) issued behind a
//!   still-pending handle on the same `(src, tag)` would silently steal
//!   that handle's message, so it panics exactly like an out-of-order
//!   `wait`; `poll` simply reports "not ready" until it is the handle's
//!   turn.
//! * **Completion is mandatory** — dropping a [`RecvHandle`] that was
//!   never awaited is a panic, not a silent leak: the matching message
//!   would rot in the mailbox and fail the world's end-of-run drain
//!   check far from the bug. (During an unwind the check stands down so
//!   the original panic surfaces.)
//! * **Failure** — a rank blocked in a receive when a peer dies observes
//!   the poisoned-mailbox error within milliseconds; the receive
//!   watchdog is a last resort for mismatched communication patterns,
//!   not the failure path.
//! * **Accounting** — a lone receive charges `α + β·w` when it
//!   completes; an exchange charges nothing at post and
//!   `α + β·max(w_out, w_in)` when it completes, so a pipelined
//!   `shift_begin` … `wait` and the blocking `shift` are the same
//!   charges to the bit. Wall time blocked waiting for the message to
//!   arrive is recorded as per-phase *stall* for **every** receive,
//!   blocking or not — the part of the transfer that overlap failed to
//!   hide. Decode time is outside it: a message that arrived long ago
//!   costs no stall however long it takes to open.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::backend::{CommBackend, Parcel};
use crate::model::MachineModel;
use crate::payload::{encode_scalar_vec, WirePayload, WireReader};
use crate::stats::{Phase, RankStats};
use crate::trace::{self, ArgVal, TraceKind};

/// Reserved tag base for internal collective operations; user tags must be
/// below this value.
pub const COLLECTIVE_TAG_BASE: u32 = 0xFFFF_0000;

/// Shared per-rank state, under one lock: the stats ledger and the
/// instant its open wall-clock bucket (and the open phase span) began.
pub(crate) struct RankShared(Mutex<Ledger>);

struct Ledger {
    stats: RankStats,
    since: Instant,
}

impl RankShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RankShared(Mutex::new(Ledger {
            stats: RankStats::default(),
            since: Instant::now(),
        })))
    }
}

/// A numeric trace-event argument.
fn num(key: &str, v: f64) -> (String, ArgVal) {
    (key.to_string(), ArgVal::Num(v))
}

/// What a post is handed: a value it may consume, or a borrow of one.
///
/// A serializing backend only ever *reads* the message — it encodes
/// straight from wherever the value lives, so a caller that keeps its
/// value (an all-gather's own block, a shift's input panel) lends it
/// instead of cloning it first. Only the typed in-process path needs an
/// owned `T` to box, and only there does a borrow get cloned.
pub(crate) trait Outgoing<T: WirePayload> {
    /// The message's size in words ([`Payload::words`](crate::Payload)).
    fn words(&self) -> usize;
    /// Append the wire encoding of the `T` this stands for.
    fn encode(&self, buf: &mut Vec<u8>);
    /// The owned value (typed backends).
    fn into_owned(self) -> T;
}

impl<T: WirePayload> Outgoing<T> for T {
    fn words(&self) -> usize {
        crate::Payload::words(self)
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        WirePayload::encode(self, buf);
    }
    fn into_owned(self) -> T {
        self
    }
}

impl<T: WirePayload + Clone> Outgoing<T> for &T {
    fn words(&self) -> usize {
        crate::Payload::words(*self)
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        WirePayload::encode(*self, buf);
    }
    fn into_owned(self) -> T {
        self.clone()
    }
}

/// A slice is a borrowed `Vec<f64>`: same words, same bytes.
impl Outgoing<Vec<f64>> for &[f64] {
    fn words(&self) -> usize {
        self.len()
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_scalar_vec(buf, self);
    }
    fn into_owned(self) -> Vec<f64> {
        self.to_vec()
    }
}

/// A received `Vec<f64>` message still in the form the backend
/// delivered it — encoded bytes or the typed vector — so a collective
/// can learn every part's length first and then move each part exactly
/// once, straight to where it belongs.
pub(crate) enum F64Block<'c> {
    /// Encoded `Vec<f64>` bytes, and the communicator whose backend
    /// gets the buffer back.
    Bytes(&'c Comm, Vec<u8>),
    /// The sender's vector (typed backends).
    Typed(Vec<f64>),
}

impl<'c> F64Block<'c> {
    /// The delivered block and its word count.
    fn open(comm: &'c Comm, parcel: Parcel, src: usize, tag: u32) -> (Self, usize) {
        let block = match parcel {
            Parcel::Bytes(bytes) => F64Block::Bytes(comm, bytes),
            typed => F64Block::Typed(comm.open(typed, src, tag).0),
        };
        let words = block.len();
        (block, words)
    }

    /// Number of values (= words) in the block.
    pub(crate) fn len(&self) -> usize {
        match self {
            F64Block::Bytes(_, bytes) => WireReader::new(bytes).read_len(),
            F64Block::Typed(v) => v.len(),
        }
    }

    /// Append the values to `out`.
    pub(crate) fn append_to(self, out: &mut Vec<f64>) {
        match self {
            F64Block::Bytes(comm, bytes) => {
                out.extend(f64_values(&bytes));
                comm.backend.recycle(bytes);
            }
            F64Block::Typed(v) => out.extend_from_slice(&v),
        }
    }

    /// Fold the values elementwise into `dst` (same length) with
    /// `merge(slot, value)` — `+=` for a reduction, `=` for placement.
    pub(crate) fn merge_into(self, dst: &mut [f64], merge: impl Fn(&mut f64, f64)) {
        assert_eq!(self.len(), dst.len(), "f64 block length mismatch");
        match self {
            F64Block::Bytes(comm, bytes) => {
                dst.iter_mut()
                    .zip(f64_values(&bytes))
                    .for_each(|(d, x)| merge(d, x));
                comm.backend.recycle(bytes);
            }
            F64Block::Typed(v) => dst.iter_mut().zip(v).for_each(|(d, x)| merge(d, x)),
        }
    }
}

/// The values of an encoded `Vec<f64>`, checked like
/// [`WirePayload::from_wire`]: exactly the announced count, no trailing
/// bytes.
fn f64_values(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    let mut r = WireReader::new(bytes);
    let n = r.read_len();
    let values = r.scalars::<f64>(n);
    assert!(
        r.is_empty(),
        "wire decode of Vec<f64> left {} trailing byte(s) — sender/receiver type mismatch",
        r.remaining()
    );
    values
}

/// A communicator: a named, ordered group of ranks with its own isolated
/// tag space. Cheap to clone; clones share the rank's statistics ledger.
pub struct Comm {
    backend: Arc<dyn CommBackend>,
    /// Cached `backend.serializes()` — consulted on every message.
    wire: bool,
    /// Cached `backend.frame_overhead()` — per-message transport bytes
    /// beyond the encoded payload (socket frame headers).
    frame_overhead: u64,
    model: MachineModel,
    shared: Arc<RankShared>,
    /// Global (world) ranks of the members, indexed by communicator rank.
    members: Arc<Vec<usize>>,
    /// This rank's position within `members`.
    rank: usize,
    /// Context id isolating this communicator's messages from others.
    context: u64,
    /// Number of splits performed on this communicator so far (must
    /// advance identically on all members).
    split_seq: Cell<u64>,
    /// Per-`(src comm rank, tag)` ticket counters for non-blocking
    /// receives: (posted, completed). Enforces the in-posting-order
    /// completion contract of [`RecvHandle`].
    nb_recv_seq: RefCell<HashMap<(usize, u32), (u64, u64)>>,
}

impl Comm {
    /// Construct the world communicator for `global_rank`. Used by
    /// [`SimWorld`](crate::SimWorld); algorithms obtain sub-communicators
    /// via [`Comm::split_by`].
    pub(crate) fn world(
        backend: Arc<dyn CommBackend>,
        model: MachineModel,
        shared: Arc<RankShared>,
        global_rank: usize,
    ) -> Self {
        let n = backend.nranks();
        let wire = backend.serializes();
        let frame_overhead = backend.frame_overhead();
        Comm {
            backend,
            wire,
            frame_overhead,
            model,
            shared,
            members: Arc::new((0..n).collect()),
            rank: global_rank,
            context: 0x9E37_79B9_7F4A_7C15,
            split_seq: Cell::new(0),
            nb_recv_seq: RefCell::new(HashMap::new()),
        }
    }

    /// Rank of this process within this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This process's global (world) rank.
    #[inline]
    pub fn my_global_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// The machine model used for time accounting.
    #[inline]
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Diagnostic label of the transport backend carrying this
    /// communicator's messages.
    #[inline]
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    // ------------------------------------------------------------------
    // Phase and statistics management
    // ------------------------------------------------------------------

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.shared.0.lock().expect("ledger lock never poisons")
    }

    /// The one phase-clock transition. Reads the clock once; that
    /// instant closes the current phase's `wall_s` bucket and its trace
    /// span together, then `change` edits the ledger (switch phase,
    /// pause, reset) and the next bucket opens at the same instant.
    fn transition<R>(&self, change: impl FnOnce(&mut RankStats) -> R) -> R {
        let mut l = self.ledger();
        let now = Instant::now();
        let since = std::mem::replace(&mut l.since, now);
        let cur = l.stats.current_phase();
        l.stats
            .record_wall(cur, now.duration_since(since).as_secs_f64());
        let out = change(&mut l.stats);
        trace::phase_span(cur, since, now, l.stats.current_phase());
        out
    }

    /// Switch the active accounting phase, returning the previous one.
    /// Prefer the RAII [`Comm::phase`] guard.
    pub fn set_phase(&self, p: Phase) -> Phase {
        self.transition(|stats| stats.set_phase(p))
    }

    /// RAII guard: activates `p` until dropped, then restores the
    /// previous phase. Wall time is partitioned exactly at transitions.
    pub fn phase(&self, p: Phase) -> PhaseGuard<'_> {
        let prev = self.set_phase(p);
        PhaseGuard { comm: self, prev }
    }

    /// Run `f` as metered local computation: charges `flops` (and the
    /// corresponding γ-modeled time) to the [`Phase::Computation`] bucket
    /// and confines the wall time of `f` to that bucket too.
    pub fn compute<R>(&self, flops: u64, f: impl FnOnce() -> R) -> R {
        let _g = self.phase(Phase::Computation);
        self.record_flops(flops);
        f()
    }

    /// Charge flops to the current phase without switching phases (for
    /// callers that manage phases themselves).
    pub fn record_flops(&self, flops: u64) {
        let t = self.model.flop_time(flops);
        self.ledger().stats.record_flops(flops, t);
    }

    /// Pause statistics (verification / data-staging traffic). Returns a
    /// guard; accounting resumes when it drops, and the paused wall
    /// time is charged to no phase.
    pub fn paused_stats(&self) -> PauseGuard<'_> {
        let prev = self.transition(|stats| stats.set_paused(true));
        PauseGuard { comm: self, prev }
    }

    /// Snapshot of this rank's statistics.
    pub fn stats_snapshot(&self) -> RankStats {
        self.ledger().stats.clone()
    }

    /// Reset this rank's statistics to zero (keeps the current phase).
    pub fn reset_stats(&self) {
        self.transition(|stats| {
            let (phase, paused) = (stats.current_phase(), stats.is_paused());
            *stats = RankStats::default();
            stats.set_phase(phase);
            stats.set_paused(paused);
        });
    }

    /// Close the last wall bucket and phase span (end of the rank's
    /// closure).
    pub(crate) fn finish(&self) {
        self.transition(|_| ());
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    #[inline]
    fn key_from(&self, src_comm_rank: usize, tag: u32) -> (usize, u64, u32) {
        (self.members[src_comm_rank], self.context, tag)
    }

    /// The one post body: hand `value` to the backend in the
    /// representation it requires and charge the send — `α + β·words`
    /// for a `lone` message, nothing for the send half of an exchange
    /// (its receive half charges both). Returns the words sent.
    ///
    /// A serializing backend encodes straight from `value` (owned or
    /// borrowed alike) into a buffer of the backend's; only the typed
    /// path takes ownership, cloning a borrow. Wire bytes are the
    /// encoded payload plus the transport's per-message framing — zero
    /// on the typed path and for self-delivery (short-circuited into the
    /// local mailbox), so `wire_bytes_sent` stays what a transport
    /// genuinely carried.
    fn post<T: WirePayload>(
        &self,
        dst: usize,
        tag: u32,
        value: impl Outgoing<T>,
        lone: bool,
    ) -> u64 {
        let words = value.words() as u64;
        let me = self.my_global_rank();
        let dst_global = self.members[dst];
        let (parcel, wire_bytes) = if self.wire {
            // A word is 8 bytes; shape headers and length prefixes fit
            // in the slack, and `encode` grows the buffer if not.
            let mut buf = self.backend.buffer(8 * words as usize + 64);
            value.encode(&mut buf);
            let carried = buf.len() as u64 + self.frame_overhead;
            let bytes = if dst_global == me { 0 } else { carried };
            (Parcel::Bytes(buf), bytes)
        } else {
            (Parcel::Typed(Box::new(value.into_owned())), 0)
        };
        let key = (me, self.context, tag);
        self.backend.post(dst_global, key, parcel);
        let (name, modeled_s) = match lone {
            true => ("send.post", self.model.msg_time(words)),
            false => ("shift.post", 0.0),
        };
        {
            let mut l = self.ledger();
            l.stats.record_send(words, modeled_s);
            l.stats.record_wire_bytes(wire_bytes);
        }
        trace::mark(TraceKind::Comm, name, || {
            vec![num("dst", dst as f64), num("words", words as f64)]
        });
        words
    }

    /// Send `value` to communicator rank `dst`. Charges `α + β·words` to
    /// the sender (an un-overlapped, one-directional transfer).
    pub fn send<T: WirePayload>(&self, dst: usize, tag: u32, value: T) {
        self.send_from(dst, tag, value);
    }

    /// [`Comm::send`] of an owned or borrowed value.
    pub(crate) fn send_from<T: WirePayload>(&self, dst: usize, tag: u32, value: impl Outgoing<T>) {
        self.post(dst, tag, value, true);
    }

    /// Blocking receive from communicator rank `src`. Charges
    /// `α + β·words` to the receiver.
    pub fn recv<T: WirePayload>(&self, src: usize, tag: u32) -> T {
        self.recv_begin(src, tag).wait()
    }

    /// Turn a delivered parcel into its value and word count. An
    /// encoded buffer goes back to the backend once decoded.
    fn open<T: WirePayload>(&self, parcel: Parcel, src: usize, tag: u32) -> (T, usize) {
        let v = match parcel {
            Parcel::Bytes(bytes) => {
                let v = T::from_wire(&bytes);
                self.backend.recycle(bytes);
                v
            }
            Parcel::Typed(any) => match any.downcast::<T>() {
                Ok(b) => *b,
                Err(_) => panic!(
                    "rank {} (comm size {}): type mismatch receiving tag {} from rank {}: \
                     expected {}",
                    self.rank,
                    self.size(),
                    tag,
                    src,
                    std::any::type_name::<T>()
                ),
            },
        };
        let words = v.words();
        (v, words)
    }

    /// Simultaneous send to `dst` and receive from `src` (both
    /// communicator ranks) — the building block of cyclic shifts and
    /// pairwise-exchange collectives. Following the model's assumption
    /// that sends and receives progress independently, the modeled cost is
    /// `α + β·max(words_out, words_in)` charged once.
    pub fn sendrecv<T: WirePayload>(&self, dst: usize, src: usize, tag: u32, value: T) -> T {
        self.exchange_begin(dst, src, tag, value).wait()
    }

    /// [`Comm::sendrecv`] of flat `f64` blocks, sent from a borrowed
    /// slice and received unopened (see [`F64Block`]). Same message,
    /// same bytes, same charges as exchanging the `Vec<f64>`s.
    pub(crate) fn sendrecv_f64s(
        &self,
        dst: usize,
        src: usize,
        tag: u32,
        values: &[f64],
    ) -> F64Block<'_> {
        self.exchange_begin::<Vec<f64>>(dst, src, tag, values)
            .wait_with(F64Block::Typed, |parcel| {
                F64Block::open(self, parcel, src, tag)
            })
    }

    /// Cyclic shift by `disp`: send to `(rank + disp) mod size`, receive
    /// from `(rank - disp) mod size`.
    pub fn shift<T: WirePayload>(&self, disp: usize, tag: u32, value: T) -> T {
        self.shift_begin(disp, tag, value).wait()
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point
    // ------------------------------------------------------------------

    /// Begin a non-blocking receive from communicator rank `src`. The
    /// message is charged (`α + β·words`, like [`Comm::recv`]) when the
    /// returned handle is awaited. See the module docs for the ordering
    /// and completion contract.
    pub fn recv_begin<T: WirePayload>(&self, src: usize, tag: u32) -> RecvHandle<'_, T> {
        let mut map = self.nb_recv_seq.borrow_mut();
        let posted = &mut map.entry((src, tag)).or_insert((0, 0)).0;
        *posted += 1;
        RecvHandle {
            comm: self,
            src,
            tag,
            ticket: *posted - 1,
            paired_send_words: None,
            state: HandleState::Pending,
        }
    }

    /// Begin an exchange: post `value` to `dst` (its cost deferred to
    /// the receive half) and claim the message from `src` with the
    /// returned handle, which charges `α + β·max(w_out, w_in)`.
    pub(crate) fn exchange_begin<T: WirePayload>(
        &self,
        dst: usize,
        src: usize,
        tag: u32,
        value: impl Outgoing<T>,
    ) -> RecvHandle<'_, T> {
        let words_out = self.post(dst, tag, value, false);
        let mut handle = self.recv_begin(src, tag);
        handle.paired_send_words = Some(words_out);
        handle
    }

    /// Begin a cyclic shift by `disp`: the outgoing block is posted
    /// immediately, the incoming block is claimed by the returned
    /// handle. The blocking [`Comm::shift`] is this, awaited at once.
    /// On a 1-rank communicator the value is returned through the
    /// handle untouched, with no accounting.
    pub fn shift_begin<T: WirePayload>(
        &self,
        disp: usize,
        tag: u32,
        value: T,
    ) -> RecvHandle<'_, T> {
        self.shift_begin_from(disp, tag, value)
    }

    /// [`Comm::shift_begin`] of a value the caller keeps (and may go on
    /// reading while the copy is in flight): a serializing backend
    /// encodes from the borrow, the typed backend clones it.
    pub fn shift_begin_ref<T: WirePayload + Clone>(
        &self,
        disp: usize,
        tag: u32,
        value: &T,
    ) -> RecvHandle<'_, T> {
        self.shift_begin_from(disp, tag, value)
    }

    fn shift_begin_from<T: WirePayload>(
        &self,
        disp: usize,
        tag: u32,
        value: impl Outgoing<T>,
    ) -> RecvHandle<'_, T> {
        let p = self.size();
        if p == 1 {
            return RecvHandle {
                comm: self,
                src: 0,
                tag,
                ticket: 0,
                paired_send_words: None,
                state: HandleState::Resolved(value.into_owned()),
            };
        }
        let dst = (self.rank + disp) % p;
        let src = (self.rank + p - disp % p) % p;
        self.exchange_begin(dst, src, tag, value)
    }

    // ------------------------------------------------------------------
    // Splitting
    // ------------------------------------------------------------------

    /// Split into sub-communicators by color, **without communication**:
    /// `color` must be a pure function of the communicator rank that every
    /// member evaluates identically (true for all grid decompositions in
    /// this workspace). Members keep their relative order.
    pub fn split_by(&self, color: impl Fn(usize) -> u64) -> Comm {
        let my_color = color(self.rank);
        let mut members = Vec::new();
        let mut my_new_rank = usize::MAX;
        for r in 0..self.size() {
            if color(r) == my_color {
                if r == self.rank {
                    my_new_rank = members.len();
                }
                members.push(self.members[r]);
            }
        }
        debug_assert_ne!(my_new_rank, usize::MAX);
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        Comm {
            backend: Arc::clone(&self.backend),
            wire: self.wire,
            frame_overhead: self.frame_overhead,
            model: self.model,
            shared: Arc::clone(&self.shared),
            members: Arc::new(members),
            rank: my_new_rank,
            context: mix_context(self.context, seq, my_color),
            split_seq: Cell::new(0),
            nb_recv_seq: RefCell::new(HashMap::new()),
        }
    }

    /// A new communicator with the same members but an isolated tag space.
    pub fn dup(&self) -> Comm {
        self.split_by(|_| 0)
    }
}

enum HandleState<T> {
    /// Message not yet claimed from the mailbox.
    Pending,
    /// 1-rank shift short-circuit: the value never left this rank and no
    /// accounting applies.
    Resolved(T),
    /// `wait` has consumed the handle (observed only by `Drop`).
    Done,
}

/// Handle for an in-flight non-blocking receive started with
/// [`Comm::recv_begin`] or [`Comm::shift_begin`]. See the module docs
/// for the ordering, completion, failure, and accounting contract.
#[must_use = "dropping an unawaited RecvHandle panics; call wait()"]
pub struct RecvHandle<'a, T: WirePayload> {
    comm: &'a Comm,
    src: usize,
    tag: u32,
    ticket: u64,
    /// `Some(words_out)` when this handle is the receive half of a
    /// `shift_begin`: the receive is then charged
    /// `α + β·max(words_out, words_in)` to mirror [`Comm::sendrecv`].
    paired_send_words: Option<u64>,
    state: HandleState<T>,
}

impl<T: WirePayload> RecvHandle<'_, T> {
    /// Whether `wait` would return without blocking: it is this handle's
    /// turn on its `(src, tag)` stream and a matching message is queued.
    /// Under the wire-delay backend a message may poll ready while its
    /// modeled flight time is still being charged; `wait` sleeps out the
    /// residue.
    pub fn poll(&self) -> bool {
        match &self.state {
            HandleState::Resolved(_) => true,
            HandleState::Done => unreachable!("polled a completed RecvHandle"),
            HandleState::Pending => {
                let (comm, stream) = (self.comm, (self.src, self.tag));
                let head = comm.nb_recv_seq.borrow().get(&stream).map(|seq| seq.1);
                head == Some(self.ticket)
                    && comm
                        .backend
                        .probe(comm.my_global_rank(), comm.key_from(self.src, self.tag))
            }
        }
    }

    /// Block until the message arrives and return it. Charges the receive
    /// to the current phase (see the module docs for the formula) and
    /// records the wall time spent blocked on its arrival as per-phase
    /// stall time.
    ///
    /// Panics if an earlier receive on the same `(src, tag)` stream has
    /// not completed yet.
    pub fn wait(self) -> T {
        let (comm, src, tag) = (self.comm, self.src, self.tag);
        self.wait_with(|v| v, |parcel| comm.open(parcel, src, tag))
    }

    /// The one complete body. `open` turns the delivered parcel into
    /// the result and reports its words (so a caller may keep the
    /// message unopened); `resolved` wraps a value that never left this
    /// rank.
    pub(crate) fn wait_with<R>(
        mut self,
        resolved: impl FnOnce(T) -> R,
        open: impl FnOnce(Parcel) -> (R, usize),
    ) -> R {
        match std::mem::replace(&mut self.state, HandleState::Done) {
            HandleState::Resolved(v) => resolved(v),
            HandleState::Done => unreachable!("waited on a completed RecvHandle"),
            HandleState::Pending => {
                let (comm, src, tag) = (self.comm, self.src, self.tag);
                {
                    let mut map = comm.nb_recv_seq.borrow_mut();
                    let completed = &mut map
                        .get_mut(&(src, tag))
                        .expect("RecvHandle with no ticket record")
                        .1;
                    assert_eq!(
                        *completed,
                        self.ticket,
                        "rank {}: receive for (src {src}, tag {tag}) awaited out of order: \
                         ticket {} but {} earlier receive(s) on this stream are still pending",
                        comm.rank,
                        self.ticket,
                        self.ticket - *completed
                    );
                    *completed += 1;
                }
                let start = Instant::now();
                let key = comm.key_from(src, tag);
                let parcel = comm.backend.take(comm.my_global_rank(), key);
                let taken = Instant::now();
                let (v, words_in) = open(parcel);
                let words = words_in as u64;
                let charged = self.paired_send_words.map_or(words, |out| out.max(words));
                // One set of clock reads feeds the counters and the span.
                let stall = taken.duration_since(start).as_secs_f64();
                {
                    let mut l = comm.ledger();
                    l.stats.record_recv(words, comm.model.msg_time(charged));
                    l.stats.record_stall(stall);
                }
                if trace::active() {
                    let done = Instant::now();
                    let name = match self.paired_send_words {
                        None => "recv.wait",
                        Some(_) => "shift.wait",
                    };
                    trace::span(TraceKind::Comm, name, start, done, || {
                        vec![
                            num("src", src as f64),
                            num("words", words as f64),
                            num("stall_s", stall),
                            num("decode_s", done.duration_since(taken).as_secs_f64()),
                        ]
                    });
                }
                v
            }
        }
    }
}

impl<T: WirePayload> Drop for RecvHandle<'_, T> {
    fn drop(&mut self) {
        if !matches!(self.state, HandleState::Done) && !std::thread::panicking() {
            panic!(
                "rank {}: RecvHandle for (src {}, tag {}) dropped without wait() — \
                 a pending non-blocking receive must be completed, or its message \
                 leaks into the mailbox",
                self.comm.rank, self.src, self.tag
            );
        }
    }
}

/// RAII guard restoring the previous [`Phase`] on drop.
pub struct PhaseGuard<'a> {
    comm: &'a Comm,
    prev: Phase,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.comm.set_phase(self.prev);
    }
}

/// RAII guard resuming statistics collection on drop.
pub struct PauseGuard<'a> {
    comm: &'a Comm,
    prev: bool,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.comm.transition(|stats| stats.set_paused(self.prev));
    }
}

/// SplitMix64-style mixing of (parent context, split sequence, color) into
/// a new context id. Collision probability is negligible for the handful
/// of communicators an algorithm creates.
fn mix_context(parent: u64, seq: u64, color: u64) -> u64 {
    let mut z = parent ^ seq.rotate_left(17) ^ color.rotate_left(41);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_context_separates_colors_and_seqs() {
        let a = mix_context(1, 0, 0);
        let b = mix_context(1, 0, 1);
        let c = mix_context(1, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
