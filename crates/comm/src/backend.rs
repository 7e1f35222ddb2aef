//! The pluggable communication backend: how messages physically move
//! between ranks.
//!
//! [`Comm`](crate::Comm) and the collectives are written against the
//! narrow [`CommBackend`] trait — point-to-point delivery of
//! [`Parcel`]s keyed by `(src, context, tag)`, plus probe, drain, and
//! watchdog hooks — so that the *realization* of a message is a
//! per-world choice, not a property baked into algorithm code. Three
//! backends ship, behind four [`BackendKind`]s:
//!
//! * [`InProcBackend`] — the fast default. Messages are typed boxes
//!   moved by ownership between threads sharing one address space; a
//!   send costs an allocation and a mutex acquisition, and the α-β
//!   network cost is *accounted* by the machine model but never
//!   *exercised*.
//! * [`WireBackend`] — every payload must round-trip through the
//!   [`WirePayload`](crate::payload::WirePayload) encode/decode surface
//!   into a contiguous byte buffer, exactly as an MPI or RDMA transport
//!   would require. Optionally injects the machine model's `α + β·w`
//!   delay on every delivery so *measured* wall time can be made to
//!   track *modeled* time (`wire` and `wire-delay`).
//! * [`SocketBackend`](crate::socket::SocketBackend) — every rank a
//!   separate OS process, spawned by the launcher on its own host,
//!   exchanging length-prefixed frames over Unix-domain sockets
//!   (`socket`; see [`crate::launch`]).
//!
//! Nothing outside `dsk-comm` names a concrete backend: worlds are
//! configured with the [`BackendKind`] selector (or the
//! `DSK_COMM_BACKEND` environment variable, which is how CI runs the
//! whole workspace suite over the wire path).

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::model::MachineModel;
use crate::pool::BufferPool;
use crate::transport::{Mailbox, MsgKey};

/// A message in backend representation.
pub enum Parcel {
    /// A typed value moved by ownership — zero-copy, in-process only.
    Typed(Box<dyn Any + Send>),
    /// A contiguous encoded byte buffer — what a real network carries.
    Bytes(Vec<u8>),
}

impl Parcel {
    /// Length of the encoded buffer, `None` for typed parcels.
    pub fn wire_len(&self) -> Option<usize> {
        match self {
            Parcel::Typed(_) => None,
            Parcel::Bytes(b) => Some(b.len()),
        }
    }
}

/// A point-to-point message transport between the ranks of one world.
///
/// Implementations must be fully thread-safe: every rank calls
/// concurrently. Delivery is FIFO per `(src, context, tag)` key and
/// reliable; a blocking [`CommBackend::take`] that outlives
/// [`CommBackend::recv_timeout`] must panic with a diagnostic (the
/// watchdog hook) rather than hang.
pub trait CommBackend: Send + Sync {
    /// Short label for diagnostics and benchmark tables.
    fn name(&self) -> &'static str;

    /// Number of ranks this backend connects.
    fn nranks(&self) -> usize;

    /// Whether payloads must be encoded into contiguous wire buffers
    /// ([`Parcel::Bytes`]) before posting. When `false`, senders may
    /// post [`Parcel::Typed`] and receivers get the same allocation
    /// back untouched.
    fn serializes(&self) -> bool;

    /// The watchdog bound on every blocking receive.
    fn recv_timeout(&self) -> Duration;

    /// Deposit a parcel into `dst`'s mailbox.
    fn post(&self, dst: usize, key: MsgKey, parcel: Parcel);

    /// Blocking receive of the next parcel for `key` addressed to `me`.
    ///
    /// # Panics
    ///
    /// Panics when the watchdog expires — a mismatched send/receive
    /// pattern in the algorithm.
    fn take(&self, me: usize, key: MsgKey) -> Parcel;

    /// Non-blocking probe: is a parcel for `key` queued at `me`?
    ///
    /// Queue-based: a delay-injecting backend may report a parcel ready
    /// slightly before its modeled delivery deadline; the blocking
    /// [`CommBackend::take`] still sleeps out the residual.
    fn probe(&self, me: usize, key: MsgKey) -> bool;

    /// Drain hook: count of undelivered parcels across all mailboxes.
    /// The world asserts this is zero after a run — a leaked message is
    /// a protocol bug.
    fn pending_messages(&self) -> usize;

    /// Per-message framing bytes this transport adds on top of the
    /// encoded payload (zero for in-memory backends; the socket backend
    /// reports its frame-header size so `wire_bytes_sent` equals bytes
    /// actually written to the socket).
    fn frame_overhead(&self) -> u64 {
        0
    }

    /// An empty buffer to encode a message of about `capacity` bytes
    /// into. Serializing backends serve large requests from their
    /// [`BufferPool`]; the default is a fresh allocation.
    fn buffer(&self, capacity: usize) -> Vec<u8> {
        Vec::with_capacity(capacity)
    }

    /// Hand back the byte buffer of a [`Parcel::Bytes`] once its value
    /// has been decoded, for the backend to reuse. The default drops it.
    fn recycle(&self, _buf: Vec<u8>) {}

    /// Transport-failure hook: mark the backend failed so every blocked
    /// and future receive panics with `msg` immediately instead of
    /// waiting out the watchdog. The epoch runner (`SimWorld::run` and
    /// [`SimWorld::try_run`](crate::SimWorld::try_run) alike) uses this
    /// to fail survivors fast when a rank dies mid-epoch; backends
    /// without a shared mailbox may ignore it.
    fn poison(&self, _msg: &str) {}
}

/// The typed zero-copy in-process backend (the default).
pub struct InProcBackend {
    mailbox: Mailbox<Parcel>,
}

impl InProcBackend {
    /// Backend for `nranks` ranks with the given receive watchdog.
    pub fn new(nranks: usize, recv_timeout: Duration) -> Arc<Self> {
        Arc::new(InProcBackend {
            mailbox: Mailbox::new(nranks, recv_timeout),
        })
    }
}

impl CommBackend for InProcBackend {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn nranks(&self) -> usize {
        self.mailbox.nranks()
    }

    fn serializes(&self) -> bool {
        false
    }

    fn recv_timeout(&self) -> Duration {
        self.mailbox.recv_timeout()
    }

    fn post(&self, dst: usize, key: MsgKey, parcel: Parcel) {
        self.mailbox.post(dst, key, parcel);
    }

    fn take(&self, me: usize, key: MsgKey) -> Parcel {
        self.mailbox.take(me, key)
    }

    fn probe(&self, me: usize, key: MsgKey) -> bool {
        self.mailbox.probe(me, key)
    }

    fn pending_messages(&self) -> usize {
        self.mailbox.pending_messages()
    }

    fn poison(&self, msg: &str) {
        self.mailbox.poison(msg.to_string());
    }
}

/// The serialized wire backend: only contiguous byte buffers travel.
///
/// With a delay model attached, every message carries an `α + β·w`
/// delivery deadline (w in 8-byte words of the encoded buffer) stamped
/// **at post time**; a receive completes no earlier than that deadline,
/// sleeping only the residual. A receiver that overlaps the in-flight
/// time with its own compute therefore pays only the uncovered
/// remainder — exactly how a non-blocking transport behaves — while a
/// receiver that blocks immediately after the post observes the full
/// `α + β·w`, identical to the pre-pipelining behavior. The injected
/// delay is clamped at [`WIRE_DELAY_CLAMP_S`] per message: realistic
/// constants ([`MachineModel::cori_knl`]-like) sit far below the clamp,
/// while test models like `bandwidth_only` (one *second* per word)
/// would otherwise turn a `DSK_COMM_BACKEND=wire-delay` run of the
/// unit suites into hours of sleeping.
pub struct WireBackend {
    mailbox: Mailbox<Timed>,
    delay: Option<MachineModel>,
    /// Encode buffers, shared by every rank of the world: the sender
    /// takes one, the receiver returns it after decoding.
    pool: BufferPool,
}

/// A parcel stamped with its earliest delivery instant (wire-delay
/// backend only; `None` when no delay model is attached).
struct Timed {
    parcel: Parcel,
    deadline: Option<Instant>,
}

/// Upper bound on the per-message delay the wire-delay backend injects,
/// in seconds. Modeled time accounting is unaffected — the clamp only
/// bounds real sleeping.
pub const WIRE_DELAY_CLAMP_S: f64 = 5e-3;

impl WireBackend {
    /// Wire backend without delay injection: messages round-trip
    /// through bytes but deliver at memory speed.
    pub fn new(nranks: usize, recv_timeout: Duration) -> Arc<Self> {
        Arc::new(WireBackend {
            mailbox: Mailbox::new(nranks, recv_timeout),
            delay: None,
            pool: BufferPool::new(),
        })
    }

    /// Wire backend that sleeps `model.msg_time(words)` on every
    /// delivery.
    pub fn with_delay(nranks: usize, recv_timeout: Duration, model: MachineModel) -> Arc<Self> {
        Arc::new(WireBackend {
            mailbox: Mailbox::new(nranks, recv_timeout),
            delay: Some(model),
            pool: BufferPool::new(),
        })
    }
}

impl CommBackend for WireBackend {
    fn name(&self) -> &'static str {
        "wire"
    }

    fn nranks(&self) -> usize {
        self.mailbox.nranks()
    }

    fn serializes(&self) -> bool {
        true
    }

    fn recv_timeout(&self) -> Duration {
        self.mailbox.recv_timeout()
    }

    fn post(&self, dst: usize, key: MsgKey, parcel: Parcel) {
        assert!(
            matches!(parcel, Parcel::Bytes(_)),
            "wire backend requires encoded parcels — a typed message \
             bypassed the WirePayload surface"
        );
        let deadline = self.delay.as_ref().map(|model| {
            let words = parcel.wire_len().unwrap_or(0).div_ceil(8) as u64;
            let t = model.msg_time(words).min(WIRE_DELAY_CLAMP_S);
            Instant::now() + Duration::from_secs_f64(t.max(0.0))
        });
        self.mailbox.post(dst, key, Timed { parcel, deadline });
    }

    fn take(&self, me: usize, key: MsgKey) -> Parcel {
        let timed = self.mailbox.take(me, key);
        if let Some(deadline) = timed.deadline {
            let now = Instant::now();
            if deadline > now {
                std::thread::sleep(deadline - now);
            }
        }
        timed.parcel
    }

    fn probe(&self, me: usize, key: MsgKey) -> bool {
        self.mailbox.probe(me, key)
    }

    fn pending_messages(&self) -> usize {
        self.mailbox.pending_messages()
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

/// Which backend a [`SimWorld`](crate::SimWorld) builds its ranks on.
/// This selector is the only backend surface consumers see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Typed zero-copy in-process mailboxes (the fast default).
    #[default]
    InProc,
    /// Serialized wire buffers: every payload encodes/decodes.
    Wire,
    /// Serialized wire buffers plus injected α-β delays from the
    /// world's machine model, so measured time tracks modeled time.
    WireDelay,
    /// Real OS transport: every rank is a separate process, spawned by
    /// the launcher on its own host, and every message crosses a
    /// Unix-domain socket as a length-prefixed frame. `SimWorld::run`
    /// becomes a process launcher under this kind — see
    /// [`crate::launch`].
    Socket,
}

/// Environment variable consulted by [`BackendKind::from_env`]:
/// `inproc` (default), `wire`, `wire-delay`, or `socket`.
pub const BACKEND_ENV_VAR: &str = "DSK_COMM_BACKEND";

impl BackendKind {
    /// The backend selected by `DSK_COMM_BACKEND`, defaulting to
    /// [`BackendKind::InProc`] when unset or empty. CI uses this to run
    /// the entire workspace test suite over the wire path.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a silently ignored selector
    /// would quietly un-test the wire backend.
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV_VAR) {
            Err(_) => BackendKind::InProc,
            Ok(v) => match v.trim() {
                "" | "inproc" => BackendKind::InProc,
                "wire" => BackendKind::Wire,
                "wire-delay" => BackendKind::WireDelay,
                "socket" => BackendKind::Socket,
                other => panic!(
                    "{BACKEND_ENV_VAR}={other:?} is not a backend \
                     (expected inproc | wire | wire-delay | socket)"
                ),
            },
        }
    }

    /// Short label for diagnostics and benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::InProc => "inproc",
            BackendKind::Wire => "wire",
            BackendKind::WireDelay => "wire-delay",
            BackendKind::Socket => "socket",
        }
    }

    /// The two backends every conformance suite should cover (delay
    /// injection changes timing, not semantics, so it is not part of
    /// the conformance axis).
    pub const CONFORMANCE: [BackendKind; 2] = [BackendKind::InProc, BackendKind::Wire];

    /// The conformance axis plus the environment-selected backend when
    /// it is not already covered — how a `DSK_COMM_BACKEND=socket` (or
    /// `wire-delay`) CI leg pulls the full conformance and collectives
    /// suites onto that transport without slowing the default run.
    pub fn conformance_with_env() -> Vec<BackendKind> {
        let mut kinds = Self::CONFORMANCE.to_vec();
        let env = Self::from_env();
        if !kinds.contains(&env) {
            kinds.push(env);
        }
        kinds
    }

    /// Instantiate the backend for a world (crate-internal; consumers
    /// go through [`SimWorld::backend`](crate::SimWorld::backend)).
    pub(crate) fn build(
        self,
        nranks: usize,
        recv_timeout: Duration,
        model: MachineModel,
    ) -> Arc<dyn CommBackend> {
        match self {
            BackendKind::InProc => InProcBackend::new(nranks, recv_timeout),
            BackendKind::Wire => WireBackend::new(nranks, recv_timeout),
            BackendKind::WireDelay => WireBackend::with_delay(nranks, recv_timeout, model),
            // The socket backend needs a live process mesh, not just a
            // mailbox: SimWorld::run routes to crate::launch before
            // reaching this factory.
            BackendKind::Socket => {
                unreachable!("socket worlds are launched by crate::launch, not built in-place")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_moves_typed_parcels_untouched() {
        let b = InProcBackend::new(2, Duration::from_secs(5));
        assert!(!b.serializes());
        b.post(1, (0, 0, 0), Parcel::Typed(Box::new(vec![1.0f64, 2.0])));
        match b.take(1, (0, 0, 0)) {
            Parcel::Typed(any) => {
                assert_eq!(*any.downcast::<Vec<f64>>().unwrap(), vec![1.0, 2.0]);
            }
            Parcel::Bytes(_) => panic!("in-proc backend must not serialize"),
        }
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn wire_carries_bytes() {
        let b = WireBackend::new(2, Duration::from_secs(5));
        assert!(b.serializes());
        b.post(0, (1, 0, 7), Parcel::Bytes(vec![1, 2, 3]));
        assert!(b.probe(0, (1, 0, 7)));
        match b.take(0, (1, 0, 7)) {
            Parcel::Bytes(bytes) => assert_eq!(bytes, vec![1, 2, 3]),
            Parcel::Typed(_) => panic!("wire backend must carry bytes"),
        }
    }

    #[test]
    #[should_panic(expected = "bypassed the WirePayload surface")]
    fn wire_rejects_typed_parcels() {
        let b = WireBackend::new(1, Duration::from_secs(1));
        b.post(0, (0, 0, 0), Parcel::Typed(Box::new(1u64)));
    }

    #[test]
    fn wire_delay_sleeps_per_message() {
        // 4 ms per message (below the clamp), no bandwidth term: coarse
        // enough to measure, fast enough for a unit test.
        let model = MachineModel {
            alpha_s: 4e-3,
            beta_s_per_word: 0.0,
            gamma_s_per_flop: 0.0,
        };
        let b = WireBackend::with_delay(1, Duration::from_secs(5), model);
        b.post(0, (0, 0, 0), Parcel::Bytes(vec![0u8; 64]));
        let t0 = std::time::Instant::now();
        let _ = b.take(0, (0, 0, 0));
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn wire_delay_clamps_pathological_models() {
        // bandwidth_only charges one second per word; the clamp keeps
        // the injected sleep bounded so `DSK_COMM_BACKEND=wire-delay`
        // runs of model-agnostic suites stay fast.
        let b = WireBackend::with_delay(1, Duration::from_secs(5), MachineModel::bandwidth_only());
        b.post(0, (0, 0, 0), Parcel::Bytes(vec![0u8; 8 * 1024]));
        let t0 = std::time::Instant::now();
        let _ = b.take(0, (0, 0, 0));
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(4), "delay still injected");
        assert!(dt < Duration::from_secs(1), "1024-word sleep must clamp");
    }

    #[test]
    fn kind_labels_and_default() {
        assert_eq!(BackendKind::default(), BackendKind::InProc);
        assert_eq!(BackendKind::Wire.label(), "wire");
        assert_eq!(BackendKind::CONFORMANCE.len(), 2);
    }

    #[test]
    fn kind_builds_matching_backend() {
        let m = MachineModel::bandwidth_only();
        let t = Duration::from_secs(1);
        assert!(!BackendKind::InProc.build(2, t, m).serializes());
        assert!(BackendKind::Wire.build(2, t, m).serializes());
        assert_eq!(BackendKind::Wire.build(3, t, m).nranks(), 3);
        assert_eq!(BackendKind::InProc.build(2, t, m).recv_timeout(), t);
    }
}
