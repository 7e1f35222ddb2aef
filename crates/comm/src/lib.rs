//! # dsk-comm — simulated distributed-memory runtime with pluggable backends
//!
//! This crate provides the message-passing substrate used by every
//! distributed algorithm in the workspace. It plays the role MPI plays in
//! the paper (*Distributed-Memory Sparse Kernels for Machine Learning*,
//! IPDPS 2022): ranks, point-to-point messages, collectives, communicator
//! splitting, and cartesian process grids.
//!
//! Under the in-memory backends, ranks are OS threads inside one
//! process; under the socket backend they are separate OS *processes*
//! exchanging frames over real sockets. Either way, each rank owns its
//! data privately and may interact with other ranks **only** through a
//! [`Comm`] handle, so algorithm code is structured exactly as it would
//! be on a real distributed-memory machine.
//!
//! ## Backend selection matrix
//!
//! | `BackendKind` / `DSK_COMM_BACKEND` | ranks are | payloads | delivery cost | `wire_bytes_sent` |
//! |---|---|---|---|---|
//! | `InProc` / `inproc` (default) | threads | typed boxes, moved by ownership | memory speed | 0 |
//! | `Wire` / `wire` | threads | encoded byte buffers ([`WirePayload`]) | memory speed | encoded payload bytes |
//! | `WireDelay` / `wire-delay` | threads | encoded byte buffers | sleeps `α + β·w` per message (clamped) | encoded payload bytes |
//! | `Socket` / `socket` | **processes** | length-prefixed frames over Unix/TCP sockets | real transport | bytes actually written (frame headers included) |
//!
//! Word accounting — and therefore every modeled metric — is identical
//! across all four; the backends differ only in how a message is
//! *realized*. The socket frame format is specified in [`frame`], and
//! the process-launch/rendezvous protocol in [`launch`].
//!
//! ## The backend split
//!
//! *What* a message costs and *how* it moves are separate concerns:
//!
//! * **Accounting** is backend-independent. Every message is counted in
//!   words via [`Payload`], and a configurable [`MachineModel`] (α
//!   per-message latency, β inverse bandwidth, γ per-flop cost) converts
//!   the measured message/word/flop counts into a *modeled* execution
//!   time with Cray-XC40-like constants. Real wall-clock time is
//!   recorded alongside, phase-tagged ([`Phase`]) into the paper's
//!   *replication* / *propagation* / *computation* taxonomy.
//! * **Realization** is the job of a
//!   [`CommBackend`]: a narrow trait moving
//!   contiguous parcels keyed by `(src, context, tag)`, with probe,
//!   drain, and watchdog hooks. The in-process backend moves typed
//!   values by ownership (zero-copy, the fast default); the wire
//!   backend forces every payload through the [`WirePayload`]
//!   encode/decode surface — dense tiles, sparse blocks, and R-value
//!   vectors all serialize into byte buffers, exactly as an MPI/RDMA
//!   transport would require — and can optionally inject the machine
//!   model's α-β delay per message so measured time tracks modeled
//!   time.
//!
//! Worlds pick a backend with [`SimWorld::backend`] and the
//! [`BackendKind`] selector, or via the `DSK_COMM_BACKEND` environment
//! variable (`inproc` | `wire` | `wire-delay`), which is how CI runs
//! the entire workspace suite over the wire path. No crate outside
//! `dsk-comm` names a concrete backend type.
//!
//! ## The serialized message path: one pass per side
//!
//! On the serializing backends a message costs its sender one pass
//! (the encode) and its receiver one (the decode). `Comm` encodes
//! straight from the caller's value — owned, `&T`, or a `&[f64]`
//! standing for a `Vec<f64>` — into a buffer from the backend's
//! [`pool::BufferPool`]; scalar arrays encode and decode as bulk
//! little-endian blocks ([`payload::encode_scalars`],
//! [`WireReader::scalars`]); [`frame::write_frame`] gathers header and
//! payload onto the socket without joining them; the reader threads
//! read each payload into a recycled buffer without zeroing it; and
//! whoever empties a buffer last hands it back. The wire format is
//! the plain per-element layout, byte for byte.
//!
//! ## Sparse-aware communication: patterns and primitives
//!
//! Between `Comm` and the algorithms sits the [`pattern`] layer, which
//! lets a shift- or collective-based algorithm ship only the rows of a
//! dense tile its receivers actually touch:
//!
//! * [`RowSet`] describes which rows of a traveling tile a rank needs,
//!   derived from the local sparse structure;
//! * [`CommPattern::exchange`] all-gathers every ring member's need
//!   sets once per plan — real traffic, charged to its own
//!   [`Phase::PatternExchange`] bucket so the cost of *knowing* the
//!   pattern is never hidden;
//! * [`RowBundle`] is the indexed-row payload for pattern-routed
//!   shifts: `k` rows of width `w` cost `k·(w+1)` words and it degrades
//!   to the plain dense tile when indexing stops paying (the SparCML
//!   switchover), so routing can never cost more words than the dense
//!   path it replaces;
//! * [`Comm::sparse_allgather`] ships per-peer row subsets of a
//!   replicated block, and [`Comm::sparse_alltoallv`] skips peer pairs
//!   that deterministically have nothing to exchange — both handshake-
//!   free, so they behave identically under threads and real sockets.
//!
//! Word accounting stays backend-invariant throughout; the primitives
//! only change *how many* words travel, never how they are counted.
//!
//! ## Elastic fleets and multi-host launch
//!
//! The socket backend launches a rank *pool* whose size can differ from
//! — and change between — the worlds it serves. Each `SimWorld::run`
//! (or [`SimWorld::try_run`]) is one **epoch**: ranks rendezvous with
//! the coordinator, exchange version/endianness/capability-checked
//! `Hello` frames (mismatches are rejected with a typed, actionable
//! [`HandshakeError`]), and receive a world [`rendezvous::Roster`]
//! before meshing. Epochs may open with a different roster than the
//! last: growing `nranks` spawns and back-fills new processes, while a
//! rank that dies mid-epoch is detected by mailbox poisoning and the
//! epoch ends on every rank with the same verdict. There is one epoch
//! protocol on every backend: [`SimWorld::try_run`] returns the verdict
//! as an [`EpochError`] naming the dead ranks and the pool survives —
//! the next epoch's roster simply omits them — while [`SimWorld::run`]
//! is the same epoch plus teardown: it kills the pool and panics with
//! the root cause (`rank N panicked: …`). The full protocol is
//! documented in [`rendezvous`] and [`launch`].
//!
//! Multi-host runs use TCP endpoints: set `DSK_SOCKET_ADDR=ip:port` and
//! rank `r` listens on `port + r`. For manual SPMD launches across
//! hosts, write a hostfile (one `ip:port` per rank;
//! [`rendezvous::parse_hostfile`]) and start one process per line with
//! `DSK_RANK=r` set. See the repository README for a worked example.
//!
//! ## Tracing: per-rank span timelines
//!
//! Setting `DSK_TRACE=path` (or `Session::builder().trace(path)` in
//! `dsk-core`) turns on the [`trace`] recorder: each rank buffers
//! `{ts, dur, rank, phase, kind, args}` events against its own
//! monotonic clock at the existing instrumentation choke points —
//! phase transitions, send posts, receive waits with stall
//! attribution, shift-pipeline lanes, epoch rendezvous/abort, and
//! session migration (the full event vocabulary is tabulated in
//! [`trace`]).
//!
//! **Gather-at-broadcast flow.** At epoch end each rank drains its
//! buffer. In-memory, the world merges the per-thread buffers
//! directly. Under the socket backend, each member appends its encoded
//! events to the `Outcome` control frame it already sends to rank 0,
//! and rank 0 echoes them back inside the `OutcomeSet` broadcast —
//! control frames never enter word accounting, so the piggyback is
//! free of modeled cost. The launcher then offset-aligns every rank's
//! clock at the epoch's [`trace::SYNC_EVENT`] anchor and rewrites the
//! Chrome trace-event JSON file, loadable in Perfetto with one track
//! per rank and nested spans per phase. When tracing is off, every
//! hook is a branch on a cached bool — zero allocations — and tracing
//! never touches [`RankStats`], so modeled counters are byte-identical
//! with tracing on or off (asserted like [`Phase::LocalTuning`]'s
//! zero-traffic invariant).
//!
//! ## The receive watchdog
//!
//! Every blocking receive is bounded by a watchdog (default **300 s**)
//! so a mismatched communication pattern panics with a diagnostic
//! instead of deadlocking. The `DSK_WATCHDOG_SECS` environment variable
//! ([`WATCHDOG_ENV_VAR`]) overrides the default for every world that
//! does not set an explicit [`SimWorld::with_recv_timeout`]; values are
//! clamped to at least one second. Lower it in interactive debugging to
//! fail fast; raise it on heavily oversubscribed CI machines.
//!
//! ## Quick start
//!
//! ```
//! use dsk_comm::{BackendKind, SimWorld, MachineModel, Phase};
//!
//! // Same program, either backend: word counts and results agree.
//! for kind in BackendKind::CONFORMANCE {
//!     let world = SimWorld::new(4, MachineModel::cori_knl()).backend(kind);
//!     let outcomes = world.run(|comm| {
//!         let _g = comm.phase(Phase::Propagation);
//!         // Everyone contributes rank*1.0; the ring all-gather returns all
//!         // contributions ordered by rank.
//!         let all = comm.allgather(vec![comm.rank() as f64]);
//!         all.iter().map(|v| v[0]).sum::<f64>()
//!     });
//!     assert!(outcomes.iter().all(|o| o.value == 6.0));
//! }
//! ```

// Indexed `for i in 0..n` loops over CSR index structures are the
// domain idiom throughout this workspace; the iterator rewrites
// clippy suggests obscure the sparse-index arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod collectives;
pub mod comm;
pub mod frame;
pub mod grid;
pub mod launch;
pub mod model;
pub mod pattern;
pub mod payload;
pub mod pool;
pub mod rendezvous;
pub mod socket;
pub mod stats;
pub mod trace;
pub mod transport;
pub mod world;

pub use backend::{BackendKind, CommBackend, InProcBackend, Parcel, WireBackend, BACKEND_ENV_VAR};
pub use comm::{Comm, RecvHandle};
pub use grid::{Grid15, Grid25, GridComms15, GridComms25};
pub use model::MachineModel;
pub use pattern::{CommPattern, RowBundle, RowSet};
pub use payload::{Payload, WirePayload, WireReader};
pub use rendezvous::HandshakeError;
pub use stats::{AggregateStats, Phase, PhaseCounters, RankStats, N_PHASES};
pub use world::{EpochError, RankOutcome, SimWorld, WATCHDOG_ENV_VAR};
