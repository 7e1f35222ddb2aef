//! The simulated world: runs a distributed program to completion, one
//! **epoch** per call, on a chosen communication backend.
//!
//! There is one epoch protocol. A rank that fails poisons the epoch so
//! every peer blocked on it fails within milliseconds, the epoch ends on
//! all ranks, and the survivors agree on who died.
//! [`SimWorld::try_run`] returns that verdict as a typed
//! [`EpochError`]; [`SimWorld::run`] is the same epoch plus teardown —
//! it panics with the root cause.

use std::sync::Arc;
use std::time::Duration;

use crate::backend::{BackendKind, CommBackend};
use crate::comm::{Comm, RankShared};
use crate::model::MachineModel;
use crate::stats::RankStats;
use crate::trace::{self, ArgVal, TraceKind};

/// Result of one rank's execution: its return value and statistics.
#[derive(Debug)]
pub struct RankOutcome<T> {
    /// The rank that produced this outcome.
    pub rank: usize,
    /// The value returned by the rank's closure.
    pub value: T,
    /// The rank's phase-tagged communication/computation statistics.
    pub stats: RankStats,
}

/// Environment variable overriding the default 300 s receive watchdog,
/// in whole seconds (clamped to ≥ 1). Worlds that call
/// [`SimWorld::with_recv_timeout`] are unaffected.
pub const WATCHDOG_ENV_VAR: &str = "DSK_WATCHDOG_SECS";

/// Marker prefix for the poison message a failing rank injects:
/// survivors that panic *because of* the abort carry it, so the epoch
/// can tell original failures from collateral.
const ABORT_POISON_PREFIX: &str = "epoch aborted:";

/// The watchdog duration for a world that did not set an explicit
/// timeout: `DSK_WATCHDOG_SECS` if set (clamped to ≥ 1 s), else 300 s.
fn default_recv_timeout() -> Duration {
    watchdog_from(std::env::var(WATCHDOG_ENV_VAR).ok().as_deref())
}

fn watchdog_from(raw: Option<&str>) -> Duration {
    match raw {
        None => Duration::from_secs(300),
        Some(v) => {
            let secs: u64 = v.trim().parse().unwrap_or_else(|_| {
                panic!("{WATCHDOG_ENV_VAR}={v:?} is not a whole number of seconds")
            });
            Duration::from_secs(secs.max(1))
        }
    }
}

/// How an epoch failed: which ranks of that epoch's world died, so a
/// [`SimWorld::try_run`] caller can rendezvous a fresh epoch on the
/// survivors and `resize` its session onto the smaller roster.
///
/// Every surviving process returns an **identical** `EpochError` — the
/// dead ranks come from the coordinator's one verdict, not a local guess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochError {
    /// The launcher epoch that aborted (0 under in-memory backends,
    /// which have no epoch counter).
    pub epoch: u64,
    /// World ranks (of the aborted epoch's roster) that died, ascending.
    pub dead: Vec<usize>,
    /// Human-readable root cause (first failure observed).
    pub detail: String,
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} aborted (dead ranks {:?}): {}",
            self.epoch, self.dead, self.detail
        )
    }
}

impl std::error::Error for EpochError {}

/// What a failed epoch hands its caller: the survivor-identical
/// [`EpochError`] that [`SimWorld::try_run`] returns, plus the
/// locally observed root cause that [`SimWorld::run`] panics with.
pub(crate) struct EpochFailure {
    pub(crate) error: EpochError,
    /// The rank the root cause is pinned on; `None` when it has no
    /// single culprit (a leaked message, a timed-out control wait).
    pub(crate) rank: Option<usize>,
    pub(crate) cause: String,
    /// Whether a live process pool served the epoch, so a fatal
    /// failure has to take the pool down with it.
    pub(crate) pooled: bool,
}

impl EpochFailure {
    /// `run`'s half of a failed epoch: no pool process outlives it, and
    /// the caller gets the root cause as a panic.
    fn fatal(self) -> ! {
        let text = match self.rank {
            Some(rank) => format!("rank {rank} panicked: {}", self.cause),
            None => self.cause,
        };
        if self.pooled {
            crate::launch::teardown(&text);
        }
        panic!("{text}");
    }
}

/// One rank's epoch body, however it ended: the closure's value or its
/// panic text, and the statistics the rank accumulated until then.
pub(crate) struct RankRun<T> {
    pub(crate) result: Result<T, String>,
    pub(crate) stats: RankStats,
}

/// Run `f` as world rank `rank` over `backend`. Every rank of every
/// backend — a thread of an in-memory world, the launcher, a socket
/// member — executes its closure through here. The rank's trace stays
/// open: the caller drains it once its timeline is final.
pub(crate) fn run_rank<T>(
    backend: Arc<dyn CommBackend>,
    model: MachineModel,
    rank: usize,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
) -> RankRun<T> {
    let mut comm = Comm::world(backend, model, RankShared::new(), rank);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)))
        .map_err(|e| panic_text(&*e));
    comm.finish();
    RankRun {
        result,
        stats: comm.stats_snapshot(),
    }
}

/// Mark the current rank's timeline with the abort and its cause.
pub(crate) fn trace_abort(detail: &str) {
    trace::mark(TraceKind::Epoch, "epoch.abort", || {
        vec![("detail".to_string(), ArgVal::Str(detail.to_string()))]
    });
}

pub(crate) fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
        .to_string()
}

/// A simulated distributed-memory machine of `nranks` ranks.
///
/// Each call to [`SimWorld::run`] executes the given closure once per rank
/// on its own OS thread. Ranks may only interact through the provided
/// [`Comm`]; the world checks that every message sent was also received
/// (a leaked message indicates a protocol bug).
pub struct SimWorld {
    nranks: usize,
    model: MachineModel,
    recv_timeout: Duration,
    backend: BackendKind,
}

impl SimWorld {
    /// A world of `nranks` ranks with machine model `model`, the
    /// default receive watchdog (300 s, overridable via
    /// [`WATCHDOG_ENV_VAR`]), and the backend selected by the
    /// `DSK_COMM_BACKEND` environment variable (in-process when unset —
    /// see [`BackendKind::from_env`]).
    pub fn new(nranks: usize, model: MachineModel) -> Self {
        SimWorld {
            nranks,
            model,
            recv_timeout: default_recv_timeout(),
            backend: BackendKind::from_env(),
        }
    }

    /// Override the receive watchdog (tests of failure modes use short
    /// timeouts).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Select the communication backend explicitly (overriding the
    /// environment default). Conformance suites use this to run the
    /// same program over every backend.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine model in use.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The receive-watchdog bound (used by the socket launcher to pace
    /// its control-protocol waits).
    pub(crate) fn recv_timeout_raw(&self) -> Duration {
        self.recv_timeout
    }

    /// Run `f` on every rank; blocks until all ranks return. Outcomes are
    /// ordered by rank.
    ///
    /// Under the in-memory backends every rank is an OS thread of this
    /// process; under [`BackendKind::Socket`] every rank is a separate
    /// OS *process* and this call becomes the launcher side of the
    /// protocol in [`crate::launch`]. Results must therefore be
    /// [`WirePayload`](crate::payload::WirePayload) — on a
    /// distributed-memory machine a value that cannot be serialized
    /// cannot be observed across ranks.
    ///
    /// This is [`try_run`](Self::try_run) plus teardown: the epoch is
    /// the same, but a failed one is fatal.
    ///
    /// # Panics
    ///
    /// If any rank fails, every rank blocked on it is released at once,
    /// the socket process pool (if any) is killed, and this panics with
    /// the root cause: `rank N panicked: <msg>` naming the rank that
    /// failed first, not a peer that was waiting for it. Also panics if
    /// messages were sent but never received.
    pub fn run<T, F>(&self, f: F) -> Vec<RankOutcome<T>>
    where
        T: crate::payload::WirePayload,
        F: Fn(&mut Comm) -> T + Sync,
    {
        self.epoch(&f).unwrap_or_else(|failure| failure.fatal())
    }

    /// Run `f` on every rank like [`run`](Self::run), but survive rank
    /// deaths: if any rank fails mid-epoch, the remaining ranks are
    /// unblocked immediately (mailbox poisoning), the epoch is
    /// abandoned, and every **surviving** caller gets back the same
    /// [`EpochError`] naming the dead ranks — instead of the whole
    /// world being torn down.
    ///
    /// Under the socket backend the process pool survives the abort:
    /// the next `run`/`try_run` rendezvouses a fresh epoch whose roster
    /// omits the dead processes, so a `SimWorld` with `nranks` reduced
    /// by the dead count continues on the survivors. Under the
    /// in-memory backends the dead "rank" is just a panicked thread and
    /// the next world runs as usual. Epoch state (mailbox contents,
    /// in-flight messages) does **not** survive an abort — programs
    /// that continue past a failed epoch must restart from state
    /// carried through an earlier epoch's outcome broadcast (a
    /// checkpoint), typically restored via `Session::resize`.
    ///
    /// # Panics
    ///
    /// Unrecoverable situations still panic: a failed rendezvous, the
    /// death of the coordinator process (world rank 0 under sockets),
    /// or survivors that stay unresponsive past the watchdog.
    pub fn try_run<T, F>(&self, f: F) -> Result<Vec<RankOutcome<T>>, EpochError>
    where
        T: crate::payload::WirePayload,
        F: Fn(&mut Comm) -> T + Sync,
    {
        self.epoch(&f).map_err(|failure| failure.error)
    }

    /// One epoch — the only one there is. Socket worlds hand over to
    /// the launcher's role bodies; in-memory worlds run one thread per
    /// rank, and a panicking *thread* is the dead rank.
    pub(crate) fn epoch<T>(
        &self,
        f: &(dyn Fn(&mut Comm) -> T + Sync),
    ) -> Result<Vec<RankOutcome<T>>, EpochFailure>
    where
        T: crate::payload::WirePayload,
    {
        if self.backend == BackendKind::Socket {
            return crate::launch::socket_epoch(self, f);
        }
        let backend = self
            .backend
            .build(self.nranks, self.recv_timeout, self.model);
        let model = self.model;
        let mut outcomes: Vec<RankOutcome<T>> = Vec::with_capacity(self.nranks);
        let mut failures: Vec<(usize, String)> = Vec::new();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.nranks);
            for rank in 0..self.nranks {
                let backend = Arc::clone(&backend);
                handles.push(scope.spawn(move || {
                    trace::install_and_sync(rank);
                    let run = run_rank(Arc::clone(&backend), model, rank, f);
                    if let Err(msg) = &run.result {
                        // Unblock every peer immediately; the marker
                        // prefix tags their panics as collateral.
                        backend.poison(&format!("{ABORT_POISON_PREFIX} rank {rank} failed: {msg}"));
                        trace_abort(msg);
                    }
                    // Thread-local trace state survives the caught unwind,
                    // so a dead rank's partial timeline is still recovered.
                    (run, trace::drain())
                }));
            }
            let mut traces = Vec::with_capacity(self.nranks);
            for (rank, h) in handles.into_iter().enumerate() {
                let (run, events) = h.join().expect("rank threads catch their closure's panic");
                traces.push(events);
                match run.result {
                    Ok(value) => outcomes.push(RankOutcome {
                        rank,
                        value,
                        stats: run.stats,
                    }),
                    Err(msg) => failures.push((rank, msg)),
                }
            }
            trace::gather_epoch(traces);
        });

        if failures.is_empty() {
            let leaked = backend.pending_messages();
            assert_eq!(
                leaked, 0,
                "{leaked} message(s) were sent but never received — protocol bug"
            );
            return Ok(outcomes);
        }
        // Original failures vs. collateral: a rank whose panic carries
        // the abort-poison marker only died *because* another did. When
        // every failure is collateral (e.g. a watchdog fired before the
        // poison landed) the first message is reported verbatim.
        let original = |(_, msg): &&(usize, String)| !msg.starts_with(ABORT_POISON_PREFIX);
        let dead: Vec<usize> = failures.iter().filter(original).map(|(r, _)| *r).collect();
        let (rank, cause) = failures
            .iter()
            .find(original)
            .unwrap_or(&failures[0])
            .clone();
        let detail = if dead.is_empty() {
            cause.clone()
        } else {
            format!("rank {rank} failed: {cause}")
        };
        Err(EpochFailure {
            error: EpochError {
                epoch: 0,
                dead,
                detail,
            },
            rank: Some(rank),
            cause,
            pooled: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;

    #[test]
    fn single_rank_world_runs() {
        let w = SimWorld::new(1, MachineModel::bandwidth_only());
        let out = w.run(|c| c.rank() + c.size());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 1);
    }

    #[test]
    fn ranks_see_distinct_ids() {
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(|c| c.rank());
        let ids: Vec<usize> = out.iter().map(|o| o.value).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_shift_delivers_neighbor_value() {
        let w = SimWorld::new(5, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            let _g = c.phase(Phase::Propagation);
            c.shift(1, 0, vec![c.rank() as f64])
        });
        for o in &out {
            let expected = (o.rank + 5 - 1) % 5;
            assert_eq!(o.value, vec![expected as f64]);
        }
    }

    #[test]
    fn shift_counts_one_message_per_rank() {
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            let _g = c.phase(Phase::Propagation);
            let _ = c.shift(1, 0, vec![0.0f64; 10]);
        });
        for o in &out {
            let c = o.stats.phase(Phase::Propagation);
            assert_eq!(c.msgs_sent, 1);
            assert_eq!(c.words_sent, 10);
            assert_eq!(c.words_recv, 10);
            // Overlapped sendrecv: charged once at β·max(10,10) = 10.
            assert!((c.modeled_s - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_is_propagated_with_rank_id() {
        let w = SimWorld::new(2, MachineModel::bandwidth_only());
        let _ = w.run(|c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    /// A rank panicking while a peer is blocked on it must fail `run`
    /// at once and with the real root cause — the peer's wait is ended
    /// by poison, not by the (default, 300 s) watchdog, and the blocked
    /// peer is never the one blamed.
    #[test]
    fn rank_panic_unblocks_peers_and_names_the_root_cause() {
        for backend in BackendKind::conformance_with_env() {
            let w = SimWorld::new(2, MachineModel::bandwidth_only()).backend(backend);
            let start = std::time::Instant::now();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.run(|c| {
                    if c.rank() == 1 {
                        panic!("real root cause");
                    }
                    let v: Vec<f64> = c.recv(1, 7);
                    v
                })
            }))
            .expect_err("a rank panic must fail the run");
            let elapsed = start.elapsed();
            let msg = panic_text(&*err);
            assert!(
                msg.contains("rank 1 panicked: real root cause"),
                "{backend:?}: {msg}"
            );
            assert!(!msg.contains("watchdog"), "{backend:?}: {msg}");
            assert!(
                elapsed < Duration::from_secs(1),
                "{backend:?}: took {elapsed:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "never received")]
    fn leaked_message_is_detected() {
        let w = SimWorld::new(2, MachineModel::bandwidth_only());
        let _ = w.run(|c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1.0f64]);
            }
            // Rank 1 never receives.
        });
    }

    #[test]
    fn allgather_returns_contributions_in_rank_order() {
        let w = SimWorld::new(6, MachineModel::bandwidth_only());
        let out = w.run(|c| c.allgather(vec![c.rank() as f64 * 2.0]));
        for o in &out {
            let got: Vec<f64> = o.value.iter().map(|v| v[0]).collect();
            assert_eq!(got, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        }
    }

    #[test]
    fn reduce_scatter_sums_blocks() {
        let p = 4;
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            // Every rank contributes [0, 1, 2, ..., 7].
            let buf: Vec<f64> = (0..8).map(|i| i as f64).collect();
            c.reduce_scatter_sum(&buf)
        });
        for o in &out {
            // p ranks summed: block of 2 per rank.
            let base = (o.rank * 2) as f64;
            assert_eq!(o.value, vec![base * p as f64, (base + 1.0) * p as f64]);
        }
    }

    #[test]
    fn allreduce_matches_serial_sum() {
        let p = 3;
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            let mut buf: Vec<f64> = (0..7).map(|i| (i + c.rank()) as f64).collect();
            c.allreduce_sum(&mut buf);
            buf
        });
        let expect: Vec<f64> = (0..7)
            .map(|i| (0..p).map(|r| (i + r) as f64).sum())
            .collect();
        for o in &out {
            assert_eq!(o.value, expect);
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..5 {
            let w = SimWorld::new(5, MachineModel::bandwidth_only());
            let out = w.run(|c| {
                let v = if c.rank() == root {
                    Some(vec![root as f64; 3])
                } else {
                    None
                };
                c.broadcast(root, v)
            });
            for o in &out {
                assert_eq!(o.value, vec![root as f64; 3]);
            }
        }
    }

    #[test]
    fn alltoallv_routes_personalized_payloads() {
        let p = 4;
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            let outgoing: Vec<Vec<f64>> = (0..p)
                .map(|dst| vec![(c.rank() * 10 + dst) as f64])
                .collect();
            c.alltoallv(outgoing)
        });
        for o in &out {
            for (src, v) in o.value.iter().enumerate() {
                assert_eq!(v, &vec![(src * 10 + o.rank) as f64]);
            }
        }
    }

    #[test]
    fn gather_collects_at_root() {
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(|c| c.gather(2, vec![c.rank() as f64]));
        for o in &out {
            if o.rank == 2 {
                let flat: Vec<f64> = o.value.iter().map(|v| v[0]).collect();
                assert_eq!(flat, vec![0.0, 1.0, 2.0, 3.0]);
            } else {
                assert!(o.value.is_empty());
            }
        }
    }

    #[test]
    fn split_by_creates_independent_groups() {
        let w = SimWorld::new(6, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            // Two groups: evens and odds.
            let sub = c.split_by(|r| (r % 2) as u64);
            let vals = sub.allgather(vec![c.rank() as f64]);
            vals.iter().map(|v| v[0]).sum::<f64>()
        });
        for o in &out {
            let expected: f64 = if o.rank % 2 == 0 {
                0.0 + 2.0 + 4.0
            } else {
                1.0 + 3.0 + 5.0
            };
            assert_eq!(o.value, expected);
        }
    }

    #[test]
    fn paused_stats_suppress_accounting() {
        let w = SimWorld::new(2, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            let _p = c.phase(Phase::Propagation);
            {
                let _g = c.paused_stats();
                let _ = c.shift(1, 0, vec![0.0f64; 100]);
            }
            let _ = c.shift(1, 1, vec![0.0f64; 5]);
        });
        for o in &out {
            assert_eq!(o.stats.phase(Phase::Propagation).words_sent, 5);
        }
    }

    #[test]
    fn barrier_completes_on_odd_sizes() {
        let w = SimWorld::new(7, MachineModel::bandwidth_only());
        let _ = w.run(|c| c.barrier());
    }

    #[test]
    fn compute_records_flops_and_gamma_time() {
        let model = MachineModel {
            alpha_s: 0.0,
            beta_s_per_word: 0.0,
            gamma_s_per_flop: 2.0,
        };
        let w = SimWorld::new(1, model);
        let out = w.run(|c| c.compute(50, || 7));
        assert_eq!(out[0].value, 7);
        let comp = out[0].stats.phase(Phase::Computation);
        assert_eq!(comp.flops, 50);
        assert!((comp.modeled_s - 100.0).abs() < 1e-12);
    }

    #[test]
    fn wire_backend_runs_the_same_program() {
        let w = SimWorld::new(5, MachineModel::bandwidth_only()).backend(BackendKind::Wire);
        let out = w.run(|c| {
            assert_eq!(c.backend_name(), "wire");
            let _g = c.phase(Phase::Propagation);
            c.shift(1, 0, vec![c.rank() as f64])
        });
        for o in &out {
            let expected = (o.rank + 5 - 1) % 5;
            assert_eq!(o.value, vec![expected as f64]);
        }
    }

    #[test]
    fn wire_backend_counts_encoded_bytes_inproc_does_not() {
        for (kind, expect_bytes) in [(BackendKind::InProc, false), (BackendKind::Wire, true)] {
            let w = SimWorld::new(2, MachineModel::bandwidth_only()).backend(kind);
            let out = w.run(|c| {
                let _g = c.phase(Phase::Propagation);
                let _ = c.shift(1, 0, vec![0.0f64; 16]);
            });
            for o in &out {
                let c = o.stats.phase(Phase::Propagation);
                // Word accounting is backend-independent…
                assert_eq!(c.words_sent, 16);
                // …but only the wire path reports encoded bytes
                // (16 f64 values plus the length header).
                if expect_bytes {
                    assert_eq!(c.wire_bytes_sent, 8 + 16 * 8);
                } else {
                    assert_eq!(c.wire_bytes_sent, 0);
                }
            }
        }
    }

    /// What the delay guarantees: every message arrives at least the
    /// injected delay after its post, and the rank whose phase started
    /// first waits the whole of it. A rank that starts late may find its
    /// message already aged, so its own phase can be shorter.
    #[test]
    fn wire_delay_backend_slows_wall_time() {
        // 5 ms per message; two ranks exchange one message each.
        let model = MachineModel {
            alpha_s: 5e-3,
            beta_s_per_word: 0.0,
            gamma_s_per_flop: 0.0,
        };
        let w = SimWorld::new(2, model).backend(BackendKind::WireDelay);
        // One clock for both in-memory ranks: a payload is its post time.
        let t0 = std::time::Instant::now();
        let out = w.run(|c| {
            let _g = c.phase(Phase::Propagation);
            let posted: Vec<f64> = c.shift(1, 0, vec![t0.elapsed().as_secs_f64()]);
            t0.elapsed().as_secs_f64() - posted[0]
        });
        for o in &out {
            assert!(
                o.value >= 4e-3,
                "rank {}: its message arrived {:.3} ms after the post",
                o.rank,
                o.value * 1e3
            );
        }
        let max_wall = out
            .iter()
            .map(|o| o.stats.phase(Phase::Propagation).wall_s)
            .fold(0.0, f64::max);
        assert!(
            max_wall >= 4e-3,
            "injected delay should appear in measured wall time: {max_wall} s"
        );
    }

    #[test]
    fn watchdog_env_value_is_parsed_and_clamped() {
        assert_eq!(watchdog_from(None), Duration::from_secs(300));
        assert_eq!(watchdog_from(Some("17")), Duration::from_secs(17));
        assert_eq!(watchdog_from(Some(" 42 ")), Duration::from_secs(42));
        // Zero would make every receive fail instantly; clamp to 1 s.
        assert_eq!(watchdog_from(Some("0")), Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn watchdog_env_rejects_garbage() {
        let _ = watchdog_from(Some("fast"));
    }

    #[test]
    fn try_run_matches_run_on_success() {
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.try_run(|c| c.allgather(vec![c.rank() as f64])).unwrap();
        assert_eq!(out.len(), 4);
        for o in &out {
            let got: Vec<f64> = o.value.iter().map(|v| v[0]).collect();
            assert_eq!(got, vec![0.0, 1.0, 2.0, 3.0]);
        }
    }

    /// A rank dying mid-epoch unblocks its peers fast (poison, not
    /// watchdog), and every survivor gets the same typed `EpochError`
    /// naming exactly the dead rank. Pinned to the in-memory backend:
    /// this test documents the panic-classification path (a panicking
    /// *thread* is the dead rank); the socket backend's process-death
    /// semantics are pinned end-to-end by `tests/elastic_fleet.rs`.
    #[test]
    fn try_run_reports_the_dead_rank_and_unblocks_peers() {
        let w = SimWorld::new(3, MachineModel::bandwidth_only()).backend(BackendKind::InProc);
        let err = w
            .try_run(|c| {
                if c.rank() == 1 {
                    panic!("simulated node failure");
                }
                // Survivors block on data the dead rank will never send.
                let v: Vec<f64> = c.recv(1, 7);
                v
            })
            .unwrap_err();
        assert_eq!(err.dead, vec![1]);
        assert!(
            err.detail.contains("simulated node failure"),
            "{}",
            err.detail
        );
    }

    /// In-flight messages of an aborted epoch are not a protocol bug:
    /// the leak assert is skipped on the error path. In-memory only —
    /// the dying rank here is rank 0, which the socket backend's
    /// coordinator role makes non-expendable by design.
    #[test]
    fn try_run_tolerates_leaked_messages_on_abort() {
        let w = SimWorld::new(2, MachineModel::bandwidth_only()).backend(BackendKind::InProc);
        let err = w
            .try_run(|c| {
                if c.rank() == 0 {
                    c.send(1, 0, vec![1.0f64]);
                    panic!("boom after send");
                }
                let v: Vec<f64> = c.recv(0, 99); // wrong tag: blocks, then poisoned
                v
            })
            .unwrap_err();
        assert_eq!(err.dead, vec![0]);
    }

    #[test]
    fn allgather_word_count_matches_theory() {
        // p-1 blocks of b words each per rank.
        let (p, b) = (8usize, 12usize);
        let w = SimWorld::new(p, MachineModel::bandwidth_only());
        let out = w.run(|c| {
            let _g = c.phase(Phase::Replication);
            let _ = c.allgather(vec![1.0f64; b]);
        });
        for o in &out {
            let s = o.stats.phase(Phase::Replication);
            assert_eq!(s.words_sent, ((p - 1) * b) as u64);
            // Modeled: (p-1) overlapped exchanges of b words.
            assert!((s.modeled_s - ((p - 1) * b) as f64).abs() < 1e-9);
        }
    }
}
