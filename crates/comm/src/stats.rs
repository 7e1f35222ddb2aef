//! Phase-tagged per-rank accounting of messages, words, flops, and time.
//!
//! The paper reports time broken into *replication* (all-gather /
//! reduce-scatter along the fiber axis), *propagation* (cyclic shifts
//! within a layer), and *computation* (local kernels); its application
//! study (Fig. 9) additionally separates communication and computation
//! occurring outside the FusedMM kernels. [`Phase`] mirrors exactly that
//! taxonomy, and every [`Comm`](crate::Comm) operation charges the
//! currently-active phase.
//!
//! This module answers *how much*; the [`crate::trace`] recorder
//! answers *when*, mirroring the same phase taxonomy as per-rank span
//! timelines. Both are fed by the same hook in [`Comm`](crate::Comm)
//! from the same clock reads; the recorder never writes these counters,
//! so every number here is byte-identical with tracing on or off.

use crate::payload::{Payload, WirePayload, WireReader};

/// Which part of a distributed kernel (or application) time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Fiber-axis collectives that create or merge replicas of a matrix
    /// (all-gather of inputs, reduce-scatter of outputs).
    Replication,
    /// Cyclic shifts of matrix blocks within a grid layer.
    Propagation,
    /// Local SpMM / SDDMM / fused kernel execution.
    Computation,
    /// Application-level communication outside the distributed kernels
    /// (e.g. distributed dot products in a CG solver).
    OutsideComm,
    /// Application-level computation outside the distributed kernels.
    OutsideCompute,
    /// Live re-planning traffic: moving iterates and R values between
    /// algorithm families when an adaptive session migrates mid-run
    /// (`dsk-core`'s `Session::replan`). Kept separate from
    /// [`Phase::OutsideComm`] so benchmark breakdowns can show exactly
    /// what a migration cost.
    Migration,
    /// Plan-time exchange of sparsity-derived communication patterns
    /// (`dsk-comm`'s `pattern` module): ranks all-gather the row index
    /// sets each peer needs before a pattern-routed kernel runs. Kept
    /// separate from kernel phases and [`Phase::Migration`] so the cost
    /// of *knowing* the pattern is visible apart from the words it
    /// saves.
    PatternExchange,
    /// Run-time tuning of local kernels. No code enters it: each local
    /// op has one loop in `dsk-kernels`, so every bucket reads zero. It
    /// stays only because the repo benchmark reports its wall time as
    /// `kernels.tune_ms`, and goes once the benchmark stops reading it.
    LocalTuning,
    /// Elastic-fleet traffic: redistributing live iterates and R values
    /// when a session changes its *process count* (`dsk-core`'s
    /// `Session::resize`), as opposed to [`Phase::Migration`], which
    /// moves state between algorithm families at a fixed `p`. Kept in
    /// its own bucket so a resize never perturbs any steady-state or
    /// migration number.
    Resize,
    /// Anything not meant to be timed (data distribution, verification).
    /// This is the phase a fresh rank starts in.
    Setup,
}

/// Number of distinct [`Phase`] values (array-backed accounting).
pub const N_PHASES: usize = 10;

impl Phase {
    /// Dense index for array-backed per-phase counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Replication => 0,
            Phase::Propagation => 1,
            Phase::Computation => 2,
            Phase::OutsideComm => 3,
            Phase::OutsideCompute => 4,
            Phase::Migration => 5,
            Phase::PatternExchange => 6,
            Phase::LocalTuning => 7,
            Phase::Resize => 8,
            Phase::Setup => 9,
        }
    }

    /// All phases, in `index` order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Replication,
        Phase::Propagation,
        Phase::Computation,
        Phase::OutsideComm,
        Phase::OutsideCompute,
        Phase::Migration,
        Phase::PatternExchange,
        Phase::LocalTuning,
        Phase::Resize,
        Phase::Setup,
    ];

    /// Short human-readable label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Replication => "replication",
            Phase::Propagation => "propagation",
            Phase::Computation => "computation",
            Phase::OutsideComm => "outside-comm",
            Phase::OutsideCompute => "outside-compute",
            Phase::Migration => "migration",
            Phase::PatternExchange => "pattern-exchange",
            Phase::LocalTuning => "local-tuning",
            Phase::Resize => "resize",
            Phase::Setup => "setup",
        }
    }
}

/// Counters accumulated for a single phase on a single rank.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseCounters {
    /// Messages sent by this rank.
    pub msgs_sent: u64,
    /// Words (8-byte units) sent by this rank.
    pub words_sent: u64,
    /// Messages received by this rank.
    pub msgs_recv: u64,
    /// Words received by this rank.
    pub words_recv: u64,
    /// Bytes of encoded payload handed to a serializing backend (zero
    /// under the in-process backend, which never encodes). Measured,
    /// not modeled: word counts drive modeled time; this shows what the
    /// wire path actually carried, headers included.
    pub wire_bytes_sent: u64,
    /// Floating-point operations executed locally.
    pub flops: u64,
    /// Modeled time (seconds) under the α-β-γ machine model.
    pub modeled_s: f64,
    /// Real wall-clock time (seconds) spent while this phase was active.
    pub wall_s: f64,
    /// Real wall-clock time (seconds) the rank's thread spent blocked
    /// waiting for a message to arrive — the time inside the backend's
    /// `take`, for every receive: a blocking `recv`/`sendrecv`/`shift`,
    /// every collective built on them, and a `RecvHandle::wait`. It is
    /// the part of `wall_s` that overlap failed to hide; a message that
    /// had already arrived costs none, however long its decode takes
    /// (decode time is an argument of the wait's trace span, not a
    /// counter).
    pub stall_s: f64,
}

impl PhaseCounters {
    /// Element-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &PhaseCounters) {
        self.msgs_sent += other.msgs_sent;
        self.words_sent += other.words_sent;
        self.msgs_recv += other.msgs_recv;
        self.words_recv += other.words_recv;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.flops += other.flops;
        self.modeled_s += other.modeled_s;
        self.wall_s += other.wall_s;
        self.stall_s += other.stall_s;
    }
}

/// All per-phase counters for one rank, plus the currently active phase.
#[derive(Debug, Clone)]
pub struct RankStats {
    per_phase: [PhaseCounters; N_PHASES],
    current: Phase,
    paused: bool,
}

impl Default for RankStats {
    fn default() -> Self {
        RankStats {
            per_phase: [PhaseCounters::default(); N_PHASES],
            current: Phase::Setup,
            paused: false,
        }
    }
}

impl RankStats {
    /// Counters for one phase.
    pub fn phase(&self, p: Phase) -> &PhaseCounters {
        &self.per_phase[p.index()]
    }

    /// Mutable counters for one phase.
    pub fn phase_mut(&mut self, p: Phase) -> &mut PhaseCounters {
        &mut self.per_phase[p.index()]
    }

    /// The phase that operations are currently charged to.
    pub fn current_phase(&self) -> Phase {
        self.current
    }

    /// Switch the active phase, returning the previous one.
    pub fn set_phase(&mut self, p: Phase) -> Phase {
        std::mem::replace(&mut self.current, p)
    }

    /// While paused, message/flop accounting is suppressed (used for
    /// verification traffic like result gathering that a real run would
    /// not perform).
    pub fn set_paused(&mut self, paused: bool) -> bool {
        std::mem::replace(&mut self.paused, paused)
    }

    /// Whether accounting is currently suppressed.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Charge a sent message to the current phase.
    pub fn record_send(&mut self, words: u64, modeled_s: f64) {
        if self.paused {
            return;
        }
        let c = &mut self.per_phase[self.current.index()];
        c.msgs_sent += 1;
        c.words_sent += words;
        c.modeled_s += modeled_s;
    }

    /// Charge a received message to the current phase. `modeled_s` may be
    /// zero when the cost was already charged on the matching send (e.g.
    /// inside a send-receive pair that overlaps both directions).
    pub fn record_recv(&mut self, words: u64, modeled_s: f64) {
        if self.paused {
            return;
        }
        let c = &mut self.per_phase[self.current.index()];
        c.msgs_recv += 1;
        c.words_recv += words;
        c.modeled_s += modeled_s;
    }

    /// Record encoded bytes handed to a serializing backend (no-op for
    /// zero, which is what the typed in-process path reports).
    pub fn record_wire_bytes(&mut self, bytes: u64) {
        if self.paused || bytes == 0 {
            return;
        }
        self.per_phase[self.current.index()].wire_bytes_sent += bytes;
    }

    /// Charge local computation to the current phase.
    pub fn record_flops(&mut self, flops: u64, modeled_s: f64) {
        if self.paused {
            return;
        }
        let c = &mut self.per_phase[self.current.index()];
        c.flops += flops;
        c.modeled_s += modeled_s;
    }

    /// Charge wall-clock seconds to a specific phase (used by the RAII
    /// phase guard on drop).
    pub fn record_wall(&mut self, phase: Phase, seconds: f64) {
        if self.paused {
            return;
        }
        self.per_phase[phase.index()].wall_s += seconds;
    }

    /// Charge wall-clock seconds spent blocked on a message's arrival
    /// to the current phase's stall bucket. Stall is a *measured*
    /// overlap diagnostic; it never enters modeled time.
    pub fn record_stall(&mut self, seconds: f64) {
        if self.paused {
            return;
        }
        self.per_phase[self.current.index()].stall_s += seconds;
    }

    /// Total across all phases except `Setup`.
    pub fn total(&self) -> PhaseCounters {
        let mut t = PhaseCounters::default();
        for p in Phase::ALL {
            if p != Phase::Setup {
                t.merge(&self.per_phase[p.index()]);
            }
        }
        t
    }

    /// Modeled communication time: the communication phases only
    /// (local-tuning and setup never carry modeled cost and are
    /// excluded by construction).
    pub fn modeled_comm_s(&self) -> f64 {
        self.phase(Phase::Replication).modeled_s
            + self.phase(Phase::Propagation).modeled_s
            + self.phase(Phase::OutsideComm).modeled_s
            + self.phase(Phase::Migration).modeled_s
            + self.phase(Phase::PatternExchange).modeled_s
            + self.phase(Phase::Resize).modeled_s
    }

    /// Modeled computation time.
    pub fn modeled_comp_s(&self) -> f64 {
        self.phase(Phase::Computation).modeled_s + self.phase(Phase::OutsideCompute).modeled_s
    }
}

// Wire encodings: the socket launcher ships every rank's statistics
// back to the launcher (and out to observers) in outcome frames.

impl Payload for PhaseCounters {
    fn words(&self) -> usize {
        9
    }
}

impl WirePayload for PhaseCounters {
    fn encode(&self, buf: &mut Vec<u8>) {
        for v in [
            self.msgs_sent,
            self.words_sent,
            self.msgs_recv,
            self.words_recv,
            self.wire_bytes_sent,
            self.flops,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&self.modeled_s.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.wall_s.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.stall_s.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        PhaseCounters {
            msgs_sent: r.u64(),
            words_sent: r.u64(),
            msgs_recv: r.u64(),
            words_recv: r.u64(),
            wire_bytes_sent: r.u64(),
            flops: r.u64(),
            modeled_s: r.f64(),
            wall_s: r.f64(),
            stall_s: r.f64(),
        }
    }
}

impl Payload for RankStats {
    fn words(&self) -> usize {
        N_PHASES * 9 + 1
    }
}

impl WirePayload for RankStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        for c in &self.per_phase {
            c.encode(buf);
        }
        buf.push(self.current.index() as u8);
        buf.push(u8::from(self.paused));
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let mut per_phase = [PhaseCounters::default(); N_PHASES];
        for c in per_phase.iter_mut() {
            *c = PhaseCounters::decode(r);
        }
        let current = Phase::ALL[r.u8() as usize];
        let paused = r.u8() != 0;
        RankStats {
            per_phase,
            current,
            paused,
        }
    }
}

/// Cross-rank aggregation of [`RankStats`]: the paper's "communication
/// cost" is the *maximum* over processors of time spent communicating,
/// while volumes are usually reported as totals.
#[derive(Debug, Clone, Default)]
pub struct AggregateStats {
    /// Number of ranks aggregated.
    pub nranks: usize,
    /// Per-phase: maximum modeled seconds over ranks.
    pub max_modeled_s: [f64; N_PHASES],
    /// Per-phase: maximum wall seconds over ranks.
    pub max_wall_s: [f64; N_PHASES],
    /// Per-phase: total words sent across all ranks.
    pub total_words_sent: [u64; N_PHASES],
    /// Per-phase: total messages sent across all ranks.
    pub total_msgs_sent: [u64; N_PHASES],
    /// Per-phase: maximum words sent by any single rank.
    pub max_words_sent: [u64; N_PHASES],
    /// Per-phase: maximum messages sent by any single rank.
    pub max_msgs_sent: [u64; N_PHASES],
    /// Per-phase: total encoded bytes handed to a serializing backend
    /// across all ranks (zero under the in-process backend).
    pub total_wire_bytes: [u64; N_PHASES],
    /// Per-phase: total flops across all ranks.
    pub total_flops: [u64; N_PHASES],
    /// Per-phase: maximum stall seconds (wall time blocked on a
    /// message's arrival that overlap failed to hide) over ranks.
    pub max_stall_s: [f64; N_PHASES],
}

impl AggregateStats {
    /// Aggregate a slice of per-rank stats.
    pub fn from_ranks(ranks: &[RankStats]) -> Self {
        let mut a = AggregateStats {
            nranks: ranks.len(),
            ..Default::default()
        };
        for r in ranks {
            for p in Phase::ALL {
                let i = p.index();
                let c = r.phase(p);
                a.max_modeled_s[i] = a.max_modeled_s[i].max(c.modeled_s);
                a.max_wall_s[i] = a.max_wall_s[i].max(c.wall_s);
                a.total_words_sent[i] += c.words_sent;
                a.total_msgs_sent[i] += c.msgs_sent;
                a.max_words_sent[i] = a.max_words_sent[i].max(c.words_sent);
                a.max_msgs_sent[i] = a.max_msgs_sent[i].max(c.msgs_sent);
                a.total_wire_bytes[i] += c.wire_bytes_sent;
                a.total_flops[i] += c.flops;
                a.max_stall_s[i] = a.max_stall_s[i].max(c.stall_s);
            }
        }
        a
    }

    /// Modeled time for one phase (max over ranks).
    pub fn modeled_s(&self, p: Phase) -> f64 {
        self.max_modeled_s[p.index()]
    }

    /// Modeled communication time (replication + propagation +
    /// outside-kernel + migration + pattern-exchange communication),
    /// max-over-ranks per phase summed.
    pub fn modeled_comm_s(&self) -> f64 {
        self.modeled_s(Phase::Replication)
            + self.modeled_s(Phase::Propagation)
            + self.modeled_s(Phase::OutsideComm)
            + self.modeled_s(Phase::Migration)
            + self.modeled_s(Phase::PatternExchange)
            + self.modeled_s(Phase::Resize)
    }

    /// Modeled computation time.
    pub fn modeled_comp_s(&self) -> f64 {
        self.modeled_s(Phase::Computation) + self.modeled_s(Phase::OutsideCompute)
    }

    /// Total modeled time excluding setup.
    pub fn modeled_total_s(&self) -> f64 {
        self.modeled_comm_s() + self.modeled_comp_s()
    }

    /// Lower bound on the modeled total under *perfect*
    /// communication/computation overlap in the propagation phase — the
    /// optimization the paper's §VII suggests via one-sided MPI/RDMA.
    /// Replication collectives are synchronization points and cannot be
    /// hidden, so the bound is
    /// `replication + max(propagation, computation) + outside`.
    pub fn modeled_total_overlapped_s(&self) -> f64 {
        self.modeled_s(Phase::Replication)
            + self
                .modeled_s(Phase::Propagation)
                .max(self.modeled_s(Phase::Computation))
            + self.modeled_s(Phase::OutsideComm)
            + self.modeled_s(Phase::OutsideCompute)
            + self.modeled_s(Phase::Migration)
            + self.modeled_s(Phase::PatternExchange)
            + self.modeled_s(Phase::Resize)
    }

    /// Total words sent across ranks and non-setup phases.
    pub fn words_total(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter(|p| **p != Phase::Setup)
            .map(|p| self.total_words_sent[p.index()])
            .sum()
    }

    /// Maximum words sent by any rank in one phase.
    pub fn max_words(&self, p: Phase) -> u64 {
        self.max_words_sent[p.index()]
    }

    /// Total encoded bytes across ranks and non-setup phases (nonzero
    /// only under a serializing backend).
    pub fn wire_bytes_total(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter(|p| **p != Phase::Setup)
            .map(|p| self.total_wire_bytes[p.index()])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_index_roundtrip() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn record_send_charges_current_phase() {
        let mut s = RankStats::default();
        s.set_phase(Phase::Propagation);
        s.record_send(10, 0.5);
        assert_eq!(s.phase(Phase::Propagation).words_sent, 10);
        assert_eq!(s.phase(Phase::Propagation).msgs_sent, 1);
        assert_eq!(s.phase(Phase::Replication).words_sent, 0);
        assert!((s.phase(Phase::Propagation).modeled_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paused_stats_record_nothing() {
        let mut s = RankStats::default();
        s.set_phase(Phase::Propagation);
        s.set_paused(true);
        s.record_send(10, 0.5);
        s.record_recv(10, 0.5);
        s.record_flops(10, 0.5);
        assert_eq!(s.total().words_sent, 0);
        assert_eq!(s.total().flops, 0);
    }

    #[test]
    fn setup_phase_excluded_from_total() {
        let mut s = RankStats::default();
        // Default phase is Setup.
        s.record_send(100, 1.0);
        assert_eq!(s.total().words_sent, 0);
        s.set_phase(Phase::Replication);
        s.record_send(7, 0.1);
        assert_eq!(s.total().words_sent, 7);
    }

    #[test]
    fn aggregate_takes_max_and_sum() {
        let mut a = RankStats::default();
        a.set_phase(Phase::Propagation);
        a.record_send(10, 1.0);
        let mut b = RankStats::default();
        b.set_phase(Phase::Propagation);
        b.record_send(30, 3.0);
        let agg = AggregateStats::from_ranks(&[a, b]);
        let i = Phase::Propagation.index();
        assert_eq!(agg.total_words_sent[i], 40);
        assert_eq!(agg.max_words_sent[i], 30);
        assert!((agg.max_modeled_s[i] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_bound_hides_the_smaller_of_prop_and_comp() {
        let mut a = RankStats::default();
        a.set_phase(Phase::Replication);
        a.record_send(1, 1.0);
        a.set_phase(Phase::Propagation);
        a.record_send(1, 4.0);
        a.set_phase(Phase::Computation);
        a.record_flops(1, 3.0);
        let agg = AggregateStats::from_ranks(&[a]);
        assert!((agg.modeled_total_s() - 8.0).abs() < 1e-12);
        // Overlap hides computation behind the longer propagation.
        assert!((agg.modeled_total_overlapped_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn wire_bytes_follow_phase_and_pause() {
        let mut s = RankStats::default();
        s.set_phase(Phase::Propagation);
        s.record_wire_bytes(120);
        s.set_paused(true);
        s.record_wire_bytes(999);
        s.set_paused(false);
        assert_eq!(s.phase(Phase::Propagation).wire_bytes_sent, 120);
        let agg = AggregateStats::from_ranks(&[s.clone(), s]);
        assert_eq!(agg.wire_bytes_total(), 240);
    }

    #[test]
    fn stall_follows_phase_and_roundtrips_the_wire() {
        let mut s = RankStats::default();
        s.set_phase(Phase::Propagation);
        s.record_stall(0.25);
        s.set_paused(true);
        s.record_stall(9.0);
        s.set_paused(false);
        assert!((s.phase(Phase::Propagation).stall_s - 0.25).abs() < 1e-12);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let back = RankStats::decode(&mut WireReader::new(&buf));
        assert!((back.phase(Phase::Propagation).stall_s - 0.25).abs() < 1e-12);
        let agg = AggregateStats::from_ranks(&[s]);
        assert!((agg.max_stall_s[Phase::Propagation.index()] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn comm_and_comp_split() {
        let mut s = RankStats::default();
        s.set_phase(Phase::Replication);
        s.record_send(1, 2.0);
        s.set_phase(Phase::Computation);
        s.record_flops(100, 4.0);
        assert!((s.modeled_comm_s() - 2.0).abs() < 1e-12);
        assert!((s.modeled_comp_s() - 4.0).abs() < 1e-12);
    }
}
