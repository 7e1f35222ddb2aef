//! Shared vocabulary types for the distributed algorithms, and the
//! [`ShiftPipeline`] every propagation loop executes through.

use std::cell::Cell;
use std::ops::Range;

use dsk_comm::{Comm, CommPattern, Phase, RecvHandle, RowBundle, RowSet, WirePayload};
use dsk_dense::Mat;

/// Global problem dimensions: `S: m×n` sparse, `A: m×r`, `B: n×r` dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemDims {
    /// Rows of `S` and `A`.
    pub m: usize,
    /// Columns of `S`, rows of `B`.
    pub n: usize,
    /// Width of the dense (embedding) matrices.
    pub r: usize,
}

impl ProblemDims {
    /// Convenience constructor.
    pub fn new(m: usize, n: usize, r: usize) -> Self {
        ProblemDims { m, n, r }
    }

    /// The paper's φ = nnz(S) / (n·r): the ratio of sparse-matrix
    /// nonzeros to dense-matrix entries that governs which algorithm
    /// family wins.
    pub fn phi(&self, nnz: usize) -> f64 {
        nnz as f64 / (self.n as f64 * self.r as f64)
    }
}

/// The four sparsity-agnostic algorithm families of the paper's Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmFamily {
    /// 1.5D dense-shifting, dense-replicating (Algorithm 1).
    DenseShift15,
    /// 1.5D sparse-shifting, dense-replicating.
    SparseShift15,
    /// 2.5D dense-replicating (Algorithm 2).
    DenseRepl25,
    /// 2.5D sparse-replicating.
    SparseRepl25,
}

impl AlgorithmFamily {
    /// All families, in the paper's presentation order.
    pub const ALL: [AlgorithmFamily; 4] = [
        AlgorithmFamily::DenseShift15,
        AlgorithmFamily::SparseShift15,
        AlgorithmFamily::DenseRepl25,
        AlgorithmFamily::SparseRepl25,
    ];

    /// Short label used in benchmark tables (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmFamily::DenseShift15 => "1.5D Dense Shift",
            AlgorithmFamily::SparseShift15 => "1.5D Sparse Shift",
            AlgorithmFamily::DenseRepl25 => "2.5D Dense Repl.",
            AlgorithmFamily::SparseRepl25 => "2.5D Sparse Repl.",
        }
    }

    /// Which elision strategies this family admits (paper §IV-B, §V):
    /// local kernel fusion requires full rows of both dense matrices on
    /// one rank (only 1.5D dense shifting); the 2.5D sparse-replicating
    /// algorithm replicates no dense matrix, so nothing can be elided.
    pub fn supports(&self, e: Elision) -> bool {
        matches!(
            (self, e),
            (_, Elision::None)
                | (AlgorithmFamily::DenseShift15, _)
                | (AlgorithmFamily::SparseShift15, Elision::ReplicationReuse)
                | (AlgorithmFamily::DenseRepl25, Elision::ReplicationReuse)
        )
    }

    /// Valid replication factors for `p` ranks (2.5D needs square
    /// layers).
    pub fn valid_c(&self, p: usize, c: usize) -> bool {
        if c == 0 || !p.is_multiple_of(c) {
            return false;
        }
        match self {
            AlgorithmFamily::DenseShift15 | AlgorithmFamily::SparseShift15 => true,
            AlgorithmFamily::DenseRepl25 | AlgorithmFamily::SparseRepl25 => {
                let layer = p / c;
                let q = (layer as f64).sqrt().round() as usize;
                q * q == layer
            }
        }
    }
}

/// Communication-eliding strategy for a FusedMM call (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elision {
    /// Two back-to-back kernel calls, no elision.
    None,
    /// Replicate one dense input once and reuse it for both kernels;
    /// raises the optimal replication factor.
    ReplicationReuse,
    /// One propagation round running the fused local kernel; lowers the
    /// optimal replication factor. 1.5D dense shifting only.
    LocalKernelFusion,
}

impl Elision {
    /// All strategies.
    pub const ALL: [Elision; 3] = [
        Elision::None,
        Elision::ReplicationReuse,
        Elision::LocalKernelFusion,
    ];

    /// Label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Elision::None => "No Elision",
            Elision::ReplicationReuse => "Repl. Reuse",
            Elision::LocalKernelFusion => "Local Kernel Fusion",
        }
    }
}

/// How the propagation/replication phases of an algorithm move dense
/// tiles: as full dense blocks, or pattern-routed so only the rows the
/// receivers' local `S` structure touches cross the wire.
///
/// Routing is an independent plan dimension, orthogonal to the
/// family/elision choice: every family admits `Dense`, and families
/// admit `Pattern` only without elision (elided schedules fold two
/// kernels' traffic into one round, so their need sets are the full
/// tiles and routing degenerates to dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Routing {
    /// Ship full dense tiles (the paper's baseline schedules).
    #[default]
    Dense,
    /// Ship indexed row subsets derived from per-plan communication
    /// patterns, with a dense fallback at high density.
    Pattern,
}

impl Routing {
    /// Both routings, dense first.
    pub const ALL: [Routing; 2] = [Routing::Dense, Routing::Pattern];

    /// Short label used in candidate tables.
    pub fn label(&self) -> &'static str {
        match self {
            Routing::Dense => "dense",
            Routing::Pattern => "pattern",
        }
    }
}

/// Which values an SDDMM samples with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Multiply dot products by the stored values of `S` (standard
    /// SDDMM).
    Values,
    /// Treat `S` as a 0/1 pattern (used by the ALS normal-equation
    /// matvec, where only the sparsity pattern masks the products).
    Ones,
}

impl Sampling {
    /// Turn raw SDDMM accumulations into sampled values in place:
    /// multiplied by `sampling_vals` under [`Sampling::Values`], left
    /// as they are under [`Sampling::Ones`].
    pub fn apply(self, vals: &mut [f64], sampling_vals: &[f64]) {
        if let Sampling::Values = self {
            dsk_kernels::apply_sampling(vals, sampling_vals);
        }
    }
}

/// The contiguous sub-range of `0..total` forming block `idx` of
/// `parts` (near-equal; first `total % parts` blocks get the extra
/// element). Identical to `dsk_sparse::partition::block_range`;
/// re-exported here because every distribution uses it.
pub fn block_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    dsk_sparse::partition::block_range(total, parts, idx)
}

/// Union of blocks `first..first+count` of the `parts`-way
/// decomposition (a *macro* block: e.g. an S block row spanning `c`
/// consecutive A block rows).
pub fn union_range(total: usize, parts: usize, first: usize, count: usize) -> Range<usize> {
    let a = block_range(total, parts, first);
    let b = block_range(total, parts, first + count - 1);
    a.start..b.end
}

// ---------------------------------------------------------------------
// The fiber step
// ---------------------------------------------------------------------

/// The one way a dense operand is replicated along a fiber: all-gather
/// every member's `x` (its rows of the panel, in fiber-rank order) into
/// the full `total_rows × x.ncols()` panel, charged to
/// [`Phase::Replication`]. `total_rows` is explicit so an empty
/// r-slice (possible when the ring is longer than `r`) still yields a
/// correctly shaped zero-width panel. With `route`, each peer is
/// shipped only the rows its ring will ever read (a sparse all-gather
/// with dense fallback) and the rest arrive as zeros.
pub fn replicate_rows(
    fiber: &Comm,
    x: &Mat,
    total_rows: usize,
    route: Option<&CommPattern>,
) -> Mat {
    let _ph = fiber.phase(Phase::Replication);
    let w = x.ncols();
    let data = match route {
        None => fiber.allgatherv_f64(x.as_slice()),
        Some(pat) => {
            let ship: Vec<RowSet> = (0..fiber.size())
                .map(|i| pat.need(i, fiber.rank()).clone())
                .collect();
            let bundles = fiber.sparse_allgather(x.nrows(), w, x.as_slice(), &ship);
            let mut data = Vec::with_capacity(total_rows * w);
            for b in bundles {
                data.extend_from_slice(&b.into_full().2);
            }
            data
        }
    };
    debug_assert!(w == 0 || data.len() / w == total_rows);
    Mat::from_vec(total_rows, w, data)
}

/// The one way a replicated accumulator is merged along a fiber:
/// reduce-scatter the panel `t_buf` (summed over the fiber) so member
/// `v` keeps rows `rows_of(v)` of it — the ranges must tile the panel
/// in fiber-rank order. Charged to [`Phase::Replication`].
pub fn reduce_rows(fiber: &Comm, t_buf: &Mat, rows_of: impl Fn(usize) -> Range<usize>) -> Mat {
    let _ph = fiber.phase(Phase::Replication);
    let w = t_buf.ncols();
    let ranges: Vec<Range<usize>> = (0..fiber.size())
        .map(|v| rows_of(v).start * w..rows_of(v).end * w)
        .collect();
    let mine = fiber.reduce_scatter_sum_ranges(t_buf.as_slice(), &ranges);
    Mat::from_vec(rows_of(fiber.rank()).len(), w, mine)
}

/// The one way a family's need sets are exchanged: under
/// [`Routing::Pattern`], all-gather this rank's row `needs()` —
/// `needs()[origin]` the rows of the tile that starts at ring member `origin`
/// it touches — over `ring`, charged to [`Phase::PatternExchange`];
/// the resulting [`CommPattern`] serves every later shift or
/// all-gather. Under [`Routing::Dense`] nothing is derived or sent.
pub fn route(
    ring: &Comm,
    routing: Routing,
    needs: impl FnOnce() -> Vec<RowSet>,
) -> Option<CommPattern> {
    (routing == Routing::Pattern).then(|| CommPattern::exchange(ring, needs()))
}

// ---------------------------------------------------------------------
// The ring step
// ---------------------------------------------------------------------

thread_local! {
    static SHIFT_MODE_OVERRIDE: Cell<Option<ShiftMode>> = const { Cell::new(None) };
}

/// How a [`ShiftPipeline`] realizes its input-lane steps.
///
/// Both modes post the same messages in the same order and charge
/// identical modeled time; they differ only in *when* the incoming
/// block is awaited, i.e. whether the transport's latency can hide
/// behind the local compute of the current step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShiftMode {
    /// Post the next hop, compute on the current block, then wait:
    /// transfer and compute overlap. The default.
    #[default]
    Pipelined,
    /// Post the next hop and wait for the incoming block at once, then
    /// compute: no overlap — the measurement baseline overlap is
    /// judged against.
    Blocking,
}

impl ShiftMode {
    /// The mode propagation loops run under right now: the thread-local
    /// override ([`ShiftMode::scoped`]) if set, else `Pipelined`.
    pub fn current() -> ShiftMode {
        SHIFT_MODE_OVERRIDE.with(|c| c.get()).unwrap_or_default()
    }

    /// Install `mode` as this thread's override until the returned guard
    /// drops. Worlds run rank closures on the installing thread (or
    /// re-execute them in child processes), so setting the override
    /// inside a `SimWorld::run` closure covers every rank.
    pub fn scoped(mode: ShiftMode) -> ShiftModeGuard {
        let prev = SHIFT_MODE_OVERRIDE.with(|c| c.replace(Some(mode)));
        ShiftModeGuard { prev }
    }
}

/// RAII guard restoring the previous thread-local [`ShiftMode`]
/// override on drop.
pub struct ShiftModeGuard {
    prev: Option<ShiftMode>,
}

impl Drop for ShiftModeGuard {
    fn drop(&mut self) {
        SHIFT_MODE_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// The one way propagation loops move blocks around a ring.
///
/// A `ShiftPipeline` names a ring communicator, a displacement and a
/// tag, and moves blocks along it in two lane shapes:
///
/// * **input lanes** — blocks the local kernel only *reads* (the
///   traveling dense panel of an SpMM, the sparse block of a
///   sparse-shifting round). An [`InputLane`] visits each of the ring's
///   `q` members once, posting the next hop *before* the visit's
///   compute, so under [`ShiftMode::Pipelined`] the transfer hides
///   behind it (under [`ShiftMode::Blocking`] the post has already
///   waited). It stops one hop short of home: visit 0 reads the
///   caller's block in place, so the `q`-th hop, with which the paper's
///   Algorithm 1 restores an overwritten buffer, is never sent. A held
///   lane ([`ShiftPipeline::held_input`]) also keeps what it receives,
///   so a later round over unchanged home blocks sends nothing;
/// * **accumulator lanes** — blocks the kernel *writes* (a circulating
///   output block). The data is not final until the compute finishes, so
///   [`ShiftPipeline::exchange`] posts after it and waits at once; the
///   block takes all `q` hops home.
///
/// Both shapes exist in dense ([`Mat`]) and pattern-routed forms, so
/// `Routing` and overlap compose. A pipeline built
/// [`ShiftPipeline::routed`] with a [`CommPattern`] keyed by origin
/// member works out each hop's forward set itself from where the tile
/// started ([`ShiftPipeline::origin`]) and the members it visits, and
/// ships those rows as a [`RowBundle`] with dense fallback; the
/// receiver zero-fills the rest. All traffic is charged to
/// [`Phase::Propagation`]; modeled counters are identical across modes.
///
/// Receives on one `(ring, tag)` stream complete in posting order
/// (`dsk-comm`'s completion contract, which covers blocking calls), so
/// an `exchange` issued while a [`Hop`] of the same ring and tag is
/// pending would panic. No family does that: within one round, input
/// and accumulator lanes ride different rings (2.5D: row ring beside
/// column ring) or the round has only one kind of lane (1.5D).
#[derive(Clone, Copy)]
pub struct ShiftPipeline<'a> {
    ring: &'a Comm,
    disp: usize,
    tag: u32,
    route: Option<&'a CommPattern>,
}

impl<'a> ShiftPipeline<'a> {
    /// A dense pipeline shifting by `disp` on `ring` with message tag
    /// `tag`; each step runs in the thread's current [`ShiftMode`].
    pub fn new(ring: &'a Comm, disp: usize, tag: u32) -> Self {
        ShiftPipeline {
            ring,
            disp,
            tag,
            route: None,
        }
    }

    /// This pipeline pattern-routed by `route` (dense again on `None`):
    /// [`InputLane::post_mat`] and [`ShiftPipeline::exchange_mat`] ship
    /// only the rows of a tile that its later visits read, or its
    /// earlier visits wrote, by `route`'s need sets.
    pub fn routed(self, route: Option<&'a CommPattern>) -> Self {
        ShiftPipeline { route, ..self }
    }

    /// The ring member where the tile held at visit `t` started:
    /// `me − t·disp (mod q)`. That tile visits member
    /// `origin + k·disp (mod q)` at visit `k`.
    pub fn origin(&self, t: usize) -> usize {
        let q = self.ring.size();
        (self.ring.rank() + q - t * self.disp % q) % q
    }

    /// A routed hop's payload: the rows of `y`, the tile held at visit
    /// `t`, that the members of `visits` need (its forward set), with
    /// dense fallback.
    fn bundle(&self, pat: &CommPattern, y: &Mat, t: usize, visits: Range<usize>) -> RowBundle {
        let (q, o) = (self.ring.size(), self.origin(t));
        let set = pat.union_over(visits.map(|k| (o + k * self.disp) % q), o);
        RowBundle::gather(y.nrows(), y.ncols(), y.as_slice(), &set)
    }

    /// Open an input lane over the ring's `q` members whose visit 0
    /// reads `home` itself: lent, never cloned.
    pub fn input<'h, T: WirePayload + Clone>(&self, home: &'h T) -> InputLane<'h, 'a, T> {
        self.lane(home, Tiles::Latest(None))
    }

    /// [`ShiftPipeline::input`] for a ring whose members' home blocks
    /// stay fixed across rounds: the lane keeps every block it receives
    /// in `held`. An empty `held` is filled by one ordinary round — each
    /// arrived block is moved in, not copied. A full `held` (the `q − 1`
    /// blocks of an earlier round) is replayed: the lane posts nothing
    /// and each visit reads its kept block. The caller empties `held` on
    /// every ring member at once whenever a home block changes; a store
    /// left part-filled by an interrupted round is refilled.
    pub fn held_input<'h, T: WirePayload + Clone>(
        &self,
        home: &'h T,
        held: &'h mut Vec<T>,
    ) -> InputLane<'h, 'a, T> {
        if held.len() != self.ring.size() - 1 {
            held.clear();
        }
        self.lane(home, Tiles::Held(held))
    }

    fn lane<'h, T: WirePayload + Clone>(
        &self,
        home: &'h T,
        tiles: Tiles<'h, T>,
    ) -> InputLane<'h, 'a, T> {
        InputLane {
            pipe: *self,
            visit: 0,
            home,
            tiles,
        }
    }

    /// Accumulator-lane step: blocking exchange of a finished block.
    pub fn exchange<T: WirePayload>(&self, value: T) -> T {
        let _ph = self.ring.phase(Phase::Propagation);
        self.ring.shift(self.disp, self.tag, value)
    }

    /// Accumulator-lane step for the dense panel finished at visit `t`.
    /// Routed, it ships the rows any of visits `0..=t` wrote: the rest
    /// are exactly zero, so zero-fill is lossless, and the last hop
    /// carries the whole support home.
    pub fn exchange_mat(&self, y: Mat, t: usize) -> Mat {
        let Some(pat) = self.route else {
            return self.exchange(y);
        };
        let bundle = self.bundle(pat, &y, t, 0..t + 1);
        unbundle(self.exchange(bundle))
    }
}

/// A routed panel as a full one, unshipped rows zero-filled.
fn unbundle(bundle: RowBundle) -> Mat {
    let (nrows, ncols, data) = bundle.into_full();
    Mat::from_vec(nrows, ncols, data)
}

/// An input lane: a block that visits each member of a ring once, read
/// only. Each visit is `let hop = lane.post(); compute(lane.block());
/// lane.arrive(hop);` — post and arrive are separate calls, so two lanes
/// can share one loop.
pub struct InputLane<'h, 'a, T: WirePayload + Clone> {
    pipe: ShiftPipeline<'a>,
    /// The current visit, `0..q`; it stays at `q − 1` after the last.
    visit: usize,
    /// The caller's home block, which visit 0 reads.
    home: &'h T,
    /// The blocks later visits read.
    tiles: Tiles<'h, T>,
}

/// Where an [`InputLane`] keeps the blocks it received.
enum Tiles<'h, T> {
    /// Only the current visit's block, dropped when the next arrives.
    Latest(Option<T>),
    /// Every block, in visit order: visit `v ≥ 1` reads `held[v − 1]`
    /// ([`ShiftPipeline::held_input`]).
    Held(&'h mut Vec<T>),
}

impl<'a, T: WirePayload + Clone> InputLane<'_, 'a, T> {
    /// The block the current visit reads.
    pub fn block(&self) -> &T {
        match (&self.tiles, self.visit) {
            (_, 0) => self.home,
            (Tiles::Latest(latest), _) => latest.as_ref().expect("a later visit's block arrived"),
            (Tiles::Held(held), v) => &held[v - 1],
        }
    }

    /// Whether the current visit sends its block on: not on the last
    /// visit, and not when the next visit's block is already held.
    fn sends(&self) -> bool {
        let next = self.visit + 1;
        next < self.pipe.ring.size() && !matches!(&self.tiles, Tiles::Held(h) if h.len() >= next)
    }

    /// Post the current block to the ring successor — or nothing, on
    /// the last visit or a replayed one. The block is lent only for the
    /// post: the transport takes its own copy in whatever form it needs
    /// (an encode straight from the borrow on serializing backends, a
    /// clone on the typed one).
    pub fn post(&mut self) -> Hop<'a, T> {
        if !self.sends() {
            return Hop::Home;
        }
        let ShiftPipeline {
            ring, disp, tag, ..
        } = self.pipe;
        let _ph = ring.phase(Phase::Propagation);
        Hop::Posted(ring.shift_begin_ref(disp, tag, self.block())).settle()
    }

    /// Move to the next visit: its block is the one `hop` brought in
    /// (time blocked here is charged to [`Phase::Propagation`]), or the
    /// held one when nothing was posted.
    pub fn arrive(&mut self, hop: Hop<'a, T>) {
        let pending = matches!(hop, Hop::Posted(_) | Hop::Routed(..));
        let _ph = pending.then(|| self.pipe.ring.phase(Phase::Propagation));
        if let Some(block) = hop.complete() {
            match &mut self.tiles {
                Tiles::Latest(latest) => *latest = Some(block),
                Tiles::Held(held) => held.push(block),
            }
        }
        self.visit = (self.visit + 1).min(self.pipe.ring.size() - 1);
    }
}

impl<'a> InputLane<'_, 'a, Mat> {
    /// [`InputLane::post`] for a dense panel. On a routed pipeline only
    /// the rows the visits still ahead (`t + 1..q`) read travel, as a
    /// [`RowBundle`] with dense fallback, and the receiver zero-fills
    /// the rest.
    pub fn post_mat(&mut self) -> Hop<'a, Mat> {
        let (Some(pat), true) = (self.pipe.route, self.sends()) else {
            return self.post();
        };
        let (t, q) = (self.visit, self.pipe.ring.size());
        let bundle = self.pipe.bundle(pat, self.block(), t, t + 1..q);
        let ShiftPipeline {
            ring, disp, tag, ..
        } = self.pipe;
        let _ph = ring.phase(Phase::Propagation);
        Hop::Routed(ring.shift_begin(disp, tag, bundle), unbundle).settle()
    }
}

/// One input-lane hop, from its post to its arrival
/// ([`InputLane::arrive`]).
#[must_use = "a posted hop must arrive"]
pub enum Hop<'a, T: WirePayload> {
    /// Nothing was posted: the lane's last visit, or a one-member ring.
    Home,
    /// Blocking: the block that already shifted in.
    Ready(T),
    /// Pipelined: the receive half of the posted shift.
    Posted(RecvHandle<'a, T>),
    /// Pipelined and pattern-routed: the forward-set rows in flight and
    /// how to rebuild the block from them.
    Routed(RecvHandle<'a, RowBundle>, fn(RowBundle) -> T),
}

impl<T: WirePayload> Hop<'_, T> {
    /// A just-posted hop, awaited here and now under
    /// [`ShiftMode::Blocking`].
    fn settle(self) -> Self {
        match ShiftMode::current() {
            ShiftMode::Pipelined => self,
            ShiftMode::Blocking => self.complete().map_or(Hop::Home, Hop::Ready),
        }
    }

    /// The block this hop brings in (`None` when nothing was posted);
    /// the caller charges the wait.
    fn complete(self) -> Option<T> {
        match self {
            Hop::Home => None,
            Hop::Ready(v) => Some(v),
            Hop::Posted(handle) => Some(handle.wait()),
            Hop::Routed(handle, rebuild) => Some(rebuild(handle.wait())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, RankOutcome, RankStats, SimWorld};

    type LaneRun = (Vec<f64>, Vec<f64>, RankStats, RankStats);

    #[test]
    fn shift_mode_override_is_scoped() {
        assert_eq!(ShiftMode::current(), ShiftMode::Pipelined);
        {
            let _g = ShiftMode::scoped(ShiftMode::Blocking);
            assert_eq!(ShiftMode::current(), ShiftMode::Blocking);
            {
                let _g2 = ShiftMode::scoped(ShiftMode::Pipelined);
                assert_eq!(ShiftMode::current(), ShiftMode::Pipelined);
            }
            assert_eq!(ShiftMode::current(), ShiftMode::Blocking);
        }
        assert_eq!(ShiftMode::current(), ShiftMode::Pipelined);
    }

    #[test]
    fn pipeline_on_single_rank_world_is_identity() {
        for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
            let out = SimWorld::new(1, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let route = CommPattern::exchange(c, vec![RowSet::all(2)]);
                let pipe = ShiftPipeline::new(c, 1, 7).routed(Some(&route));
                let y = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
                let mut lane = pipe.input(&y);
                let hop = lane.post_mat();
                assert!(matches!(hop, Hop::Home), "a one-member ring posts nothing");
                lane.arrive(hop);
                assert!(std::ptr::eq(lane.block(), &y), "the only visit reads home");
                let back = pipe.exchange_mat(lane.block().clone(), 0);
                back.as_slice().to_vec()
            });
            assert_eq!(out[0].value, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
            assert_eq!(out[0].stats.total().msgs_sent, 0, "p=1 must not message");
        }
    }

    /// One input-lane round and then one accumulator round on a ring of
    /// `q` members holding ragged blocks (10 rows over `q`), the lane
    /// dense or pattern-routed (every row shipped): per rank, every
    /// value a visit read, the block the accumulator brought home, and
    /// the propagation counters after each round.
    fn lane_round(q: usize, mode: ShiftMode, routed: bool) -> Vec<RankOutcome<LaneRun>> {
        SimWorld::new(q, MachineModel::bandwidth_only()).run(move |c| {
            let _g = ShiftMode::scoped(mode);
            let rows = block_range(10, q, c.rank()).len();
            let data = (0..rows * 2).map(|i| (c.rank() * 100 + i) as f64);
            let home = Mat::from_vec(rows, 2, data.collect());
            let route = routed.then(|| {
                let all = (0..q).map(|o| RowSet::all(block_range(10, q, o).len()));
                CommPattern::exchange(c, all.collect())
            });
            let pipe = ShiftPipeline::new(c, 1, 3);
            let mut lane = pipe.routed(route.as_ref()).input(&home);
            let mut read = Vec::new();
            for t in 0..q {
                let hop = lane.post_mat();
                if t == 0 {
                    assert_eq!(lane.block().as_slice().as_ptr(), home.as_slice().as_ptr());
                }
                // The "compute" reads the block while its copy is in flight.
                read.extend_from_slice(lane.block().as_slice());
                lane.arrive(hop);
            }
            let after_input = c.stats_snapshot();
            // The last visit's block is one hop short of home.
            let back = pipe.exchange_mat(lane.block().clone(), q - 1);
            assert_eq!(back.as_slice(), home.as_slice());
            let mut acc = back;
            for t in 0..q {
                acc = pipe.exchange_mat(acc, t);
            }
            (
                read,
                acc.as_slice().to_vec(),
                after_input,
                c.stats_snapshot(),
            )
        })
    }

    /// An input-lane round posts `q − 1` hops and an accumulator round
    /// `q` (none at all on a one-member ring), under both modes and both
    /// lane forms; the world's drain check at exit proves no homecoming
    /// hop is left in a mailbox.
    #[test]
    fn input_lanes_stop_one_hop_short_of_home() {
        for q in 1..=3u64 {
            for (mode, routed) in [ShiftMode::Pipelined, ShiftMode::Blocking]
                .into_iter()
                .flat_map(|m| [(m, false), (m, true)])
            {
                for o in lane_round(q as usize, mode, routed) {
                    let input = o.value.2.phase(Phase::Propagation);
                    let total = o.value.3.phase(Phase::Propagation);
                    assert_eq!((input.msgs_sent, input.msgs_recv), (q - 1, q - 1));
                    let acc = if q == 1 { 0 } else { q + 1 };
                    assert_eq!(
                        (total.msgs_sent, total.msgs_recv),
                        (q - 1 + acc, q - 1 + acc)
                    );
                }
            }
        }
    }

    /// Both modes post the same hops: bitwise equal values and identical
    /// modeled counters on ragged rings.
    #[test]
    fn pipelined_and_blocking_agree_on_ragged_blocks() {
        for (q, routed) in [(1, false), (2, false), (3, false), (3, true)] {
            let a = lane_round(q, ShiftMode::Pipelined, routed);
            let b = lane_round(q, ShiftMode::Blocking, routed);
            for (oa, ob) in a.iter().zip(&b) {
                assert_eq!(oa.value.0, ob.value.0, "values must match bitwise");
                assert_eq!(oa.value.1, ob.value.1, "values must match bitwise");
                let (a_stats, b_stats) = ([&oa.value.2, &oa.value.3], [&ob.value.2, &ob.value.3]);
                for (sa, sb) in a_stats.iter().zip(b_stats) {
                    let (sa, sb) = (sa.total(), sb.total());
                    assert_eq!(sa.msgs_sent, sb.msgs_sent);
                    assert_eq!(sa.words_sent, sb.words_sent);
                    assert_eq!(
                        sa.modeled_s.to_bits(),
                        sb.modeled_s.to_bits(),
                        "modeled time must be bit-identical across modes"
                    );
                }
            }
        }
    }

    /// `Blocking` is wait-at-post: when `post` returns, the hop has been
    /// posted *and* received — nothing of it is left in the mailbox for
    /// the compute to overlap with.
    #[test]
    fn blocking_begin_has_received_before_the_compute_starts() {
        SimWorld::new(2, MachineModel::bandwidth_only()).run(|c| {
            let _g = ShiftMode::scoped(ShiftMode::Blocking);
            let pipe = ShiftPipeline::new(c, 1, 5);
            let y = Mat::from_vec(1, 2, vec![c.rank() as f64, 7.0]);
            let mut lane = pipe.input(&y);
            let hop = lane.post();
            let prop = c.stats_snapshot().phase(Phase::Propagation).msgs_recv;
            assert_eq!(prop, 1, "the incoming block must already be received");
            // Next in line on the pipeline's stream, and nothing queued.
            let probe = c.recv_begin::<Mat>(1 - c.rank(), 5);
            c.barrier();
            assert!(!probe.poll(), "no message may be pending in the mailbox");
            c.barrier(); // nobody completes the probe before everyone has looked
            c.send(1 - c.rank(), 5, Mat::zeros(0, 0));
            let _ = probe.wait();
            lane.arrive(hop);
            assert_eq!(lane.block().as_slice(), &[(1 - c.rank()) as f64, 7.0]);
        });
    }

    /// Empty blocks (0×0 panels) and empty routed forward sets travel
    /// cleanly through an input lane; the world's end-of-run drain check
    /// guarantees nothing leaks.
    #[test]
    fn empty_blocks_and_empty_forward_sets_flow() {
        for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
            let out = SimWorld::new(2, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let pipe = ShiftPipeline::new(c, 1, 11);
                let empty = Mat::zeros(0, 0);
                let mut lane = pipe.input(&empty);
                let hop = lane.post();
                lane.arrive(hop);
                assert_eq!(lane.block().nrows(), 0);
                // A panel whose forward set is empty: rows exist but
                // none ship; the receiver reconstructs zeros.
                let route = CommPattern::exchange(c, vec![RowSet::empty(); 2]);
                let y = Mat::from_vec(2, 2, vec![1.0; 4]);
                let mut lane = pipe.routed(Some(&route)).input(&y);
                let hop = lane.post_mat();
                lane.arrive(hop);
                lane.block().as_slice().iter().sum::<f64>()
            });
            for o in &out {
                assert_eq!(o.value, 0.0, "unshipped rows must reconstruct as zeros");
            }
        }
    }

    /// A replan mid-run (dropping one pipeline, building another with a
    /// different tag and routing) leaves no message in flight: every
    /// hop arrives, so the drain check at world exit passes.
    #[test]
    fn replan_mid_pipeline_drains_cleanly() {
        let out = SimWorld::new(2, MachineModel::bandwidth_only()).run(|c| {
            let y = Mat::from_vec(1, 2, vec![c.rank() as f64, 1.0]);
            let mut lane = ShiftPipeline::new(c, 1, 20).input(&y);
            let hop = lane.post();
            lane.arrive(hop);
            // "Replan": new tag, pattern routing, fresh pipeline.
            let route = CommPattern::exchange(c, vec![RowSet::all(1); 2]);
            let pipe = ShiftPipeline::new(c, 1, 21).routed(Some(&route));
            let mut lane = pipe.input(lane.block());
            let hop = lane.post_mat();
            lane.arrive(hop);
            lane.block().as_slice()[0]
        });
        // Two hops on a 2-ring: each rank's row is home again.
        for o in &out {
            assert_eq!(o.value, o.rank as f64);
        }
    }

    /// A routed backward ring (`disp = q − 1`, the 2.5D rings' shift)
    /// whose need set differs for every (member, origin) pair, over
    /// tiles whose values encode their origin: each visit reads its
    /// needed rows from the origin `pipe.origin(t)` names, each input
    /// hop ships exactly the rows its later visits need, and each
    /// accumulator hop exactly the rows its earlier visits wrote, which
    /// land at the owner summed.
    #[test]
    fn routed_backward_ring_ships_each_hops_forward_set() {
        const ROWS: usize = 16;
        const W: usize = 2;
        // Member `m` reads row `m·q + o` and row `o` of origin `o`'s tile.
        fn need(q: usize, m: usize, o: usize) -> Vec<u32> {
            vec![(m * q + o) as u32, o as u32]
        }
        // The words of a hop carrying the rows of origin `o`'s tile that
        // the members of its visits `ks` need (the tile steps back one
        // member per hop): at most 5 of 16 rows, so always indexed.
        fn hop_words(q: usize, o: usize, ks: Range<usize>) -> usize {
            let idx = ks.flat_map(|k| need(q, (o + q - k % q) % q, o));
            RowSet::from_indices(idx.collect()).len() * (W + 1)
        }
        fn add(y: &mut Mat, rows: Vec<u32>, v: usize) {
            for i in rows {
                for x in &mut y.as_mut_slice()[i as usize * W..][..W] {
                    *x += v as f64;
                }
            }
        }
        let value = |o: usize, i: usize, j: usize| (1000 * o + 10 * i + j + 1) as f64;
        for q in [3, 4] {
            for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
                SimWorld::new(q, MachineModel::bandwidth_only()).run(move |c| {
                    let _g = ShiftMode::scoped(mode);
                    let me = c.rank();
                    let mine = (0..q).map(|o| RowSet::from_indices(need(q, me, o)));
                    let route = CommPattern::exchange(c, mine.collect());
                    let pipe = ShiftPipeline::new(c, q - 1, 9).routed(Some(&route));
                    let words = || c.stats_snapshot().phase(Phase::Propagation).words_sent;

                    let data = (0..ROWS * W).map(|x| value(me, x / W, x % W));
                    let home = Mat::from_vec(ROWS, W, data.collect());
                    let mut lane = pipe.input(&home);
                    let mut shipped = 0;
                    for t in 0..q {
                        let o = (me + t) % q;
                        assert_eq!(pipe.origin(t), o, "visit {t} holds origin {o}'s tile");
                        let hop = lane.post_mat();
                        for i in need(q, me, o) {
                            let row = &lane.block().as_slice()[i as usize * W..][..W];
                            let want: Vec<f64> = (0..W).map(|j| value(o, i as usize, j)).collect();
                            assert_eq!(row, &want[..], "q={q} member {me} visit {t} row {i}");
                        }
                        shipped += hop_words(q, o, t + 1..q);
                        lane.arrive(hop);
                    }
                    assert_eq!(
                        words(),
                        shipped as u64,
                        "input hops ship their forward sets"
                    );

                    let mut acc = Mat::zeros(ROWS, W);
                    for t in 0..q {
                        let o = (me + t) % q;
                        add(&mut acc, need(q, me, o), me + 1);
                        acc = pipe.exchange_mat(acc, t);
                        shipped += hop_words(q, o, 0..t + 1);
                    }
                    assert_eq!(
                        words(),
                        shipped as u64,
                        "accumulator hops ship what was written"
                    );
                    let mut want = Mat::zeros(ROWS, W);
                    for m in 0..q {
                        add(&mut want, need(q, m, me), m + 1);
                    }
                    assert_eq!(acc.as_slice(), want.as_slice(), "q={q} owner {me}");
                });
            }
        }
    }

    #[test]
    fn phi_matches_definition() {
        let d = ProblemDims::new(100, 200, 8);
        assert!((d.phi(400) - 400.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn elision_support_matches_paper() {
        use AlgorithmFamily::*;
        use Elision::*;
        assert!(DenseShift15.supports(LocalKernelFusion));
        assert!(DenseShift15.supports(ReplicationReuse));
        assert!(SparseShift15.supports(ReplicationReuse));
        assert!(!SparseShift15.supports(LocalKernelFusion));
        assert!(DenseRepl25.supports(ReplicationReuse));
        assert!(!DenseRepl25.supports(LocalKernelFusion));
        assert!(!SparseRepl25.supports(ReplicationReuse));
        assert!(!SparseRepl25.supports(LocalKernelFusion));
        assert!(SparseRepl25.supports(None));
    }

    #[test]
    fn valid_c_checks_square_layers() {
        use AlgorithmFamily::*;
        assert!(DenseShift15.valid_c(8, 4));
        assert!(!DenseShift15.valid_c(8, 3));
        assert!(DenseRepl25.valid_c(8, 2)); // 4 = 2²
        assert!(!DenseRepl25.valid_c(8, 1)); // 8 not square
        assert!(SparseRepl25.valid_c(32, 2)); // 16 = 4²
        assert!(!SparseRepl25.valid_c(32, 4)); // 8 not square
    }

    #[test]
    fn union_range_spans_blocks() {
        // 10 elements in 4 parts: [0..3), [3..6), [6..8), [8..10)
        assert_eq!(union_range(10, 4, 0, 2), 0..6);
        assert_eq!(union_range(10, 4, 2, 2), 6..10);
        assert_eq!(union_range(10, 4, 1, 1), block_range(10, 4, 1));
    }
}
