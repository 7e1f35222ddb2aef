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
/// A `ShiftPipeline` owns a ring communicator reference, a displacement,
/// and a tag, and exposes exactly two step shapes:
///
/// * **input lanes** — payloads the local kernel only *reads* (the
///   traveling dense panel of an SpMM, the sparse block of a
///   sparse-shifting round). [`ShiftPipeline::begin`] posts the outgoing
///   copy *before* the compute of the current step, and the returned
///   [`InFlight`] is collected after it — under [`ShiftMode::Pipelined`]
///   the transfer hides behind the compute, under
///   [`ShiftMode::Blocking`] `begin` has already waited;
/// * **accumulator lanes** — payloads the kernel *writes* (a circulating
///   output block). The data is not final until the compute finishes, so
///   [`ShiftPipeline::exchange`] posts after it and waits at once.
///
/// Both shapes exist in dense ([`Mat`]) and pattern-routed
/// ([`RowBundle`] via a [`RowSet`] forward set) forms, so `Routing` and
/// overlap compose. All traffic is charged to [`Phase::Propagation`];
/// modeled counters are identical across modes.
///
/// Receives on one `(ring, tag)` stream complete in posting order
/// (`dsk-comm`'s completion contract, which covers blocking calls), so
/// an `exchange` issued while an `InFlight` of the same ring and tag is
/// pending would panic. No family does that: within one round, input
/// and accumulator lanes ride different rings (2.5D: row ring beside
/// column ring) or the round has only one kind of lane (1.5D).
pub struct ShiftPipeline<'a> {
    ring: &'a Comm,
    disp: usize,
    tag: u32,
}

impl<'a> ShiftPipeline<'a> {
    /// A pipeline shifting by `disp` on `ring` with message tag `tag`;
    /// each step runs in the thread's current [`ShiftMode`].
    pub fn new(ring: &'a Comm, disp: usize, tag: u32) -> Self {
        ShiftPipeline { ring, disp, tag }
    }

    /// Start an input-lane step: post `value` to the ring successor,
    /// the incoming block to be collected with [`InFlight::wait`] after
    /// the step's compute.
    ///
    /// The block is lent only for the post: the transport takes its own
    /// copy in whatever form it needs (an encode straight from the
    /// borrow on serializing backends, a clone on the typed one), and
    /// the step's compute goes on reading the original.
    pub fn begin<T: WirePayload + Clone>(&self, value: &T) -> InFlight<'a, T> {
        let _ph = self.ring.phase(Phase::Propagation);
        self.in_flight(self.ring.shift_begin_ref(self.disp, self.tag, value))
    }

    /// The posted step, awaited here and now under
    /// [`ShiftMode::Blocking`].
    fn in_flight<T: WirePayload>(&self, handle: RecvHandle<'a, T>) -> InFlight<'a, T> {
        match ShiftMode::current() {
            ShiftMode::Pipelined => InFlight::Posted(self.ring, handle),
            ShiftMode::Blocking => InFlight::Ready(handle.wait()),
        }
    }

    /// Accumulator-lane step: blocking exchange of a finished block.
    pub fn exchange<T: WirePayload>(&self, value: T) -> T {
        let _ph = self.ring.phase(Phase::Propagation);
        self.ring.shift(self.disp, self.tag, value)
    }

    /// Input-lane step for a dense panel, optionally pattern-routed:
    /// with `ship`, only the forward-set rows travel (as a [`RowBundle`]
    /// with dense fallback) and the receiver zero-fills the rest.
    pub fn begin_mat(&self, y: &Mat, ship: Option<&RowSet>) -> MatInFlight<'a> {
        match ship {
            None => MatInFlight::Dense(self.begin(y)),
            Some(set) => {
                let bundle = RowBundle::gather(y.nrows(), y.ncols(), y.as_slice(), set);
                let _ph = self.ring.phase(Phase::Propagation);
                let handle = self.ring.shift_begin(self.disp, self.tag, bundle);
                MatInFlight::Routed(self.in_flight(handle))
            }
        }
    }

    /// Accumulator-lane step for a dense panel, optionally
    /// pattern-routed.
    pub fn exchange_mat(&self, y: Mat, ship: Option<&RowSet>) -> Mat {
        match ship {
            None => self.exchange(y),
            Some(set) => {
                let bundle = RowBundle::gather(y.nrows(), y.ncols(), y.as_slice(), set);
                let (nrows, ncols, data) = self.exchange(bundle).into_full();
                Mat::from_vec(nrows, ncols, data)
            }
        }
    }
}

/// An input-lane step in flight around the ring; collect the incoming
/// block with [`InFlight::wait`] after the step's compute.
#[must_use = "an in-flight shift must be waited"]
pub enum InFlight<'a, T: WirePayload> {
    /// Pipelined: the ring and the receive half of the posted shift.
    Posted(&'a Comm, RecvHandle<'a, T>),
    /// Blocking: the block that already shifted in.
    Ready(T),
}

impl<T: WirePayload> InFlight<'_, T> {
    /// Complete the step: the block shifted in from the ring
    /// predecessor. Time blocked here (and the receive's modeled cost)
    /// is charged to [`Phase::Propagation`].
    pub fn wait(self) -> T {
        match self {
            InFlight::Ready(v) => v,
            InFlight::Posted(ring, handle) => {
                let _ph = ring.phase(Phase::Propagation);
                handle.wait()
            }
        }
    }
}

/// A dense panel in flight, dense or pattern-routed.
#[must_use = "an in-flight shift must be waited"]
pub enum MatInFlight<'a> {
    /// The panel itself travels.
    Dense(InFlight<'a, Mat>),
    /// Only the forward-set rows travel.
    Routed(InFlight<'a, RowBundle>),
}

impl MatInFlight<'_> {
    /// Complete the step, reconstructing a full panel (zero-filling
    /// unshipped rows on the routed path).
    pub fn wait(self) -> Mat {
        match self {
            MatInFlight::Dense(f) => f.wait(),
            MatInFlight::Routed(f) => {
                let (nrows, ncols, data) = f.wait().into_full();
                Mat::from_vec(nrows, ncols, data)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, SimWorld};

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
                let pipe = ShiftPipeline::new(c, 1, 7);
                let y = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
                let fly = pipe.begin_mat(&y, None);
                let back = fly.wait();
                let back = pipe.exchange_mat(back, None);
                back.as_slice().to_vec()
            });
            assert_eq!(out[0].value, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
            assert_eq!(out[0].stats.total().msgs_sent, 0, "p=1 must not message");
        }
    }

    /// Ragged ring: 10 rows over 3 ranks (p ∤ shape), shifted a full
    /// revolution in both modes and both lane shapes — bitwise equal
    /// values and identical modeled counters.
    #[test]
    fn pipelined_and_blocking_agree_on_ragged_blocks() {
        let run = |mode: ShiftMode| {
            SimWorld::new(3, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let rows = block_range(10, 3, c.rank()).len();
                let mut y = Mat::from_vec(
                    rows,
                    2,
                    (0..rows * 2).map(|i| (c.rank() * 100 + i) as f64).collect(),
                );
                let pipe = ShiftPipeline::new(c, 1, 3);
                for _ in 0..3 {
                    let fly = pipe.begin_mat(&y, None);
                    // "compute" reads y while the copy is in flight
                    let checksum: f64 = y.as_slice().iter().sum();
                    let next = fly.wait();
                    y = pipe.exchange_mat(next, None);
                    std::hint::black_box(checksum);
                }
                // 6 hops = two full revolutions: y is home again.
                (y.nrows(), y.as_slice().to_vec(), c.stats_snapshot())
            })
        };
        let a = run(ShiftMode::Pipelined);
        let b = run(ShiftMode::Blocking);
        for (oa, ob) in a.iter().zip(&b) {
            assert_eq!(oa.value.0, block_range(10, 3, oa.rank).len());
            assert_eq!(oa.value.1, ob.value.1, "values must match bitwise");
            let (sa, sb) = (&oa.value.2, &ob.value.2);
            assert_eq!(sa.total().msgs_sent, sb.total().msgs_sent);
            assert_eq!(sa.total().words_sent, sb.total().words_sent);
            assert_eq!(
                sa.total().modeled_s.to_bits(),
                sb.total().modeled_s.to_bits(),
                "modeled time must be bit-identical across modes"
            );
        }
    }

    /// `Blocking` is wait-at-begin: when `begin` returns, the hop has
    /// been posted *and* received — nothing of it is left in the mailbox
    /// for the compute to overlap with.
    #[test]
    fn blocking_begin_has_received_before_the_compute_starts() {
        SimWorld::new(2, MachineModel::bandwidth_only()).run(|c| {
            let _g = ShiftMode::scoped(ShiftMode::Blocking);
            let pipe = ShiftPipeline::new(c, 1, 5);
            let y = Mat::from_vec(1, 2, vec![c.rank() as f64, 7.0]);
            let fly = pipe.begin_mat(&y, None);
            let prop = c.stats_snapshot().phase(Phase::Propagation).msgs_recv;
            assert_eq!(prop, 1, "the incoming block must already be received");
            // Next in line on the pipeline's stream, and nothing queued.
            let probe = c.recv_begin::<Mat>(1 - c.rank(), 5);
            c.barrier();
            assert!(!probe.poll(), "no message may be pending in the mailbox");
            c.barrier(); // nobody completes the probe before everyone has looked
            c.send(1 - c.rank(), 5, Mat::zeros(0, 0));
            let _ = probe.wait();
            assert_eq!(fly.wait().as_slice(), &[(1 - c.rank()) as f64, 7.0]);
        });
    }

    /// Empty blocks (0×0 panels) and empty routed forward sets travel
    /// cleanly through both lane shapes; the world's end-of-run drain
    /// check guarantees nothing leaks.
    #[test]
    fn empty_blocks_and_empty_forward_sets_flow() {
        for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
            let out = SimWorld::new(2, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let pipe = ShiftPipeline::new(c, 1, 11);
                let empty = Mat::zeros(0, 0);
                let fly = pipe.begin_mat(&empty, None);
                let got = fly.wait();
                assert_eq!(got.nrows(), 0);
                // A panel whose forward set is empty: rows exist but
                // none ship; the receiver reconstructs zeros.
                let y = Mat::from_vec(2, 2, vec![1.0; 4]);
                let none = RowSet::empty();
                let fly = pipe.begin_mat(&y, Some(&none));
                let got = fly.wait();
                got.as_slice().iter().sum::<f64>()
            });
            for o in &out {
                assert_eq!(o.value, 0.0, "unshipped rows must reconstruct as zeros");
            }
        }
    }

    /// A replan mid-run (dropping one pipeline, building another with a
    /// different tag and routing) leaves no message in flight: every
    /// step waits its handle, so the drain check at world exit passes.
    #[test]
    fn replan_mid_pipeline_drains_cleanly() {
        let out = SimWorld::new(2, MachineModel::bandwidth_only()).run(|c| {
            let mut y = Mat::from_vec(1, 2, vec![c.rank() as f64, 1.0]);
            {
                let pipe = ShiftPipeline::new(c, 1, 20);
                let fly = pipe.begin_mat(&y, None);
                y = fly.wait();
            }
            // "Replan": new tag, pattern routing, fresh pipeline.
            let pipe = ShiftPipeline::new(c, 1, 21);
            let all = RowSet::all(1);
            let fly = pipe.begin_mat(&y, Some(&all));
            y = fly.wait();
            y.as_slice()[0]
        });
        // Two hops on a 2-ring: each rank's row is home again.
        for o in &out {
            assert_eq!(o.value, o.rank as f64);
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
