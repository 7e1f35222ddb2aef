//! Runtime auto-tuner for the local microkernel variants.
//!
//! The distributed planner already auto-tunes the *outer* decision
//! (algorithm, replication factor, routing); [`LocalTuning`] adds the
//! inner one. For each (op, format, shape class) it microbenchmarks the
//! admissible [`LocalKernel`] variants **on the staged problem's actual
//! sparse blocks** (capped to a row prefix so tuning stays cheap) and
//! caches the winner, keyed by a coarse shape class — log₂ buckets of
//! the block's row count and nnz/row plus the exact dense width `r` —
//! so one measurement serves every block of the same shape class.
//!
//! The tuner is deliberately **communication-free**: it never touches a
//! `Comm` handle, performs no collectives, and records no modeled
//! flops, so modeled word/message/compute counts are bit-identical
//! whatever variant wins. Callers account its wall time in a dedicated
//! phase bucket instead.
//!
//! Picks can be pinned for reproducible benches: programmatically via
//! [`LocalTuning::set_pin`], or with the `DSK_LOCAL_KERNEL` environment
//! variable (any [`LocalKernel::label`], e.g. `blocked`). A pin wins
//! over both the cache and fresh measurement, clamped per op to the
//! admissible set.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::sddmm::SddmmCombine;
use crate::variants::{LocalKernel, LocalOp, SparseFormat};

/// Cap on the nonzeros a tuning measurement runs over: blocks larger
/// than this are truncated to a row prefix (CSR) / entry prefix (COO).
const TUNE_NNZ_CAP: usize = 1 << 15;

/// Timed repetitions per variant (plus one warm-up); the minimum is
/// scored, which rejects scheduler noise better than the mean.
const TUNE_REPS: usize = 3;

/// What a caller wants tuned: one local op on blocks of a given shape
/// class. `rows`/`nnz` describe the blocks the pick will serve (the
/// planner passes per-rank estimates so cache keys match at both tune
/// time and plan time); `r` is the dense operand width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneRequest {
    /// The local kernel op.
    pub op: LocalOp,
    /// Storage format of the sparse blocks.
    pub format: SparseFormat,
    /// Rows of a representative sparse block.
    pub rows: usize,
    /// Nonzeros of a representative sparse block.
    pub nnz: usize,
    /// Dense operand width (embedding dimension).
    pub r: usize,
}

/// Cache key: shape classes, not exact shapes — log₂ buckets of the row
/// count and of nnz/row, exact `r` (the unroll width specializes on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TuneKey {
    op: LocalOp,
    format: SparseFormat,
    rows_log2: u32,
    nnz_per_row_log2: u32,
    r: usize,
}

impl TuneKey {
    fn of(req: TuneRequest) -> TuneKey {
        let nnz_per_row = req.nnz / req.rows.max(1);
        TuneKey {
            op: req.op,
            format: req.format,
            rows_log2: req.rows.max(1).ilog2(),
            nnz_per_row_log2: nnz_per_row.max(1).ilog2(),
            r: req.r,
        }
    }
}

/// The variants a distributed kernel family resolved for its four local
/// ops. `Default` is all-[`LocalKernel::Naive`] (the pre-tuning
/// behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalPicks {
    /// Variant for `out += S·B`.
    pub spmm: LocalKernel,
    /// Variant for the transpose scatter `out += Sᵀ·A`.
    pub spmm_t: LocalKernel,
    /// Variant for SDDMM accumulation.
    pub sddmm: LocalKernel,
    /// Variant for the fused SDDMM+SpMM kernel.
    pub fused: LocalKernel,
}

impl LocalPicks {
    /// The pick for `op`.
    pub fn get(&self, op: LocalOp) -> LocalKernel {
        match op {
            LocalOp::Spmm => self.spmm,
            LocalOp::SpmmT => self.spmm_t,
            LocalOp::Sddmm => self.sddmm,
            LocalOp::Fused => self.fused,
        }
    }
}

/// The pin in a raw `DSK_LOCAL_KERNEL` value; `None` (tune) when unset
/// or empty. An unrecognized label panics: a silently ignored pin would
/// quietly run a "reproducible" bench on tuned picks.
fn pin_from(raw: Option<&str>) -> Option<LocalKernel> {
    let v = raw.map(str::trim).filter(|v| !v.is_empty())?;
    Some(LocalKernel::parse(v).unwrap_or_else(|| {
        let labels = LocalKernel::ALL.map(LocalKernel::label).join(", ");
        panic!("DSK_LOCAL_KERNEL={v:?} is not a local kernel label (accepted: {labels})")
    }))
}

/// Per-problem cache of tuned local-kernel picks, shared by every
/// distributed plan built from the same staged problem (the local
/// analogue of the staged partition/pattern caches).
#[derive(Debug, Default)]
pub struct LocalTuning {
    cache: Mutex<HashMap<TuneKey, LocalKernel>>,
    pin: Mutex<Option<LocalKernel>>,
}

impl LocalTuning {
    /// An empty cache with no programmatic pin.
    pub fn new() -> LocalTuning {
        LocalTuning::default()
    }

    /// Pin every pick to `v` (or clear the pin with `None`). A
    /// programmatic pin takes precedence over `DSK_LOCAL_KERNEL`.
    pub fn set_pin(&self, v: Option<LocalKernel>) {
        *self.pin.lock().unwrap() = v;
    }

    /// The active pin: the programmatic one if set, else the
    /// `DSK_LOCAL_KERNEL` value (panics on an unrecognized label).
    pub fn pinned(&self) -> Option<LocalKernel> {
        if let Some(v) = *self.pin.lock().unwrap() {
            return Some(v);
        }
        pin_from(std::env::var("DSK_LOCAL_KERNEL").ok().as_deref())
    }

    /// The cached pick for `req`'s shape class, if any (pin applied
    /// first). Never measures.
    pub fn cached(&self, req: TuneRequest) -> Option<LocalKernel> {
        if let Some(p) = self.pinned() {
            return Some(p.clamp(req.op, req.format));
        }
        self.cache
            .lock()
            .unwrap()
            .get(&TuneKey::of(req))
            .map(|v| v.clamp(req.op, req.format))
    }

    /// Resolve a pick without measuring: pin, else cache, else the
    /// shape heuristic. This is what world-free planning (`plan_candidates`)
    /// uses — it must stay cheap enough for an 81-point sweep.
    pub fn resolve(&self, req: TuneRequest) -> LocalKernel {
        self.cached(req).unwrap_or_else(|| heuristic(req))
    }

    /// Tune `req.op` on a representative CSR block: microbenchmark every
    /// admissible variant on (a row-prefix cap of) `block` and cache the
    /// fastest. Pin and cache short-circuit the measurement. The cache
    /// lock is held across the measurement so concurrent in-process
    /// ranks serialize instead of perturbing each other's timings.
    pub fn tune_csr(&self, req: TuneRequest, block: &CsrMatrix) -> LocalKernel {
        if let Some(p) = self.pinned() {
            return p.clamp(req.op, req.format);
        }
        let key = TuneKey::of(req);
        let mut cache = self.cache.lock().unwrap();
        if let Some(&v) = cache.get(&key) {
            return v.clamp(req.op, req.format);
        }
        let pick = if block.nrows() == 0 || block.nnz() == 0 || req.r == 0 {
            heuristic(req)
        } else {
            let start = Instant::now();
            let pick = measure_csr(req.op, block, req.r);
            trace_measurement(req, pick, start);
            pick
        };
        cache.insert(key, pick);
        pick
    }

    /// As [`LocalTuning::tune_csr`], on a representative COO block.
    pub fn tune_coo(&self, req: TuneRequest, block: &CooMatrix) -> LocalKernel {
        if let Some(p) = self.pinned() {
            return p.clamp(req.op, req.format);
        }
        let key = TuneKey::of(req);
        let mut cache = self.cache.lock().unwrap();
        if let Some(&v) = cache.get(&key) {
            return v.clamp(req.op, req.format);
        }
        let pick = if block.nrows == 0 || block.nnz() == 0 || req.r == 0 {
            heuristic(req)
        } else {
            let start = Instant::now();
            let pick = measure_coo(req.op, block, req.r);
            trace_measurement(req, pick, start);
            pick
        };
        cache.insert(key, pick);
        pick
    }
}

/// Record a `tune.measure` span covering one microbenchmark sweep. The
/// tuner stays communication-free: this reads the clock for the span
/// but touches no `Comm` state or modeled counters.
fn trace_measurement(req: TuneRequest, pick: LocalKernel, start: Instant) {
    use dsk_comm::trace::{self, ArgVal, TraceKind};
    trace::complete(TraceKind::Tune, "tune.measure", start, || {
        vec![
            ("op".to_string(), ArgVal::Str(format!("{:?}", req.op))),
            (
                "format".to_string(),
                ArgVal::Str(format!("{:?}", req.format)),
            ),
            ("variant".to_string(), ArgVal::Str(pick.label().to_string())),
        ]
    });
}

/// The measurement-free default pick, used for empty blocks and by
/// world-free planning before any measurement exists: serial blocking
/// pays off once the row width covers a register block; the transpose
/// scatter prefers the cache-tiled layout; COO blocks are consumed once
/// and stay naive.
fn heuristic(req: TuneRequest) -> LocalKernel {
    let guess = match req.format {
        SparseFormat::Coo => LocalKernel::Naive,
        SparseFormat::Csr => match req.op {
            LocalOp::SpmmT => LocalKernel::Tiled,
            _ if req.r >= 8 => LocalKernel::Blocked,
            _ => LocalKernel::Naive,
        },
    };
    guess.clamp(req.op, req.format)
}

/// Truncate a CSR block to the row prefix holding at most
/// [`TUNE_NNZ_CAP`] nonzeros (always at least one row).
fn cap_csr(block: &CsrMatrix) -> CsrMatrix {
    if block.nnz() <= TUNE_NNZ_CAP {
        return block.clone();
    }
    let indptr = block.indptr();
    let mut rows = 1;
    while rows < block.nrows() && indptr[rows + 1] <= TUNE_NNZ_CAP {
        rows += 1;
    }
    let mut coo = CooMatrix::empty(rows, block.ncols());
    for i in 0..rows {
        let (cols, vals) = block.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(i, j as usize, v);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Truncate a COO block to its first [`TUNE_NNZ_CAP`] entries.
fn cap_coo(block: &CooMatrix) -> CooMatrix {
    if block.nnz() <= TUNE_NNZ_CAP {
        return block.clone();
    }
    let mut capped = CooMatrix::empty(block.nrows, block.ncols);
    for (k, (&i, (&j, &v))) in block
        .rows
        .iter()
        .zip(block.cols.iter().zip(&block.vals))
        .enumerate()
    {
        if k >= TUNE_NNZ_CAP {
            break;
        }
        capped.push(i as usize, j as usize, v);
    }
    capped
}

/// Minimum wall time of `TUNE_REPS` runs of `f` (after one warm-up).
fn best_of(mut f: impl FnMut()) -> std::time::Duration {
    f();
    (0..TUNE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("TUNE_REPS > 0")
}

/// Argmin over `admissible` of each variant's best-of-N time.
fn fastest(admissible: &[LocalKernel], mut run: impl FnMut(LocalKernel)) -> LocalKernel {
    admissible
        .iter()
        .map(|&v| (best_of(|| run(v)), v))
        .min_by_key(|&(t, _)| t)
        .expect("admissible sets are non-empty")
        .1
}

fn measure_csr(op: LocalOp, block: &CsrMatrix, r: usize) -> LocalKernel {
    let s = cap_csr(block);
    let admissible = LocalKernel::admissible(op, SparseFormat::Csr);
    // Synthetic dense operands with fixed seeds: the timings depend on
    // shape and sparsity structure, not on the numerical values.
    match op {
        LocalOp::Spmm => {
            let b = Mat::random(s.ncols(), r, 0xD5C7);
            let mut out = Mat::zeros(s.nrows(), r);
            fastest(admissible, |v| v.spmm_csr(&mut out, &s, &b))
        }
        LocalOp::SpmmT => {
            let a = Mat::random(s.nrows(), r, 0xD5C8);
            let mut out = Mat::zeros(s.ncols(), r);
            fastest(admissible, |v| v.spmm_csr_t(&mut out, &s, &a))
        }
        LocalOp::Sddmm => {
            let a = Mat::random(s.nrows(), r, 0xD5C9);
            let b = Mat::random(s.ncols(), r, 0xD5CA);
            let mut acc = vec![0.0; s.nnz()];
            fastest(admissible, |v| {
                v.sddmm_csr(&mut acc, &s, &a, &b, SddmmCombine::Dot)
            })
        }
        LocalOp::Fused => {
            let a = Mat::random(s.nrows(), r, 0xD5CB);
            let b = Mat::random(s.ncols(), r, 0xD5CC);
            let mut out = Mat::zeros(s.nrows(), r);
            fastest(admissible, |v| v.fused_csr(&mut out, &s, &a, &b))
        }
    }
}

fn measure_coo(op: LocalOp, block: &CooMatrix, r: usize) -> LocalKernel {
    let s = cap_coo(block);
    let admissible = LocalKernel::admissible(op, SparseFormat::Coo);
    match op {
        LocalOp::Spmm => {
            let b = Mat::random(s.ncols, r, 0xD5CD);
            let mut out = Mat::zeros(s.nrows, r);
            fastest(admissible, |v| v.spmm_coo(&mut out, &s, &b))
        }
        LocalOp::SpmmT => {
            let a = Mat::random(s.nrows, r, 0xD5CE);
            let mut out = Mat::zeros(s.ncols, r);
            fastest(admissible, |v| v.spmm_coo_t(&mut out, &s, &a))
        }
        // Fused has no COO form in the dispatch table; measure the
        // SDDMM it decomposes into.
        LocalOp::Sddmm | LocalOp::Fused => {
            let a = Mat::random(s.nrows, r, 0xD5CF);
            let b = Mat::random(s.ncols, r, 0xD5D0);
            let mut acc = vec![0.0; s.nnz()];
            fastest(admissible, |v| {
                v.sddmm_coo(&mut acc, &s, &a, &b, SddmmCombine::Dot)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_sparse::gen::erdos_renyi;

    fn req(op: LocalOp, format: SparseFormat) -> TuneRequest {
        TuneRequest {
            op,
            format,
            rows: 64,
            nnz: 512,
            r: 16,
        }
    }

    #[test]
    fn env_pin_parses_labels_and_treats_unset_and_empty_as_no_pin() {
        assert_eq!(pin_from(None), None);
        assert_eq!(pin_from(Some("")), None);
        assert_eq!(pin_from(Some("  ")), None);
        assert_eq!(pin_from(Some("blocked")), Some(LocalKernel::Blocked));
        assert_eq!(pin_from(Some(" Par_Tiled ")), Some(LocalKernel::ParTiled));
    }

    #[test]
    #[should_panic(expected = "DSK_LOCAL_KERNEL=\"blokced\" is not a local kernel label \
                               (accepted: naive, blocked, tiled, par-naive, par-blocked, par-tiled)")]
    fn env_pin_rejects_an_unknown_label() {
        pin_from(Some("blokced"));
    }

    #[test]
    fn programmatic_pin_beats_cache_and_measurement() {
        let tuning = LocalTuning::new();
        tuning.set_pin(Some(LocalKernel::Blocked));
        let r = req(LocalOp::Spmm, SparseFormat::Csr);
        assert_eq!(tuning.resolve(r), LocalKernel::Blocked);
        let s = CsrMatrix::from_coo(&erdos_renyi(64, 64, 8, 7));
        assert_eq!(tuning.tune_csr(r, &s), LocalKernel::Blocked);
        // Pins clamp per op: Blocked is admissible everywhere, ParNaive
        // is not for the transpose scatter.
        tuning.set_pin(Some(LocalKernel::ParNaive));
        assert_eq!(
            tuning.resolve(req(LocalOp::SpmmT, SparseFormat::Csr)),
            LocalKernel::Naive
        );
    }

    #[test]
    fn tuned_pick_is_cached_and_admissible() {
        let tuning = LocalTuning::new();
        let s = CsrMatrix::from_coo(&erdos_renyi(64, 64, 8, 8));
        for op in LocalOp::ALL {
            let r = req(op, SparseFormat::Csr);
            let pick = tuning.tune_csr(r, &s);
            assert!(LocalKernel::admissible(op, SparseFormat::Csr).contains(&pick));
            assert_eq!(tuning.cached(r), Some(pick));
            assert_eq!(tuning.resolve(r), pick);
        }
    }

    #[test]
    fn empty_blocks_fall_back_to_the_heuristic() {
        let tuning = LocalTuning::new();
        let empty = CsrMatrix::from_coo(&CooMatrix::empty(4, 4));
        let r = TuneRequest {
            op: LocalOp::SpmmT,
            format: SparseFormat::Csr,
            rows: 4,
            nnz: 0,
            r: 16,
        };
        assert_eq!(tuning.tune_csr(r, &empty), LocalKernel::Tiled);
    }

    #[test]
    fn shape_classes_share_cache_entries() {
        // 64 rows and 65 rows land in the same log2 bucket.
        let tuning = LocalTuning::new();
        let s = CsrMatrix::from_coo(&erdos_renyi(64, 64, 8, 9));
        let a = req(LocalOp::Spmm, SparseFormat::Csr);
        let mut b = a;
        b.rows = 65;
        b.nnz = 520;
        let pick = tuning.tune_csr(a, &s);
        assert_eq!(tuning.cached(b), Some(pick));
    }

    #[test]
    fn coo_tuning_stays_in_the_serial_pair() {
        let tuning = LocalTuning::new();
        let s = erdos_renyi(64, 64, 8, 10);
        for op in [LocalOp::Spmm, LocalOp::SpmmT, LocalOp::Sddmm] {
            let pick = tuning.tune_coo(req(op, SparseFormat::Coo), &s);
            assert!([LocalKernel::Naive, LocalKernel::Blocked].contains(&pick));
        }
    }
}
