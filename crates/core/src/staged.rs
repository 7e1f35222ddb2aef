//! Shared staging for distributed runs: a [`GlobalProblem`] plus a
//! cache of its block partitions, and the one cut of a rank's sparse
//! blocks (`StagedProblem::cut`) every kernel is built from.
//!
//! Every rank of a simulated world builds its local blocks from the same
//! global matrices. Having each of `p` ranks re-partition the sparse
//! matrix would cost `O(p·nnz)` at staging time — negligible for tests,
//! prohibitive for 256-rank benchmark runs. A [`StagedProblem`] is
//! shared (via `Arc`) by all ranks of a world; the first rank to request
//! a given partition geometry computes it — exactly once, even when all
//! ranks ask at the same instant — and every other rank reuses it.
//! Staging happens in the `Setup` phase, so none of this affects
//! measured communication.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use dsk_sparse::partition::partition_by_ranges;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::global::GlobalProblem;
use crate::planview::PlanView;
use crate::rstore::RStore;

type Grid = Vec<Vec<CooMatrix>>;
type Key = (bool, Vec<usize>, Vec<usize>);

/// A per-key compute-once cache. The map lock is held only to fetch
/// the key's cell, so other keys stay unblocked while one computes;
/// threads asking for the same key wait on its cell and share the one
/// result — the `p` rank threads of an in-memory world compute each
/// geometry once, not `p` times.
struct OnceMap<K, V>(Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>);

impl<K: Eq + Hash, V> OnceMap<K, V> {
    fn new() -> Self {
        OnceMap(Mutex::new(HashMap::new()))
    }

    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut map = self.0.lock().expect("nothing panics under the map lock");
            Arc::clone(map.entry(key).or_default())
        };
        Arc::clone(cell.get_or_init(|| Arc::new(compute())))
    }
}

/// A global problem plus memoized sparse-matrix partitions, shared by
/// all ranks of a simulated world.
pub struct StagedProblem {
    /// The underlying global problem.
    pub prob: Arc<GlobalProblem>,
    transpose: OnceLock<CooMatrix>,
    partitions: OnceMap<Key, Grid>,
}

impl StagedProblem {
    /// Stage a shared global problem.
    pub fn new(prob: Arc<GlobalProblem>) -> Self {
        StagedProblem {
            prob,
            transpose: OnceLock::new(),
            partitions: OnceMap::new(),
        }
    }

    /// Stage a borrowed problem by cloning it (test convenience; no
    /// cross-rank sharing).
    pub fn ephemeral(prob: &GlobalProblem) -> Self {
        Self::new(Arc::new(prob.clone()))
    }

    /// The block partition of `S` (or `Sᵀ`, itself computed once, when
    /// `transposed`) by the given row/column ranges, computed once per
    /// geometry and shared.
    fn partition(
        &self,
        transposed: bool,
        row_ranges: &[Range<usize>],
        col_ranges: &[Range<usize>],
    ) -> Arc<Grid> {
        let key: Key = (
            transposed,
            row_ranges.iter().map(|r| r.start).collect(),
            col_ranges.iter().map(|r| r.start).collect(),
        );
        self.partitions.get_or_compute(key, || {
            let src = match transposed {
                true => self.transpose.get_or_init(|| self.prob.s.transpose()),
                false => &self.prob.s,
            };
            partition_by_ranges(src, row_ranges, col_ranges)
        })
    }

    /// Rank `g`'s blocks of `S` (of `Sᵀ` when `transposed`) under the
    /// sparse layout of `view` ([`PlanView::cells`] of its block grid),
    /// cut from the memoized partition of that grid.
    ///
    /// # Panics
    ///
    /// Panics when the problem's sides do not admit the grid
    /// ([`PlanView::fits`]).
    pub(crate) fn cut(&self, view: &PlanView, g: usize, transposed: bool) -> Cut {
        let side = view.min_side();
        assert!(view.fits(), "{view:?} needs sides of at least {side}");
        let [rows, cols] = view.sparse_grid(transposed);
        let cells = view.cells(g);
        let offsets = cells.iter().map(|&(i, j)| (rows[i].start, cols[j].start));
        Cut {
            grid: self.partition(transposed, &rows, &cols),
            offsets: offsets.collect(),
            global: (rows[rows.len() - 1].end, cols[cols.len() - 1].end),
            cells,
        }
    }
}

/// One rank's blocks of `S` or `Sᵀ`: the cells it stores, by slot, in
/// the shared block grid they were cut from.
pub(crate) struct Cut {
    /// The whole block grid; pattern routing reads the cells of the
    /// ranks a tile visits.
    pub(crate) grid: Arc<Grid>,
    /// This rank's cells, in slot order.
    cells: Vec<(usize, usize)>,
    /// Each cell's global `(row0, col0)`.
    offsets: Vec<(usize, usize)>,
    /// Global shape of the cut matrix.
    global: (usize, usize),
}

impl Cut {
    /// The block of slot `w`.
    pub(crate) fn cell(&self, w: usize) -> &CooMatrix {
        let (i, j) = self.cells[w];
        &self.grid[i][j]
    }

    /// Every slot's block, in slot order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &CooMatrix> {
        self.cells.iter().map(|&(i, j)| &self.grid[i][j])
    }

    /// A store over the given blocks, one per slot, at the cells'
    /// offsets.
    pub(crate) fn store(&self, blocks: Vec<CsrMatrix>) -> RStore {
        RStore::csr(self.global, blocks, self.offsets.clone())
    }

    /// A store over every slot's block as CSR.
    pub(crate) fn csr(&self) -> RStore {
        self.store(self.blocks().map(CsrMatrix::from_coo).collect())
    }

    /// A store over the one slot's block as COO.
    pub(crate) fn coo(&self) -> RStore {
        assert_eq!(self.cells.len(), 1, "a COO store holds one block");
        RStore::coo(self.global, self.cell(0).clone(), self.offsets[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::block_range;

    #[test]
    fn partition_is_cached_and_correct() {
        let prob = GlobalProblem::erdos_renyi(16, 16, 4, 3, 111);
        let staged = StagedProblem::ephemeral(&prob);
        let rows: Vec<_> = (0..4).map(|i| block_range(16, 4, i)).collect();
        let cols: Vec<_> = (0..2).map(|i| block_range(16, 2, i)).collect();
        let g1 = staged.partition(false, &rows, &cols);
        let g2 = staged.partition(false, &rows, &cols);
        assert!(Arc::ptr_eq(&g1, &g2), "second request must hit the cache");
        let total: usize = g1.iter().flatten().map(CooMatrix::nnz).sum();
        assert_eq!(total, prob.nnz());
    }

    #[test]
    fn transposed_partition_uses_transpose() {
        let prob = GlobalProblem::erdos_renyi(12, 20, 4, 3, 112);
        let staged = StagedProblem::ephemeral(&prob);
        let rows = std::slice::from_ref(&(0..20));
        let cols: Vec<_> = (0..3).map(|i| block_range(12, 3, i)).collect();
        let g = staged.partition(true, rows, &cols);
        let total: usize = g.iter().flatten().map(CooMatrix::nnz).sum();
        assert_eq!(total, prob.nnz());
        assert_eq!(g[0][0].nrows, 20);
    }

    #[test]
    fn concurrent_requests_compute_each_key_once_without_blocking_other_keys() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::channel;
        use std::sync::Barrier;
        use std::time::Duration;

        let map: OnceMap<u32, u32> = OnceMap::new();
        let (computed, arrived) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let barrier = Barrier::new(4);
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        std::thread::scope(|scope| {
            let same_key: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        arrived.fetch_add(1, Ordering::SeqCst);
                        map.get_or_compute(1, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Hold key 1 mid-computation until key 2 has
                            // been served (and all four threads are in).
                            gate.lock()
                                .unwrap()
                                .recv_timeout(Duration::from_secs(30))
                                .expect("key 2 was blocked behind key 1");
                            11
                        })
                    })
                })
                .collect();
            while arrived.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            // A second key requested meanwhile is served at once.
            assert_eq!(*map.get_or_compute(2, || 22), 22);
            release.send(()).unwrap();
            let got: Vec<Arc<u32>> = same_key.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(got.iter().all(|g| **g == 11 && Arc::ptr_eq(g, &got[0])));
        });
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "one computation per key"
        );
    }

    #[test]
    fn distinct_geometries_get_distinct_entries() {
        let prob = GlobalProblem::erdos_renyi(16, 16, 4, 2, 113);
        let staged = StagedProblem::ephemeral(&prob);
        let r4: Vec<_> = (0..4).map(|i| block_range(16, 4, i)).collect();
        let r2: Vec<_> = (0..2).map(|i| block_range(16, 2, i)).collect();
        let g1 = staged.partition(false, &r4, &r2);
        let g2 = staged.partition(false, &r2, &r4);
        assert!(!Arc::ptr_eq(&g1, &g2));
        assert_eq!(g1.len(), 4);
        assert_eq!(g2.len(), 2);
    }
}
