//! Sparsity-derived communication patterns and indexed-row payloads.
//!
//! The shift-based algorithm families move *dense* tiles around rings
//! even though each receiver only reads (or writes) the rows its local
//! `S` nonzero structure touches. This module supplies the layer
//! between [`crate::Comm`] and the algorithms that exploits that:
//!
//! * [`RowSet`] — a sorted set of row indices, the unit in which a
//!   rank describes which rows of a traveling tile it needs;
//! * [`RowBundle`] — a dense tile in flight carrying either all of its
//!   rows or an indexed subset, with an automatic dense fallback when
//!   the subset stops being cheaper (the SparCML switchover);
//! * [`CommPattern`] — the full per-member need matrix of a ring,
//!   assembled by a one-time all-gather charged to
//!   [`Phase::PatternExchange`], from which senders compute exactly
//!   which rows must still travel at every step of a shift schedule.
//!
//! The pattern machinery never changes *what* a kernel computes — a
//! receiver reassembles a full-size tile with untouched rows zeroed,
//! and the need sets are unions of every row any downstream rank will
//! read — it only changes how many words cross the wire. Word
//! accounting stays backend-invariant: an indexed bundle of `k` rows
//! of width `w` costs `k·(w+1)` words (one index word per row, matching
//! the 3-words-per-COO-nonzero convention), a dense bundle costs
//! `nrows·w` exactly like the tile it replaces.

use crate::comm::Comm;
use crate::payload::{Payload, WirePayload, WireReader};
use crate::stats::Phase;

/// A sorted, duplicate-free set of row indices of a dense tile.
///
/// Built by ranks from the support of their local sparse blocks; the
/// index space is tile-local (row 0 is the tile's first row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    idx: Vec<u32>,
}

impl RowSet {
    /// The empty set (a rank that touches no row of some tile).
    pub fn empty() -> Self {
        RowSet::default()
    }

    /// Build from arbitrary indices (sorted and deduplicated here).
    pub fn from_indices(mut idx: Vec<u32>) -> Self {
        idx.sort_unstable();
        idx.dedup();
        RowSet { idx }
    }

    /// Every row of an `n`-row tile (forces the dense fallback).
    pub fn all(n: usize) -> Self {
        RowSet {
            idx: (0..n as u32).collect(),
        }
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The indices, sorted ascending.
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// Union of any number of sets (k-way merge via sort + dedup; the
    /// sets involved are per-block supports, small next to `nnz`).
    pub fn union_of<'a>(sets: impl IntoIterator<Item = &'a RowSet>) -> RowSet {
        let mut idx: Vec<u32> = Vec::new();
        for s in sets {
            idx.extend_from_slice(&s.idx);
        }
        RowSet::from_indices(idx)
    }
}

/// Indices travel at one word each, like every index vector.
impl Payload for RowSet {
    fn words(&self) -> usize {
        self.idx.len()
    }
}

impl WirePayload for RowSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.idx.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        RowSet {
            idx: Vec::decode(r),
        }
    }
}

/// A rank's need sets for every tile of a ring, as exchanged (one
/// `RowSet` per tile origin).
impl Payload for Vec<RowSet> {
    fn words(&self) -> usize {
        self.iter().map(Payload::words).sum()
    }
}

impl WirePayload for Vec<RowSet> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for s in self {
            s.encode(buf);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        // Each set opens with its own 8-byte count.
        let n = r.read_count(8);
        (0..n).map(|_| RowSet::decode(r)).collect()
    }
}

/// A dense `nrows × ncols` tile in flight, carrying either all of its
/// rows (`rows == None`) or an indexed subset.
///
/// The constructor picks the cheaper form: an indexed bundle of `k`
/// rows costs `k·(ncols+1)` words, the dense tile `nrows·ncols`, so a
/// subset only pays off below `ncols/(ncols+1)` density — past that the
/// bundle silently degrades to dense and nothing is lost relative to
/// shipping the raw tile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBundle {
    nrows: usize,
    ncols: usize,
    rows: Option<Vec<u32>>,
    data: Vec<f64>,
}

impl RowBundle {
    /// Wrap a full tile (row-major buffer of `nrows·ncols`).
    pub fn dense(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense bundle shape mismatch");
        RowBundle {
            nrows,
            ncols,
            rows: None,
            data,
        }
    }

    /// Extract the rows in `set` from a full tile, choosing the indexed
    /// form only when it is strictly cheaper than dense.
    pub fn gather(nrows: usize, ncols: usize, data: &[f64], set: &RowSet) -> Self {
        assert_eq!(data.len(), nrows * ncols, "tile shape mismatch");
        debug_assert!(set.indices().iter().all(|&r| (r as usize) < nrows));
        let k = set.len();
        if k * (ncols + 1) >= nrows * ncols {
            return RowBundle::dense(nrows, ncols, data.to_vec());
        }
        let mut picked = Vec::with_capacity(k * ncols);
        for &r in set.indices() {
            let r = r as usize;
            picked.extend_from_slice(&data[r * ncols..(r + 1) * ncols]);
        }
        RowBundle {
            nrows,
            ncols,
            rows: Some(set.indices().to_vec()),
            data: picked,
        }
    }

    /// Whether the bundle degraded to (or started as) the dense form.
    pub fn is_dense(&self) -> bool {
        self.rows.is_none()
    }

    /// Rows of the full tile this bundle describes.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the full tile.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of rows actually carried.
    pub fn rows_carried(&self) -> usize {
        match &self.rows {
            None => self.nrows,
            Some(r) => r.len(),
        }
    }

    /// Reassemble the full `nrows × ncols` row-major buffer, zero-filling
    /// rows the bundle does not carry (which, by construction of the
    /// need sets, no downstream rank reads).
    pub fn into_full(self) -> (usize, usize, Vec<f64>) {
        match self.rows {
            None => (self.nrows, self.ncols, self.data),
            Some(rows) => {
                let mut full = vec![0.0; self.nrows * self.ncols];
                for (k, &r) in rows.iter().enumerate() {
                    let r = r as usize;
                    full[r * self.ncols..(r + 1) * self.ncols]
                        .copy_from_slice(&self.data[k * self.ncols..(k + 1) * self.ncols]);
                }
                (self.nrows, self.ncols, full)
            }
        }
    }
}

/// Dense form costs exactly what the raw tile costs; indexed form adds
/// one index word per carried row.
impl Payload for RowBundle {
    fn words(&self) -> usize {
        match &self.rows {
            None => self.nrows * self.ncols,
            Some(rows) => rows.len() * (self.ncols + 1),
        }
    }
}

impl WirePayload for RowBundle {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.nrows as u64).encode(buf);
        (self.ncols as u64).encode(buf);
        self.rows.encode(buf);
        self.data.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let nrows = r.read_len();
        let ncols = r.read_len();
        let rows = Option::<Vec<u32>>::decode(r);
        let data = Vec::<f64>::decode(r);
        RowBundle {
            nrows,
            ncols,
            rows,
            data,
        }
    }
}

/// The complete need matrix of a ring: `need(member, origin)` is the
/// set of rows of the tile *originating* at ring member `origin` (the
/// member that holds it before the first hop) that ring `member` reads
/// (input shifts) or writes (accumulator shifts) during one round of a
/// shift schedule. Every pattern is keyed by origin member, whatever
/// index the family's own schedule gives the tile.
///
/// Each rank can compute its own row of the matrix locally from its
/// sparse blocks; [`CommPattern::exchange`] all-gathers the rows so
/// every rank can answer "which rows must I still forward?" for any
/// tile it holds — a routed ring pipeline asks exactly that, from where
/// the tile started and the members it visits. The exchange is real
/// traffic, charged to
/// [`Phase::PatternExchange`] — the cost of knowing the pattern is
/// never hidden from the benchmarks.
#[derive(Debug, Clone)]
pub struct CommPattern {
    needs: Vec<Vec<RowSet>>,
}

impl CommPattern {
    /// All-gather every member's need sets over the ring communicator.
    /// `my_needs[origin]` is the calling rank's need set for the tile
    /// originating at ring member `origin`; every member must pass a
    /// vector of length `ring.size()`.
    pub fn exchange(ring: &Comm, my_needs: Vec<RowSet>) -> Self {
        assert_eq!(
            my_needs.len(),
            ring.size(),
            "need one RowSet per ring position"
        );
        let _ph = ring.phase(Phase::PatternExchange);
        let needs = ring.allgather(my_needs);
        CommPattern { needs }
    }

    /// Rows of tile `origin` that `member` needs.
    pub fn need(&self, member: usize, origin: usize) -> &RowSet {
        &self.needs[member][origin]
    }

    /// Union of the need sets of `members` for tile `origin` — the rows
    /// a sender must forward so that every listed member can do its
    /// part. For an *input* shift pass the members still downstream
    /// (shrinks to empty on the final, wasted hop); for an
    /// *accumulator* shift pass the members already visited plus the
    /// owner (grows as contributions land).
    pub fn union_over(&self, members: impl IntoIterator<Item = usize>, origin: usize) -> RowSet {
        RowSet::union_of(members.into_iter().map(|m| &self.needs[m][origin]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowset_sorts_dedups_and_unions() {
        let a = RowSet::from_indices(vec![5, 1, 3, 1]);
        assert_eq!(a.indices(), &[1, 3, 5]);
        let b = RowSet::from_indices(vec![2, 3]);
        assert_eq!(RowSet::union_of([&a, &b]).indices(), &[1, 2, 3, 5]);
        assert_eq!(RowSet::empty().len(), 0);
        assert_eq!(RowSet::all(3).indices(), &[0, 1, 2]);
    }

    #[test]
    fn rowset_wire_roundtrip_and_words() {
        let s = RowSet::from_indices(vec![7, 0, 9]);
        assert_eq!(s.words(), 3);
        assert_eq!(RowSet::from_wire(&s.to_wire()), s);
        let v = vec![s, RowSet::empty()];
        assert_eq!(v.words(), 3);
        assert_eq!(Vec::<RowSet>::from_wire(&v.to_wire()), v);
    }

    #[test]
    fn bundle_gathers_and_reassembles() {
        let nrows = 5;
        let ncols = 3;
        let data: Vec<f64> = (0..nrows * ncols).map(|i| i as f64).collect();
        let set = RowSet::from_indices(vec![1, 4]);
        let b = RowBundle::gather(nrows, ncols, &data, &set);
        assert!(!b.is_dense());
        assert_eq!(b.rows_carried(), 2);
        // 2 rows × (3 data + 1 index) words, vs 15 dense.
        assert_eq!(b.words(), 8);
        let (nr, nc, full) = b.into_full();
        assert_eq!((nr, nc), (nrows, ncols));
        assert_eq!(&full[3..6], &data[3..6]);
        assert_eq!(&full[12..15], &data[12..15]);
        assert!(full[0..3].iter().all(|&v| v == 0.0));
        assert!(full[6..12].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bundle_falls_back_to_dense_at_high_density() {
        let nrows = 4;
        let ncols = 3;
        let data: Vec<f64> = (0..nrows * ncols).map(|i| i as f64 * 0.5).collect();
        // All rows: k·(w+1) = 16 ≥ 12 dense words → must degrade.
        let full_set = RowSet::all(nrows);
        let b = RowBundle::gather(nrows, ncols, &data, &full_set);
        assert!(b.is_dense());
        assert_eq!(b.words(), nrows * ncols);
        assert_eq!(b.into_full().2, data);
        // 3 of 4 rows at width 3: 3·4 = 12 ≥ 12 → still dense.
        let most = RowSet::from_indices(vec![0, 1, 2]);
        assert!(RowBundle::gather(nrows, ncols, &data, &most).is_dense());
    }

    #[test]
    fn empty_pattern_ships_nothing() {
        let data = vec![1.0; 12];
        let b = RowBundle::gather(4, 3, &data, &RowSet::empty());
        assert!(!b.is_dense());
        assert_eq!(b.words(), 0);
        let (_, _, full) = b.clone().into_full();
        assert!(full.iter().all(|&v| v == 0.0));
        assert_eq!(RowBundle::from_wire(&b.to_wire()), b);
    }

    #[test]
    fn bundle_wire_roundtrip() {
        let data: Vec<f64> = (0..20).map(|i| i as f64 - 7.5).collect();
        for set in [
            RowSet::from_indices(vec![0, 3]),
            RowSet::empty(),
            RowSet::all(5),
        ] {
            let b = RowBundle::gather(5, 4, &data, &set);
            assert_eq!(RowBundle::from_wire(&b.to_wire()), b);
        }
        let d = RowBundle::dense(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(RowBundle::from_wire(&d.to_wire()), d);
    }

    #[test]
    fn pattern_union_over_members() {
        // Two members, two origins.
        let needs = vec![
            vec![RowSet::from_indices(vec![0]), RowSet::from_indices(vec![1])],
            vec![RowSet::from_indices(vec![2]), RowSet::empty()],
        ];
        let p = CommPattern { needs };
        assert_eq!(p.union_over([0, 1], 0).indices(), &[0, 2]);
        assert_eq!(p.union_over([1], 1).indices(), &[] as &[u32]);
        assert_eq!(p.need(0, 1).indices(), &[1]);
    }
}
