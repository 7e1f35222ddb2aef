//! Collective operations built from pairwise exchanges.
//!
//! The modeled costs follow the standard results surveyed by Chan et al.
//! (*Collective communication: theory, practice, and experience*), which
//! the paper cites for its analysis:
//!
//! * all-gather / reduce-scatter over `p` ranks of per-rank blocks of `b`
//!   words: `(p-1)·α + (p-1)·b·β` — i.e. `((p-1)/p)·n·β` bandwidth for a
//!   total payload of `n = p·b` words;
//! * all-reduce: reduce-scatter followed by all-gather;
//! * binomial-tree broadcast: `⌈log₂ p⌉` rounds;
//! * dissemination barrier: `⌈log₂ p⌉` zero-word rounds.
//!
//! Because every building block is a [`Comm::sendrecv`] (which charges
//! `α + β·max(in, out)` once, reflecting independent send/receive
//! progress), the measured modeled time of each collective matches those
//! formulas without any special-cased accounting.

use crate::comm::{Comm, F64Block, COLLECTIVE_TAG_BASE};
use crate::pattern::{RowBundle, RowSet};
use crate::payload::WirePayload;

const TAG_ALLGATHER: u32 = COLLECTIVE_TAG_BASE;
const TAG_REDUCE_SCATTER: u32 = COLLECTIVE_TAG_BASE + 1;
const TAG_BROADCAST: u32 = COLLECTIVE_TAG_BASE + 2;
const TAG_BARRIER: u32 = COLLECTIVE_TAG_BASE + 3;
const TAG_ALLTOALLV: u32 = COLLECTIVE_TAG_BASE + 4;
const TAG_GATHER: u32 = COLLECTIVE_TAG_BASE + 5;
const TAG_SPARSE_ALLGATHER: u32 = COLLECTIVE_TAG_BASE + 6;
const TAG_SPARSE_ALLTOALLV: u32 = COLLECTIVE_TAG_BASE + 7;

/// Split `len` into `parts` near-equal contiguous ranges (the block
/// decomposition used by reduce-scatter / all-reduce on flat buffers).
pub fn block_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let q = len / parts;
    let r = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = q + usize::from(i < r);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

impl Comm {
    /// All-gather: every rank contributes one value; returns all
    /// contributions indexed by communicator rank.
    ///
    /// Pairwise exchange: at step `s`, send own block to `rank+s`,
    /// receive `rank-s`'s block — `p-1` steps of one block each.
    pub fn allgather<T: WirePayload + Clone>(&self, mine: T) -> Vec<T> {
        let p = self.size();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        for s in 1..p {
            let dst = (self.rank() + s) % p;
            let src = (self.rank() + p - s) % p;
            out[src] = Some(self.exchange_begin(dst, src, TAG_ALLGATHER, &mine).wait());
        }
        out[self.rank()] = Some(mine);
        out.into_iter().map(Option::unwrap).collect()
    }

    /// All-gather of flat `f64` blocks into one contiguous buffer
    /// (blocks may differ in length; lengths must agree across ranks'
    /// call sites in rank order, as in `MPI_Allgatherv`). The same
    /// messages as `allgather(mine.to_vec())`, minus the copies: each
    /// send encodes from `mine`, and the parts stay as delivered until
    /// all lengths are known, then land in the output once, in rank
    /// order — this is the replicate primitive of every dense family.
    pub fn allgatherv_f64(&self, mine: &[f64]) -> Vec<f64> {
        let parts = self.allgather_f64_blocks(mine);
        let total = mine.len() + parts.iter().flatten().map(F64Block::len).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        for part in parts {
            match part {
                Some(block) => block.append_to(&mut out),
                None => out.extend_from_slice(mine),
            }
        }
        out
    }

    /// The exchange half of a flat all-gather: every peer's block, as
    /// delivered, indexed by rank (`None` at this rank's own position).
    fn allgather_f64_blocks(&self, mine: &[f64]) -> Vec<Option<F64Block<'_>>> {
        let p = self.size();
        let mut parts: Vec<Option<F64Block<'_>>> = (0..p).map(|_| None).collect();
        for s in 1..p {
            let dst = (self.rank() + s) % p;
            let src = (self.rank() + p - s) % p;
            parts[src] = Some(self.sendrecv_f64s(dst, src, TAG_ALLGATHER, mine));
        }
        parts
    }

    /// Reduce-scatter with summation over near-equal contiguous blocks of
    /// `buf`: afterwards the returned vector holds this rank's fully
    /// reduced block (`block_ranges(buf.len(), p)[rank]`).
    ///
    /// Pairwise exchange: at step `s`, rank `r` sends block `(r+s)%p`
    /// (its local contribution) directly to its owner and accumulates the
    /// incoming contribution for its own block — `p-1` steps.
    pub fn reduce_scatter_sum(&self, buf: &[f64]) -> Vec<f64> {
        let ranges = block_ranges(buf.len(), self.size());
        self.reduce_scatter_sum_ranges(buf, &ranges)
    }

    /// Reduce-scatter with caller-supplied contiguous block boundaries
    /// (`ranges[r]` is the block owned by rank `r` afterwards). Used when
    /// blocks must align with matrix rows rather than raw words.
    pub fn reduce_scatter_sum_ranges(
        &self,
        buf: &[f64],
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<f64> {
        let p = self.size();
        assert_eq!(ranges.len(), p, "need one block range per rank");
        debug_assert_eq!(
            ranges.iter().map(|r| r.len()).sum::<usize>(),
            buf.len(),
            "ranges must tile the buffer"
        );
        let mut mine = buf[ranges[self.rank()].clone()].to_vec();
        for s in 1..p {
            let dst = (self.rank() + s) % p;
            let src = (self.rank() + p - s) % p;
            let outgoing = &buf[ranges[dst].clone()];
            self.sendrecv_f64s(dst, src, TAG_REDUCE_SCATTER, outgoing)
                .merge_into(&mut mine, |m, x| *m += x);
        }
        mine
    }

    /// All-reduce (summation) over a flat buffer: reduce-scatter followed
    /// by all-gather, `2·((p-1)/p)·n` words per rank.
    pub fn allreduce_sum(&self, buf: &mut [f64]) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let reduced = self.reduce_scatter_sum(buf);
        let parts = self.allgather_f64_blocks(&reduced);
        for (part, range) in parts.into_iter().zip(block_ranges(buf.len(), p)) {
            match part {
                Some(block) => block.merge_into(&mut buf[range], |b, x| *b = x),
                None => buf[range].copy_from_slice(&reduced),
            }
        }
    }

    /// All-reduce of a single scalar (e.g. a distributed dot product).
    pub fn allreduce_scalar(&self, x: f64) -> f64 {
        let mut buf = [x];
        self.allreduce_sum(&mut buf);
        buf[0]
    }

    /// Binomial-tree broadcast from `root`. Non-root ranks pass `None`.
    pub fn broadcast<T: WirePayload + Clone>(&self, root: usize, value: Option<T>) -> T {
        let p = self.size();
        // Work in a rotated rank space where the root is rank 0.
        let vrank = (self.rank() + p - root) % p;
        let mut val: Option<T> = if vrank == 0 {
            Some(value.expect("broadcast root must supply a value"))
        } else {
            None
        };
        // Receive once from the appropriate ancestor, then fan out.
        let mut mask = 1usize;
        while mask < p {
            mask <<= 1;
        }
        // Find the highest bit of vrank: its ancestor is vrank without it.
        if vrank != 0 {
            let high = usize::BITS - 1 - vrank.leading_zeros();
            let parent = vrank & !(1 << high);
            let src = (parent + root) % p;
            val = Some(self.recv::<T>(src, TAG_BROADCAST));
        }
        // Fan out to children: vrank + m for each bit m above vrank's
        // highest set bit (all bits for the root).
        let start_bit = if vrank == 0 {
            0
        } else {
            (usize::BITS - vrank.leading_zeros()) as usize
        };
        let v = val.expect("broadcast value must be set by now");
        let mut m = 1usize << start_bit;
        while vrank + m < p {
            let child = (vrank + m + root) % p;
            self.send_from(child, TAG_BROADCAST, &v);
            m <<= 1;
        }
        v
    }

    /// Dissemination barrier: `⌈log₂ p⌉` rounds of zero-payload
    /// exchanges.
    pub fn barrier(&self) {
        let p = self.size();
        let mut k = 1usize;
        while k < p {
            let dst = (self.rank() + k) % p;
            let src = (self.rank() + p - k) % p;
            let _: () = self.sendrecv(dst, src, TAG_BARRIER, ());
            k <<= 1;
        }
    }

    /// Personalized all-to-all of arbitrary payloads: `outgoing[r]` is
    /// delivered to rank `r`; returns the payload received from each
    /// rank. Implemented as `p-1` pairwise exchanges — one message per
    /// peer, so composite payloads (e.g. COO-style triplet tuples)
    /// should travel as one `alltoallv` of tuples rather than several
    /// component-wise calls, which would multiply the per-message α
    /// cost.
    pub fn alltoallv<T: WirePayload + Default>(&self, mut outgoing: Vec<T>) -> Vec<T> {
        let p = self.size();
        assert_eq!(
            outgoing.len(),
            p,
            "alltoallv needs one outgoing payload per rank"
        );
        let mut incoming: Vec<T> = (0..p).map(|_| T::default()).collect();
        incoming[self.rank()] = std::mem::take(&mut outgoing[self.rank()]);
        for s in 1..p {
            let dst = (self.rank() + s) % p;
            let src = (self.rank() + p - s) % p;
            let out = std::mem::take(&mut outgoing[dst]);
            incoming[src] = self.sendrecv(dst, src, TAG_ALLTOALLV, out);
        }
        incoming
    }

    /// Sparse all-gather (the SparCML primitive): every rank contributes
    /// a dense `nrows × ncols` block but ships each peer only the rows
    /// that peer needs. `ship[dst]` lists the rows of *this* rank's
    /// block that rank `dst` reads — both sides learn the sets from a
    /// [`CommPattern::exchange`](crate::pattern::CommPattern::exchange),
    /// so no handshake is needed. Returns one [`RowBundle`] per source
    /// rank (the own entry is the full local block, delivered for
    /// free). The pairwise schedule and message count match the dense
    /// [`Comm::allgather`] exactly; only the words shrink, and each
    /// bundle degrades to dense on its own when indexing stops paying.
    pub fn sparse_allgather(
        &self,
        nrows: usize,
        ncols: usize,
        data: &[f64],
        ship: &[RowSet],
    ) -> Vec<RowBundle> {
        let p = self.size();
        assert_eq!(ship.len(), p, "need one RowSet per peer");
        assert_eq!(data.len(), nrows * ncols, "block shape mismatch");
        let mut out: Vec<Option<RowBundle>> = (0..p).map(|_| None).collect();
        for s in 1..p {
            let dst = (self.rank() + s) % p;
            let src = (self.rank() + p - s) % p;
            let bundle = RowBundle::gather(nrows, ncols, data, &ship[dst]);
            out[src] = Some(self.sendrecv(dst, src, TAG_SPARSE_ALLGATHER, bundle));
        }
        out[self.rank()] = Some(RowBundle::dense(nrows, ncols, data.to_vec()));
        out.into_iter().map(Option::unwrap).collect()
    }

    /// Sparse personalized all-to-all: like [`Comm::alltoallv`], but
    /// peer pairs that deterministically have nothing to exchange in
    /// either direction are skipped entirely — no message, no α cost.
    ///
    /// `outgoing[r]` is `Some` exactly when this rank has a payload for
    /// `r`, and `expect[r]` must be `true` exactly when rank `r`'s
    /// `outgoing` entry for this rank is `Some`. Both sides must derive
    /// these from shared deterministic knowledge (a pattern exchange,
    /// layout bounds): there is no handshake, which is what makes the
    /// skip safe under every backend including real sockets. A rank
    /// with genuinely empty data for a peer the predicate names must
    /// still pass `Some(empty)` — the payload is nearly free and keeps
    /// the two sides agreed.
    pub fn sparse_alltoallv<T: WirePayload>(
        &self,
        mut outgoing: Vec<Option<T>>,
        expect: &[bool],
    ) -> Vec<Option<T>> {
        let p = self.size();
        assert_eq!(outgoing.len(), p, "need one outgoing slot per rank");
        assert_eq!(expect.len(), p, "need one expectation per rank");
        let mut incoming: Vec<Option<T>> = (0..p).map(|_| None).collect();
        incoming[self.rank()] = outgoing[self.rank()].take();
        for s in 1..p {
            let dst = (self.rank() + s) % p;
            let src = (self.rank() + p - s) % p;
            match (outgoing[dst].take(), expect[src]) {
                (Some(v), true) => {
                    incoming[src] = Some(self.sendrecv(dst, src, TAG_SPARSE_ALLTOALLV, v));
                }
                (Some(v), false) => self.send(dst, TAG_SPARSE_ALLTOALLV, v),
                (None, true) => incoming[src] = Some(self.recv(src, TAG_SPARSE_ALLTOALLV)),
                (None, false) => {}
            }
        }
        incoming
    }

    /// Gather all contributions at `root` (others receive an empty vec).
    pub fn gather<T: WirePayload>(&self, root: usize, mine: T) -> Vec<T> {
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(mine);
            for r in 0..self.size() {
                if r != root {
                    out[r] = Some(self.recv::<T>(r, TAG_GATHER));
                }
            }
            out.into_iter().map(Option::unwrap).collect()
        } else {
            self.send(root, TAG_GATHER, mine);
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for len in [0usize, 1, 5, 16, 17] {
            for parts in [1usize, 2, 3, 5, 8] {
                let rs = block_ranges(len, parts);
                assert_eq!(rs.len(), parts);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, len);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "near-equal blocks required");
            }
        }
    }
}
