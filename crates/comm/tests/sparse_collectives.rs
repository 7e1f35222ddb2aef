//! Conformance suite for the sparse collectives (`sparse_allgather`,
//! `sparse_alltoallv`) and the [`CommPattern`] exchange behind them.
//! Cases are drawn from a seeded PRNG so failures reproduce exactly,
//! and every case runs over every conformance backend through the
//! shared [`common::worlds`] helper — the typed in-process path, the
//! serialized wire path, and whatever `DSK_COMM_BACKEND` selects
//! (`wire-delay` / `socket` CI legs) must be behaviorally identical.

mod common;

use common::worlds;
use dsk_comm::{CommPattern, Phase, RowSet};
use dsk_rng::Rng;

const CASES: usize = 12;

/// The deterministic value at (row, col) of a rank's block — every
/// side of every exchange can recompute what any other rank holds.
fn cell(rank: usize, row: usize, col: usize) -> f64 {
    (rank * 10_000 + row * 100 + col) as f64
}

/// The rows of `origin`'s block that `member` reads, derived from
/// shared knowledge only (both sides must agree without a handshake).
fn needed_rows(member: usize, origin: usize, nrows: usize, stride: usize) -> Vec<u32> {
    (0..nrows as u32)
        .filter(|row| (*row as usize + member + origin).is_multiple_of(stride))
        .collect()
}

/// Sparse all-gather delivers exactly the rows each receiver declared
/// through the pattern exchange: needed rows carry the sender's
/// values, unneeded rows zero-fill (or arrive anyway when the bundle's
/// dense fallback fired — never with wrong values). The own entry is
/// the full local block.
#[test]
fn sparse_allgather_round_trips_needed_rows() {
    let mut rng = Rng::seed_from_u64(0x5A01);
    for _ in 0..CASES {
        let p = 2 + rng.gen_index(6);
        let nrows = 1 + rng.gen_index(12);
        let ncols = 1 + rng.gen_index(5);
        let stride = 2 + rng.gen_index(3);
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let me = comm.rank();
                let data: Vec<f64> = (0..nrows * ncols)
                    .map(|i| cell(me, i / ncols, i % ncols))
                    .collect();
                let my_needs: Vec<RowSet> = (0..p)
                    .map(|origin| RowSet::from_indices(needed_rows(me, origin, nrows, stride)))
                    .collect();
                let pattern = CommPattern::exchange(comm, my_needs);
                // ship[dst] = the rows dst declared it needs from me.
                let ship: Vec<RowSet> = (0..p).map(|dst| pattern.need(dst, me).clone()).collect();
                let bundles = comm.sparse_allgather(nrows, ncols, &data, &ship);
                // Every rank can recompute what every sender holds, so
                // verification happens in place.
                let mut checked = 0u64;
                for (src, bundle) in bundles.into_iter().enumerate() {
                    let (rn, cn, full) = bundle.into_full();
                    assert_eq!((rn, cn), (nrows, ncols));
                    let needed = needed_rows(me, src, nrows, stride);
                    for row in 0..nrows {
                        for col in 0..ncols {
                            let got = full[row * ncols + col];
                            if src == me || needed.contains(&(row as u32)) {
                                assert_eq!(
                                    got,
                                    cell(src, row, col),
                                    "rank {me} src {src} row {row} col {col}"
                                );
                                checked += 1;
                            } else {
                                // Dense fallback may deliver the true
                                // value; indexed delivery zero-fills.
                                assert!(
                                    got == 0.0 || got == cell(src, row, col),
                                    "rank {me} src {src} row {row}: unneeded row carries \
                                     garbage {got}"
                                );
                            }
                        }
                    }
                }
                checked
            });
            // The own block always verifies, so the check count is
            // bounded below even when the pattern is sparse.
            for o in &out {
                assert!(o.value >= (nrows * ncols) as u64);
            }
        }
    }
}

/// Edge cases: an all-empty pattern ships zero rows (and zero words in
/// the gather itself), while full-density needs trigger the per-bundle
/// dense fallback and degrade to exactly the dense all-gather.
#[test]
fn sparse_allgather_empty_and_full_patterns() {
    let (p, nrows, ncols) = (4usize, 6usize, 3usize);
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let me = comm.rank();
            let data: Vec<f64> = (0..nrows * ncols)
                .map(|i| cell(me, i / ncols, i % ncols))
                .collect();

            // Nobody needs anything: every foreign bundle is empty.
            let empty: Vec<RowSet> = (0..p).map(|_| RowSet::empty()).collect();
            let none = comm.sparse_allgather(nrows, ncols, &data, &empty);
            for (src, b) in none.iter().enumerate() {
                if src == me {
                    assert!(b.is_dense());
                } else {
                    assert_eq!(b.rows_carried(), 0, "empty pattern must ship no rows");
                    assert!(!b.is_dense());
                }
            }

            // Everybody needs everything: indexing cannot pay, so each
            // bundle falls back to dense and matches Comm::allgather.
            let full: Vec<RowSet> = (0..p).map(|_| RowSet::all(nrows)).collect();
            let routed = comm.sparse_allgather(nrows, ncols, &data, &full);
            let dense = comm.allgather(data.clone());
            for (src, b) in routed.iter().enumerate() {
                assert!(b.is_dense(), "full-density bundle must degrade to dense");
                let (_, _, got) = b.clone().into_full();
                assert_eq!(got, dense[src], "src {src}");
            }
            true
        });
        assert!(out.iter().all(|o| o.value));
    }
}

/// `sparse_alltoallv` delivers exactly the payloads the shared
/// predicate names — including `Some(empty)` payloads, which must
/// arrive as `Some(empty)`, not be skipped — and never delivers where
/// the predicate is false.
#[test]
fn sparse_alltoallv_matches_predicate() {
    let mut rng = Rng::seed_from_u64(0x5A02);
    for _ in 0..CASES {
        let p = 2 + rng.gen_index(6);
        let modulus = 2 + rng.gen_index(3);
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let me = comm.rank();
                // Pair predicate from shared knowledge: src ships to dst
                // iff (src + 2·dst) % modulus == 0. Empty payload when
                // additionally (src + dst) is even.
                let ships = |src: usize, dst: usize| (src + 2 * dst).is_multiple_of(modulus);
                let outgoing: Vec<Option<Vec<f64>>> = (0..p)
                    .map(|dst| {
                        ships(me, dst).then(|| {
                            if (me + dst) % 2 == 0 {
                                Vec::new()
                            } else {
                                vec![cell(me, dst, 0); 1 + (me + dst) % 4]
                            }
                        })
                    })
                    .collect();
                let expect: Vec<bool> = (0..p).map(|src| ships(src, me)).collect();
                let incoming = comm.sparse_alltoallv(outgoing, &expect);
                for (src, got) in incoming.iter().enumerate() {
                    match got {
                        Some(v) if ships(src, me) => {
                            if (src + me) % 2 == 0 {
                                assert!(v.is_empty(), "src {src} → {me}: expected Some(empty)");
                            } else {
                                assert_eq!(v, &vec![cell(src, me, 0); 1 + (src + me) % 4]);
                            }
                        }
                        None if !ships(src, me) => {}
                        other => {
                            panic!(
                                "src {src} → {me}: predicate {}, delivered {other:?}",
                                ships(src, me)
                            )
                        }
                    }
                }
                true
            });
            assert!(out.iter().all(|o| o.value));
        }
    }
}

/// The pattern exchange attributes its traffic to
/// [`Phase::PatternExchange`], and — like every collective — its word
/// and message accounting is identical on every backend: the counters
/// measure the algorithm, not the transport.
#[test]
fn pattern_exchange_accounting_is_backend_invariant() {
    let (p, nrows) = (6usize, 16usize);
    let mut per_backend: Vec<Vec<(u64, u64, u64)>> = Vec::new();
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let me = comm.rank();
            let my_needs: Vec<RowSet> = (0..p)
                .map(|origin| RowSet::from_indices(needed_rows(me, origin, nrows, 3)))
                .collect();
            let pattern = CommPattern::exchange(comm, my_needs);
            for (m, o) in (0..p).flat_map(|m| (0..p).map(move |o| (m, o))) {
                assert_eq!(pattern.need(m, o).indices(), needed_rows(m, o, nrows, 3));
            }
        });
        per_backend.push(
            out.iter()
                .map(|o| {
                    let pc = o.stats.phase(Phase::PatternExchange);
                    (pc.words_sent, pc.msgs_sent, pc.words_recv)
                })
                .collect(),
        );
        let sent: u64 = per_backend.last().unwrap().iter().map(|(w, _, _)| *w).sum();
        assert!(sent > 0, "pattern exchange must attribute words");
    }
    for counters in &per_backend[1..] {
        assert_eq!(
            counters, &per_backend[0],
            "PatternExchange accounting diverged across backends"
        );
    }
}

/// Sparse all-gather's message count matches the dense all-gather
/// exactly (same pairwise schedule — only the words shrink), measured
/// identically under every backend.
#[test]
fn sparse_allgather_word_savings_are_backend_invariant() {
    let (p, nrows, ncols, stride) = (5usize, 24usize, 4usize, 3usize);
    let mut per_backend: Vec<Vec<(u64, u64)>> = Vec::new();
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let me = comm.rank();
            let data: Vec<f64> = (0..nrows * ncols)
                .map(|i| cell(me, i / ncols, i % ncols))
                .collect();
            let ship: Vec<RowSet> = (0..p)
                .map(|dst| RowSet::from_indices(needed_rows(dst, me, nrows, stride)))
                .collect();
            comm.reset_stats();
            let sparse = {
                let _g = comm.phase(Phase::OutsideComm);
                comm.sparse_allgather(nrows, ncols, &data, &ship)
            };
            let snap = comm.stats_snapshot();
            let (sparse_words, sparse_msgs) = (
                snap.phase(Phase::OutsideComm).words_sent,
                snap.phase(Phase::OutsideComm).msgs_sent,
            );
            comm.reset_stats();
            let dense = {
                let _g = comm.phase(Phase::OutsideComm);
                comm.allgather(data.clone())
            };
            let snap = comm.stats_snapshot();
            let dense_pc = snap.phase(Phase::OutsideComm);
            // Same schedule: identical messages, strictly fewer words.
            assert_eq!(sparse_msgs, dense_pc.msgs_sent);
            assert!(
                sparse_words < dense_pc.words_sent,
                "routing must save words at stride {stride}: {sparse_words} vs {}",
                dense_pc.words_sent
            );
            // And the routed result agrees with dense on shipped rows.
            for (src, b) in sparse.iter().enumerate() {
                let (_, _, full) = b.clone().into_full();
                for &row in RowSet::from_indices(needed_rows(me, src, nrows, stride)).indices() {
                    let row = row as usize;
                    assert_eq!(
                        full[row * ncols..(row + 1) * ncols],
                        dense[src][row * ncols..(row + 1) * ncols]
                    );
                }
            }
            (sparse_words, sparse_msgs)
        });
        per_backend.push(out.iter().map(|o| o.value).collect());
    }
    for counters in &per_backend[1..] {
        assert_eq!(
            counters, &per_backend[0],
            "sparse_allgather accounting diverged across backends"
        );
    }
}
