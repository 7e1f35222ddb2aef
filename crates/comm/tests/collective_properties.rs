//! Randomized tests of the collectives: correctness over random world
//! sizes, payload lengths, and roots, plus accounting invariants. Cases
//! are drawn from a seeded PRNG so failures reproduce exactly, and every
//! case runs over **both** communication backends (typed in-process and
//! serialized wire) through the shared [`common::worlds`] helper.

mod common;

use common::worlds;
use dsk_comm::Phase;
use dsk_rng::Rng;

const CASES: usize = 24;

/// Broadcast delivers the root's value to everyone, for any root.
#[test]
fn broadcast_any_root() {
    let mut rng = Rng::seed_from_u64(0xC001);
    for _ in 0..CASES {
        let p = 1 + rng.gen_index(9);
        let root = rng.gen_index(p);
        let len = rng.gen_index(40);
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let v = (comm.rank() == root).then(|| vec![root as f64; len]);
                comm.broadcast(root, v)
            });
            for o in &out {
                assert_eq!(&o.value, &vec![root as f64; len]);
            }
        }
    }
}

/// All-gather returns contributions in rank order for ragged payloads.
#[test]
fn allgather_ragged() {
    let mut rng = Rng::seed_from_u64(0xC002);
    for _ in 0..CASES {
        let p = 1 + rng.gen_index(8);
        let seed = rng.next_u64() % 100;
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let len = ((seed as usize + comm.rank() * 7) % 5) + 1;
                let mine = vec![comm.rank() as f64; len];
                comm.allgather(mine)
            });
            for o in &out {
                assert_eq!(o.value.len(), p);
                for (rk, part) in o.value.iter().enumerate() {
                    let len = ((seed as usize + rk * 7) % 5) + 1;
                    assert_eq!(part, &vec![rk as f64; len]);
                }
            }
        }
    }
}

/// The by-reference paths are the owning paths minus the copies: the
/// flat all-gather equals all-gather-then-concatenate, and a lent shift
/// equals the owning ones (blocking and non-blocking) — same values,
/// and the same messages, words, wire bytes and modeled time on every
/// rank, on every backend, ragged and empty blocks included.
#[test]
fn borrowed_paths_match_their_owning_twins() {
    let mut rng = Rng::seed_from_u64(0xC00B);
    for _ in 0..CASES {
        let p = 1 + rng.gen_index(6);
        let seed = rng.gen_index(100);
        let len_of = move |rk: usize| (seed + rk * 7) % 5; // some ranks contribute nothing
                                                           // Everything the model and the gate read (wall time excluded).
        let counted = |s: dsk_comm::RankStats| {
            let t = s.total();
            let sent = (t.msgs_sent, t.words_sent, t.wire_bytes_sent);
            (sent, t.msgs_recv, t.words_recv, t.modeled_s.to_bits())
        };
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let mine: Vec<f64> = (0..len_of(comm.rank()))
                    .map(|i| (comm.rank() * 10 + i) as f64)
                    .collect();
                let _g = comm.phase(Phase::Replication);
                let owned = comm.allgather(mine.clone()).concat();
                let owned_stats = comm.stats_snapshot();
                comm.reset_stats();
                let lent = comm.allgatherv_f64(&mine);
                let lent_stats = comm.stats_snapshot();
                assert_eq!(lent, owned);
                assert_eq!(counted(lent_stats), counted(owned_stats), "allgatherv_f64");

                comm.reset_stats();
                let a = comm.shift(1, 5, mine.clone());
                let b = comm.shift_begin(1, 6, mine.clone()).wait();
                let owned_stats = comm.stats_snapshot();
                comm.reset_stats();
                let c = comm.shift_begin_ref(1, 5, &mine).wait();
                let d = comm.shift_begin_ref(1, 6, &mine).wait();
                let lent_stats = comm.stats_snapshot();
                assert_eq!((&a, &b), (&c, &d));
                assert_eq!(counted(lent_stats), counted(owned_stats), "shift_begin_ref");
                lent
            });
            let expect: Vec<f64> = (0..p)
                .flat_map(|rk| (0..len_of(rk)).map(move |i| (rk * 10 + i) as f64))
                .collect();
            for o in &out {
                assert_eq!(o.value, expect);
            }
        }
    }
}

/// Reduce-scatter equals the serial sum restricted to each rank's
/// block, for any buffer length (including lengths smaller than p).
#[test]
fn reduce_scatter_any_length() {
    let mut rng = Rng::seed_from_u64(0xC003);
    for _ in 0..CASES {
        let p = 1 + rng.gen_index(8);
        let len = rng.gen_index(30);
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let buf: Vec<f64> = (0..len).map(|i| (i + comm.rank()) as f64).collect();
                comm.reduce_scatter_sum(&buf)
            });
            let serial: Vec<f64> = (0..len)
                .map(|i| (0..p).map(|rk| (i + rk) as f64).sum())
                .collect();
            let mut reassembled = Vec::new();
            for o in &out {
                reassembled.extend_from_slice(&o.value);
            }
            assert_eq!(reassembled, serial);
        }
    }
}

/// All-to-all routes every personalized payload to its addressee.
#[test]
fn alltoallv_routes() {
    let mut rng = Rng::seed_from_u64(0xC004);
    for _ in 0..CASES {
        let p = 1 + rng.gen_index(7);
        let base = rng.gen_index(5);
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let me = comm.rank();
                let outgoing: Vec<Vec<f64>> = (0..p)
                    .map(|dst| vec![(me * 100 + dst) as f64; base + (dst % 3)])
                    .collect();
                comm.alltoallv(outgoing)
            });
            for o in &out {
                for (src, payload) in o.value.iter().enumerate() {
                    assert_eq!(
                        payload,
                        &vec![(src * 100 + o.rank) as f64; base + (o.rank % 3)]
                    );
                }
            }
        }
    }
}

/// Sends always balance receives globally, whatever the traffic
/// pattern — and word accounting is identical across backends (the
/// wire path may add encoded bytes, never words).
#[test]
fn accounting_balances_and_is_backend_invariant() {
    let mut rng = Rng::seed_from_u64(0xC005);
    for _ in 0..CASES {
        let p = 2 + rng.gen_index(6);
        let rounds = 1 + rng.gen_index(3);
        let mut words_by_backend = Vec::new();
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let _g = comm.phase(Phase::Propagation);
                for t in 0..rounds {
                    let _ = comm.shift(1 + t % (p - 1).max(1), t as u32, vec![1.0f64; 3 + t]);
                }
                comm.barrier();
            });
            let sent: u64 = out.iter().map(|o| o.stats.total().words_sent).sum();
            let recvd: u64 = out.iter().map(|o| o.stats.total().words_recv).sum();
            assert_eq!(sent, recvd);
            words_by_backend.push(sent);
        }
        assert!(
            words_by_backend.windows(2).all(|w| w[0] == w[1]),
            "word accounting must not depend on the backend: {words_by_backend:?}"
        );
    }
}

/// Nested splits produce consistent sub-groups: splitting a split
/// yields the expected memberships and working collectives.
#[test]
fn nested_splits_work() {
    for p in 4usize..9 {
        for w in worlds(p) {
            let out = w.run(move |comm| {
                let half = comm.split_by(|r| (r % 2) as u64);
                let quarter = half.split_by(|r| (r % 2) as u64);
                let vals = quarter.allgather(vec![comm.rank() as f64]);
                vals.iter().map(|v| v[0] as usize).collect::<Vec<_>>()
            });
            for o in &out {
                // Members of my quarter group: same rank mod 2, and same
                // position-parity within the half group.
                for &m in &o.value {
                    assert_eq!(m % 2, o.rank % 2);
                }
                assert!(o.value.contains(&o.rank));
            }
        }
    }
}
