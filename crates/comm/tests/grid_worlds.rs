//! Integration tests of the cartesian grid communicators inside real
//! worlds: membership, ring behavior, and fiber collectives. Every test
//! runs over **both** communication backends through the shared
//! [`common::worlds`] helper — the grids never name a transport, so
//! behavior must be identical.

mod common;

use common::worlds;
use dsk_comm::{Grid15, Grid25, GridComms15, GridComms25};

#[test]
fn grid15_layer_and_fiber_membership() {
    let (p, c) = (12usize, 3usize);
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let grid = Grid15::new(comm.size(), c).unwrap();
            let gc = GridComms15::build(comm, grid);
            // Fiber members share my layer position u; layer members share
            // my fiber coordinate v.
            let fiber_members = gc.fiber.allgather(vec![comm.rank() as f64]);
            let layer_members = gc.layer.allgather(vec![comm.rank() as f64]);
            let fiber_ok = fiber_members
                .iter()
                .all(|v| grid.layer_pos(v[0] as usize) == gc.u);
            let layer_ok = layer_members
                .iter()
                .all(|v| grid.fiber_pos(v[0] as usize) == gc.v);
            // Communicator ranks must equal grid coordinates.
            let coords_ok = gc.fiber.rank() == gc.v && gc.layer.rank() == gc.u;
            fiber_ok && layer_ok && coords_ok
        });
        assert!(out.iter().all(|o| o.value));
    }
}

#[test]
fn grid15_ring_shift_follows_layer_order() {
    let (p, c) = (8usize, 2usize);
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let grid = Grid15::new(comm.size(), c).unwrap();
            let gc = GridComms15::build(comm, grid);
            // Shifting by +1 within the layer must deliver the value of the
            // previous layer position (same fiber coordinate).
            let got = gc.layer.shift(1, 7, vec![comm.rank() as f64]);
            let q = grid.layer_size();
            let prev_u = (gc.u + q - 1) % q;
            got[0] as usize == grid.rank_of(prev_u, gc.v)
        });
        assert!(out.iter().all(|o| o.value));
    }
}

#[test]
fn grid25_axes_are_orthogonal() {
    let (p, c) = (18usize, 2usize); // 3×3×2
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let grid = Grid25::new(comm.size(), c).unwrap();
            let gc = GridComms25::build(comm, grid);
            let row = gc.row_ring.allgather(vec![comm.rank() as f64]);
            let col = gc.col_ring.allgather(vec![comm.rank() as f64]);
            let fib = gc.fiber.allgather(vec![comm.rank() as f64]);
            let row_ok = row.iter().all(|v| {
                let g = v[0] as usize;
                grid.row_pos(g) == gc.u && grid.fiber_pos(g) == gc.w
            });
            let col_ok = col.iter().all(|v| {
                let g = v[0] as usize;
                grid.col_pos(g) == gc.v && grid.fiber_pos(g) == gc.w
            });
            let fib_ok = fib.iter().all(|v| {
                let g = v[0] as usize;
                grid.row_pos(g) == gc.u && grid.col_pos(g) == gc.v
            });
            row_ok
                && col_ok
                && fib_ok
                && gc.row_ring.rank() == gc.v
                && gc.col_ring.rank() == gc.u
                && gc.fiber.rank() == gc.w
        });
        assert!(out.iter().all(|o| o.value));
    }
}

#[test]
fn grid25_cannon_skew_alignment() {
    // The σ = (u + v + t) mod q schedule: after one backward shift along
    // the row ring, the block that arrives carries σ + 1 — the property
    // the 2.5D algorithms' co-traversal relies on.
    let (p, c) = (8usize, 2usize); // 2×2×2
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let grid = Grid25::new(comm.size(), c).unwrap();
            let gc = GridComms25::build(comm, grid);
            let q = grid.q;
            let sigma0 = (gc.u + gc.v) % q;
            // Send my σ₀ backward along the row ring (to v-1, from v+1).
            let got = gc.row_ring.shift(q - 1, 3, vec![sigma0 as f64]);
            let arrived = got[0] as usize;
            arrived == (gc.u + gc.v + 1) % q
        });
        assert!(out.iter().all(|o| o.value));
    }
}

#[test]
fn fiber_collectives_are_isolated_between_groups() {
    // Sums within one fiber must not leak into another.
    let (p, c) = (12usize, 2usize);
    for w in worlds(p) {
        let out = w.run(move |comm| {
            let grid = Grid15::new(comm.size(), c).unwrap();
            let gc = GridComms15::build(comm, grid);
            let mut buf = vec![comm.rank() as f64];
            gc.fiber.allreduce_sum(&mut buf);
            // Expected: sum of global ranks in my fiber group (same u).
            let expect: f64 = (0..c).map(|v| grid.rank_of(gc.u, v) as f64).sum();
            buf[0] == expect
        });
        assert!(out.iter().all(|o| o.value));
    }
}
