//! The message path's copy budget, held by an allocator that counts.
//!
//! A serialized message is allowed one user-space pass per side: the
//! sender encodes straight into a recycled buffer that the socket
//! writer gathers onto the wire, the receiver reads into a recycled
//! buffer and decodes the value out of it. In steady state the only
//! large allocation left on either side is therefore the decoded value
//! itself — any other one is a copy that crept back (a clone before the
//! encode, a header+payload re-copy, a fresh payload buffer per frame).
//!
//! Every rank of the socket world is its own process running this same
//! test binary, so each rank counts its own allocations and reports the
//! count as its outcome. One `#[test]` only: the counter is
//! process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dsk_comm::{BackendKind, MachineModel, SimWorld};

/// 1 MiB of `f64`s; the encoded message is 8 bytes longer.
const VALUES: usize = (1 << 20) / 8;
const BIG: usize = 1 << 20;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting requests of at least [`BIG`] bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged — the caller's obligations
// with it — to `System`, which upholds the `GlobalAlloc` contract; the
// counter is a relaxed atomic that touches no allocator state. (The
// trait cannot be implemented without the keyword: this is the one
// place in the workspace it appears, and it guards nothing of ours.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn one_large_allocation_per_side_per_round_trip() {
    const WARMUP: usize = 16;
    const MEASURED: usize = 4;
    let out = SimWorld::new(2, MachineModel::bandwidth_only())
        .backend(BackendKind::Socket)
        .run(|comm| {
            assert_eq!(comm.backend_name(), "socket");
            let me = comm.rank();
            // Rank 0 owns the vector between trips; rank 1 bounces it.
            let mut v: Vec<f64> = match me {
                0 => (0..VALUES).map(|i| i as f64).collect(),
                _ => Vec::new(),
            };
            let mut round_trip = || {
                if me == 0 {
                    comm.send(1, 1, std::mem::take(&mut v));
                    v = comm.recv(1, 2);
                    assert_eq!(v.len(), VALUES);
                    assert_eq!(v[VALUES - 1], (VALUES - 1) as f64);
                } else {
                    let got: Vec<f64> = comm.recv(0, 1);
                    comm.send(0, 2, got);
                }
            };
            // Fill the pool: the first trips allocate the buffers that
            // every later trip recycles.
            for _ in 0..WARMUP {
                round_trip();
            }
            let mut worst = 0;
            for _ in 0..MEASURED {
                let before = BIG_ALLOCS.load(Ordering::Relaxed);
                round_trip();
                worst = worst.max(BIG_ALLOCS.load(Ordering::Relaxed) - before);
            }
            worst as u64
        });
    for o in &out {
        assert!(
            o.value <= 1,
            "rank {}: a 1 MiB round trip made {} allocations of ≥ 1 MiB; \
             the budget is one (the decoded value)",
            o.rank,
            o.value
        );
    }
}
