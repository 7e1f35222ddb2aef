//! A small bounded cache of large message buffers, one per serializing
//! backend.
//!
//! A 4 MiB dense tile crossing a serializing backend needs two byte
//! buffers — the sender's encode target and the receiver's payload —
//! and both die within microseconds of being filled: the first once the
//! bytes are written (or handed to the peer's mailbox), the second once
//! the value is decoded. Allocating them per message means an `mmap`,
//! a page fault per 4 KiB on first touch and an `munmap`, every time.
//! The pool keeps the buffers instead: [`BufferPool::take`] is asked by
//! the encoder (`Comm`'s post path) and by the socket reader threads,
//! [`BufferPool::give`] by whoever emptied a buffer last — the socket
//! writer thread after the write, `Comm` after the decode.
//!
//! Buffers carry no state between uses: `give` clears, `take` hands out
//! an empty vector whose *capacity* is what is being recycled. Messages
//! under [`POOL_MIN_BYTES`] never touch the pool — the general allocator
//! is already fast for them, and a mutex round trip per 8-byte
//! ping would cost more than it saves.

use std::sync::Mutex;

/// Smallest capacity worth keeping (and smallest request served from
/// the pool).
pub const POOL_MIN_BYTES: usize = 64 << 10;

/// Most buffers the pool retains.
pub const POOL_MAX_BUFFERS: usize = 8;

/// Most capacity, summed over retained buffers, the pool holds on to.
pub const POOL_MAX_BYTES: usize = 64 << 20;

/// See the module docs.
#[derive(Default)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<u8>>> {
        // Every update leaves the list valid, so a panicking holder
        // (a rank failing mid-epoch) must not take the transport's
        // teardown down with it.
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty buffer with room for `capacity` bytes: the smallest
    /// retained buffer that fits, else a fresh allocation.
    pub fn take(&self, capacity: usize) -> Vec<u8> {
        if capacity >= POOL_MIN_BYTES {
            let mut free = self.lock();
            let fit = (0..free.len())
                .filter(|&i| free[i].capacity() >= capacity)
                .min_by_key(|&i| free[i].capacity());
            if let Some(i) = fit {
                return free.swap_remove(i);
            }
        }
        Vec::with_capacity(capacity)
    }

    /// Return a spent buffer. Kept (cleared) when it is large enough to
    /// matter and the pool is within both of its bounds; dropped
    /// otherwise.
    pub fn give(&self, mut buf: Vec<u8>) {
        if buf.capacity() < POOL_MIN_BYTES {
            return;
        }
        buf.clear();
        let mut free = self.lock();
        let held: usize = free.iter().map(Vec::capacity).sum();
        if free.len() < POOL_MAX_BUFFERS && held + buf.capacity() <= POOL_MAX_BYTES {
            free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity_not_contents() {
        let pool = BufferPool::new();
        let mut b = pool.take(POOL_MIN_BYTES);
        b.extend_from_slice(&[7; 100]);
        let addr = b.as_ptr();
        pool.give(b);
        let again = pool.take(POOL_MIN_BYTES);
        assert!(again.is_empty(), "a recycled buffer starts empty");
        assert_eq!(again.as_ptr(), addr, "the allocation itself came back");
    }

    #[test]
    fn small_requests_and_small_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        pool.give(Vec::with_capacity(POOL_MIN_BYTES - 1));
        assert!(pool.lock().is_empty());
        pool.give(Vec::with_capacity(4 << 20));
        // A ping must not walk off with the 4 MiB buffer.
        assert!(pool.take(8).capacity() < POOL_MIN_BYTES);
        assert_eq!(pool.lock().len(), 1);
    }

    #[test]
    fn take_prefers_the_tightest_fit_and_falls_back_to_fresh() {
        let pool = BufferPool::new();
        pool.give(Vec::with_capacity(8 << 20));
        pool.give(Vec::with_capacity(1 << 20));
        assert!(pool.take(1 << 20).capacity() < 8 << 20);
        assert!(pool.take(1 << 20).capacity() >= 8 << 20);
        // Nothing retained is left: a fresh allocation.
        assert!(pool.lock().is_empty());
        assert!(pool.take(2 << 20).capacity() >= 2 << 20);
    }

    #[test]
    fn retention_is_bounded_in_count_and_bytes() {
        let pool = BufferPool::new();
        for _ in 0..2 * POOL_MAX_BUFFERS {
            pool.give(Vec::with_capacity(POOL_MIN_BYTES));
        }
        assert_eq!(pool.lock().len(), POOL_MAX_BUFFERS);

        let pool = BufferPool::new();
        pool.give(Vec::with_capacity(POOL_MAX_BYTES));
        pool.give(Vec::with_capacity(POOL_MIN_BYTES));
        assert_eq!(pool.lock().len(), 1, "the byte bound refuses the second");
    }
}
