//! Cartesian process grids for the 1.5D and 2.5D algorithm families.
//!
//! * 1.5D algorithms run on a `(p/c) × c` grid. The **fiber axis** is the
//!   second dimension (size `c`, the replication factor); a **layer** is
//!   the set of `p/c` ranks sharing one fiber coordinate, around which
//!   blocks are cyclically shifted.
//! * 2.5D algorithms run on a `√(p/c) × √(p/c) × c` grid; the fiber axis
//!   is the third dimension; each layer is a square grid executing a
//!   Cannon-style schedule (shifts along grid rows and columns).
//!
//! Grid communicators are plain [`Comm`] splits, so every fiber
//! collective and ring shift inherits whatever
//! [`CommBackend`](crate::backend::CommBackend) the world was built on —
//! the grids never name a transport.

use crate::comm::Comm;

/// Geometry of the `(p/c) × c` grid used by 1.5D algorithms.
///
/// Rank `g` sits at `(layer_pos, fiber_pos) = (g / c, g % c)`; the fiber
/// groups (`g / c` constant) are contiguous rank ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid15 {
    /// Total rank count.
    pub p: usize,
    /// Replication factor (fiber size).
    pub c: usize,
}

impl Grid15 {
    /// Validate and build a 1.5D grid; `c` must divide `p`.
    pub fn new(p: usize, c: usize) -> Result<Self, String> {
        if p == 0 || c == 0 {
            return Err(format!("grid sizes must be positive, got p={p}, c={c}"));
        }
        if c > p {
            return Err(format!("replication factor c={c} exceeds p={p}"));
        }
        if !p.is_multiple_of(c) {
            return Err(format!("replication factor c={c} must divide p={p}"));
        }
        Ok(Grid15 { p, c })
    }

    /// Ranks per layer (`p / c`).
    #[inline]
    pub fn layer_size(&self) -> usize {
        self.p / self.c
    }

    /// Position within the layer ring of global rank `g`.
    #[inline]
    pub fn layer_pos(&self, g: usize) -> usize {
        g / self.c
    }

    /// Fiber (layer index) of global rank `g`.
    #[inline]
    pub fn fiber_pos(&self, g: usize) -> usize {
        g % self.c
    }

    /// Global rank at `(layer_pos u, fiber_pos v)`.
    #[inline]
    pub fn rank_of(&self, u: usize, v: usize) -> usize {
        debug_assert!(u < self.layer_size() && v < self.c);
        u * self.c + v
    }
}

/// Communicators for a 1.5D grid, built from a world [`Comm`].
pub struct GridComms15 {
    /// The grid geometry.
    pub grid: Grid15,
    /// Ring of `p/c` ranks sharing this rank's fiber coordinate
    /// (cyclic-shift domain). Communicator rank == `layer_pos`.
    pub layer: Comm,
    /// Group of `c` ranks sharing this rank's layer position
    /// (all-gather / reduce-scatter domain). Communicator rank ==
    /// `fiber_pos`.
    pub fiber: Comm,
    /// This rank's position within the layer ring.
    pub u: usize,
    /// This rank's fiber coordinate (which layer it belongs to).
    pub v: usize,
}

impl GridComms15 {
    /// Split `world` into layer and fiber communicators. `world.size()`
    /// must equal `grid.p` and the call must be made by every rank.
    pub fn build(world: &Comm, grid: Grid15) -> Self {
        assert_eq!(world.size(), grid.p, "world size must match grid");
        let c = grid.c;
        let layer = world.split_by(|g| (g % c) as u64);
        let fiber = world.split_by(|g| (g / c) as u64);
        let me = world.rank();
        GridComms15 {
            grid,
            layer,
            fiber,
            u: grid.layer_pos(me),
            v: grid.fiber_pos(me),
        }
    }
}

/// Geometry of the `q × q × c` grid (`q = √(p/c)`) used by 2.5D
/// algorithms.
///
/// Rank `g` sits at `(row u, col v, fiber w)` with
/// `g = (u·q + v)·c + w`; fiber groups are contiguous rank ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid25 {
    /// Total rank count.
    pub p: usize,
    /// Replication factor (fiber size).
    pub c: usize,
    /// Side length of each square layer: `√(p/c)`.
    pub q: usize,
}

impl Grid25 {
    /// Validate and build a 2.5D grid; `p/c` must be a perfect square.
    pub fn new(p: usize, c: usize) -> Result<Self, String> {
        if p == 0 || c == 0 {
            return Err(format!("grid sizes must be positive, got p={p}, c={c}"));
        }
        if !p.is_multiple_of(c) {
            return Err(format!("replication factor c={c} must divide p={p}"));
        }
        let layer = p / c;
        let q = (layer as f64).sqrt().round() as usize;
        if q * q != layer {
            return Err(format!(
                "p/c = {layer} must be a perfect square for a 2.5D grid (p={p}, c={c})"
            ));
        }
        Ok(Grid25 { p, c, q })
    }

    /// Grid-row index of global rank `g`.
    #[inline]
    pub fn row_pos(&self, g: usize) -> usize {
        g / (self.q * self.c)
    }

    /// Grid-column index of global rank `g`.
    #[inline]
    pub fn col_pos(&self, g: usize) -> usize {
        (g / self.c) % self.q
    }

    /// Fiber index of global rank `g`.
    #[inline]
    pub fn fiber_pos(&self, g: usize) -> usize {
        g % self.c
    }

    /// Global rank at `(row u, col v, fiber w)`.
    #[inline]
    pub fn rank_of(&self, u: usize, v: usize, w: usize) -> usize {
        debug_assert!(u < self.q && v < self.q && w < self.c);
        (u * self.q + v) * self.c + w
    }
}

/// Communicators for a 2.5D grid.
pub struct GridComms25 {
    /// The grid geometry.
    pub grid: Grid25,
    /// Ranks sharing (row, fiber): the ring for shifts **along grid
    /// columns v** (i.e. within this rank's grid row). Rank == `v`.
    pub row_ring: Comm,
    /// Ranks sharing (col, fiber): the ring for shifts **along grid rows
    /// u** (i.e. within this rank's grid column). Rank == `u`.
    pub col_ring: Comm,
    /// Ranks sharing (row, col): the replication fiber. Rank == `w`.
    pub fiber: Comm,
    /// Grid-row index of this rank.
    pub u: usize,
    /// Grid-column index of this rank.
    pub v: usize,
    /// Fiber index (layer) of this rank.
    pub w: usize,
}

impl GridComms25 {
    /// Split `world` into row-ring, column-ring, and fiber communicators.
    pub fn build(world: &Comm, grid: Grid25) -> Self {
        assert_eq!(world.size(), grid.p, "world size must match grid");
        let (q, c) = (grid.q, grid.c);
        let row_ring = world.split_by(move |g| {
            let u = g / (q * c);
            let w = g % c;
            (u * c + w) as u64
        });
        let col_ring = world.split_by(move |g| {
            let v = (g / c) % q;
            let w = g % c;
            (v * c + w) as u64
        });
        let fiber = world.split_by(move |g| (g / c) as u64);
        let me = world.rank();
        GridComms25 {
            grid,
            row_ring,
            col_ring,
            fiber,
            u: grid.row_pos(me),
            v: grid.col_pos(me),
            w: grid.fiber_pos(me),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid15_coords_roundtrip() {
        let g = Grid15::new(8, 2).unwrap();
        for r in 0..8 {
            assert_eq!(g.rank_of(g.layer_pos(r), g.fiber_pos(r)), r);
        }
        assert_eq!(g.layer_size(), 4);
    }

    #[test]
    fn grid15_rejects_bad_sizes() {
        assert!(Grid15::new(8, 3).is_err());
        assert!(Grid15::new(8, 16).is_err());
        assert!(Grid15::new(0, 1).is_err());
        assert!(Grid15::new(8, 0).is_err());
        assert!(Grid15::new(8, 8).is_ok());
        assert!(Grid15::new(8, 1).is_ok());
    }

    #[test]
    fn grid25_coords_roundtrip() {
        let g = Grid25::new(18, 2).unwrap();
        assert_eq!(g.q, 3);
        for r in 0..18 {
            assert_eq!(g.rank_of(g.row_pos(r), g.col_pos(r), g.fiber_pos(r)), r);
        }
    }

    #[test]
    fn grid25_requires_square_layers() {
        assert!(Grid25::new(8, 1).is_err()); // 8 not square
        assert!(Grid25::new(8, 2).is_ok()); // 4 = 2²
        assert!(Grid25::new(32, 2).is_ok()); // 16 = 4²
        assert!(Grid25::new(32, 4).is_err()); // 8 not square
    }

    #[test]
    fn grid25_fiber_groups_are_contiguous() {
        let g = Grid25::new(32, 2).unwrap();
        for r in (0..32).step_by(2) {
            assert_eq!(g.row_pos(r), g.row_pos(r + 1));
            assert_eq!(g.col_pos(r), g.col_pos(r + 1));
            assert_eq!(g.fiber_pos(r), 0);
            assert_eq!(g.fiber_pos(r + 1), 1);
        }
    }
}
