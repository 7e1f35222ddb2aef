//! Random row/column permutation for load balancing.
//!
//! Sparsity-agnostic bulk algorithms rely on a random permutation of the
//! sparse matrix to balance nonzeros across blocks (the paper applies one
//! to every matrix it reads). A [`Permutation`] is a bijection on
//! `0..n`; applying it to a matrix relabels indices.

use dsk_rng::Rng;

use crate::coo::CooMatrix;

/// A bijection on `0..len`, stored as the forward image table
/// (`perm[i]` = new index of old index `i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `0..len`.
    pub fn identity(len: usize) -> Self {
        Permutation {
            forward: (0..len as u32).collect(),
        }
    }

    /// A uniformly random permutation of `0..len`, deterministic in
    /// `seed`.
    pub fn random(len: usize, seed: u64) -> Self {
        let mut forward: Vec<u32> = (0..len as u32).collect();
        let mut rng = Rng::seed_from_u64(seed);
        rng.shuffle(&mut forward);
        Permutation { forward }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Image of `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i] as usize
    }

    /// The inverse bijection.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.forward.len()];
        for (i, &x) in self.forward.iter().enumerate() {
            inv[x as usize] = i as u32;
        }
        Permutation { forward: inv }
    }
}

/// Relabel rows and columns of `m` by the given permutations
/// (`row_perm.len() == m.nrows`, `col_perm.len() == m.ncols`).
pub fn permute_coo(m: &CooMatrix, row_perm: &Permutation, col_perm: &Permutation) -> CooMatrix {
    assert_eq!(row_perm.len(), m.nrows, "row permutation length mismatch");
    assert_eq!(col_perm.len(), m.ncols, "col permutation length mismatch");
    let rows = m
        .rows
        .iter()
        .map(|&r| row_perm.apply(r as usize) as u32)
        .collect();
    let cols = m
        .cols
        .iter()
        .map(|&c| col_perm.apply(c as usize) as u32)
        .collect();
    CooMatrix {
        nrows: m.nrows,
        ncols: m.ncols,
        rows,
        cols,
        vals: m.vals.clone(),
    }
}

/// Symmetrically permute a square matrix with one random permutation on
/// both sides — the paper's load-balancing transformation.
pub fn random_symmetric_permute(m: &CooMatrix, seed: u64) -> (CooMatrix, Permutation) {
    assert_eq!(m.nrows, m.ncols, "symmetric permutation needs square");
    let p = Permutation::random(m.nrows, seed);
    (permute_coo(m, &p, &p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(p.apply(i), i);
        }
    }

    #[test]
    fn random_is_bijection() {
        let p = Permutation::random(100, 3);
        let mut seen = [false; 100];
        for i in 0..100 {
            let x = p.apply(i);
            assert!(!seen[x]);
            seen[x] = true;
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::random(64, 9);
        let inv = p.inverse();
        for i in 0..64 {
            assert_eq!(inv.apply(p.apply(i)), i);
            assert_eq!(p.apply(inv.apply(i)), i);
        }
    }

    #[test]
    fn permute_coo_preserves_values_and_structure() {
        let m = crate::gen::erdos_renyi(10, 10, 3, 4);
        let (pm, p) = random_symmetric_permute(&m, 8);
        assert_eq!(pm.nnz(), m.nnz());
        let d = m.to_dense();
        let pd = pm.to_dense();
        for (i, j, _) in m.iter() {
            assert_eq!(pd[p.apply(i) * 10 + p.apply(j)], d[i * 10 + j]);
        }
    }
}
