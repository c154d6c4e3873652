//! Row permutations.
//!
//! The reordering schemes of the paper (BAR, RCM, AMD) all produce a row
//! permutation `P` and compute with `A' = P·A`, transforming the product to
//! `y' = P·y`. [`Permutation`] represents `P` and applies it to matrices
//! and vectors.

use crate::coo::CooMatrix;
use crate::scalar::Scalar;

/// A permutation of `n` items.
///
/// `perm[new_position] = old_position`: applying the permutation to a matrix
/// moves old row `perm[i]` to new row `i`. This is the natural output shape
/// of a reordering algorithm that emits rows in its preferred order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` items.
    pub fn identity(n: usize) -> Self {
        Permutation { perm: (0..n as u32).collect() }
    }

    /// Builds from an ordering vector where `order[i]` is the old index that
    /// moves to position `i`. Returns `None` if `order` is not a valid
    /// permutation.
    pub fn from_order(order: Vec<u32>) -> Option<Self> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &o in &order {
            let o = o as usize;
            if o >= n || seen[o] {
                return None;
            }
            seen[o] = true;
        }
        Some(Permutation { perm: order })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i as u32 == p)
    }

    /// The old index mapped to new position `i`.
    #[inline]
    pub fn old_index(&self, i: usize) -> u32 {
        self.perm[i]
    }

    /// The raw order slice (`old_index` for each new position).
    pub fn as_slice(&self) -> &[u32] {
        &self.perm
    }

    /// The inverse permutation: `inv[old_position] = new_position`.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        Permutation { perm: inv }
    }

    /// Applies to the rows of a matrix: returns `P·A`.
    ///
    /// Each row of `A` is a contiguous, column-sorted run, so `P·A` is those
    /// runs copied whole in the new row order: already sorted, in O(nnz).
    pub fn apply_rows<T: Scalar>(&self, a: &CooMatrix<T>) -> CooMatrix<T> {
        assert_eq!(self.len(), a.rows(), "permutation size must match row count");
        let start = a.row_offsets();
        let mut rows = Vec::with_capacity(a.nnz());
        let mut cols = Vec::with_capacity(a.nnz());
        let mut vals = Vec::with_capacity(a.nnz());
        for (new, &old) in self.perm.iter().enumerate() {
            let run = start[old as usize]..start[old as usize + 1];
            rows.resize(rows.len() + run.len(), new as u32);
            cols.extend_from_slice(&a.col_indices()[run.clone()]);
            vals.extend_from_slice(&a.values()[run]);
        }
        CooMatrix::from_sorted_parts(a.rows(), a.cols(), rows, cols, vals)
    }

    /// Applies to a vector: returns `P·v` (element `i` of the result is
    /// element `old_index(i)` of the input).
    pub fn apply_vec<T: Copy>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(self.len(), v.len());
        self.perm.iter().map(|&old| v[old as usize]).collect()
    }

    /// Composition `self ∘ other`: applying the result equals applying
    /// `other` first, then `self`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation { perm: self.perm.iter().map(|&i| other.perm[i as usize]).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            5,
            &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
            &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert!(p.is_identity());
        let a = paper_matrix();
        assert_eq!(p.apply_rows(&a), a);
    }

    #[test]
    fn from_order_validates() {
        assert!(Permutation::from_order(vec![2, 0, 1]).is_some());
        assert!(Permutation::from_order(vec![0, 0, 1]).is_none()); // duplicate
        assert!(Permutation::from_order(vec![0, 3]).is_none()); // out of range
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_order(vec![3, 1, 0, 2]).unwrap();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn permuted_spmv_equals_permuted_result() {
        // The key algebraic property used by the paper: y' = (P·A)·x = P·y.
        let a = paper_matrix();
        let p = Permutation::from_order(vec![2, 0, 3, 1]).unwrap();
        let x: Vec<f64> = (0..5).map(|i| (i as f64).sin() + 2.0).collect();
        let y = a.spmv_reference(&x).unwrap();
        let y_perm = p.apply_rows(&a).spmv_reference(&x).unwrap();
        assert_eq!(y_perm, p.apply_vec(&y));
    }

    #[test]
    fn apply_rows_matches_sorting_the_relabelled_triplets() {
        // Rows of 0-6 entries (29·k mod 50 is distinct for k < 7), given out
        // of order, under a scrambled permutation.
        let (mut ri, mut ci) = (Vec::new(), Vec::new());
        for r in 0..40usize {
            for k in 0..r % 7 {
                ri.push(r);
                ci.push((r * 13 + k * 29) % 50);
            }
        }
        let vals: Vec<f64> = (0..ri.len()).map(|i| i as f64).collect();
        let a = CooMatrix::from_triplets(40, 50, &ri, &ci, &vals).unwrap();
        let p = Permutation::from_order((0..40).map(|i| (i * 17 + 5) % 40).collect()).unwrap();
        let inv = p.inverse();
        let rows: Vec<usize> = ri.iter().map(|&r| inv.old_index(r) as usize).collect();
        let want = CooMatrix::from_triplets(40, 50, &rows, &ci, &vals).unwrap();
        assert_eq!(p.apply_rows(&a), want);
    }

    #[test]
    fn apply_vec_reorders() {
        let p = Permutation::from_order(vec![2, 0, 1]).unwrap();
        assert_eq!(p.apply_vec(&[10, 20, 30]), vec![30, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "must match row count")]
    fn size_mismatch_panics() {
        let p = Permutation::identity(3);
        p.apply_rows(&paper_matrix());
    }
}
