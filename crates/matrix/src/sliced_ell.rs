//! Sliced-ELLPACK format (Monakov, Lokhmotov & Avetisyan) — a related-work
//! baseline the paper discusses: the matrix is cut into slices of `S` rows,
//! each stored ELLPACK-style at its **own** width (the longest row in the
//! slice), eliminating most of global ELLPACK's padding without any
//! compression. BRO-ELL inherits exactly this slicing through its `num_col`
//! array; comparing the two isolates the contribution of bit packing.

use crate::coo::CooMatrix;
use crate::ell::INVALID_INDEX;
use crate::scalar::Scalar;

/// One slice: a column-major `height × width` ELLPACK block.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedEllSlice<T: Scalar> {
    /// Rows in this slice.
    pub height: usize,
    /// Slice width: the longest row in the slice.
    pub width: usize,
    /// Column-major `height × width` index array ([`INVALID_INDEX`] pads).
    pub col_idx: Vec<u32>,
    /// Column-major `height × width` value array.
    pub vals: Vec<T>,
}

/// A sparse matrix in Sliced-ELLPACK format.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedEllMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    nnz: usize,
    slice_height: usize,
    slices: Vec<SlicedEllSlice<T>>,
}

impl<T: Scalar> SlicedEllMatrix<T> {
    /// Converts from COO with the given slice height.
    pub fn from_coo(coo: &CooMatrix<T>, slice_height: usize) -> Self {
        assert!(slice_height > 0, "slice height must be positive");
        let m = coo.rows();
        let offsets = coo.row_offsets();
        let entries = |r: usize| offsets[r]..offsets[r + 1];
        let n_slices = m.div_ceil(slice_height);
        let mut slices = Vec::with_capacity(n_slices);
        for s in 0..n_slices {
            let row0 = s * slice_height;
            let height = (m - row0).min(slice_height);
            let width = (row0..row0 + height).map(|r| entries(r).len()).max().unwrap_or(0);
            let mut col_idx = vec![INVALID_INDEX; height * width];
            let mut vals = vec![T::ZERO; height * width];
            for (i, r) in (row0..row0 + height).enumerate() {
                for (j, e) in entries(r).enumerate() {
                    col_idx[j * height + i] = coo.col_indices()[e];
                    vals[j * height + i] = coo.values()[e];
                }
            }
            slices.push(SlicedEllSlice { height, width, col_idx, vals });
        }
        SlicedEllMatrix { rows: m, cols: coo.cols(), nnz: coo.nnz(), slice_height, slices }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Configured slice height.
    pub fn slice_height(&self) -> usize {
        self.slice_height
    }

    /// The slices.
    pub fn slices(&self) -> &[SlicedEllSlice<T>] {
        &self.slices
    }

    /// Total padded slots across all slices (the storage Sliced-ELLPACK
    /// saves relative to global ELLPACK).
    pub fn padded_slots(&self) -> usize {
        self.slices.iter().map(|s| s.height * s.width).sum::<usize>() - self.nnz
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut row_idx = Vec::with_capacity(self.nnz);
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for (s, slice) in self.slices.iter().enumerate() {
            let row0 = s * self.slice_height;
            for i in 0..slice.height {
                for j in 0..slice.width {
                    let c = slice.col_idx[j * slice.height + i];
                    if c == INVALID_INDEX {
                        break;
                    }
                    row_idx.push((row0 + i) as u32);
                    col_idx.push(c);
                    vals.push(slice.vals[j * slice.height + i]);
                }
            }
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> CooMatrix<f64> {
        // Row lengths 1, 1, 1, 8 — global ELLPACK pads 3 rows to width 8;
        // slicing at height 2 confines the padding to one slice.
        let mut r = vec![0usize, 1, 2];
        let mut c = vec![0usize, 1, 2];
        for j in 0..8 {
            r.push(3);
            c.push(j);
        }
        CooMatrix::from_triplets(4, 8, &r, &c, &vec![1.0; r.len()]).unwrap()
    }

    #[test]
    fn per_slice_widths() {
        let se = SlicedEllMatrix::from_coo(&skewed(), 2);
        assert_eq!(se.slices().len(), 2);
        assert_eq!(se.slices()[0].width, 1);
        assert_eq!(se.slices()[1].width, 8);
    }

    #[test]
    fn padding_less_than_global_ellpack() {
        let coo = skewed();
        let se = SlicedEllMatrix::from_coo(&coo, 2);
        let global_pad = 4 * 8 - coo.nnz();
        assert!(se.padded_slots() < global_pad, "{} vs {global_pad}", se.padded_slots());
    }

    #[test]
    fn round_trip() {
        let coo = skewed();
        for h in [1, 2, 3, 4, 7] {
            assert_eq!(SlicedEllMatrix::from_coo(&coo, h).to_coo(), coo, "h={h}");
        }
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::zeros(0, 4);
        let se = SlicedEllMatrix::from_coo(&coo, 32);
        assert_eq!(se.slices().len(), 0);
        assert_eq!(se.to_coo(), coo);
    }
}
