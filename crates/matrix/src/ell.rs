//! ELLPACK-ITPACK format.

use crate::coo::CooMatrix;
use crate::scalar::Scalar;

/// Marker stored in padded slots of the ELLPACK index array.
pub const INVALID_INDEX: u32 = u32::MAX;

/// A sparse matrix in ELLPACK format: two dense `m × k` arrays (`k` = the
/// maximum row length), stored **column-major** exactly as the GPU kernels
/// of Bell & Garland lay them out, so that thread `r` reading entry `j`
/// accesses `data[j * m + r]` — a coalesced pattern.
///
/// Padded slots hold [`INVALID_INDEX`] in `col_idx` and zero in `vals`.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    /// ELLPACK width: maximum row length.
    k: usize,
    /// Leading dimension: `rows` rounded up to a 32-element multiple, as in
    /// cusp, so every warp-aligned column access stays within one memory
    /// transaction.
    stride: usize,
    /// Column-major `stride × k` column-index array.
    col_idx: Vec<u32>,
    /// Column-major `stride × k` value array.
    vals: Vec<T>,
    /// Number of stored (non-padding) entries.
    nnz: usize,
}

impl<T: Scalar> EllMatrix<T> {
    /// Converts from COO, padding every row to the maximum row length.
    pub fn from_coo(coo: &CooMatrix<T>) -> Self {
        Self::from_coo_capped(coo, &coo.row_offsets(), usize::MAX)
    }

    /// Packs the first `cap` entries of every row of `coo`, whose
    /// [`CooMatrix::row_offsets`] are `offsets`. HYB's ELL part is
    /// `cap = k`.
    pub(crate) fn from_coo_capped(coo: &CooMatrix<T>, offsets: &[usize], cap: usize) -> Self {
        let rows = coo.rows();
        let stride = rows.div_ceil(32) * 32;
        let entries = |r: usize| offsets[r]..offsets[r + 1].min(offsets[r].saturating_add(cap));
        let k = (0..rows).map(|r| entries(r).len()).max().unwrap_or(0);
        let mut col_idx = vec![INVALID_INDEX; stride * k];
        let mut vals = vec![T::ZERO; stride * k];
        let mut nnz = 0;
        for r in 0..rows {
            for (j, e) in entries(r).enumerate() {
                col_idx[j * stride + r] = coo.col_indices()[e];
                vals[j * stride + r] = coo.values()[e];
            }
            nnz += entries(r).len();
        }
        EllMatrix { rows, cols: coo.cols(), k, stride, col_idx, vals, nnz }
    }

    /// Leading dimension of the column-major arrays (rows padded to a
    /// 32-element multiple).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the represented matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// ELLPACK width `k` (maximum row length).
    pub fn width(&self) -> usize {
        self.k
    }

    /// Number of stored non-zeros (excluding padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The raw column-major index array (`m × k` entries).
    pub fn col_idx_raw(&self) -> &[u32] {
        &self.col_idx
    }

    /// The raw column-major value array (`m × k` entries).
    pub fn vals_raw(&self) -> &[T] {
        &self.vals
    }

    /// Entry `(r, j)` of the index array (row `r`, ELLPACK column `j`),
    /// or [`INVALID_INDEX`] for padding.
    #[inline]
    pub fn col_at(&self, r: usize, j: usize) -> u32 {
        self.col_idx[j * self.stride + r]
    }

    /// Entry `(r, j)` of the value array.
    #[inline]
    pub fn val_at(&self, r: usize, j: usize) -> T {
        self.vals[j * self.stride + r]
    }

    /// Flat column-major offset of entry `(r, j)` — the address the GPU
    /// kernels use.
    #[inline]
    pub fn flat_index(&self, r: usize, j: usize) -> usize {
        j * self.stride + r
    }

    /// Converts back to COO, dropping padding.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut row_idx = Vec::with_capacity(self.nnz);
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for r in 0..self.rows {
            for j in 0..self.k {
                let c = self.col_at(r, j);
                if c == INVALID_INDEX {
                    break;
                }
                row_idx.push(r as u32);
                col_idx.push(c);
                vals.push(self.val_at(r, j));
            }
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }

    /// Bytes of index storage (4 bytes per slot, padding included) — the
    /// "original size O" in the paper's space-savings definition, which
    /// counts the logical `m × k` array (not the aligned stride).
    pub fn index_bytes(&self) -> usize {
        self.rows * self.k * 4
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
    fn layout_matches_paper_example() {
        let ell = EllMatrix::from_coo(&paper_matrix());
        assert_eq!(ell.width(), 5);
        // First ELLPACK column (j = 0) holds each row's first column index.
        assert_eq!(ell.col_at(0, 0), 0);
        assert_eq!(ell.col_at(1, 0), 0);
        assert_eq!(ell.col_at(2, 0), 1);
        assert_eq!(ell.col_at(3, 0), 3);
        // Row 0 has 2 entries; slot (0, 2) is padding.
        assert_eq!(ell.col_at(0, 2), INVALID_INDEX);
        assert_eq!(ell.val_at(0, 2), 0.0);
    }

    #[test]
    fn column_major_addressing() {
        let ell = EllMatrix::from_coo(&paper_matrix());
        for r in 0..4 {
            for j in 0..5 {
                assert_eq!(ell.col_idx_raw()[ell.flat_index(r, j)], ell.col_at(r, j));
            }
        }
    }

    #[test]
    fn round_trip_to_coo() {
        let coo = paper_matrix();
        let ell = EllMatrix::from_coo(&coo);
        assert_eq!(ell.to_coo(), coo);
    }

    #[test]
    fn index_bytes_counts_padding() {
        let ell = EllMatrix::from_coo(&paper_matrix());
        // 4 rows x 5 slots x 4 bytes = 80 bytes, as quoted in the paper.
        assert_eq!(ell.index_bytes(), 80);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::zeros(3, 3);
        let ell = EllMatrix::from_coo(&coo);
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.nnz(), 0);
        assert_eq!(ell.to_coo(), coo);
    }
}
