//! Compressed Sparse Row (CSR) format and the CPU reference SpMV.

use rayon::prelude::*;

use crate::coo::CooMatrix;
use crate::error::MatrixError;
use crate::scalar::Scalar;

/// A sparse matrix in compressed sparse row format.
///
/// `row_ptr` has `rows + 1` entries; row `i` occupies
/// `col_idx[row_ptr[i]..row_ptr[i+1]]`, with columns sorted ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Converts from COO (already sorted row-major).
    pub fn from_coo(coo: &CooMatrix<T>) -> Self {
        CsrMatrix {
            rows: coo.rows(),
            cols: coo.cols(),
            row_ptr: coo.row_offsets(),
            col_idx: coo.col_indices().to_vec(),
            vals: coo.values().to_vec(),
        }
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut row_idx = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            row_idx.extend(std::iter::repeat_n(r as u32, self.row_len(r)));
        }
        CooMatrix::from_sorted_parts(
            self.rows,
            self.cols,
            row_idx,
            self.col_idx.clone(),
            self.vals.clone(),
        )
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
        self.vals.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Stored values.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Number of stored entries in row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The columns and values of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[s..e], &self.vals[s..e])
    }

    /// Serial CPU SpMV: `y = A·x`.
    pub fn spmv(&self, x: &[T]) -> Result<Vec<T>, MatrixError> {
        self.check_x(x)?;
        let mut y = vec![T::ZERO; self.rows];
        self.spmv_into(x, &mut y);
        Ok(y)
    }

    /// Serial CPU SpMV into a preallocated output.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have the wrong length (use [`CsrMatrix::spmv`]
    /// for checked entry points).
    pub fn spmv_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut sum = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                sum = v.mul_add(x[c as usize], sum);
            }
            *out = sum;
        }
    }

    /// Multithreaded CPU SpMV (rayon, one task per row chunk).
    pub fn par_spmv(&self, x: &[T]) -> Result<Vec<T>, MatrixError> {
        self.check_x(x)?;
        let mut y = vec![T::ZERO; self.rows];
        y.par_iter_mut().enumerate().for_each(|(r, out)| {
            let (cols, vals) = self.row(r);
            let mut sum = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                sum = v.mul_add(x[c as usize], sum);
            }
            *out = sum;
        });
        Ok(y)
    }

    fn check_x(&self, x: &[T]) -> Result<(), MatrixError> {
        if x.len() != self.cols {
            return Err(MatrixError::ShapeMismatch {
                expected: format!("x of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        Ok(())
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
    fn from_coo_row_ptr() {
        let csr = CsrMatrix::from_coo(&paper_matrix());
        assert_eq!(csr.row_ptr(), &[0, 2, 7, 10, 12]);
        assert_eq!(csr.row_len(1), 5);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = paper_matrix();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn spmv_matches_reference() {
        let coo = paper_matrix();
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..5).map(|i| (i as f64) * 0.25 + 1.0).collect();
        assert_eq!(csr.spmv(&x).unwrap(), coo.spmv_reference(&x).unwrap());
    }

    #[test]
    fn par_spmv_matches_serial() {
        let coo = paper_matrix();
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..5).map(|i| (i as f64) - 2.0).collect();
        assert_eq!(csr.par_spmv(&x).unwrap(), csr.spmv(&x).unwrap());
    }

    #[test]
    fn empty_rows_handled() {
        let coo = CooMatrix::from_triplets(4, 4, &[0, 3], &[1, 2], &[1.0, 2.0]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.row_len(1), 0);
        assert_eq!(csr.row_len(2), 0);
        let y = csr.spmv(&[1.0; 4]).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn shape_mismatch_detected() {
        let csr = CsrMatrix::from_coo(&paper_matrix());
        assert!(csr.spmv(&[0.0; 6]).is_err());
        assert!(csr.par_spmv(&[0.0; 3]).is_err());
    }
}
