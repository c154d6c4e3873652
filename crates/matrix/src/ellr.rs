//! ELLPACK-R format (Vázquez et al.).

use crate::coo::CooMatrix;
use crate::ell::EllMatrix;
use crate::scalar::Scalar;

/// ELLPACK-R: the ELLPACK arrays plus an explicit `row_length` array so the
/// kernel's inner loop can stop at each row's true length instead of testing
/// every slot for the padding marker.
#[derive(Debug, Clone, PartialEq)]
pub struct EllRMatrix<T: Scalar> {
    /// The underlying ELLPACK storage.
    ell: EllMatrix<T>,
    /// Length of each row (the paper's `row_length` array).
    row_length: Vec<u32>,
}

impl<T: Scalar> EllRMatrix<T> {
    /// Converts from COO.
    pub fn from_coo(coo: &CooMatrix<T>) -> Self {
        EllRMatrix { ell: EllMatrix::from_coo(coo), row_length: coo.row_lengths() }
    }

    /// The underlying ELLPACK arrays.
    pub fn ell(&self) -> &EllMatrix<T> {
        &self.ell
    }

    /// The per-row lengths.
    pub fn row_lengths(&self) -> &[u32] {
        &self.row_length
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ell.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.ell.cols()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.ell.nnz()
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix<T> {
        self.ell.to_coo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::INVALID_INDEX;

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
    fn row_lengths_match_paper() {
        let ellr = EllRMatrix::from_coo(&paper_matrix());
        // The paper gives row_length = [2, 5, 3, 2].
        assert_eq!(ellr.row_lengths(), &[2, 5, 3, 2]);
    }

    #[test]
    fn row_lengths_consistent_with_ell() {
        let ellr = EllRMatrix::from_coo(&paper_matrix());
        let ell = ellr.ell();
        for r in 0..ellr.rows() {
            let len = (0..ell.width()).take_while(|&j| ell.col_at(r, j) != INVALID_INDEX).count();
            assert_eq!(ellr.row_lengths()[r] as usize, len);
        }
    }

    #[test]
    fn round_trip() {
        let coo = paper_matrix();
        assert_eq!(EllRMatrix::from_coo(&coo).to_coo(), coo);
    }
}
