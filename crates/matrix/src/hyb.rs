//! Hybrid ELL + COO format (Bell & Garland).

use crate::coo::CooMatrix;
use crate::ell::EllMatrix;
use crate::scalar::Scalar;

/// A sparse matrix split into an ELLPACK part (the first `k` entries of
/// each row) and a COO part (the overflow), following Bell & Garland's HYB
/// format.
#[derive(Debug, Clone, PartialEq)]
pub struct HybMatrix<T: Scalar> {
    /// The regular part in ELLPACK layout.
    ell: EllMatrix<T>,
    /// The overflow entries in COO layout.
    coo: CooMatrix<T>,
    /// The dividing width used for the split.
    split_k: usize,
}

impl<T: Scalar> HybMatrix<T> {
    /// Splits using the cusp heuristic: the dividing column `k` is the
    /// largest width such that at least one third of the rows have `≥ k`
    /// non-zeros (equivalently, the number of rows with at least `k`
    /// non-zeros is no less than `m / 3`). Rows shorter than `k` are padded
    /// in the ELL part; entries beyond `k` overflow to COO.
    pub fn from_coo(coo: &CooMatrix<T>) -> Self {
        let k = Self::split_width(&coo.row_lengths());
        Self::from_coo_with_width(coo, k)
    }

    /// Splits at an explicit width `k` (used by tests and by BRO-HYB, which
    /// must partition identically to HYB for a fair comparison).
    pub fn from_coo_with_width(coo: &CooMatrix<T>, k: usize) -> Self {
        let offsets = coo.row_offsets();
        let (rows, cols, vals) = coo.entries_past_width(&offsets, k);
        HybMatrix {
            ell: EllMatrix::from_coo_capped(coo, &offsets, k),
            coo: CooMatrix::from_sorted_parts(coo.rows(), coo.cols(), rows, cols, vals),
            split_k: k,
        }
    }

    /// The cusp `compute_optimal_entries_per_row` heuristic from the paper:
    /// choose `k` such that the number of rows with at least `k` non-zeros
    /// is just below one third of the total rows.
    pub fn split_width(row_lengths: &[u32]) -> usize {
        let m = row_lengths.len();
        if m == 0 {
            return 0;
        }
        let max_len = row_lengths.iter().copied().max().unwrap_or(0) as usize;
        // hist[l] = number of rows with length exactly l.
        let mut hist = vec![0usize; max_len + 1];
        for &l in row_lengths {
            hist[l as usize] += 1;
        }
        // Walk k upward; rows_ge_k = number of rows with >= k entries.
        let mut rows_ge_k = m;
        let threshold = m / 3;
        let mut k = 0usize;
        while k < max_len {
            rows_ge_k -= hist[k];
            // rows_ge_k now counts rows with length >= k + 1.
            if rows_ge_k < threshold.max(1) {
                break;
            }
            k += 1;
        }
        k
    }

    /// The ELLPACK part.
    pub fn ell(&self) -> &EllMatrix<T> {
        &self.ell
    }

    /// The COO overflow part.
    pub fn coo(&self) -> &CooMatrix<T> {
        &self.coo
    }

    /// The dividing width.
    pub fn split_k(&self) -> usize {
        self.split_k
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ell.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.ell.cols()
    }

    /// Total number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.nnz()
    }

    /// Fraction of non-zeros stored in the ELL part (the "% BRO-ELL" column
    /// of the paper's Table 4 measures the same split).
    pub fn ell_fraction(&self) -> f64 {
        if self.nnz() == 0 {
            return 0.0;
        }
        self.ell.nnz() as f64 / self.nnz() as f64
    }

    /// Reassembles the full matrix in COO form.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let a = self.ell.to_coo();
        let b = &self.coo;
        let rows: Vec<usize> =
            a.row_indices().iter().chain(b.row_indices()).map(|&r| r as usize).collect();
        let cols: Vec<usize> =
            a.col_indices().iter().chain(b.col_indices()).map(|&c| c as usize).collect();
        let vals: Vec<T> = a.values().iter().chain(b.values()).copied().collect();
        CooMatrix::from_triplets(self.rows(), self.cols(), &rows, &cols, &vals)
            .expect("HYB parts are disjoint by construction")
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
    fn explicit_split_matches_paper_example() {
        // The paper's HYB example splits A at k = 3.
        let hyb = HybMatrix::from_coo_with_width(&paper_matrix(), 3);
        assert_eq!(hyb.ell().width(), 3);
        assert_eq!(hyb.coo().nnz(), 2);
        assert_eq!(hyb.coo().row_indices(), &[1, 1]);
        assert_eq!(hyb.coo().col_indices(), &[3, 4]);
        assert_eq!(hyb.coo().values(), &[4.0, 1.0]);
        assert_eq!(hyb.ell().nnz(), 10);
    }

    #[test]
    fn split_width_uniform_rows_takes_all() {
        // All rows length 4: every k <= 4 keeps all rows >= k, so k = 4 and
        // the COO part is empty.
        let hyb = HybMatrix::from_coo_with_width(
            &paper_matrix(),
            HybMatrix::<f64>::split_width(&[4, 4, 4, 4, 4, 4]),
        );
        assert_eq!(hyb.split_k(), 4);
    }

    #[test]
    fn split_width_skewed_rows() {
        // 9 rows of length 1, 1 row of length 100: threshold m/3 = 3 rows;
        // only 1 row has >= 2 entries, so k stays at 1.
        let lens: Vec<u32> = std::iter::repeat_n(1, 9).chain(std::iter::once(100)).collect();
        assert_eq!(HybMatrix::<f64>::split_width(&lens), 1);
    }

    #[test]
    fn split_width_empty() {
        assert_eq!(HybMatrix::<f64>::split_width(&[]), 0);
    }

    #[test]
    fn round_trip() {
        let coo = paper_matrix();
        let hyb = HybMatrix::from_coo_with_width(&coo, 2);
        assert_eq!(hyb.to_coo(), coo);
        assert_eq!(hyb.nnz(), coo.nnz());
    }

    #[test]
    fn split_preserves_spmv() {
        let a = paper_matrix();
        let x: Vec<f64> = (0..5).map(|i| i as f64 + 0.5).collect();
        let y = a.spmv_reference(&x).unwrap();
        let hyb = HybMatrix::from_coo_with_width(&a, 2);
        let yl = hyb.ell().to_coo().spmv_reference(&x).unwrap();
        let yr = hyb.coo().spmv_reference(&x).unwrap();
        let sum: Vec<f64> = yl.iter().zip(&yr).map(|(a, b)| a + b).collect();
        assert_eq!(sum, y);
    }

    #[test]
    fn ell_fraction() {
        let hyb = HybMatrix::from_coo_with_width(&paper_matrix(), 3);
        assert!((hyb.ell_fraction() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_parts_sum_to_whole() {
        let coo = paper_matrix();
        let x: Vec<f64> = (0..5).map(|i| 1.0 + i as f64).collect();
        let y = coo.spmv_reference(&x).unwrap();
        let hyb = HybMatrix::from_coo(&coo);
        let ye = hyb.ell().to_coo().spmv_reference(&x).unwrap();
        let yc = hyb.coo().spmv_reference(&x).unwrap();
        let sum: Vec<f64> = ye.iter().zip(&yc).map(|(a, b)| a + b).collect();
        assert_eq!(sum, y);
    }
}
