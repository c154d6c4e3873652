//! The BRO-HYB format (Section 3.3 of the paper): a BRO-ELL part plus a
//! BRO-COO part, split with the same Bell–Garland heuristic as HYB so the
//! two formats partition a matrix identically (the paper's fairness
//! requirement in Section 4.2.3).

use bro_bitstream::Symbol;
use bro_matrix::{CooMatrix, HybMatrix, Scalar};

use crate::analysis::SpaceSavings;
use crate::bro_coo::{BroCoo, BroCooConfig};
use crate::bro_ell::{BroEll, BroEllConfig};

/// Compression parameters for BRO-HYB.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BroHybConfig {
    /// Parameters for the BRO-ELL part.
    pub ell: BroEllConfig,
    /// Parameters for the BRO-COO part.
    pub coo: BroCooConfig,
    /// Explicit split width; `None` applies the Bell–Garland one-third
    /// heuristic.
    pub split_k: Option<usize>,
}

/// A sparse matrix in BRO-HYB format.
#[derive(Debug, Clone, PartialEq)]
pub struct BroHyb<T: Scalar, W: Symbol = u32> {
    split_k: usize,
    ell: BroEll<T, W>,
    coo: BroCoo<T, W>,
}

impl<T: Scalar, W: Symbol> BroHyb<T, W> {
    /// Compresses from COO.
    pub fn from_coo(coo: &CooMatrix<T>, cfg: &BroHybConfig) -> Self {
        let k = cfg.split_k.unwrap_or_else(|| HybMatrix::<T>::split_width(&coo.row_lengths()));
        let offsets = coo.row_offsets();
        let ell = BroEll::encode(coo, &offsets, k, &cfg.ell);
        let (row_idx, col_idx, vals) = coo.entries_past_width(&offsets, k);
        let coo = BroCoo::encode(coo.rows(), coo.cols(), &row_idx, col_idx, vals, &cfg.coo);
        BroHyb { split_k: k, ell, coo }
    }

    /// The BRO-ELL part.
    pub fn ell(&self) -> &BroEll<T, W> {
        &self.ell
    }

    /// The BRO-COO part.
    pub fn coo(&self) -> &BroCoo<T, W> {
        &self.coo
    }

    /// The dividing width used for the split.
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

    /// Total stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.nnz()
    }

    /// Fraction of non-zeros in the BRO-ELL part (the "% BRO-ELL" column of
    /// Table 4).
    pub fn ell_fraction(&self) -> f64 {
        if self.nnz() == 0 {
            0.0
        } else {
            self.ell.nnz() as f64 / self.nnz() as f64
        }
    }

    /// Combined index space savings over both parts (the η column of
    /// Table 4): compressed ELL indices + compressed COO row indices versus
    /// their uncompressed counterparts.
    pub fn space_savings(&self) -> SpaceSavings {
        self.ell.space_savings().combine(&self.coo.space_savings())
    }

    /// Reassembles the full matrix.
    pub fn decompress(&self) -> CooMatrix<T> {
        let a = self.ell.decompress();
        let b = self.coo.decompress();
        let rows: Vec<usize> =
            a.row_indices().iter().chain(b.row_indices()).map(|&r| r as usize).collect();
        let cols: Vec<usize> =
            a.col_indices().iter().chain(b.col_indices()).map(|&c| c as usize).collect();
        let vals: Vec<T> = a.values().iter().chain(b.values()).copied().collect();
        CooMatrix::from_triplets(self.rows(), self.cols(), &rows, &cols, &vals)
            .expect("parts are disjoint by construction")
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

    fn cfg(split: Option<usize>) -> BroHybConfig {
        BroHybConfig {
            ell: BroEllConfig { slice_height: 2, ..Default::default() },
            coo: BroCooConfig { interval_len: 4, warp_size: 2 },
            split_k: split,
        }
    }

    #[test]
    fn round_trip_with_explicit_split() {
        let coo = paper_matrix();
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &cfg(Some(3)));
        assert_eq!(bro.split_k(), 3);
        assert_eq!(bro.decompress(), coo);
        assert_eq!(bro.nnz(), 12);
    }

    #[test]
    fn heuristic_split_matches_hyb() {
        let coo = paper_matrix();
        let hyb = HybMatrix::from_coo(&coo);
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &cfg(None));
        assert_eq!(bro.split_k(), hyb.split_k());
        assert_eq!(bro.ell_fraction(), hyb.ell_fraction());
    }

    #[test]
    fn ell_fraction_matches_paper_example() {
        let bro: BroHyb<f64> = BroHyb::from_coo(&paper_matrix(), &cfg(Some(3)));
        assert!((bro.ell_fraction() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn split_zero_puts_everything_in_coo() {
        let coo = paper_matrix();
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &cfg(Some(0)));
        assert_eq!(bro.ell_fraction(), 0.0);
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn combined_savings_account_both_parts() {
        let bro: BroHyb<f64> = BroHyb::from_coo(&paper_matrix(), &cfg(Some(3)));
        let s = bro.space_savings();
        assert_eq!(
            s.original_bytes,
            bro.ell().space_savings().original_bytes + bro.coo().space_savings().original_bytes
        );
    }
}
