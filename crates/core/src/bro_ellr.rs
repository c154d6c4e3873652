//! BRO-ELL-R — an extension combining the paper's BRO-ELL with
//! ELLPACK-R's per-row length array.
//!
//! BRO-ELL already stops each *slice* at its own length (`num_col`), but
//! within a slice every warp still walks all `l_i` columns even when its
//! own 32 rows are shorter. Storing `row_length` lets each warp stop at its
//! own longest row, skipping both the decode work and the remaining symbol
//! loads — the same trick ELLPACK-R plays on ELLPACK, applied on top of
//! compression. An ablation in the bench suite quantifies the gain.

use bro_bitstream::Symbol;
use bro_matrix::{CooMatrix, Scalar};

use crate::analysis::SpaceSavings;
use crate::bro_ell::{BroEll, BroEllConfig};

/// BRO-ELL plus the per-row lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct BroEllR<T: Scalar, W: Symbol = u32> {
    bro: BroEll<T, W>,
    row_lengths: Vec<u32>,
}

impl<T: Scalar, W: Symbol> BroEllR<T, W> {
    /// Compresses from COO.
    pub fn from_coo(coo: &CooMatrix<T>, cfg: &BroEllConfig) -> Self {
        BroEllR { bro: BroEll::from_coo(coo, cfg), row_lengths: coo.row_lengths() }
    }

    /// The underlying BRO-ELL representation.
    pub fn bro(&self) -> &BroEll<T, W> {
        &self.bro
    }

    /// Per-row lengths.
    pub fn row_lengths(&self) -> &[u32] {
        &self.row_lengths
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.bro.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.bro.cols()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.bro.nnz()
    }

    /// Index space savings; the `row_length` array (4 bytes per row) counts
    /// against the compressed size.
    pub fn space_savings(&self) -> SpaceSavings {
        let base = self.bro.space_savings();
        SpaceSavings {
            original_bytes: base.original_bytes,
            compressed_bytes: base.compressed_bytes + 4 * self.row_lengths.len(),
        }
    }

    /// Reconstruction (delegates to BRO-ELL).
    pub fn decompress(&self) -> CooMatrix<T> {
        self.bro.decompress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> CooMatrix<f64> {
        // Within one 8-row slice, rows 0..7 have very different lengths.
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..64usize {
            for j in 0..=(i % 8) {
                r.push(i);
                c.push(j * 3);
            }
        }
        CooMatrix::from_triplets(64, 32, &r, &c, &vec![1.0; r.len()]).unwrap()
    }

    #[test]
    fn round_trip() {
        let coo = skewed();
        let b: BroEllR<f64> = BroEllR::from_coo(&coo, &BroEllConfig::default());
        assert_eq!(b.decompress(), coo);
        assert_eq!(b.row_lengths(), coo.row_lengths().as_slice());
    }

    #[test]
    fn savings_account_for_length_array() {
        let coo = skewed();
        let plain: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let with_r: BroEllR<f64> = BroEllR::from_coo(&coo, &BroEllConfig::default());
        assert_eq!(
            with_r.space_savings().compressed_bytes,
            plain.space_savings().compressed_bytes + 4 * 64
        );
    }
}
