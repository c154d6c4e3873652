//! Block SpMV (SpMM): `Y = A·X` for a block of `k` input vectors — the
//! inner operation of block-Krylov solvers and multiple-right-hand-side
//! problems.
//!
//! For compression this is an honest stress test rather than a showcase:
//! the index stream (which BRO shrinks) is read **once** per block while
//! value traffic and x gathers scale with `k`, so BRO's relative advantage
//! *decreases* as the block widens. The `repro spmm` experiment quantifies
//! the decay.

use bro_bitstream::Symbol;
use bro_core::BroEll;
use bro_gpu_sim::DeviceSim;
use bro_matrix::{EllMatrix, Scalar};

use crate::bro_ell::slice_launch;
use crate::ell::ell_launch;

/// Checks the block and borrows its vectors.
fn check_block<T: Scalar>(cols: usize, xs: &[Vec<T>]) -> Vec<&[T]> {
    assert!(!xs.is_empty(), "SpMM needs at least one input vector");
    for (i, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), cols, "input vector {i} has the wrong length");
    }
    xs.iter().map(Vec::as_slice).collect()
}

/// ELLPACK SpMM: `Y[j] = A·X[j]` for every vector in the block, by the
/// ELLPACK kernel over `k` vectors.
pub fn ell_spmm<T: Scalar>(sim: &mut DeviceSim, ell: &EllMatrix<T>, xs: &[Vec<T>]) -> Vec<Vec<T>> {
    ell_launch(sim, ell, &check_block(ell.cols(), xs), "ell-spmm/rows")
}

/// BRO-ELL SpMM: the compressed index stream is decoded once per block of
/// vectors, by the BRO-ELL kernel over `k` vectors.
pub fn bro_ell_spmm<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroEll<T, W>,
    xs: &[Vec<T>],
) -> Vec<Vec<T>> {
    slice_launch(sim, bro, &check_block(bro.cols(), xs), None, "bro-ell-spmm/slices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_core::BroEllConfig;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::CsrMatrix;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    fn block(cols: usize, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|v| (0..cols).map(|i| 1.0 + ((i * (v + 3)) % 11) as f64 * 0.2).collect())
            .collect()
    }

    #[test]
    fn ell_spmm_matches_repeated_spmv() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(16);
        let ell = EllMatrix::from_coo(&coo);
        let csr = CsrMatrix::from_coo(&coo);
        let xs = block(256, 3);
        let ys = ell_spmm(&mut sim(), &ell, &xs);
        for (x, y) in xs.iter().zip(&ys) {
            assert_vec_approx_eq(y, &csr.spmv(x).unwrap(), 1e-12);
        }
    }

    #[test]
    fn bro_spmm_matches_repeated_spmv() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(16);
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 64, ..Default::default() });
        let csr = CsrMatrix::from_coo(&coo);
        let xs = block(256, 4);
        let ys = bro_ell_spmm(&mut sim(), &bro, &xs);
        for (x, y) in xs.iter().zip(&ys) {
            assert_vec_approx_eq(y, &csr.spmv(x).unwrap(), 1e-12);
        }
    }

    #[test]
    fn index_traffic_amortizes_over_block() {
        // Stream bytes are read once regardless of block width; the per-
        // vector read cost must therefore drop as k grows.
        let coo = bro_matrix::generate::laplacian_2d::<f64>(32);
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());

        let mut s1 = sim();
        bro_ell_spmm(&mut s1, &bro, &block(1024, 1));
        let mut s4 = sim();
        bro_ell_spmm(&mut s4, &bro, &block(1024, 4));
        let per_vec_1 = s1.stats().global_read_bytes as f64;
        let per_vec_4 = s4.stats().global_read_bytes as f64 / 4.0;
        assert!(
            per_vec_4 < per_vec_1,
            "per-vector reads must amortize: {per_vec_4} vs {per_vec_1}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one input vector")]
    fn empty_block_rejected() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(4);
        let ell = EllMatrix::from_coo(&coo);
        ell_spmm(&mut sim(), &ell, &[]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn mismatched_vector_rejected() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(4);
        let ell = EllMatrix::from_coo(&coo);
        ell_spmm(&mut sim(), &ell, &[vec![1.0; 15]]);
    }
}
