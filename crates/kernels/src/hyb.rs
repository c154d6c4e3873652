//! HYB SpMV kernel (Bell & Garland): the ELL kernel on the regular part
//! plus the COO kernel on the overflow part.

use bro_gpu_sim::DeviceSim;
use bro_matrix::{HybMatrix, Scalar};

use crate::common::add_tail;
use crate::coo::{coo_spmv_with, DEFAULT_INTERVAL};
use crate::ell::ell_spmv;

/// Computes `y = A·x` for a HYB matrix on the simulated device.
///
/// Statistics accumulate across both sub-kernels (the COO part resets are
/// suppressed), so a single [`bro_gpu_sim::KernelReport`] covers the whole
/// HYB SpMV.
pub fn hyb_spmv<T: Scalar>(sim: &mut DeviceSim, hyb: &HybMatrix<T>, x: &[T]) -> Vec<T> {
    let y = ell_spmv(sim, hyb.ell(), x);
    add_tail(sim, y, hyb.coo().nnz(), |s| coo_spmv_with(s, hyb.coo(), x, DEFAULT_INTERVAL))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    fn skewed_matrix() -> CooMatrix<f64> {
        // Mostly short rows plus a few heavy ones: a natural HYB case.
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..200usize {
            for j in 0..3 {
                r.push(i);
                c.push((i + j * 17) % 300);
            }
        }
        for j in 0..150usize {
            r.push(7);
            c.push(j * 2 % 300);
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        let v: Vec<f64> = (0..r.len()).map(|i| 1.0 + (i % 5) as f64).collect();
        CooMatrix::from_triplets(200, 300, &r, &c, &v).unwrap()
    }

    #[test]
    fn matches_reference() {
        let coo = skewed_matrix();
        let hyb = HybMatrix::from_coo(&coo);
        assert!(hyb.coo().nnz() > 0, "test matrix must exercise the COO part");
        let x: Vec<f64> = (0..300).map(|i| ((i % 13) as f64) * 0.25).collect();
        let y = hyb_spmv(&mut sim(), &hyb, &x);
        assert_vec_approx_eq(&y, &CsrMatrix::from_coo(&coo).spmv(&x).unwrap(), 1e-9);
    }

    #[test]
    fn stats_cover_both_parts() {
        let coo = skewed_matrix();
        let hyb = HybMatrix::from_coo(&coo);
        let mut s = sim();
        hyb_spmv(&mut s, &hyb, &vec![1.0; 300]);
        // ELL launch + COO main + COO carry reduction.
        assert_eq!(s.launches(), 3);
        assert!(s.stats().atomic_txns > 0);
    }

    #[test]
    fn pure_ell_matrix_skips_coo() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(12);
        let hyb = HybMatrix::from_coo(&coo);
        if hyb.coo().nnz() == 0 {
            let mut s = sim();
            hyb_spmv(&mut s, &hyb, &vec![1.0; 144]);
            assert_eq!(s.launches(), 1);
        }
    }
}
