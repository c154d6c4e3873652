//! BRO-ELL-R SpMV kernel: Algorithm 1 with a per-warp early exit at the
//! warp's longest row (see `bro_core::bro_ellr`). Decode work and symbol
//! loads beyond a warp's own maximum length are skipped entirely; the
//! multiplexed stream is addressed absolutely, so skipping trailing symbols
//! of one warp never perturbs another. The slice routine is BRO-ELL's,
//! given the row lengths.

use bro_bitstream::Symbol;
use bro_core::BroEllR;
use bro_gpu_sim::DeviceSim;
use bro_matrix::Scalar;

use crate::bro_ell::SliceLaunch;

/// Computes `y = A·x` for a BRO-ELL-R matrix on the simulated device.
pub fn bro_ellr_spmv<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bror: &BroEllR<T, W>,
    x: &[T],
) -> Vec<T> {
    assert_eq!(x.len(), bror.cols(), "x length must match matrix columns");
    sim.reset_stats();
    if bror.bro().rows() == 0 {
        return Vec::new();
    }
    let launch = SliceLaunch::alloc(sim, bror.bro(), x, Some(bror.row_lengths()));
    sim.label_next_launch("bro-ellr/slices");
    launch.run(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bro_ell::bro_ell_spmv;
    use bro_core::{BroEll, BroEllConfig};
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    /// Rows with strongly varying lengths inside each slice.
    fn skewed(n: usize) -> CooMatrix<f64> {
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            for j in 0..=(i % 29) {
                r.push(i);
                c.push((j * 5 + i / 7) % 256);
            }
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        CooMatrix::from_triplets(n, 256, &r, &c, &vec![1.0; r.len()]).unwrap()
    }

    #[test]
    fn matches_reference() {
        let coo = skewed(700);
        let bror: BroEllR<f64> = BroEllR::from_coo(&coo, &BroEllConfig::default());
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..256).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let y = bro_ellr_spmv(&mut sim(), &bror, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-10);
    }

    #[test]
    fn agrees_with_bro_ell() {
        let coo = skewed(300);
        let cfg = BroEllConfig { slice_height: 64, ..Default::default() };
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &cfg);
        let bror: BroEllR<f64> = BroEllR::from_coo(&coo, &cfg);
        let x: Vec<f64> = (0..256).map(|i| (i as f64).cos() + 2.0).collect();
        let a = bro_ell_spmv(&mut sim(), &bro, &x);
        let b = bro_ellr_spmv(&mut sim(), &bror, &x);
        assert_vec_approx_eq(&a, &b, 1e-12);
    }

    /// Row lengths uniform within each 32-row warp but varying across
    /// warps — the layout where the per-warp early exit pays off.
    fn warp_blocked(n: usize) -> CooMatrix<f64> {
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            let len = 1 + (i / 32) % 29;
            for j in 0..len {
                r.push(i);
                c.push((j * 5 + i / 7) % 256);
            }
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        CooMatrix::from_triplets(n, 256, &r, &c, &vec![1.0; r.len()]).unwrap()
    }

    #[test]
    fn skips_work_versus_plain_bro_ell() {
        let coo = warp_blocked(2048);
        let cfg = BroEllConfig::default();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &cfg);
        let bror: BroEllR<f64> = BroEllR::from_coo(&coo, &cfg);
        let x = vec![1.0; 256];
        let mut s1 = sim();
        bro_ell_spmv(&mut s1, &bro, &x);
        let mut s2 = sim();
        bro_ellr_spmv(&mut s2, &bror, &x);
        assert!(
            s2.stats().int_ops < s1.stats().int_ops,
            "early exit must cut decode ops: {} vs {}",
            s2.stats().int_ops,
            s1.stats().int_ops
        );
    }

    #[test]
    fn empty_matrix() {
        let bror: BroEllR<f64> =
            BroEllR::from_coo(&CooMatrix::zeros(0, 0), &BroEllConfig::default());
        assert!(bro_ellr_spmv(&mut sim(), &bror, &[]).is_empty());
    }
}
