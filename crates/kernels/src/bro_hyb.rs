//! BRO-HYB SpMV kernel: BRO-ELL on the regular part plus BRO-COO on the
//! overflow part (Section 3.3 of the paper).

use bro_bitstream::Symbol;
use bro_core::BroHyb;
use bro_gpu_sim::DeviceSim;
use bro_matrix::Scalar;

use crate::bro_coo::bro_coo_spmv;
use crate::bro_ell::bro_ell_spmv;
use crate::common::add_tail;

/// Computes `y = A·x` for a BRO-HYB matrix on the simulated device.
/// Statistics accumulate across all launches of both parts.
pub fn bro_hyb_spmv<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroHyb<T, W>,
    x: &[T],
) -> Vec<T> {
    let y = bro_ell_spmv(sim, bro.ell(), x);
    add_tail(sim, y, bro.coo().nnz(), |s| bro_coo_spmv(s, bro.coo(), x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyb::hyb_spmv;
    use bro_core::{BroCooConfig, BroEllConfig, BroHybConfig};
    use bro_gpu_sim::{DeviceProfile, KernelReport};
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix, HybMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    fn skewed_matrix() -> CooMatrix<f64> {
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..300usize {
            for j in 0..4 {
                r.push(i);
                c.push((i + j) % 400);
            }
        }
        for j in 0..200usize {
            r.push(13);
            c.push((j * 2 + 40) % 400);
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        let v: Vec<f64> = (0..r.len()).map(|i| 0.5 + (i % 7) as f64).collect();
        CooMatrix::from_triplets(300, 400, &r, &c, &v).unwrap()
    }

    #[test]
    fn matches_reference() {
        let coo = skewed_matrix();
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &BroHybConfig::default());
        let x: Vec<f64> = (0..400).map(|i| ((i % 23) as f64) * 0.125).collect();
        let y = bro_hyb_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &CsrMatrix::from_coo(&coo).spmv(&x).unwrap(), 1e-9);
    }

    #[test]
    fn identical_partition_to_hyb() {
        // The paper partitions HYB and BRO-HYB identically for fairness:
        // verify both pipelines agree on the product with the same split.
        let coo = skewed_matrix();
        let hyb = HybMatrix::from_coo(&coo);
        let bro: BroHyb<f64> = BroHyb::from_coo(
            &coo,
            &BroHybConfig {
                ell: BroEllConfig::default(),
                coo: BroCooConfig::default(),
                split_k: Some(hyb.split_k()),
            },
        );
        assert_eq!(bro.split_k(), hyb.split_k());
        let x: Vec<f64> = (0..400).map(|i| 1.0 + (i % 3) as f64).collect();
        let a = hyb_spmv(&mut sim(), &hyb, &x);
        let b = bro_hyb_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&a, &b, 1e-9);
    }

    #[test]
    fn reads_less_than_hyb() {
        let coo = skewed_matrix();
        let x = vec![1.0; 400];
        let hyb = HybMatrix::from_coo(&coo);
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &BroHybConfig::default());

        let mut s_hyb = sim();
        hyb_spmv(&mut s_hyb, &hyb, &x);
        let mut s_bro = sim();
        bro_hyb_spmv(&mut s_bro, &bro, &x);
        assert!(
            s_bro.stats().global_read_bytes < s_hyb.stats().global_read_bytes,
            "BRO-HYB reads {} vs HYB reads {}",
            s_bro.stats().global_read_bytes,
            s_hyb.stats().global_read_bytes
        );
    }

    #[test]
    fn report_covers_all_launches() {
        let coo = skewed_matrix();
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &BroHybConfig::default());
        let mut s = sim();
        bro_hyb_spmv(&mut s, &bro, &vec![1.0; 400]);
        assert_eq!(s.launches(), 3, "BRO-ELL + BRO-COO main + carry");
        let r = KernelReport::from_device(&s, 2 * bro.nnz() as u64, 8);
        assert!(r.gflops > 0.0);
    }
}
