//! COO SpMV kernel (Bell & Garland), one warp per interval with segmented
//! reduction.
//!
//! The entry arrays are divided into fixed-size intervals; each warp walks
//! its interval in lane-strided steps, multiplies, and segment-reduces
//! partial sums by row. Rows fully contained in an interval are written
//! directly; the first and last (possibly shared) rows of each interval are
//! emitted as carries and folded into `y` by a second, tiny reduction
//! kernel — the "extra kernel invocation for data reduction" the paper
//! mentions.
//!
//! The simulator narrates one warp step at a time: the row and column
//! loads are single spans, and while the value span loads, each lane reads
//! `x` through the texture cache and multiply-adds into its segment.

use bro_gpu_sim::DeviceSim;
use bro_matrix::{CooMatrix, Scalar};

use crate::common::{interval_spmv, Segment};

/// Default entries per warp interval.
pub const DEFAULT_INTERVAL: usize = 256;

/// Computes `y = A·x` for a COO matrix on the simulated device, with the
/// default interval size.
pub fn coo_spmv<T: Scalar>(sim: &mut DeviceSim, coo: &CooMatrix<T>, x: &[T]) -> Vec<T> {
    coo_spmv_with(sim, coo, x, DEFAULT_INTERVAL)
}

/// Computes `y = A·x` for a COO matrix with an explicit interval length
/// (rounded up to a warp multiple).
pub fn coo_spmv_with<T: Scalar>(
    sim: &mut DeviceSim,
    coo: &CooMatrix<T>,
    x: &[T],
    interval_len: usize,
) -> Vec<T> {
    assert_eq!(x.len(), coo.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = coo.rows();
    let nnz = coo.nnz();
    if nnz == 0 {
        return vec![T::ZERO; m];
    }
    let warp = sim.profile().warp_size;
    let ilen = interval_len.div_ceil(warp) * warp;
    let intervals = nnz.div_ceil(ilen);

    let row_buf = sim.alloc(nnz, 4);
    let col_buf = sim.alloc(nnz, 4);
    let val_buf = sim.alloc(nnz, T::BYTES);
    let (rows_arr, cols_arr, vals_arr) = (coo.row_indices(), coo.col_indices(), coo.values());
    let elem = T::BYTES as u64;

    // Main kernel: per-warp segmented products.
    let labels = ["coo/intervals", "coo/carry"];
    interval_spmv(sim, labels, x, m, intervals, warp, |ctx, _: &mut (), sums, iv, x_buf| {
        let start = iv * ilen;
        let len = (nnz - start).min(ilen);
        let mut segment = Segment::begin(rows_arr[start]);
        for step0 in (0..len).step_by(warp) {
            let lanes = (len - step0).min(warp);
            let steps = start + step0..start + step0 + lanes;
            // Three coalesced loads: row, col, val.
            for (buf, bytes) in [(row_buf, 4), (col_buf, 4)] {
                let mut load = ctx.load(bytes);
                load.lanes(buf.addr(steps.start), lanes);
                load.end();
            }
            let mut load = ctx.load(elem);
            load.lanes(val_buf.addr(steps.start), lanes);
            // While the values load, x gathers through the texture cache
            // and the lanes multiply-add into their segments.
            for ((&r, &c), &v) in
                rows_arr[steps.clone()].iter().zip(&cols_arr[steps.clone()]).zip(&vals_arr[steps])
            {
                load.tex_lane(x_buf.addr(c as usize), elem);
                segment.add(sums, r, v, x[c as usize]);
            }
            load.end();
            ctx.flops(2 * lanes as u64);
            // Warp-level segmented reduction: log2(w) shuffle steps.
            ctx.warp_ops(warp.ilog2() as u64 * lanes as u64);
            ctx.int_ops(2 * lanes as u64);
        }
        segment
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::CsrMatrix;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    fn check(coo: &CooMatrix<f64>, interval: usize) {
        let x: Vec<f64> = (0..coo.cols()).map(|i| ((i % 9) as f64) * 0.5 - 2.0).collect();
        let expect = CsrMatrix::from_coo(coo).spmv(&x).unwrap();
        let y = coo_spmv_with(&mut sim(), coo, &x, interval);
        assert_vec_approx_eq(&y, &expect, 1e-9);
    }

    #[test]
    fn matches_reference_various_intervals() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        for interval in [32, 64, 256, 1024, 1 << 16] {
            check(&coo, interval);
        }
    }

    #[test]
    fn rows_spanning_intervals_summed_once() {
        // A single dense row spanning many intervals exercises the carry
        // path hard.
        let n = 4096;
        let rows = vec![0usize; n];
        let cols: Vec<usize> = (0..n).collect();
        let vals = vec![1.0f64; n];
        let coo = CooMatrix::from_triplets(2, n, &rows, &cols, &vals).unwrap();
        let y = coo_spmv_with(&mut sim(), &coo, &vec![1.0; n], 128);
        assert!((y[0] - n as f64).abs() < 1e-9);
    }

    #[test]
    fn two_launches_accounted() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(10);
        let mut s = sim();
        coo_spmv(&mut s, &coo, &vec![1.0; 100]);
        assert_eq!(s.launches(), 2, "main kernel + carry reduction");
        assert!(s.stats().atomic_txns > 0, "carries use atomics");
    }

    #[test]
    fn reads_four_streams() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(10);
        let mut s = sim();
        coo_spmv(&mut s, &coo, &vec![1.0; 100]);
        // row + col + val reads at least; 4 + 4 + 8 bytes per entry lower
        // bound before coalescing granularity.
        assert!(s.stats().global_read_bytes as usize >= coo.nnz() * 16);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::zeros(3, 3);
        assert_eq!(coo_spmv(&mut sim(), &coo, &[1.0; 3]), vec![0.0; 3]);
    }
}
