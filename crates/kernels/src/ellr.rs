//! ELLPACK-R SpMV kernel (Vázquez et al.), one thread per row.
//!
//! Identical layout to the ELLPACK kernel, but the explicit `row_length`
//! array lets every thread stop at its own row length: the inner loop runs
//! only while *some* lane of the warp is still active, and each memory
//! instruction carries only the still-active lanes. No padding test is
//! needed inside the loop.
//!
//! The simulator narrates one warp at a time, as for ELLPACK: each run of
//! still-active lanes is one span of the index load, and one span of the
//! value load during which those lanes read `x` and multiply-add.

use bro_gpu_sim::DeviceSim;
use bro_matrix::{EllRMatrix, Scalar};

use crate::common::{assemble_rows, LaneRun};
use crate::BLOCK_SIZE;

/// Computes `y = A·x` for an ELLPACK-R matrix on the simulated device.
pub fn ellr_spmv<T: Scalar>(sim: &mut DeviceSim, ellr: &EllRMatrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), ellr.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let ell = ellr.ell();
    let m = ell.rows();
    if m == 0 {
        return Vec::new();
    }
    let k = ell.width();
    let stride = ell.stride();
    let col_buf = sim.alloc(stride * k, 4);
    let val_buf = sim.alloc(stride * k, T::BYTES);
    let len_buf = sim.alloc(m, 4);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);

    let lengths = ellr.row_lengths();
    let (cols, vals) = (ell.col_idx_raw(), ell.vals_raw());
    let elem = T::BYTES as u64;

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("ellr/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![T::ZERO; height];
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            let lens = &lengths[row0 + w0..row0 + w0 + lanes];
            let y_warp = &mut y_local[w0..w0 + lanes];
            // Coalesced row_length load.
            let mut load = ctx.load(4);
            load.lanes(len_buf.addr(row0 + w0), lanes);
            load.end();
            // The warp iterates to the longest row among its lanes.
            let warp_max = lens.iter().max().copied().unwrap_or(0) as usize;
            for j in 0..warp_max {
                // The lanes still inside their rows load their index, ...
                let first = j * stride + row0 + w0;
                let mut load = ctx.load(4);
                let mut run = LaneRun::new(col_buf);
                for (i, &len) in (first..).zip(lens) {
                    if j < len as usize {
                        run.lane(i);
                    } else {
                        run.end(&mut load);
                    }
                }
                run.end(&mut load);
                load.end();
                // ... then load their value, read x and multiply-add.
                let mut load = ctx.load(elem);
                let mut run = LaneRun::new(val_buf);
                let mut active = 0;
                for ((i, &len), y) in (first..).zip(lens).zip(y_warp.iter_mut()) {
                    if j < len as usize {
                        run.lane(i);
                        let c = cols[i] as usize;
                        load.tex_lane(x_buf.addr(c), elem);
                        *y = vals[i].mul_add(x[c], *y);
                        active += 1;
                    } else {
                        run.end(&mut load);
                    }
                }
                run.end(&mut load);
                load.end();
                // Loop bookkeeping only — no padding test.
                ctx.int_ops(active);
                ctx.flops(2 * active);
            }
            let mut store = ctx.store(elem);
            store.lanes(y_buf.addr(row0 + w0), lanes);
            store.end();
        }
        y_local
    });
    assemble_rows(m, BLOCK_SIZE, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::ell_spmv;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix, EllMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    #[test]
    fn matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(25);
        let ellr = EllRMatrix::from_coo(&coo);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..625).map(|i| ((i % 11) as f64) * 0.3 - 1.0).collect();
        let y = ellr_spmv(&mut sim(), &ellr, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn skips_padding_work_versus_ellpack() {
        // One long row forces heavy padding; ELLPACK-R should read fewer
        // bytes and execute fewer flop-slots than ELLPACK.
        let mut r = vec![0usize; 64];
        let mut c: Vec<usize> = (0..64).collect();
        for i in 1..256usize {
            r.push(i);
            c.push(i % 64);
        }
        let v = vec![1.0; r.len()];
        let coo = CooMatrix::from_triplets(256, 64, &r, &c, &v).unwrap();
        let x = vec![1.0; 64];

        let mut s_ell = sim();
        ell_spmv(&mut s_ell, &EllMatrix::from_coo(&coo), &x);
        let mut s_ellr = sim();
        ellr_spmv(&mut s_ellr, &EllRMatrix::from_coo(&coo), &x);
        assert!(s_ellr.stats().global_read_bytes < s_ell.stats().global_read_bytes);
    }

    #[test]
    fn agrees_with_ellpack_kernel() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(17);
        let x: Vec<f64> = (0..289).map(|i| (i as f64).sin()).collect();
        let a = ell_spmv(&mut sim(), &EllMatrix::from_coo(&coo), &x);
        let b = ellr_spmv(&mut sim(), &EllRMatrix::from_coo(&coo), &x);
        assert_vec_approx_eq(&a, &b, 1e-12);
    }

    #[test]
    fn empty_rows_ok() {
        let coo = CooMatrix::from_triplets(5, 5, &[2], &[3], &[7.0]).unwrap();
        let y = ellr_spmv(&mut sim(), &EllRMatrix::from_coo(&coo), &[1.0; 5]);
        assert_eq!(y, vec![0.0, 0.0, 7.0, 0.0, 0.0]);
    }
}
