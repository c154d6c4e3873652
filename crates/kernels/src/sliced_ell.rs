//! Sliced-ELLPACK SpMV kernel (Monakov et al.): one block per slice, one
//! thread per slice row, iterating to the slice's own width. Saves the
//! padding traffic of global ELLPACK without any index compression —
//! the non-BRO half of what BRO-ELL's `num_col` array provides.

use bro_gpu_sim::{BufferAddr, DeviceSim};
use bro_matrix::{Scalar, SlicedEllMatrix, INVALID_INDEX};

use crate::common::{assemble_rows, AddrBatch};

/// Computes `y = A·x` for a Sliced-ELLPACK matrix on the simulated device.
pub fn sliced_ell_spmv<T: Scalar>(sim: &mut DeviceSim, se: &SlicedEllMatrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), se.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = se.rows();
    if m == 0 {
        return Vec::new();
    }
    let h = se.slice_height();
    let col_bufs: Vec<BufferAddr> =
        se.slices().iter().map(|s| sim.alloc(s.col_idx.len().max(1), 4)).collect();
    let val_bufs: Vec<BufferAddr> =
        se.slices().iter().map(|s| sim.alloc(s.vals.len().max(1), T::BYTES)).collect();
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    // Per-slice widths live in constant memory.
    sim.charge_constant(se.slices().len() as u64 * 4);

    let warp = sim.profile().warp_size;
    sim.label_next_launch("sliced-ell/slices");
    let chunks = sim.launch(se.slices().len(), h, |b, ctx| {
        let slice = &se.slices()[b];
        let row0 = b * h;
        let height = slice.height;
        let mut y_local = vec![T::ZERO; height];
        let mut batch = AddrBatch::new();
        let mut val_batch = AddrBatch::new();
        let mut x_batch = AddrBatch::new();
        let mut active: Vec<(usize, u32)> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            for j in 0..slice.width {
                batch.clear();
                for l in 0..lanes {
                    batch.push(col_bufs[b], j * height + w0 + l);
                }
                ctx.global_read(batch.addrs(), 4);
                ctx.int_ops(2 * lanes as u64);

                val_batch.clear();
                x_batch.clear();
                active.clear();
                for l in 0..lanes {
                    let c = slice.col_idx[j * height + w0 + l];
                    if c != INVALID_INDEX {
                        val_batch.push(val_bufs[b], j * height + w0 + l);
                        x_batch.push(x_buf, c as usize);
                        active.push((l, c));
                    }
                }
                ctx.global_read(val_batch.addrs(), T::BYTES as u64);
                ctx.tex_read(x_batch.addrs());
                ctx.flops(2 * active.len() as u64);
                for &(l, c) in &active {
                    let v = slice.vals[j * height + w0 + l];
                    y_local[w0 + l] = v.mul_add(x[c as usize], y_local[w0 + l]);
                }
            }
            batch.clear();
            for l in 0..lanes {
                batch.push(y_buf, row0 + w0 + l);
            }
            ctx.global_write(batch.addrs(), T::BYTES as u64);
        }
        y_local
    });
    assemble_rows(m, h, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::ell_spmv;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix, EllMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    #[test]
    fn matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(25);
        let se = SlicedEllMatrix::from_coo(&coo, 64);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..625).map(|i| ((i % 7) as f64) * 0.4 - 1.0).collect();
        let y = sliced_ell_spmv(&mut sim(), &se, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn beats_global_ellpack_on_varied_row_lengths() {
        // One dense row per 256: global ELLPACK pads everything to the
        // dense width; slicing confines it.
        let n = 1024;
        let wide = 512;
        let mut r: Vec<usize> = (0..n).collect();
        let mut c: Vec<usize> = (0..n).map(|i| i % wide).collect();
        for j in 0..wide {
            if j % 2 == 1 {
                r.push(0);
                c.push(j);
            }
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        let coo = CooMatrix::from_triplets(n, wide, &r, &c, &vec![1.0; r.len()]).unwrap();
        let x = vec![1.0; wide];

        let mut s1 = sim();
        ell_spmv(&mut s1, &EllMatrix::from_coo(&coo), &x);
        let mut s2 = sim();
        sliced_ell_spmv(&mut s2, &SlicedEllMatrix::from_coo(&coo, 256), &x);
        assert!(
            s2.stats().global_read_bytes < s1.stats().global_read_bytes,
            "sliced {} vs global {}",
            s2.stats().global_read_bytes,
            s1.stats().global_read_bytes
        );
    }

    #[test]
    fn partial_last_slice() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(9); // 81 rows
        let se = SlicedEllMatrix::from_coo(&coo, 32);
        let x: Vec<f64> = (0..81).map(|i| i as f64 * 0.1).collect();
        assert_vec_approx_eq(
            &sliced_ell_spmv(&mut sim(), &se, &x),
            &coo.spmv_reference(&x).unwrap(),
            1e-12,
        );
    }
}
