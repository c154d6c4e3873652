//! Sliced-ELLPACK SpMV kernel (Monakov et al.): one block per slice, one
//! thread per slice row, iterating to the slice's own width. Saves the
//! padding traffic of global ELLPACK without any index compression —
//! the non-BRO half of what BRO-ELL's `num_col` array provides.

use bro_gpu_sim::{BufferAddr, DeviceSim};
use bro_matrix::{Scalar, SlicedEllMatrix};

use crate::common::{assemble_rows, Vectors};
use crate::ell::{ell_rows, EllSlots};

/// Computes `y = A·x` for a Sliced-ELLPACK matrix on the simulated device.
/// Each slice is column-major ELLPACK storage of its own width, run by
/// ELLPACK's warp loop.
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
    let xs = [x];
    let vecs = Vectors::alloc(sim, &xs, m);
    // Per-slice widths live in constant memory.
    sim.charge_constant(se.slices().len() as u64 * 4);

    let warp = sim.profile().warp_size;
    sim.label_next_launch("sliced-ell/slices");
    let chunks = sim.launch(se.slices().len(), h, |b, ctx| {
        let slice = &se.slices()[b];
        let slots = EllSlots {
            cols: &slice.col_idx,
            vals: &slice.vals,
            col_buf: col_bufs[b],
            val_buf: val_bufs[b],
            base: 0,
            stride: slice.height,
            width: slice.width,
        };
        ell_rows(ctx, &slots, &vecs, b * h, slice.height, warp)
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
