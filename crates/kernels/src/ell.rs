//! ELLPACK SpMV kernel (Bell & Garland), one thread per row.
//!
//! The 2D arrays are column-major over the full matrix, so a warp reading
//! slot `j` of 32 consecutive rows touches consecutive addresses — a fully
//! coalesced access. Every thread iterates over all `k` slots and tests the
//! padding marker, which is exactly the redundant work ELLPACK-R and the
//! `num_col` array of BRO-ELL remove.

use bro_gpu_sim::DeviceSim;
use bro_matrix::{EllMatrix, Scalar, INVALID_INDEX};

use crate::common::{assemble_rows, AddrBatch};
use crate::BLOCK_SIZE;

/// Computes `y = A·x` for an ELLPACK matrix on the simulated device.
pub fn ell_spmv<T: Scalar>(sim: &mut DeviceSim, ell: &EllMatrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), ell.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = ell.rows();
    if m == 0 {
        return Vec::new();
    }
    let k = ell.width();
    let stride = ell.stride();
    let col_buf = sim.alloc(stride * k, 4);
    let val_buf = sim.alloc(stride * k, T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("ell/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![T::ZERO; height];
        let mut batch = AddrBatch::new();
        let mut val_batch = AddrBatch::new();
        let mut x_batch = AddrBatch::new();
        let mut active: Vec<(usize, u32)> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            for j in 0..k {
                // Coalesced column-index load for the warp.
                batch.clear();
                for l in 0..lanes {
                    batch.push(col_buf, j * stride + row0 + w0 + l);
                }
                ctx.global_read(batch.addrs(), 4);
                // Padding test per lane.
                ctx.int_ops(2 * lanes as u64);

                // Gather the active (non-padding) lanes.
                val_batch.clear();
                x_batch.clear();
                active.clear();
                for l in 0..lanes {
                    let r = row0 + w0 + l;
                    let c = ell.col_at(r, j);
                    if c != INVALID_INDEX {
                        val_batch.push(val_buf, j * stride + r);
                        x_batch.push(x_buf, c as usize);
                        active.push((l, c));
                    }
                }
                ctx.global_read(val_batch.addrs(), T::BYTES as u64);
                ctx.tex_read(x_batch.addrs());
                ctx.flops(2 * active.len() as u64);
                for &(l, c) in &active {
                    let r = row0 + w0 + l;
                    y_local[w0 + l] = ell.val_at(r, j).mul_add(x[c as usize], y_local[w0 + l]);
                }
            }
            // Coalesced store of the warp's results.
            batch.clear();
            for l in 0..lanes {
                batch.push(y_buf, row0 + w0 + l);
            }
            ctx.global_write(batch.addrs(), T::BYTES as u64);
        }
        y_local
    });
    assemble_rows(m, BLOCK_SIZE, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::{DeviceProfile, KernelReport};
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    #[test]
    fn matches_reference_on_paper_example() {
        let coo = CooMatrix::from_triplets(
            4,
            5,
            &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
            &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
        )
        .unwrap();
        let ell = EllMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..5).map(|i| i as f64 + 0.5).collect();
        let y = ell_spmv(&mut sim(), &ell, &x);
        assert_eq!(y, coo.spmv_reference(&x).unwrap());
    }

    #[test]
    fn matches_reference_on_laplacian() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(30);
        let ell = EllMatrix::from_coo(&coo);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..900).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let y = ell_spmv(&mut sim(), &ell, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn traffic_scales_with_padding() {
        // Same nnz, one matrix needs heavy padding: its kernel must read
        // more index bytes.
        let mk = |lens: &[usize]| {
            let mut r = Vec::new();
            let mut c = Vec::new();
            for (i, &l) in lens.iter().enumerate() {
                for j in 0..l {
                    r.push(i);
                    c.push(j);
                }
            }
            let v = vec![1.0; r.len()];
            CooMatrix::from_triplets(lens.len(), 64, &r, &c, &v).unwrap()
        };
        let uniform = mk(&[8; 64]); // 512 nnz, k = 8
        let skewed = mk(&{
            let mut l = vec![7usize; 63]; // 441 nnz
            l.push(64); // one dense row forces k = 64
            l
        });
        let x = vec![1.0; 64];

        let mut s1 = sim();
        ell_spmv(&mut s1, &EllMatrix::from_coo(&uniform), &x);
        let mut s2 = sim();
        ell_spmv(&mut s2, &EllMatrix::from_coo(&skewed), &x);
        assert!(
            s2.stats().global_read_bytes > s1.stats().global_read_bytes,
            "padding must cost traffic: {} vs {}",
            s2.stats().global_read_bytes,
            s1.stats().global_read_bytes
        );
    }

    #[test]
    fn report_has_positive_gflops() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let ell = EllMatrix::from_coo(&coo);
        let mut s = sim();
        let x = vec![1.0; 400];
        ell_spmv(&mut s, &ell, &x);
        let r = KernelReport::from_device(&s, 2 * ell.nnz() as u64, 8);
        assert!(r.gflops > 0.0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn empty_matrix_returns_empty() {
        let ell = EllMatrix::from_coo(&CooMatrix::<f64>::zeros(0, 0));
        assert!(ell_spmv(&mut sim(), &ell, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let ell = EllMatrix::from_coo(&CooMatrix::<f64>::zeros(2, 3));
        ell_spmv(&mut sim(), &ell, &[1.0, 2.0]);
    }
}
