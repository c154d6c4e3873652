//! CSR SpMV kernels (Bell & Garland; Baskaran & Bordawekar).
//!
//! * **csr-scalar** — one thread per row. Each thread walks its row
//!   sequentially, so a warp's lanes read *different* positions of the
//!   `col_idx`/`vals` arrays each step: the canonical example of an
//!   *uncoalesced* access pattern, which is why ELLPACK-style formats exist.
//! * **csr-vector** — one warp per row, lanes striding the row together.
//!   Accesses within a warp are contiguous (coalesced up to row-start
//!   misalignment), then a log₂(w) reduction combines the partial sums.
//!   Wins for long rows, wastes lanes on short ones.
//!
//! Neither is evaluated in the paper's figures, but they complete the
//! baseline family and let the autotuner reason about CSR-shaped workloads.

use bro_gpu_sim::DeviceSim;
use bro_matrix::{CsrMatrix, Scalar};

use crate::common::{assemble_rows, AddrBatch};
use crate::BLOCK_SIZE;

/// csr-scalar: one thread per row.
pub fn csr_scalar_spmv<T: Scalar>(sim: &mut DeviceSim, csr: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), csr.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = csr.rows();
    if m == 0 {
        return Vec::new();
    }
    let ptr_buf = sim.alloc(m + 1, 8);
    let col_buf = sim.alloc(csr.nnz().max(1), 4);
    let val_buf = sim.alloc(csr.nnz().max(1), T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("csr-scalar/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![T::ZERO; height];
        let mut batch = AddrBatch::new();
        let mut col_batch = AddrBatch::new();
        let mut val_batch = AddrBatch::new();
        let mut x_batch = AddrBatch::new();
        let mut active: Vec<usize> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            // Row-pointer loads (coalesced).
            batch.clear();
            for l in 0..lanes {
                batch.push(ptr_buf, row0 + w0 + l);
            }
            ctx.global_read(batch.addrs(), 8);
            batch.clear();
            for l in 0..lanes {
                batch.push(ptr_buf, row0 + w0 + l + 1);
            }
            ctx.global_read(batch.addrs(), 8);

            // The warp steps until its longest row is done; in each step
            // every active lane reads position `start + j` of ITS OWN row —
            // scattered addresses, hence poor coalescing.
            let warp_max = (0..lanes).map(|l| csr.row_len(row0 + w0 + l)).max().unwrap_or(0);
            for j in 0..warp_max {
                col_batch.clear();
                val_batch.clear();
                x_batch.clear();
                active.clear();
                for l in 0..lanes {
                    let r = row0 + w0 + l;
                    if j < csr.row_len(r) {
                        let p = csr.row_ptr()[r] + j;
                        col_batch.push(col_buf, p);
                        val_batch.push(val_buf, p);
                        x_batch.push(x_buf, csr.col_indices()[p] as usize);
                        active.push(l);
                    }
                }
                ctx.global_read(col_batch.addrs(), 4);
                ctx.global_read(val_batch.addrs(), T::BYTES as u64);
                ctx.tex_read(x_batch.addrs());
                ctx.flops(2 * active.len() as u64);
                ctx.int_ops(2 * active.len() as u64);
                for &l in &active {
                    let r = row0 + w0 + l;
                    let p = csr.row_ptr()[r] + j;
                    let c = csr.col_indices()[p] as usize;
                    y_local[w0 + l] = csr.values()[p].mul_add(x[c], y_local[w0 + l]);
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
    assemble_rows(m, BLOCK_SIZE, chunks)
}

/// csr-vector: one warp per row, warp-strided access plus a log₂(w)
/// shuffle reduction.
pub fn csr_vector_spmv<T: Scalar>(sim: &mut DeviceSim, csr: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), csr.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = csr.rows();
    if m == 0 {
        return Vec::new();
    }
    let ptr_buf = sim.alloc(m + 1, 8);
    let col_buf = sim.alloc(csr.nnz().max(1), 4);
    let val_buf = sim.alloc(csr.nnz().max(1), T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);

    let warp = sim.profile().warp_size;
    let warps_per_block = BLOCK_SIZE / warp;
    let blocks = m.div_ceil(warps_per_block);
    sim.label_next_launch("csr-vector/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * warps_per_block;
        let height = (m - row0).min(warps_per_block);
        let mut y_local = vec![T::ZERO; height];
        let mut batch = AddrBatch::new();
        for (i, y_out) in y_local.iter_mut().enumerate() {
            let r = row0 + i;
            // Two lanes read the row bounds.
            ctx.global_read(&[ptr_buf.addr(r), ptr_buf.addr(r + 1)], 8);
            let (start, end) = (csr.row_ptr()[r], csr.row_ptr()[r + 1]);
            let mut sum = T::ZERO;
            for chunk0 in (start..end).step_by(warp) {
                let lanes = (end - chunk0).min(warp);
                batch.clear();
                for l in 0..lanes {
                    batch.push(col_buf, chunk0 + l);
                }
                ctx.global_read(batch.addrs(), 4);
                batch.clear();
                for l in 0..lanes {
                    batch.push(val_buf, chunk0 + l);
                }
                ctx.global_read(batch.addrs(), T::BYTES as u64);
                batch.clear();
                for l in 0..lanes {
                    batch.push(x_buf, csr.col_indices()[chunk0 + l] as usize);
                }
                ctx.tex_read(batch.addrs());
                ctx.flops(2 * lanes as u64);
                for l in 0..lanes {
                    let p = chunk0 + l;
                    sum = csr.values()[p].mul_add(x[csr.col_indices()[p] as usize], sum);
                }
            }
            // Warp shuffle reduction of the partial sums.
            ctx.warp_ops(warp.ilog2() as u64 * warp as u64);
            // Lane 0 writes the result.
            ctx.global_write(&[y_buf.addr(r)], T::BYTES as u64);
            *y_out = sum;
        }
        y_local
    });
    assemble_rows(m, warps_per_block, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::ell_spmv;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, EllMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    #[test]
    fn scalar_matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..400).map(|i| (i as f64) * 0.01 - 2.0).collect();
        let y = csr_scalar_spmv(&mut sim(), &csr, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn vector_matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..400).map(|i| ((i % 13) as f64) + 0.5).collect();
        let y = csr_vector_spmv(&mut sim(), &csr, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-10);
    }

    #[test]
    fn scalar_kernel_is_uncoalesced_versus_ellpack() {
        // For identical work, csr-scalar must issue more read transactions
        // per index byte than the column-major ELLPACK kernel.
        let coo = bro_matrix::generate::laplacian_2d::<f64>(40);
        let csr = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_coo(&coo);
        let x = vec![1.0; coo.cols()];

        let mut s1 = sim();
        csr_scalar_spmv(&mut s1, &csr, &x);
        let mut s2 = sim();
        ell_spmv(&mut s2, &ell, &x);
        assert!(
            s1.stats().global_read_txns > s2.stats().global_read_txns,
            "csr-scalar {} txns vs ellpack {}",
            s1.stats().global_read_txns,
            s2.stats().global_read_txns
        );
    }

    #[test]
    fn vector_kernel_wins_on_long_rows() {
        // A few very long rows: csr-vector reads coalesced, csr-scalar
        // serializes a single lane per row.
        let n = 64;
        let wide = 2048;
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            for j in 0..wide / 2 {
                r.push(i);
                c.push(j * 2);
            }
        }
        let coo = CooMatrix::from_triplets(n, wide, &r, &c, &vec![1.0; r.len()]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let x = vec![1.0; wide];
        let mut s1 = sim();
        csr_scalar_spmv(&mut s1, &csr, &x);
        let mut s2 = sim();
        csr_vector_spmv(&mut s2, &csr, &x);
        assert!(
            s2.stats().global_read_txns < s1.stats().global_read_txns,
            "vector {} vs scalar {}",
            s2.stats().global_read_txns,
            s1.stats().global_read_txns
        );
    }

    #[test]
    fn empty_and_irregular_rows() {
        let coo = CooMatrix::from_triplets(5, 8, &[0, 0, 3], &[1, 7, 4], &[1.0, 2.0, 3.0]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let x = vec![1.0; 8];
        let expect = csr.spmv(&x).unwrap();
        assert_eq!(csr_scalar_spmv(&mut sim(), &csr, &x), expect);
        assert_eq!(csr_vector_spmv(&mut sim(), &csr, &x), expect);
    }
}
