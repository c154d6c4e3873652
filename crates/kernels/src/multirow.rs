//! Multiple threads per row for BRO-ELL — the paper's future-work item
//! ("assigning multiple threads per row … will be investigated").
//!
//! A row's deltas must be decoded sequentially, so the cooperation happens
//! at **compression time**: each logical row is split round-robin into `t`
//! interleaved sub-rows (sub-row `i` takes entries `i, i+t, i+2t, …`), the
//! reshaped matrix is compressed with ordinary BRO-ELL, and after the main
//! kernel a small reduction kernel sums each group of `t` partial results.
//! Deltas grow roughly `t`-fold (one extra bit or two per index), traded
//! against `t`× more parallelism for short-and-fat matrices.

use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::DeviceSim;
use bro_matrix::{CooMatrix, Scalar};

use crate::bro_ell::bro_ell_spmv;
use crate::BLOCK_SIZE;

/// Reshapes a matrix so each row becomes `t` interleaved sub-rows.
pub fn split_rows<T: Scalar>(coo: &CooMatrix<T>, t: usize) -> CooMatrix<T> {
    assert!(t >= 1);
    let mut rows = Vec::with_capacity(coo.nnz());
    let mut cols = Vec::with_capacity(coo.nnz());
    let mut vals = Vec::with_capacity(coo.nnz());
    for r in 0..coo.rows() as u32 {
        let (cs, vs) = coo.row(r);
        for (j, (&c, &v)) in cs.iter().zip(vs.iter()).enumerate() {
            rows.push((r as usize) * t + (j % t));
            cols.push(c as usize);
            vals.push(v);
        }
    }
    CooMatrix::from_triplets(coo.rows() * t, coo.cols(), &rows, &cols, &vals)
        .expect("sub-rows preserve validity")
}

/// BRO-ELL SpMV with `t` threads cooperating per row.
///
/// Compresses the reshaped matrix internally; for repeated products,
/// compress once with [`split_rows`] + [`BroEll::from_coo`] and call
/// [`bro_ell_spmv`] + [`reduce_subrows`] directly.
pub fn bro_ell_multirow_spmv<T: Scalar>(
    sim: &mut DeviceSim,
    coo: &CooMatrix<T>,
    x: &[T],
    t: usize,
    cfg: &BroEllConfig,
) -> Vec<T> {
    let reshaped = split_rows(coo, t);
    let bro: BroEll<T, u32> = BroEll::from_coo(&reshaped, cfg);
    let y_sub = bro_ell_spmv(sim, &bro, x);
    reduce_subrows(sim, &y_sub, coo.rows(), t)
}

/// The reduction kernel summing each group of `t` sub-row results.
pub fn reduce_subrows<T: Scalar>(
    sim: &mut DeviceSim,
    y_sub: &[T],
    rows: usize,
    t: usize,
) -> Vec<T> {
    assert_eq!(y_sub.len(), rows * t);
    if rows == 0 {
        return Vec::new();
    }
    let sub_buf = sim.alloc(y_sub.len(), T::BYTES);
    let y_buf = sim.alloc(rows, T::BYTES);
    let warp = sim.profile().warp_size;
    let blocks = rows.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("multirow/reduce");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (rows - row0).min(BLOCK_SIZE);
        let mut out = vec![T::ZERO; height];
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            for i in 0..t {
                // Lane l reads partial sum i of its row: stride t.
                let mut load = ctx.load(T::BYTES as u64);
                for l in 0..lanes {
                    load.lane(sub_buf.addr((row0 + w0 + l) * t + i));
                }
                load.end();
                ctx.flops(lanes as u64);
                for l in 0..lanes {
                    out[w0 + l] += y_sub[(row0 + w0 + l) * t + i];
                }
            }
            let mut store = ctx.store(T::BYTES as u64);
            store.lanes(y_buf.addr(row0 + w0), lanes);
            store.end();
        }
        out
    });
    crate::common::assemble_rows(rows, BLOCK_SIZE, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::CsrMatrix;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    #[test]
    fn split_rows_preserves_product() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(8);
        let split = split_rows(&coo, 3);
        assert_eq!(split.rows(), coo.rows() * 3);
        assert_eq!(split.nnz(), coo.nnz());
        let x: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        let y = coo.spmv_reference(&x).unwrap();
        let y_sub = split.spmv_reference(&x).unwrap();
        for r in 0..coo.rows() {
            let sum: f64 = (0..3).map(|i| y_sub[r * 3 + i]).sum();
            assert!((sum - y[r]).abs() < 1e-9);
        }
    }

    #[test]
    fn multirow_matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(16);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..256).map(|i| ((i % 11) as f64) - 5.0).collect();
        for t in [1, 2, 4] {
            let y = bro_ell_multirow_spmv(&mut sim(), &coo, &x, t, &Default::default());
            assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-9);
        }
    }

    #[test]
    fn more_threads_means_more_blocks() {
        // For a short-and-fat matrix, multirow increases parallelism.
        let n = 64usize;
        let wide = 512usize;
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            for j in 0..wide / 2 {
                r.push(i);
                c.push(j * 2 + (i % 2));
            }
        }
        let v = vec![1.0f64; r.len()];
        let coo = CooMatrix::from_triplets(n, wide, &r, &c, &v).unwrap();
        let x = vec![1.0; wide];

        let cfg = BroEllConfig { slice_height: 64, ..Default::default() };
        let mut s1 = sim();
        bro_ell_multirow_spmv(&mut s1, &coo, &x, 1, &cfg);
        let blocks1 = s1.stats().blocks_launched;
        let mut s4 = sim();
        bro_ell_multirow_spmv(&mut s4, &coo, &x, 4, &cfg);
        let blocks4 = s4.stats().blocks_launched;
        assert!(blocks4 > blocks1, "blocks {blocks1} -> {blocks4}");
    }

    #[test]
    fn reduce_subrows_standalone() {
        let y_sub = vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = reduce_subrows(&mut sim(), &y_sub, 3, 2);
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
    }
}
