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

use crate::common::apply_updates;
use crate::BLOCK_SIZE;

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
    let mut y = vec![T::ZERO; m];
    if nnz == 0 {
        return y;
    }
    let warp = sim.profile().warp_size;
    let ilen = interval_len.div_ceil(warp) * warp;
    let intervals = nnz.div_ceil(ilen);
    let warps_per_block = BLOCK_SIZE / warp;
    let blocks = intervals.div_ceil(warps_per_block);

    let row_buf = sim.alloc(nnz, 4);
    let col_buf = sim.alloc(nnz, 4);
    let val_buf = sim.alloc(nnz, T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    // Two carries (row, value) per interval.
    let carry_buf = sim.alloc(intervals * 2, 4 + T::BYTES);

    let rows_arr = coo.row_indices();
    let cols_arr = coo.col_indices();
    let vals_arr = coo.values();
    let elem = T::BYTES as u64;

    // Main kernel: per-warp segmented products.
    sim.label_next_launch("coo/intervals");
    #[allow(clippy::type_complexity)]
    let per_block: Vec<(Vec<(u32, T)>, Vec<(u32, T)>)> =
        sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
            let mut direct: Vec<(u32, T)> = Vec::new();
            let mut carries: Vec<(u32, T)> = Vec::new();
            for wi in 0..warps_per_block {
                let iv = b * warps_per_block + wi;
                if iv >= intervals {
                    break;
                }
                let start = iv * ilen;
                let len = (nnz - start).min(ilen);
                let first_row = rows_arr[start];
                let last_row = rows_arr[start + len - 1];

                // Segmented accumulation, walking entries in order.
                let mut seg_row = first_row;
                let mut seg_sum = T::ZERO;
                let flush =
                    |row: u32, sum: T, direct: &mut Vec<(u32, T)>, carries: &mut Vec<(u32, T)>| {
                        if row == first_row || row == last_row {
                            carries.push((row, sum));
                        } else {
                            direct.push((row, sum));
                        }
                    };
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
                    // While the values load, x gathers through the texture
                    // cache and the lanes multiply-add into their segments.
                    for ((&r, &c), &v) in rows_arr[steps.clone()]
                        .iter()
                        .zip(&cols_arr[steps.clone()])
                        .zip(&vals_arr[steps])
                    {
                        load.tex_lane(x_buf.addr(c as usize), elem);
                        if r != seg_row {
                            flush(seg_row, seg_sum, &mut direct, &mut carries);
                            seg_row = r;
                            seg_sum = T::ZERO;
                        }
                        seg_sum = v.mul_add(x[c as usize], seg_sum);
                    }
                    load.end();
                    ctx.flops(2 * lanes as u64);
                    // Warp-level segmented reduction: log2(w) shuffle steps.
                    ctx.warp_ops(warp.ilog2() as u64 * lanes as u64);
                    ctx.int_ops(2 * lanes as u64);
                }
                flush(seg_row, seg_sum, &mut direct, &mut carries);
                // Direct writes: scattered stores grouped per warp. `direct`
                // holds the block's earlier intervals too, so their stores
                // are charged again; the golden counts include this.
                for group in direct.chunks(warp) {
                    let mut store = ctx.store(elem);
                    for &(r, _) in group {
                        store.lane(y_buf.addr(r as usize));
                    }
                    store.end();
                }
                // Carries: coalesced append to the carry buffer.
                let mut store = ctx.store(4 + elem);
                store.lanes(carry_buf.addr(iv * 2), 2);
                store.end();
            }
            (direct, carries)
        });

    let mut all_carries: Vec<(u32, T)> = Vec::new();
    for (direct, carries) in per_block {
        apply_updates(&mut y, direct);
        all_carries.extend(carries);
    }

    // Second kernel: fold carries into y with atomics.
    let carries_ref = &all_carries;
    let warp_copy = warp;
    sim.label_next_launch("coo/carry");
    sim.launch(all_carries.len().div_ceil(BLOCK_SIZE).max(1), BLOCK_SIZE, |b, ctx| {
        let start = b * BLOCK_SIZE;
        let end = (start + BLOCK_SIZE).min(carries_ref.len());
        let mut atomics = Vec::with_capacity(warp_copy);
        for w0 in (start..end).step_by(warp_copy) {
            let lanes = (end - w0).min(warp_copy);
            let mut load = ctx.load(4 + elem);
            load.lanes(carry_buf.addr(w0), lanes);
            load.end();
            atomics.clear();
            atomics
                .extend(carries_ref[w0..w0 + lanes].iter().map(|&(r, _)| y_buf.addr(r as usize)));
            ctx.atomic_rmw(&atomics);
            ctx.flops(lanes as u64);
        }
    });
    apply_updates(&mut y, all_carries.iter().copied());
    y
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
