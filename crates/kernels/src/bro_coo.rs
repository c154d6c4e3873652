//! BRO-COO SpMV kernel (Section 3.2 of the paper).
//!
//! One warp per interval. Each step decodes 32 row-index deltas (single
//! interval-wide bit width, so the refill test is warp-uniform, as in
//! BRO-ELL), then runs a warp-level inclusive **scan** to recover absolute
//! row indices from the deltas, multiplies against the uncompressed
//! column/value arrays, and segment-reduces by row. As in the plain COO
//! kernel, boundary rows are folded in by a second reduction kernel. The
//! scan plus the extra kernel are why the paper expects (and gets) smaller
//! speedups from BRO-COO than from BRO-ELL.

use bro_bitstream::{Symbol, WarpDecoder};
use bro_core::BroCoo;
use bro_gpu_sim::DeviceSim;
use bro_matrix::Scalar;

use crate::common::{interval_spmv, Segment};

/// Integer ops per lane and step for delta decode.
const DECODE_OPS: u64 = 5;

/// Computes `y = A·x` for a BRO-COO matrix on the simulated device.
pub fn bro_coo_spmv<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroCoo<T, W>,
    x: &[T],
) -> Vec<T> {
    assert_eq!(x.len(), bro.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = bro.rows();
    let nnz = bro.nnz();
    if nnz == 0 {
        return vec![T::ZERO; m];
    }
    let warp = bro.warp_size();
    let intervals = bro.intervals();
    let stream_bufs: Vec<_> = intervals
        .iter()
        .map(|iv| sim.alloc(iv.stream.len().max(1), W::BITS as usize / 8))
        .collect();
    let col_buf = sim.alloc(nnz, 4);
    let val_buf = sim.alloc(nnz, T::BYTES);
    // Per-interval bit widths and base rows live in constant memory.
    sim.charge_constant(intervals.len() as u64 * 9);
    let (cols_arr, vals_arr) = (bro.col_indices(), bro.values());
    let elem = T::BYTES as u64;

    let labels = ["bro-coo/intervals", "bro-coo/carry"];
    interval_spmv(sim, labels, x, m, intervals.len(), warp, |ctx, scratch, sums, i, x_buf| {
        let (dec, rows_decoded): &mut (WarpDecoder<W>, Vec<u32>) = scratch;
        let iv = &intervals[i];
        dec.reset(warp);
        let bw = iv.bit_width as u32;
        let mut acc = iv.base_row as u64;

        // Decode all rows of the interval while accounting step by step.
        rows_decoded.clear();
        for j in 0..iv.len.div_ceil(warp) {
            let lanes = (iv.len - j * warp).min(warp);
            // Warp-uniform refill: one coalesced load of a stream row.
            if let Some(sym) = dec.decode(&iv.stream, warp, 0, bw) {
                let mut load = ctx.load(W::BITS as u64 / 8);
                load.lanes(stream_bufs[i].addr(sym * warp), warp);
                load.end();
            }
            if bw > 0 {
                ctx.int_ops(DECODE_OPS * lanes as u64);
            }
            // Lanes past the interval's tail decode packing zeros.
            for &d in &dec.deltas()[..lanes] {
                acc += d;
                rows_decoded.push(acc as u32);
            }
            // Warp inclusive scan to distribute absolute rows.
            ctx.warp_ops(2 * warp.ilog2() as u64 * lanes as u64);

            // Coalesced col/val loads and x gather.
            let base = iv.start + j * warp;
            let mut load = ctx.load(4);
            load.lanes(col_buf.addr(base), lanes);
            load.end();
            let mut vals = ctx.load(elem);
            vals.lanes(val_buf.addr(base), lanes);
            for &col in &cols_arr[base..base + lanes] {
                vals.tex_lane(x_buf.addr(col as usize), elem);
            }
            vals.end();
            ctx.flops(2 * lanes as u64);
            // Segmented reduction per step.
            ctx.warp_ops(warp.ilog2() as u64 * lanes as u64);
            ctx.int_ops(2 * lanes as u64);
        }

        // Segment sums by decoded row.
        let mut segment = Segment::begin(rows_decoded[0]);
        for (&r, p) in rows_decoded.iter().zip(iv.start..) {
            segment.add(sums, r, vals_arr[p], x[cols_arr[p] as usize]);
        }
        segment
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::coo_spmv;
    use bro_core::BroCooConfig;
    use bro_gpu_sim::{DeviceProfile, KernelReport};
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    #[test]
    fn matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(30);
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        let x: Vec<f64> = (0..900).map(|i| ((i % 17) as f64) * 0.2 - 1.0).collect();
        let y = bro_coo_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &CsrMatrix::from_coo(&coo).spmv(&x).unwrap(), 1e-9);
    }

    #[test]
    fn matches_reference_small_intervals() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(12);
        let cfg = BroCooConfig { interval_len: 64, warp_size: 32 };
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &cfg);
        let x: Vec<f64> = (0..144).map(|i| i as f64 * 0.01 + 1.0).collect();
        let y = bro_coo_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &coo.spmv_reference(&x).unwrap(), 1e-9);
    }

    #[test]
    fn dense_row_spanning_intervals() {
        let n = 2048;
        let rows = vec![5usize; n];
        let cols: Vec<usize> = (0..n).collect();
        let coo = CooMatrix::from_triplets(10, n, &rows, &cols, &vec![0.5; n]).unwrap();
        let cfg = BroCooConfig { interval_len: 128, warp_size: 32 };
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &cfg);
        let y = bro_coo_spmv(&mut sim(), &bro, &vec![2.0; n]);
        assert!((y[5] - n as f64).abs() < 1e-9);
    }

    #[test]
    fn reads_fewer_row_index_bytes_than_coo() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(50);
        let x = vec![1.0; 2500];

        let mut s_coo = sim();
        coo_spmv(&mut s_coo, &coo, &x);
        let mut s_bro = sim();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        bro_coo_spmv(&mut s_bro, &bro, &x);
        assert!(
            s_bro.stats().global_read_bytes < s_coo.stats().global_read_bytes,
            "BRO-COO reads {} vs COO reads {}",
            s_bro.stats().global_read_bytes,
            s_coo.stats().global_read_bytes
        );
    }

    #[test]
    fn scan_overhead_is_charged() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let mut s_bro = sim();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        bro_coo_spmv(&mut s_bro, &bro, &vec![1.0; 400]);
        let mut s_coo = sim();
        coo_spmv(&mut s_coo, &coo, &vec![1.0; 400]);
        assert!(
            s_bro.stats().warp_ops > s_coo.stats().warp_ops,
            "the decode scan must cost extra warp ops"
        );
    }

    #[test]
    fn report_after_two_launches() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(15);
        let mut s = sim();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        bro_coo_spmv(&mut s, &bro, &vec![1.0; 225]);
        assert_eq!(s.launches(), 2);
        let r = KernelReport::from_device(&s, 2 * coo.nnz() as u64, 8);
        assert!(r.time_s > 0.0);
    }

    #[test]
    fn empty_matrix() {
        let bro: BroCoo<f64> = BroCoo::compress(&CooMatrix::zeros(4, 4), &BroCooConfig::default());
        assert_eq!(bro_coo_spmv(&mut sim(), &bro, &[1.0; 4]), vec![0.0; 4]);
    }
}
