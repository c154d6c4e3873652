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

use bro_bitstream::Symbol;
use bro_core::BroCoo;
use bro_gpu_sim::DeviceSim;
use bro_matrix::Scalar;

use crate::bro_ell::LaneDecoder;
use crate::common::{apply_updates, AddrBatch};
use crate::BLOCK_SIZE;

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
    let mut y = vec![T::ZERO; m];
    if nnz == 0 {
        return y;
    }
    let warp = bro.warp_size();
    let intervals = bro.intervals();
    let warps_per_block = (BLOCK_SIZE / warp).max(1);
    let blocks = intervals.len().div_ceil(warps_per_block);

    let stream_bufs: Vec<_> = intervals
        .iter()
        .map(|iv| sim.alloc(iv.stream.len().max(1), W::BITS as usize / 8))
        .collect();
    let col_buf = sim.alloc(nnz, 4);
    let val_buf = sim.alloc(nnz, T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    let carry_buf = sim.alloc(intervals.len() * 2, 4 + T::BYTES);
    // Per-interval bit widths and base rows live in constant memory.
    sim.charge_constant(intervals.len() as u64 * 9);

    let cols_arr = bro.col_indices();
    let vals_arr = bro.values();

    sim.label_next_launch("bro-coo/intervals");
    #[allow(clippy::type_complexity)]
    let per_block: Vec<(Vec<(u32, T)>, Vec<(u32, T)>)> =
        sim.launch(blocks, warps_per_block * warp, |b, ctx| {
            let mut direct: Vec<(u32, T)> = Vec::new();
            let mut carries: Vec<(u32, T)> = Vec::new();
            let mut batch = AddrBatch::new();
            let mut decoders: Vec<LaneDecoder<W>> = Vec::with_capacity(warp);
            let mut rows_decoded: Vec<u32> = Vec::new();
            for wi in 0..warps_per_block {
                let iv_idx = b * warps_per_block + wi;
                let Some(iv) = intervals.get(iv_idx) else { break };
                let steps = iv.len.div_ceil(warp);
                decoders.clear();
                decoders.resize_with(warp, LaneDecoder::new);
                let bw = iv.bit_width as u32;
                let mut acc = iv.base_row as u64;

                // Decode all rows of the interval while accounting step by
                // step, accumulating segment sums.
                rows_decoded.clear();
                for j in 0..steps {
                    let lanes = (iv.len - j * warp).min(warp);
                    // Warp-uniform refill test.
                    if bw > 0 {
                        let refill = bw > decoders[0].buffered();
                        if refill {
                            batch.clear();
                            let sym_idx = decoders[0].next_sym();
                            for l in 0..warp {
                                batch.push(stream_bufs[iv_idx], sym_idx * warp + l);
                            }
                            ctx.global_read(batch.addrs(), W::BITS as u64 / 8);
                        }
                        ctx.int_ops(DECODE_OPS * lanes as u64);
                    }
                    // Decode deltas; lanes beyond the tail packed zeros.
                    for (l, dec) in decoders.iter_mut().enumerate() {
                        let d = if bw == 0 { 0 } else { dec.read(&iv.stream, warp, l, bw) };
                        if j * warp + l < iv.len {
                            acc += d;
                            rows_decoded.push(acc as u32);
                        }
                    }
                    // Warp inclusive scan to distribute absolute rows.
                    ctx.warp_ops(2 * warp.ilog2() as u64 * lanes as u64);

                    // Coalesced col/val loads and x gather.
                    let base = iv.start + j * warp;
                    batch.clear();
                    for l in 0..lanes {
                        batch.push(col_buf, base + l);
                    }
                    ctx.global_read(batch.addrs(), 4);
                    batch.clear();
                    for l in 0..lanes {
                        batch.push(val_buf, base + l);
                    }
                    ctx.global_read(batch.addrs(), T::BYTES as u64);
                    batch.clear();
                    for l in 0..lanes {
                        batch.push(x_buf, cols_arr[base + l] as usize);
                    }
                    ctx.tex_read(batch.addrs());
                    ctx.flops(2 * lanes as u64);
                    // Segmented reduction per step.
                    ctx.warp_ops(warp.ilog2() as u64 * lanes as u64);
                    ctx.int_ops(2 * lanes as u64);
                }

                // Segment sums by decoded row.
                let first_row = rows_decoded[0];
                let last_row = *rows_decoded.last().unwrap();
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
                for (off, &r) in rows_decoded.iter().enumerate() {
                    let p = iv.start + off;
                    if r != seg_row {
                        flush(seg_row, seg_sum, &mut direct, &mut carries);
                        seg_row = r;
                        seg_sum = T::ZERO;
                    }
                    seg_sum = vals_arr[p].mul_add(x[cols_arr[p] as usize], seg_sum);
                }
                flush(seg_row, seg_sum, &mut direct, &mut carries);

                for group in direct.chunks(warp) {
                    batch.clear();
                    for &(r, _) in group {
                        batch.push(y_buf, r as usize);
                    }
                    ctx.global_write(batch.addrs(), T::BYTES as u64);
                }
                batch.clear();
                batch.push(carry_buf, iv_idx * 2);
                batch.push(carry_buf, iv_idx * 2 + 1);
                ctx.global_write(batch.addrs(), (4 + T::BYTES) as u64);
            }
            (direct, carries)
        });

    let mut all_carries: Vec<(u32, T)> = Vec::new();
    for (direct, carries) in per_block {
        apply_updates(&mut y, direct);
        all_carries.extend(carries);
    }

    // Second kernel: fold carries with atomics.
    let carries_ref = &all_carries;
    let warp_copy = sim.profile().warp_size;
    sim.label_next_launch("bro-coo/carry");
    sim.launch(all_carries.len().div_ceil(BLOCK_SIZE).max(1), BLOCK_SIZE, |b, ctx| {
        let start = b * BLOCK_SIZE;
        let end = (start + BLOCK_SIZE).min(carries_ref.len());
        let mut batch = AddrBatch::new();
        for w0 in (start..end).step_by(warp_copy) {
            let lanes = (end - w0).min(warp_copy);
            batch.clear();
            for l in 0..lanes {
                batch.push(carry_buf, w0 + l);
            }
            ctx.global_read(batch.addrs(), (4 + T::BYTES) as u64);
            batch.clear();
            for l in 0..lanes {
                batch.push(y_buf, carries_ref[w0 + l].0 as usize);
            }
            ctx.atomic_rmw(batch.addrs());
            ctx.flops(lanes as u64);
        }
    });
    apply_updates(&mut y, all_carries.iter().copied());
    y
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
