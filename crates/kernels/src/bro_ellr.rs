//! BRO-ELL-R SpMV kernel: Algorithm 1 with a per-warp early exit at the
//! warp's longest row (see `bro_core::bro_ellr`). Decode work and symbol
//! loads beyond a warp's own maximum length are skipped entirely; the
//! multiplexed stream is addressed absolutely, so skipping trailing symbols
//! of one warp never perturbs another.

use bro_bitstream::Symbol;
use bro_core::BroEllR;
use bro_gpu_sim::{BufferAddr, DeviceSim};
use bro_matrix::Scalar;

use crate::bro_ell::{LaneDecoder, DECODE_OPS_HIT, DECODE_OPS_REFILL};
use crate::common::{assemble_rows, AddrBatch};

/// Computes `y = A·x` for a BRO-ELL-R matrix on the simulated device.
pub fn bro_ellr_spmv<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bror: &BroEllR<T, W>,
    x: &[T],
) -> Vec<T> {
    assert_eq!(x.len(), bror.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let bro = bror.bro();
    let m = bro.rows();
    if m == 0 {
        return Vec::new();
    }
    let h = bro.slice_height();
    let lengths = bror.row_lengths();

    let stream_bufs: Vec<BufferAddr> = bro
        .slices()
        .iter()
        .map(|s| sim.alloc(s.stream.len().max(1), W::BITS as usize / 8))
        .collect();
    let val_bufs: Vec<BufferAddr> =
        bro.slices().iter().map(|s| sim.alloc(s.vals.len().max(1), T::BYTES)).collect();
    let len_buf = sim.alloc(m, 4);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    sim.charge_constant(bro.metadata_bytes() as u64);

    let warp = sim.profile().warp_size;
    sim.label_next_launch("bro-ellr/slices");
    let chunks = sim.launch(bro.slices().len(), h, |b, ctx| {
        let slice = &bro.slices()[b];
        let row0 = b * h;
        let height = slice.height;
        let mut y_local = vec![T::ZERO; height];
        let mut batch = AddrBatch::new();
        let mut val_batch = AddrBatch::new();
        let mut x_batch = AddrBatch::new();
        let mut active: Vec<usize> = Vec::with_capacity(warp);
        let mut decoders: Vec<LaneDecoder<W>> = Vec::with_capacity(warp);
        let mut cols: Vec<i64> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            // Coalesced row_length load for the warp.
            batch.clear();
            for l in 0..lanes {
                batch.push(len_buf, row0 + w0 + l);
            }
            ctx.global_read(batch.addrs(), 4);
            // Early exit: this warp only walks to its own longest row.
            let warp_max = (0..lanes)
                .map(|l| lengths[row0 + w0 + l] as usize)
                .max()
                .unwrap_or(0)
                .min(slice.num_cols);

            decoders.clear();
            decoders.resize_with(lanes, LaneDecoder::new);
            cols.clear();
            cols.resize(lanes, -1);
            for c in 0..warp_max {
                let bits = slice.bit_alloc[c] as u32;
                let refill = bits > decoders[0].buffered();
                if refill {
                    batch.clear();
                    let sym_idx = decoders[0].next_sym();
                    for l in 0..lanes {
                        batch.push(stream_bufs[b], sym_idx * height + (w0 + l));
                    }
                    ctx.global_read(batch.addrs(), W::BITS as u64 / 8);
                    ctx.int_ops((DECODE_OPS_HIT + DECODE_OPS_REFILL) * lanes as u64);
                } else {
                    ctx.int_ops(DECODE_OPS_HIT * lanes as u64);
                }
                val_batch.clear();
                x_batch.clear();
                active.clear();
                for (l, dec) in decoders.iter_mut().enumerate() {
                    let d = dec.read(&slice.stream, height, w0 + l, bits);
                    if d != 0 {
                        cols[l] += d as i64;
                        val_batch.push(val_bufs[b], c * height + (w0 + l));
                        x_batch.push(x_buf, cols[l] as usize);
                        active.push(l);
                    }
                }
                ctx.global_read(val_batch.addrs(), T::BYTES as u64);
                ctx.tex_read(x_batch.addrs());
                ctx.flops(2 * active.len() as u64);
                for &l in &active {
                    let v = slice.vals[c * height + (w0 + l)];
                    y_local[w0 + l] = v.mul_add(x[cols[l] as usize], y_local[w0 + l]);
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
    use crate::bro_ell::bro_ell_spmv;
    use bro_core::{BroEll, BroEllConfig};
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    /// Rows with strongly varying lengths inside each slice.
    fn skewed(n: usize) -> CooMatrix<f64> {
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            for j in 0..=(i % 29) {
                r.push(i);
                c.push((j * 5 + i / 7) % 256);
            }
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        CooMatrix::from_triplets(n, 256, &r, &c, &vec![1.0; r.len()]).unwrap()
    }

    #[test]
    fn matches_reference() {
        let coo = skewed(700);
        let bror: BroEllR<f64> = BroEllR::from_coo(&coo, &BroEllConfig::default());
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..256).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let y = bro_ellr_spmv(&mut sim(), &bror, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-10);
    }

    #[test]
    fn agrees_with_bro_ell() {
        let coo = skewed(300);
        let cfg = BroEllConfig { slice_height: 64, ..Default::default() };
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &cfg);
        let bror: BroEllR<f64> = BroEllR::from_coo(&coo, &cfg);
        let x: Vec<f64> = (0..256).map(|i| (i as f64).cos() + 2.0).collect();
        let a = bro_ell_spmv(&mut sim(), &bro, &x);
        let b = bro_ellr_spmv(&mut sim(), &bror, &x);
        assert_vec_approx_eq(&a, &b, 1e-12);
    }

    /// Row lengths uniform within each 32-row warp but varying across
    /// warps — the layout where the per-warp early exit pays off.
    fn warp_blocked(n: usize) -> CooMatrix<f64> {
        let mut r = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            let len = 1 + (i / 32) % 29;
            for j in 0..len {
                r.push(i);
                c.push((j * 5 + i / 7) % 256);
            }
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        CooMatrix::from_triplets(n, 256, &r, &c, &vec![1.0; r.len()]).unwrap()
    }

    #[test]
    fn skips_work_versus_plain_bro_ell() {
        let coo = warp_blocked(2048);
        let cfg = BroEllConfig::default();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &cfg);
        let bror: BroEllR<f64> = BroEllR::from_coo(&coo, &cfg);
        let x = vec![1.0; 256];
        let mut s1 = sim();
        bro_ell_spmv(&mut s1, &bro, &x);
        let mut s2 = sim();
        bro_ellr_spmv(&mut s2, &bror, &x);
        assert!(
            s2.stats().int_ops < s1.stats().int_ops,
            "early exit must cut decode ops: {} vs {}",
            s2.stats().int_ops,
            s1.stats().int_ops
        );
    }

    #[test]
    fn empty_matrix() {
        let bror: BroEllR<f64> =
            BroEllR::from_coo(&CooMatrix::zeros(0, 0), &BroEllConfig::default());
        assert!(bro_ellr_spmv(&mut sim(), &bror, &[]).is_empty());
    }
}
