//! Block SpMV (SpMM): `Y = A·X` for a block of `k` input vectors — the
//! inner operation of block-Krylov solvers and multiple-right-hand-side
//! problems.
//!
//! For compression this is an honest stress test rather than a showcase:
//! the index stream (which BRO shrinks) is read **once** per block while
//! value traffic and x gathers scale with `k`, so BRO's relative advantage
//! *decreases* as the block widens. The `repro spmm` experiment quantifies
//! the decay.

use bro_bitstream::Symbol;
use bro_core::BroEll;
use bro_gpu_sim::{BufferAddr, DeviceSim};
use bro_matrix::{EllMatrix, Scalar, INVALID_INDEX};

use crate::bro_ell::{LaneDecoder, DECODE_OPS_HIT, DECODE_OPS_REFILL};
use crate::common::AddrBatch;
use crate::BLOCK_SIZE;

fn check_block<T: Scalar>(cols: usize, xs: &[Vec<T>]) {
    assert!(!xs.is_empty(), "SpMM needs at least one input vector");
    for (i, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), cols, "input vector {i} has the wrong length");
    }
}

/// ELLPACK SpMM: `Y[j] = A·X[j]` for every vector in the block.
pub fn ell_spmm<T: Scalar>(sim: &mut DeviceSim, ell: &EllMatrix<T>, xs: &[Vec<T>]) -> Vec<Vec<T>> {
    check_block(ell.cols(), xs);
    sim.reset_stats();
    let m = ell.rows();
    let kvecs = xs.len();
    if m == 0 {
        return vec![Vec::new(); kvecs];
    }
    let k = ell.width();
    let stride = ell.stride();
    let col_buf = sim.alloc(stride * k, 4);
    let val_buf = sim.alloc(stride * k, T::BYTES);
    let x_bufs: Vec<BufferAddr> = xs.iter().map(|x| sim.alloc(x.len().max(1), T::BYTES)).collect();
    let y_bufs: Vec<BufferAddr> = (0..kvecs).map(|_| sim.alloc(m, T::BYTES)).collect();

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("ell-spmm/rows");
    let chunks: Vec<Vec<Vec<T>>> = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![vec![T::ZERO; height]; kvecs];
        let mut batch = AddrBatch::new();
        let mut val_batch = AddrBatch::new();
        let mut active: Vec<(usize, u32)> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            for j in 0..k {
                batch.clear();
                for l in 0..lanes {
                    batch.push(col_buf, j * stride + row0 + w0 + l);
                }
                ctx.global_read(batch.addrs(), 4);
                ctx.int_ops(2 * lanes as u64);

                val_batch.clear();
                active.clear();
                for l in 0..lanes {
                    let r = row0 + w0 + l;
                    let c = ell.col_at(r, j);
                    if c != INVALID_INDEX {
                        val_batch.push(val_buf, j * stride + r);
                        active.push((l, c));
                    }
                }
                ctx.global_read(val_batch.addrs(), T::BYTES as u64);
                for (v, x_buf) in x_bufs.iter().enumerate() {
                    batch.clear();
                    for &(_, c) in &active {
                        batch.push(*x_buf, c as usize);
                    }
                    ctx.tex_read(batch.addrs());
                    ctx.flops(2 * active.len() as u64);
                    for &(l, c) in &active {
                        let r = row0 + w0 + l;
                        y_local[v][w0 + l] =
                            ell.val_at(r, j).mul_add(xs[v][c as usize], y_local[v][w0 + l]);
                    }
                }
            }
            for y_buf in &y_bufs {
                batch.clear();
                for l in 0..lanes {
                    batch.push(*y_buf, row0 + w0 + l);
                }
                ctx.global_write(batch.addrs(), T::BYTES as u64);
            }
        }
        y_local
    });

    let mut ys = vec![vec![T::ZERO; m]; kvecs];
    for (b, chunk) in chunks.into_iter().enumerate() {
        let row0 = b * BLOCK_SIZE;
        for (v, part) in chunk.into_iter().enumerate() {
            let len = part.len();
            ys[v][row0..row0 + len].copy_from_slice(&part);
        }
    }
    ys
}

/// BRO-ELL SpMM: the compressed index stream is decoded once per block of
/// vectors.
pub fn bro_ell_spmm<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroEll<T, W>,
    xs: &[Vec<T>],
) -> Vec<Vec<T>> {
    check_block(bro.cols(), xs);
    sim.reset_stats();
    let m = bro.rows();
    let kvecs = xs.len();
    if m == 0 {
        return vec![Vec::new(); kvecs];
    }
    let h = bro.slice_height();
    let stream_bufs: Vec<BufferAddr> = bro
        .slices()
        .iter()
        .map(|s| sim.alloc(s.stream.len().max(1), W::BITS as usize / 8))
        .collect();
    let val_bufs: Vec<BufferAddr> =
        bro.slices().iter().map(|s| sim.alloc(s.vals.len().max(1), T::BYTES)).collect();
    let x_bufs: Vec<BufferAddr> = xs.iter().map(|x| sim.alloc(x.len().max(1), T::BYTES)).collect();
    let y_bufs: Vec<BufferAddr> = (0..kvecs).map(|_| sim.alloc(m, T::BYTES)).collect();
    sim.charge_constant(bro.metadata_bytes() as u64);

    let warp = sim.profile().warp_size;
    sim.label_next_launch("bro-ell-spmm/slices");
    let chunks: Vec<Vec<Vec<T>>> = sim.launch(bro.slices().len(), h, |b, ctx| {
        let slice = &bro.slices()[b];
        let row0 = b * h;
        let height = slice.height;
        let mut y_local = vec![vec![T::ZERO; height]; kvecs];
        let mut batch = AddrBatch::new();
        let mut val_batch = AddrBatch::new();
        let mut active: Vec<usize> = Vec::with_capacity(warp);
        let mut decoders: Vec<LaneDecoder<W>> = Vec::with_capacity(warp);
        let mut cols: Vec<i64> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            decoders.clear();
            decoders.resize_with(lanes, LaneDecoder::new);
            cols.clear();
            cols.resize(lanes, -1);
            for c in 0..slice.num_cols {
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
                active.clear();
                for (l, dec) in decoders.iter_mut().enumerate() {
                    let d = dec.read(&slice.stream, height, w0 + l, bits);
                    if d != 0 {
                        cols[l] += d as i64;
                        val_batch.push(val_bufs[b], c * height + (w0 + l));
                        active.push(l);
                    }
                }
                ctx.global_read(val_batch.addrs(), T::BYTES as u64);
                for (v, x_buf) in x_bufs.iter().enumerate() {
                    batch.clear();
                    for &l in &active {
                        batch.push(*x_buf, cols[l] as usize);
                    }
                    ctx.tex_read(batch.addrs());
                    ctx.flops(2 * active.len() as u64);
                    for &l in &active {
                        let val = slice.vals[c * height + (w0 + l)];
                        y_local[v][w0 + l] =
                            val.mul_add(xs[v][cols[l] as usize], y_local[v][w0 + l]);
                    }
                }
            }
            for y_buf in &y_bufs {
                batch.clear();
                for l in 0..lanes {
                    batch.push(*y_buf, row0 + w0 + l);
                }
                ctx.global_write(batch.addrs(), T::BYTES as u64);
            }
        }
        y_local
    });

    let mut ys = vec![vec![T::ZERO; m]; kvecs];
    for (b, chunk) in chunks.into_iter().enumerate() {
        let row0 = b * h;
        for (v, part) in chunk.into_iter().enumerate() {
            let len = part.len();
            ys[v][row0..row0 + len].copy_from_slice(&part);
        }
    }
    ys
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_core::BroEllConfig;
    use bro_gpu_sim::DeviceProfile;
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::CsrMatrix;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    fn block(cols: usize, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|v| (0..cols).map(|i| 1.0 + ((i * (v + 3)) % 11) as f64 * 0.2).collect())
            .collect()
    }

    #[test]
    fn ell_spmm_matches_repeated_spmv() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(16);
        let ell = EllMatrix::from_coo(&coo);
        let csr = CsrMatrix::from_coo(&coo);
        let xs = block(256, 3);
        let ys = ell_spmm(&mut sim(), &ell, &xs);
        for (x, y) in xs.iter().zip(&ys) {
            assert_vec_approx_eq(y, &csr.spmv(x).unwrap(), 1e-12);
        }
    }

    #[test]
    fn bro_spmm_matches_repeated_spmv() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(16);
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 64, ..Default::default() });
        let csr = CsrMatrix::from_coo(&coo);
        let xs = block(256, 4);
        let ys = bro_ell_spmm(&mut sim(), &bro, &xs);
        for (x, y) in xs.iter().zip(&ys) {
            assert_vec_approx_eq(y, &csr.spmv(x).unwrap(), 1e-12);
        }
    }

    #[test]
    fn index_traffic_amortizes_over_block() {
        // Stream bytes are read once regardless of block width; the per-
        // vector read cost must therefore drop as k grows.
        let coo = bro_matrix::generate::laplacian_2d::<f64>(32);
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());

        let mut s1 = sim();
        bro_ell_spmm(&mut s1, &bro, &block(1024, 1));
        let mut s4 = sim();
        bro_ell_spmm(&mut s4, &bro, &block(1024, 4));
        let per_vec_1 = s1.stats().global_read_bytes as f64;
        let per_vec_4 = s4.stats().global_read_bytes as f64 / 4.0;
        assert!(
            per_vec_4 < per_vec_1,
            "per-vector reads must amortize: {per_vec_4} vs {per_vec_1}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one input vector")]
    fn empty_block_rejected() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(4);
        let ell = EllMatrix::from_coo(&coo);
        ell_spmm(&mut sim(), &ell, &[]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn mismatched_vector_rejected() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(4);
        let ell = EllMatrix::from_coo(&coo);
        ell_spmm(&mut sim(), &ell, &[vec![1.0; 15]]);
    }
}
