//! VLQ-ELL SpMV kernel — the CPU-style decompression counterfactual.
//!
//! One thread per row, like ELLPACK, but each lane walks its own
//! byte-oriented varint stream:
//!
//! * **uncoalesced loads** — lane `l`'s next byte lives at its private
//!   stream offset, so a warp load touches up to 32 distinct segments;
//! * **warp divergence** — the continuation-bit loop iterates a different
//!   number of times per lane; under SIMT lockstep every lane pays for the
//!   warp's longest varint (charged explicitly below);
//! * values are row-major (CSR-like), so value loads scatter as well.
//!
//! This is exactly the failure mode the paper cites to rule out CPU
//! schemes; comparing this kernel against BRO-ELL at similar compression
//! ratios isolates the value of the bit-parallel, warp-uniform design.

use bro_core::vlq_ell::VlqEll;
use bro_gpu_sim::DeviceSim;
use bro_matrix::Scalar;

use crate::common::{assemble_rows, longest_row};
use crate::BLOCK_SIZE;

/// Integer ops per decoded byte per lane (load-extract-shift-or-test).
pub const VLQ_BYTE_OPS: u64 = 4;

/// Computes `y = A·x` for a VLQ-ELL matrix on the simulated device.
pub fn vlq_ell_spmv<T: Scalar>(sim: &mut DeviceSim, vlq: &VlqEll<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), vlq.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = vlq.rows();
    if m == 0 {
        return Vec::new();
    }
    let stream_buf = sim.alloc(vlq.stream().len().max(1), 1);
    let off_buf = sim.alloc(m + 1, 8);
    let len_buf = sim.alloc(m, 4);
    let val_buf = sim.alloc(vlq.nnz().max(1), T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);

    // Row-major value offset of each row = entries before it.
    let val_start: Vec<usize> = vlq
        .row_lengths()
        .iter()
        .scan(0usize, |acc, &len| {
            let start = *acc;
            *acc += len as usize;
            Some(start)
        })
        .collect();

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("vlq-ell/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![T::ZERO; height];
        let (mut pos, mut vpos) = (Vec::with_capacity(warp), Vec::with_capacity(warp));
        let mut cols: Vec<i64> = Vec::with_capacity(warp);
        let mut active: Vec<usize> = Vec::with_capacity(warp);
        let mut pending: Vec<usize> = Vec::with_capacity(warp);
        let mut decoded: Vec<u64> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            // Row offsets and lengths (these at least coalesce); the warp
            // iterates to its longest row.
            let mut load = ctx.load(8);
            load.lanes(off_buf.addr(row0 + w0), lanes);
            load.end();
            let warp_max = longest_row(ctx, (vlq.row_lengths(), len_buf), row0 + w0, lanes);

            // Per-lane stream cursors and value positions.
            pos.clear();
            pos.extend((0..lanes).map(|l| vlq.row_offsets()[row0 + w0 + l] as usize));
            vpos.clear();
            vpos.extend_from_slice(&val_start[row0 + w0..row0 + w0 + lanes]);
            cols.clear();
            cols.resize(lanes, -1);

            for j in 0..warp_max {
                // Decode one varint per active lane, byte by byte: loads are
                // scattered and the warp iterates to the longest varint.
                active.clear();
                active
                    .extend((0..lanes).filter(|&l| j < vlq.row_lengths()[row0 + w0 + l] as usize));
                decoded.clear();
                decoded.resize(lanes, 0);
                let mut byte_iters = 0u64;
                pending.clone_from(&active);
                while !pending.is_empty() {
                    byte_iters += 1;
                    let mut load = ctx.load(1);
                    for &l in &pending {
                        load.lane(stream_buf.addr(pos[l]));
                    }
                    load.end();
                    // Byte-at-a-time LEB128 accumulation per still-pending
                    // lane; lanes whose varint ends drop out of the warp's
                    // active mask (the divergence being modeled).
                    let shift = 7 * (byte_iters - 1) as u32;
                    pending.retain(|&l| {
                        let byte = vlq.stream()[pos[l]];
                        pos[l] += 1;
                        decoded[l] |= ((byte & 0x7F) as u64) << shift;
                        byte & 0x80 != 0
                    });
                }
                // SIMT lockstep: every lane pays for the deepest varint.
                ctx.int_ops(VLQ_BYTE_OPS * byte_iters * lanes as u64);

                // Multiply-add for the active lanes; values scatter.
                let mut load = ctx.load(T::BYTES as u64);
                for &l in &active {
                    load.lane(val_buf.addr(vpos[l]));
                    cols[l] += decoded[l] as i64;
                    load.tex_lane(x_buf.addr(cols[l] as usize), T::BYTES as u64);
                    let v = vlq.values()[vpos[l]];
                    y_local[w0 + l] = v.mul_add(x[cols[l] as usize], y_local[w0 + l]);
                    vpos[l] += 1;
                }
                load.end();
                ctx.flops(2 * active.len() as u64);
            }
            let mut store = ctx.store(T::BYTES as u64);
            store.lanes(y_buf.addr(row0 + w0), lanes);
            store.end();
        }
        y_local
    });
    assemble_rows(m, BLOCK_SIZE, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bro_ell::bro_ell_spmv;
    use bro_core::{BroEll, BroEllConfig};
    use bro_gpu_sim::{DeviceProfile, KernelReport};
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::CsrMatrix;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_k20())
    }

    #[test]
    fn matches_reference() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let vlq = VlqEll::from_coo(&coo);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..400).map(|i| 1.0 + (i % 7) as f64 * 0.2).collect();
        let y = vlq_ell_spmv(&mut sim(), &vlq, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-10);
    }

    #[test]
    fn slower_than_bro_ell_despite_similar_compression() {
        // The paper's central claim about CPU-style schemes: even when the
        // compressed sizes are close, the divergent byte-serial decoder and
        // uncoalesced accesses lose badly on SIMT hardware.
        let coo = bro_matrix::generate::laplacian_2d::<f64>(64);
        let x = vec![1.0; coo.cols()];
        let flops = 2 * coo.nnz() as u64;

        let vlq = VlqEll::from_coo(&coo);
        let mut s1 = sim();
        vlq_ell_spmv(&mut s1, &vlq, &x);
        let r_vlq = KernelReport::from_device(&s1, flops, 8);

        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let mut s2 = sim();
        bro_ell_spmv(&mut s2, &bro, &x);
        let r_bro = KernelReport::from_device(&s2, flops, 8);

        assert!(
            r_bro.gflops > 1.5 * r_vlq.gflops,
            "BRO {:.2} GF/s must clearly beat VLQ {:.2} GF/s",
            r_bro.gflops,
            r_vlq.gflops
        );
        // And the loss is not from compression: sizes are the same order.
        let (e_b, e_v) = (bro.space_savings().eta(), vlq.space_savings().eta());
        assert!((e_b - e_v).abs() < 0.45, "etas {e_b} vs {e_v}");
    }

    #[test]
    fn scattered_loads_cost_more_transactions() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(48);
        let x = vec![1.0; coo.cols()];
        let vlq = VlqEll::from_coo(&coo);
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let mut s1 = sim();
        vlq_ell_spmv(&mut s1, &vlq, &x);
        let mut s2 = sim();
        bro_ell_spmv(&mut s2, &bro, &x);
        // Per byte of compressed data, VLQ needs far more transactions.
        let vlq_txn_per_byte = s1.stats().global_read_txns as f64 / vlq.stream().len() as f64;
        let bro_bytes: usize = bro.slices().iter().map(|s| s.stream.len() * 4).sum();
        let bro_txn_per_byte = s2.stats().global_read_txns as f64 / bro_bytes as f64;
        assert!(vlq_txn_per_byte > bro_txn_per_byte);
    }

    #[test]
    fn empty_matrix() {
        let vlq = VlqEll::<f64>::from_coo(&bro_matrix::CooMatrix::zeros(0, 0));
        assert!(vlq_ell_spmv(&mut sim(), &vlq, &[]).is_empty());
    }
}
