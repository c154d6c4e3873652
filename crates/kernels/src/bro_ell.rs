//! BRO-ELL SpMV kernel — Algorithm 1 of the paper.
//!
//! One thread block per slice, one thread per slice row. Each iteration of
//! the main loop decodes the next delta symbol-buffer-first: because the
//! bit width `b` of iteration `c` is identical for every lane, the
//! `b ≤ rb` refill test is **warp-uniform** — either no lane touches memory
//! or all lanes issue one perfectly coalesced load of the multiplexed
//! stream (`stream[next_sym · h + tid]`). This is the paper's central
//! argument for why the scheme suits SIMT hardware.
//!
//! Deviation from the paper's pseudocode: the refill test is `b ≤ rb`
//! rather than `b < rb`, i.e. a new symbol is loaded lazily instead of
//! eagerly when the buffer is exactly exhausted. The decoded values and the
//! total number of loads are identical; laziness merely avoids reading one
//! symbol past the end of a fully consumed stream.

use bro_bitstream::Symbol;
use bro_core::BroEll;
use bro_gpu_sim::{BlockCtx, BufferAddr, DeviceSim};
use bro_matrix::Scalar;

use crate::common::{assemble_rows, AddrBatch};

/// Integer-op cost charged per lane and iteration when decoding from the
/// buffer (compare, extract, shift, accumulate, validity test).
pub const DECODE_OPS_HIT: u64 = 5;
/// Additional integer-op cost per lane when a refill is needed (address
/// computation, splice of the two buffer parts).
pub const DECODE_OPS_REFILL: u64 = 4;

/// Per-lane decoder replicating Algorithm 1's `(sym, rb)` state machine,
/// reading the multiplexed stream in place (symbol `c` of lane `r` lives at
/// `stream[c · h + r]`).
pub(crate) struct LaneDecoder<W: Symbol> {
    sym: W,
    rb: u32,
    next_sym: usize,
}

impl<W: Symbol> LaneDecoder<W> {
    pub(crate) fn new() -> Self {
        LaneDecoder { sym: W::ZERO, rb: 0, next_sym: 0 }
    }

    /// Bits still buffered.
    pub(crate) fn buffered(&self) -> u32 {
        self.rb
    }

    /// Index of the next symbol this lane would load.
    pub(crate) fn next_sym(&self) -> usize {
        self.next_sym
    }

    /// Decodes `width` bits from the strided stream.
    pub(crate) fn read(&mut self, stream: &[W], stride: usize, lane: usize, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        if width <= self.rb {
            let decoded = self.sym.top_bits(width);
            self.sym = self.sym.shl(width);
            self.rb -= width;
            decoded
        } else {
            let hi = self.sym.top_bits(self.rb);
            let lo_bits = width - self.rb;
            let next = stream[self.next_sym * stride + lane];
            self.next_sym += 1;
            let decoded = if lo_bits >= 64 {
                next.top_bits(lo_bits)
            } else {
                (hi << lo_bits) | next.top_bits(lo_bits)
            };
            self.sym = next.shl(lo_bits);
            self.rb = W::BITS - lo_bits;
            decoded
        }
    }
}

/// Computes `y = A·x` for a BRO-ELL matrix on the simulated device.
pub fn bro_ell_spmv<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroEll<T, W>,
    x: &[T],
) -> Vec<T> {
    assert_eq!(x.len(), bro.cols(), "x length must match matrix columns");
    sim.reset_stats();
    let m = bro.rows();
    if m == 0 {
        return Vec::new();
    }
    let h = bro.slice_height();

    // Device allocations: one stream + value buffer per slice, shared x/y.
    let stream_bufs: Vec<BufferAddr> = bro
        .slices()
        .iter()
        .map(|s| sim.alloc(s.stream.len().max(1), W::BITS as usize / 8))
        .collect();
    let val_bufs: Vec<BufferAddr> =
        bro.slices().iter().map(|s| sim.alloc(s.vals.len().max(1), T::BYTES)).collect();
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    // bit_alloc and num_col live in constant memory: charged once.
    sim.charge_constant(bro.metadata_bytes() as u64);

    let warp = sim.profile().warp_size;
    sim.label_next_launch("bro-ell/slices");
    let chunks = sim.launch(bro.slices().len(), h, |b, ctx| {
        let slice = &bro.slices()[b];
        run_slice(ctx, slice, stream_bufs[b], val_bufs[b], x_buf, y_buf, b * h, warp, x)
    });
    assemble_rows(m, h, chunks)
}

/// Executes one slice (thread block); returns its dense y chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_slice<T: Scalar, W: Symbol>(
    ctx: &mut BlockCtx,
    slice: &bro_core::BroEllSlice<T, W>,
    stream_buf: BufferAddr,
    val_buf: BufferAddr,
    x_buf: BufferAddr,
    y_buf: BufferAddr,
    row0: usize,
    warp: usize,
    x: &[T],
) -> Vec<T> {
    let height = slice.height;
    let mut y_local = vec![T::ZERO; height];
    let mut batch = AddrBatch::new();
    let mut val_batch = AddrBatch::new();
    let mut x_batch = AddrBatch::new();
    let mut active: Vec<usize> = Vec::with_capacity(warp);
    let mut decoders: Vec<LaneDecoder<W>> = Vec::with_capacity(warp);
    // Per-lane running 1-based column index (0 = before first column).
    let mut cols: Vec<i64> = Vec::with_capacity(warp);
    for w0 in (0..height).step_by(warp) {
        let lanes = (height - w0).min(warp);
        decoders.clear();
        decoders.resize_with(lanes, LaneDecoder::new);
        cols.clear();
        cols.resize(lanes, -1);
        for c in 0..slice.num_cols {
            let b = slice.bit_alloc[c] as u32;
            // Warp-uniform refill decision (all lanes share rb).
            let refill = b > decoders[0].buffered();
            if refill {
                batch.clear();
                let sym_idx = decoders[0].next_sym();
                for l in 0..lanes {
                    batch.push(stream_buf, sym_idx * height + (w0 + l));
                }
                ctx.global_read(batch.addrs(), W::BITS as u64 / 8);
                ctx.int_ops((DECODE_OPS_HIT + DECODE_OPS_REFILL) * lanes as u64);
            } else {
                ctx.int_ops(DECODE_OPS_HIT * lanes as u64);
            }

            // Decode and multiply-add on valid lanes.
            val_batch.clear();
            x_batch.clear();
            active.clear();
            for (l, dec) in decoders.iter_mut().enumerate() {
                debug_assert_eq!(
                    refill,
                    b > dec.buffered(),
                    "refill decision must be warp-uniform"
                );
                let d = dec.read(&slice.stream, height, w0 + l, b);
                if d != 0 {
                    cols[l] += d as i64;
                    val_batch.push(val_buf, c * height + (w0 + l));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::ell_spmv;
    use bro_core::BroEllConfig;
    use bro_gpu_sim::{DeviceProfile, KernelReport};
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix, EllMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    fn paper_matrix() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            5,
            &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
            &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn matches_reference_on_paper_example() {
        let coo = paper_matrix();
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 2, ..Default::default() });
        let x: Vec<f64> = (0..5).map(|i| i as f64 * 0.5 + 1.0).collect();
        let y = bro_ell_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &coo.spmv_reference(&x).unwrap(), 1e-12);
    }

    #[test]
    fn matches_reference_on_laplacian_default_slices() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(40);
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..1600).map(|i| ((i * 13) % 31) as f64 * 0.1).collect();
        let y = bro_ell_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn matches_reference_with_u64_symbols() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let ell = EllMatrix::from_coo(&coo);
        let bro: BroEll<f64, u64> =
            BroEll::compress(&ell, &BroEllConfig { slice_height: 64, ..Default::default() });
        let x: Vec<f64> = (0..400).map(|i| (i as f64).sin() + 2.0).collect();
        let y = bro_ell_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &CsrMatrix::from_coo(&coo).spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn reads_fewer_index_bytes_than_ellpack() {
        // A banded matrix with tiny deltas: the compressed stream must be
        // much smaller than the 4-byte-per-slot ELLPACK index reads.
        let coo = bro_matrix::generate::laplacian_2d::<f64>(60);
        let x = vec![1.0; 3600];

        let mut s_ell = sim();
        ell_spmv(&mut s_ell, &EllMatrix::from_coo(&coo), &x);
        let idx_bytes_ell = s_ell.stats().global_read_bytes;

        let mut s_bro = sim();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        bro_ell_spmv(&mut s_bro, &bro, &x);
        let bytes_bro = s_bro.stats().global_read_bytes;

        assert!(
            bytes_bro < idx_bytes_ell,
            "BRO-ELL total reads {} must undercut ELLPACK reads {}",
            bytes_bro,
            idx_bytes_ell
        );
    }

    #[test]
    fn faster_than_ellpack_on_compressible_matrix() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(120);
        let x = vec![1.0; coo.cols()];
        let nnz = 2 * coo.nnz() as u64;

        let mut s_ell = sim();
        ell_spmv(&mut s_ell, &EllMatrix::from_coo(&coo), &x);
        let r_ell = KernelReport::from_device(&s_ell, nnz, 8);

        let mut s_bro = sim();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        bro_ell_spmv(&mut s_bro, &bro, &x);
        let r_bro = KernelReport::from_device(&s_bro, nnz, 8);

        assert!(
            r_bro.gflops > r_ell.gflops,
            "BRO-ELL {:.2} GF/s vs ELLPACK {:.2} GF/s",
            r_bro.gflops,
            r_ell.gflops
        );
    }

    #[test]
    fn stream_loads_match_stream_size() {
        // Every symbol of every slice stream is loaded exactly once.
        let coo = bro_matrix::generate::laplacian_2d::<f64>(16);
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 32, ..Default::default() });
        let y = bro_ell_spmv(&mut sim(), &bro, &vec![1.0; 256]);
        assert_eq!(y.len(), 256);
        // Indirect check: decompress equals original (stream fully consumed
        // without out-of-bounds access).
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn partial_last_slice_handled() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(7); // 49 rows
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 32, ..Default::default() });
        let x: Vec<f64> = (0..49).map(|i| i as f64).collect();
        let y = bro_ell_spmv(&mut sim(), &bro, &x);
        assert_vec_approx_eq(&y, &coo.spmv_reference(&x).unwrap(), 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let bro: BroEll<f64> = BroEll::from_coo(&CooMatrix::zeros(0, 0), &BroEllConfig::default());
        assert!(bro_ell_spmv(&mut sim(), &bro, &[]).is_empty());
    }
}
