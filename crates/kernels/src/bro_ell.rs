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
//! The simulator decodes the same way: one [`WarpDecoder`] per warp holds
//! a single `rb` and next-symbol index plus one buffered symbol per lane,
//! so the refill branch is taken once per warp and column. A lane then
//! loads its value, reads `x` through the texture cache and multiply-adds
//! in a single pass over the warp. The same slice routine runs BRO-ELL-R
//! (given its row lengths) and the BRO-ELL SpMM (given `k` vectors).
//!
//! Deviation from the paper's pseudocode: the refill test is `b ≤ rb`
//! rather than `b < rb`, i.e. a new symbol is loaded lazily instead of
//! eagerly when the buffer is exactly exhausted. The decoded values and the
//! total number of loads are identical; laziness merely avoids reading one
//! symbol past the end of a fully consumed stream.

use bro_bitstream::{Symbol, WarpDecoder};
use bro_core::{BroEll, BroEllSlice};
use bro_gpu_sim::{BlockCtx, BufferAddr, DeviceSim};
use bro_matrix::Scalar;

use crate::common::{longest_row, LaneRun, Vectors};

/// Integer-op cost charged per lane and iteration when decoding from the
/// buffer (compare, extract, shift, accumulate, validity test).
pub const DECODE_OPS_HIT: u64 = 5;
/// Additional integer-op cost per lane when a refill is needed (address
/// computation, splice of the two buffer parts).
pub const DECODE_OPS_REFILL: u64 = 4;

/// Computes `y = A·x` for a BRO-ELL matrix on the simulated device.
pub fn bro_ell_spmv<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroEll<T, W>,
    x: &[T],
) -> Vec<T> {
    assert_eq!(x.len(), bro.cols(), "x length must match matrix columns");
    slice_launch(sim, bro, &[x], None, "bro-ell/slices").swap_remove(0)
}

/// Computes `y = A·x` for every `x` of `xs` in one launch labelled `label`,
/// one thread block per slice and one thread per slice row. With
/// BRO-ELL-R's `row_lengths`, each warp loads its rows' lengths and stops
/// at its longest row.
pub(crate) fn slice_launch<T: Scalar, W: Symbol>(
    sim: &mut DeviceSim,
    bro: &BroEll<T, W>,
    xs: &[&[T]],
    row_lengths: Option<&[u32]>,
    label: &'static str,
) -> Vec<Vec<T>> {
    sim.reset_stats();
    if bro.rows() == 0 {
        return vec![Vec::new(); xs.len()];
    }
    let launch = SliceLaunch::alloc(sim, bro, xs, row_lengths);
    let h = bro.slice_height();
    let warp = sim.profile().warp_size;
    sim.label_next_launch(label);
    let chunks = sim.launch(bro.slices().len(), h, |b, ctx| launch.slice(ctx, b, warp));
    launch.vecs.assemble(bro.rows(), h, chunks)
}

/// One BRO-ELL (or BRO-ELL-R) launch: the matrix, the vectors, and their
/// device buffers.
struct SliceLaunch<'a, T: Scalar, W: Symbol> {
    bro: &'a BroEll<T, W>,
    stream_bufs: Vec<BufferAddr>,
    val_bufs: Vec<BufferAddr>,
    /// BRO-ELL-R's row lengths and their buffer.
    row_lengths: Option<(&'a [u32], BufferAddr)>,
    vecs: Vectors<'a, T>,
}

impl<'a, T: Scalar, W: Symbol> SliceLaunch<'a, T, W> {
    /// Allocates the device buffers (one stream and one value buffer per
    /// slice, then the row lengths if given, then every `x` and every `y`)
    /// and charges the constant-memory metadata.
    fn alloc(
        sim: &mut DeviceSim,
        bro: &'a BroEll<T, W>,
        xs: &'a [&'a [T]],
        row_lengths: Option<&'a [u32]>,
    ) -> Self {
        let stream_bufs = bro
            .slices()
            .iter()
            .map(|s| sim.alloc(s.stream.len().max(1), W::BITS as usize / 8))
            .collect();
        let val_bufs =
            bro.slices().iter().map(|s| sim.alloc(s.vals.len().max(1), T::BYTES)).collect();
        let row_lengths = row_lengths.map(|lengths| (lengths, sim.alloc(bro.rows(), 4)));
        let vecs = Vectors::alloc(sim, xs, bro.rows());
        // bit_alloc and num_col live in constant memory: charged once.
        sim.charge_constant(bro.metadata_bytes() as u64);
        SliceLaunch { bro, stream_bufs, val_bufs, row_lengths, vecs }
    }

    /// Executes slice `b` (one thread block); returns each vector's rows of
    /// the slice in turn.
    fn slice(&self, ctx: &mut BlockCtx, b: usize, warp: usize) -> Vec<T> {
        let slice: &BroEllSlice<T, W> = &self.bro.slices()[b];
        let (stream_buf, val_buf) = (self.stream_bufs[b], self.val_bufs[b]);
        let height = slice.height;
        let row0 = b * self.bro.slice_height();
        let elem = T::BYTES as u64;
        let (x, x_buf) = self.vecs.x(0);
        let mut y_local = vec![T::ZERO; height * self.vecs.k()];
        let mut dec = WarpDecoder::<W>::new();
        // Per-lane running column, offset by one (0 = before the first).
        let mut cols: Vec<usize> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            let row = row0 + w0;
            let num_cols = match self.row_lengths {
                None => slice.num_cols,
                Some(lengths) => longest_row(ctx, lengths, row, lanes).min(slice.num_cols),
            };
            dec.reset(lanes);
            cols.clear();
            cols.resize(lanes, 0);
            for c in 0..num_cols {
                let bits = slice.bit_alloc[c] as u32;
                // Warp-uniform refill: one coalesced load of a stream row.
                if let Some(sym) = dec.decode(&slice.stream, height, w0, bits) {
                    let mut load = ctx.load(W::BITS as u64 / 8);
                    load.lanes(stream_buf.addr(sym * height + w0), lanes);
                    load.end();
                    ctx.int_ops((DECODE_OPS_HIT + DECODE_OPS_REFILL) * lanes as u64);
                } else {
                    ctx.int_ops(DECODE_OPS_HIT * lanes as u64);
                }
                // Valid lanes load their value, read x and multiply-add.
                let mut active = 0;
                let first = c * height + w0;
                let lane_vals = slice.vals[first..first + lanes].iter();
                let lane_y = y_local[w0..w0 + lanes].iter_mut();
                let mut vals = ctx.load(elem);
                let mut run = LaneRun::new(val_buf);
                for ((((&d, col), &v), y), i) in
                    dec.deltas().iter().zip(&mut cols).zip(lane_vals).zip(lane_y).zip(first..)
                {
                    if d != 0 {
                        *col += d as usize;
                        run.lane(i);
                        vals.tex_lane(x_buf.addr(*col - 1), elem);
                        *y = v.mul_add(x[*col - 1], *y);
                        active += 1;
                    } else {
                        run.end(&mut vals);
                    }
                }
                run.end(&mut vals);
                vals.end();
                ctx.flops(2 * active);
                // SpMM: each further vector makes one more pass over the valid lanes.
                if self.vecs.k() > 1 {
                    let valid =
                        dec.deltas().iter().zip(&cols).enumerate().filter(|(_, (&d, _))| d != 0);
                    let lanes = valid.map(|(l, (_, &col))| (w0 + l, first + l, col - 1));
                    self.vecs.further_passes(ctx, lanes, &slice.vals, &mut y_local, 2 * active);
                }
            }
            self.vecs.store(ctx, row, lanes);
        }
        y_local
    }
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
        let bro: BroEll<f64, u64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 64, ..Default::default() });
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
