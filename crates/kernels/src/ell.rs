//! ELLPACK SpMV kernel (Bell & Garland), one thread per row.
//!
//! The 2D arrays are column-major over the full matrix, so a warp reading
//! slot `j` of 32 consecutive rows touches consecutive addresses — a fully
//! coalesced access. Every thread iterates over all `k` slots and tests the
//! padding marker, which is exactly the redundant work ELLPACK-R and the
//! `num_col` array of BRO-ELL remove.
//!
//! The simulator narrates one warp at a time: the index load is a single
//! span, and the non-padding lanes load their value, read `x` through the
//! texture cache and multiply-add in one pass, each run of them one span.
//! ELLPACK, Sliced-ELLPACK and the ELLPACK SpMM all run this warp loop,
//! `ell_rows`.

use bro_gpu_sim::{BlockCtx, BufferAddr, DeviceSim};
use bro_matrix::{EllMatrix, Scalar, INVALID_INDEX};

use crate::common::{LaneRun, Vectors};
use crate::BLOCK_SIZE;

/// Computes `y = A·x` for an ELLPACK matrix on the simulated device.
pub fn ell_spmv<T: Scalar>(sim: &mut DeviceSim, ell: &EllMatrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(x.len(), ell.cols(), "x length must match matrix columns");
    ell_launch(sim, ell, &[x], "ell/rows").swap_remove(0)
}

/// Computes `y = A·x` for every `x` of `xs` in one launch labelled `label`,
/// one thread per row.
pub(crate) fn ell_launch<T: Scalar>(
    sim: &mut DeviceSim,
    ell: &EllMatrix<T>,
    xs: &[&[T]],
    label: &'static str,
) -> Vec<Vec<T>> {
    sim.reset_stats();
    let m = ell.rows();
    if m == 0 {
        return vec![Vec::new(); xs.len()];
    }
    let (width, stride) = (ell.width(), ell.stride());
    let col_buf = sim.alloc(stride * width, 4);
    let val_buf = sim.alloc(stride * width, T::BYTES);
    let vecs = Vectors::alloc(sim, xs, m);

    let warp = sim.profile().warp_size;
    sim.label_next_launch(label);
    let chunks = sim.launch(m.div_ceil(BLOCK_SIZE), BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let (cols, vals) = (ell.col_idx_raw(), ell.vals_raw());
        let slots = EllSlots { cols, vals, col_buf, val_buf, base: row0, stride, width };
        ell_rows(ctx, &slots, &vecs, row0, (m - row0).min(BLOCK_SIZE), warp)
    });
    vecs.assemble(m, BLOCK_SIZE, chunks)
}

/// Column-major ELLPACK slots of one thread block, `width` per row: slot `j`
/// of the block's row `r` is element `base + j · stride + r` of `cols`,
/// `vals` and their buffers. ELLPACK passes its whole arrays (`base` is the
/// block's first row); Sliced-ELLPACK passes one slice's (`base` 0).
pub(crate) struct EllSlots<'a, T> {
    pub(crate) cols: &'a [u32],
    pub(crate) vals: &'a [T],
    pub(crate) col_buf: BufferAddr,
    pub(crate) val_buf: BufferAddr,
    pub(crate) base: usize,
    pub(crate) stride: usize,
    pub(crate) width: usize,
}

/// Runs one thread block over `height` rows, the first of them row `row0`
/// of `y`: one thread per row, a warp at a time, every vector of `vecs`.
/// Returns each vector's `height` sums in turn.
pub(crate) fn ell_rows<T: Scalar>(
    ctx: &mut BlockCtx,
    slots: &EllSlots<'_, T>,
    vecs: &Vectors<'_, T>,
    row0: usize,
    height: usize,
    warp: usize,
) -> Vec<T> {
    let elem = T::BYTES as u64;
    let (x, x_buf) = vecs.x(0);
    let mut y_local = vec![T::ZERO; height * vecs.k()];
    for w0 in (0..height).step_by(warp) {
        let lanes = (height - w0).min(warp);
        for j in 0..slots.width {
            // Coalesced column-index load for the warp.
            let first = slots.base + j * slots.stride + w0;
            let lane_cols = &slots.cols[first..first + lanes];
            let mut load = ctx.load(4);
            load.lanes(slots.col_buf.addr(first), lanes);
            load.end();
            // Padding test per lane.
            ctx.int_ops(2 * lanes as u64);
            // Non-padding lanes load their value, read x and multiply-add.
            let mut load = ctx.load(elem);
            let mut run = LaneRun::new(slots.val_buf);
            let mut active = 0;
            for (l, y) in y_local[w0..w0 + lanes].iter_mut().enumerate() {
                let c = lane_cols[l];
                if c != INVALID_INDEX {
                    run.lane(first + l);
                    load.tex_lane(x_buf.addr(c as usize), elem);
                    *y = slots.vals[first + l].mul_add(x[c as usize], *y);
                    active += 1;
                } else {
                    run.end(&mut load);
                }
            }
            run.end(&mut load);
            load.end();
            ctx.flops(2 * active);
            // SpMM: each further vector makes one more pass over the valid lanes.
            if vecs.k() > 1 {
                let valid =
                    (w0..).zip(first..).zip(lane_cols).filter(|&(_, &c)| c != INVALID_INDEX);
                let lanes = valid.map(|((r, i), &c)| (r, i, c as usize));
                vecs.further_passes(ctx, lanes, slots.vals, &mut y_local, 2 * active);
            }
        }
        // Coalesced store of the warp's results.
        vecs.store(ctx, row0 + w0, lanes);
    }
    y_local
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::{DeviceProfile, KernelReport};
    use bro_matrix::scalar::assert_vec_approx_eq;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    #[test]
    fn matches_reference_on_paper_example() {
        let coo = CooMatrix::from_triplets(
            4,
            5,
            &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
            &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
        )
        .unwrap();
        let ell = EllMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..5).map(|i| i as f64 + 0.5).collect();
        let y = ell_spmv(&mut sim(), &ell, &x);
        assert_eq!(y, coo.spmv_reference(&x).unwrap());
    }

    #[test]
    fn matches_reference_on_laplacian() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(30);
        let ell = EllMatrix::from_coo(&coo);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..900).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let y = ell_spmv(&mut sim(), &ell, &x);
        assert_vec_approx_eq(&y, &csr.spmv(&x).unwrap(), 1e-12);
    }

    #[test]
    fn traffic_scales_with_padding() {
        // Same nnz, one matrix needs heavy padding: its kernel must read
        // more index bytes.
        let mk = |lens: &[usize]| {
            let mut r = Vec::new();
            let mut c = Vec::new();
            for (i, &l) in lens.iter().enumerate() {
                for j in 0..l {
                    r.push(i);
                    c.push(j);
                }
            }
            let v = vec![1.0; r.len()];
            CooMatrix::from_triplets(lens.len(), 64, &r, &c, &v).unwrap()
        };
        let uniform = mk(&[8; 64]); // 512 nnz, k = 8
        let skewed = mk(&{
            let mut l = vec![7usize; 63]; // 441 nnz
            l.push(64); // one dense row forces k = 64
            l
        });
        let x = vec![1.0; 64];

        let mut s1 = sim();
        ell_spmv(&mut s1, &EllMatrix::from_coo(&uniform), &x);
        let mut s2 = sim();
        ell_spmv(&mut s2, &EllMatrix::from_coo(&skewed), &x);
        assert!(
            s2.stats().global_read_bytes > s1.stats().global_read_bytes,
            "padding must cost traffic: {} vs {}",
            s2.stats().global_read_bytes,
            s1.stats().global_read_bytes
        );
    }

    #[test]
    fn report_has_positive_gflops() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(20);
        let ell = EllMatrix::from_coo(&coo);
        let mut s = sim();
        let x = vec![1.0; 400];
        ell_spmv(&mut s, &ell, &x);
        let r = KernelReport::from_device(&s, 2 * ell.nnz() as u64, 8);
        assert!(r.gflops > 0.0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn empty_matrix_returns_empty() {
        let ell = EllMatrix::from_coo(&CooMatrix::<f64>::zeros(0, 0));
        assert!(ell_spmv(&mut sim(), &ell, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let ell = EllMatrix::from_coo(&CooMatrix::<f64>::zeros(2, 3));
        ell_spmv(&mut sim(), &ell, &[1.0, 2.0]);
    }
}
