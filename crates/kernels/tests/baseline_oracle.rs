//! Exactness oracle for the baseline kernels: ELLPACK, ELLPACK-R and COO as
//! first written, gathering each instruction's active lanes before
//! narrating them one `lane()` call at a time. The kernels narrate every
//! warp in a single pass; they must produce the same statistics and the
//! same bits of `y` on every device.

use bro_gpu_sim::{DeviceProfile, DeviceSim, StatsSnapshot};
use bro_kernels::common::{apply_updates, assemble_rows};
use bro_kernels::{coo::coo_spmv_with, ell_spmv, ellr_spmv, BLOCK_SIZE};
use bro_matrix::{CooMatrix, EllMatrix, EllRMatrix, Scalar, INVALID_INDEX};
use proptest::prelude::*;

fn oracle_ell<T: Scalar>(sim: &mut DeviceSim, ell: &EllMatrix<T>, x: &[T]) -> Vec<T> {
    sim.reset_stats();
    let m = ell.rows();
    if m == 0 {
        return Vec::new();
    }
    let k = ell.width();
    let stride = ell.stride();
    let col_buf = sim.alloc(stride * k, 4);
    let val_buf = sim.alloc(stride * k, T::BYTES);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    let elem = T::BYTES as u64;

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("ell/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![T::ZERO; height];
        let mut active: Vec<(usize, u32)> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            for j in 0..k {
                let mut load = ctx.load(4);
                for l in 0..lanes {
                    load.lane(col_buf.addr(j * stride + row0 + w0 + l));
                }
                load.end();
                ctx.int_ops(2 * lanes as u64);

                active.clear();
                for l in 0..lanes {
                    let c = ell.col_at(row0 + w0 + l, j);
                    if c != INVALID_INDEX {
                        active.push((l, c));
                    }
                }
                let mut load = ctx.load(elem);
                for &(l, _) in &active {
                    load.lane(val_buf.addr(j * stride + row0 + w0 + l));
                }
                load.end();
                for &(_, c) in &active {
                    ctx.tex_lane(x_buf.addr(c as usize), elem);
                }
                ctx.flops(2 * active.len() as u64);
                for &(l, c) in &active {
                    let r = row0 + w0 + l;
                    y_local[w0 + l] = ell.val_at(r, j).mul_add(x[c as usize], y_local[w0 + l]);
                }
            }
            let mut store = ctx.store(elem);
            for l in 0..lanes {
                store.lane(y_buf.addr(row0 + w0 + l));
            }
            store.end();
        }
        y_local
    });
    assemble_rows(m, BLOCK_SIZE, chunks)
}

fn oracle_ellr<T: Scalar>(sim: &mut DeviceSim, ellr: &EllRMatrix<T>, x: &[T]) -> Vec<T> {
    sim.reset_stats();
    let ell = ellr.ell();
    let m = ell.rows();
    if m == 0 {
        return Vec::new();
    }
    let k = ell.width();
    let stride = ell.stride();
    let col_buf = sim.alloc(stride * k, 4);
    let val_buf = sim.alloc(stride * k, T::BYTES);
    let len_buf = sim.alloc(m, 4);
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(m, T::BYTES);
    let lengths = ellr.row_lengths();
    let elem = T::BYTES as u64;

    let warp = sim.profile().warp_size;
    let blocks = m.div_ceil(BLOCK_SIZE);
    sim.label_next_launch("ellr/rows");
    let chunks = sim.launch(blocks, BLOCK_SIZE, |b, ctx| {
        let row0 = b * BLOCK_SIZE;
        let height = (m - row0).min(BLOCK_SIZE);
        let mut y_local = vec![T::ZERO; height];
        let mut active: Vec<usize> = Vec::with_capacity(warp);
        for w0 in (0..height).step_by(warp) {
            let lanes = (height - w0).min(warp);
            let mut load = ctx.load(4);
            for l in 0..lanes {
                load.lane(len_buf.addr(row0 + w0 + l));
            }
            load.end();
            let warp_max = (0..lanes).map(|l| lengths[row0 + w0 + l] as usize).max().unwrap_or(0);
            for j in 0..warp_max {
                active.clear();
                active.extend((0..lanes).filter(|&l| j < lengths[row0 + w0 + l] as usize));
                let mut load = ctx.load(4);
                for &l in &active {
                    load.lane(col_buf.addr(j * stride + row0 + w0 + l));
                }
                load.end();
                let mut load = ctx.load(elem);
                for &l in &active {
                    load.lane(val_buf.addr(j * stride + row0 + w0 + l));
                }
                load.end();
                for &l in &active {
                    ctx.tex_lane(x_buf.addr(ell.col_at(row0 + w0 + l, j) as usize), elem);
                }
                ctx.int_ops(active.len() as u64);
                ctx.flops(2 * active.len() as u64);
                for &l in &active {
                    let r = row0 + w0 + l;
                    let c = ell.col_at(r, j) as usize;
                    y_local[w0 + l] = ell.val_at(r, j).mul_add(x[c], y_local[w0 + l]);
                }
            }
            let mut store = ctx.store(elem);
            for l in 0..lanes {
                store.lane(y_buf.addr(row0 + w0 + l));
            }
            store.end();
        }
        y_local
    });
    assemble_rows(m, BLOCK_SIZE, chunks)
}

fn oracle_coo<T: Scalar>(
    sim: &mut DeviceSim,
    coo: &CooMatrix<T>,
    x: &[T],
    interval_len: usize,
) -> Vec<T> {
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
    let carry_buf = sim.alloc(intervals * 2, 4 + T::BYTES);
    let rows_arr = coo.row_indices();
    let cols_arr = coo.col_indices();
    let vals_arr = coo.values();
    let elem = T::BYTES as u64;

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
                    for (buf, bytes) in [(row_buf, 4), (col_buf, 4), (val_buf, elem)] {
                        let mut load = ctx.load(bytes);
                        for l in 0..lanes {
                            load.lane(buf.addr(start + step0 + l));
                        }
                        load.end();
                    }
                    for l in 0..lanes {
                        ctx.tex_lane(x_buf.addr(cols_arr[start + step0 + l] as usize), elem);
                    }
                    ctx.flops(2 * lanes as u64);
                    ctx.warp_ops(warp.ilog2() as u64 * lanes as u64);
                    ctx.int_ops(2 * lanes as u64);
                    for l in 0..lanes {
                        let p = start + step0 + l;
                        if rows_arr[p] != seg_row {
                            flush(seg_row, seg_sum, &mut direct, &mut carries);
                            seg_row = rows_arr[p];
                            seg_sum = T::ZERO;
                        }
                        seg_sum = vals_arr[p].mul_add(x[cols_arr[p] as usize], seg_sum);
                    }
                }
                flush(seg_row, seg_sum, &mut direct, &mut carries);
                // Every interval re-charges the direct stores of the
                // block's earlier intervals, as the kernel does.
                for group in direct.chunks(warp) {
                    let mut store = ctx.store(elem);
                    for &(r, _) in group {
                        store.lane(y_buf.addr(r as usize));
                    }
                    store.end();
                }
                let mut store = ctx.store(4 + elem);
                store.lane(carry_buf.addr(iv * 2));
                store.lane(carry_buf.addr(iv * 2 + 1));
                store.end();
            }
            (direct, carries)
        });
    let mut all_carries: Vec<(u32, T)> = Vec::new();
    for (direct, carries) in per_block {
        apply_updates(&mut y, direct);
        all_carries.extend(carries);
    }
    let carries_ref = &all_carries;
    sim.label_next_launch("coo/carry");
    sim.launch(all_carries.len().div_ceil(BLOCK_SIZE).max(1), BLOCK_SIZE, |b, ctx| {
        let start = b * BLOCK_SIZE;
        let end = (start + BLOCK_SIZE).min(carries_ref.len());
        let mut atomics = Vec::new();
        for w0 in (start..end).step_by(warp) {
            let lanes = (end - w0).min(warp);
            let mut load = ctx.load(4 + elem);
            for l in 0..lanes {
                load.lane(carry_buf.addr(w0 + l));
            }
            load.end();
            atomics.clear();
            for l in 0..lanes {
                atomics.push(y_buf.addr(carries_ref[w0 + l].0 as usize));
            }
            ctx.atomic_rmw(&atomics);
            ctx.flops(lanes as u64);
        }
    });
    apply_updates(&mut y, all_carries.iter().copied());
    y
}

/// A matrix whose rows hold `lens[r]` entries at seeded columns; long rows
/// span several COO intervals, empty rows leave gaps in every warp.
fn matrix(cols: usize, lens: &[usize], seed: u64) -> CooMatrix<f64> {
    let (mut ri, mut ci, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for (r, &len) in lens.iter().enumerate() {
        let mut row: Vec<usize> = (0..len.min(cols)).map(|_| next() as usize % cols).collect();
        row.sort_unstable();
        row.dedup();
        for c in row {
            ri.push(r);
            ci.push(c);
            // Signed values with a negative zero now and then.
            vals.push(match next() % 7 {
                0 => -0.0,
                v => (v as f64 - 3.5) * 0.37,
            });
        }
    }
    CooMatrix::from_triplets(lens.len(), cols, &ri, &ci, &vals).unwrap()
}

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// Runs `kernel` and `oracle` on a fresh device of `profile`; both the
/// statistics (launch count included) and the bits of `y` must agree.
fn agree(
    profile: &DeviceProfile,
    kernel: impl Fn(&mut DeviceSim) -> Vec<f64>,
    oracle: impl Fn(&mut DeviceSim) -> Vec<f64>,
) {
    let run = |f: &dyn Fn(&mut DeviceSim) -> Vec<f64>| -> (Vec<u64>, StatsSnapshot) {
        let mut sim = DeviceSim::new(profile.clone());
        let y = f(&mut sim);
        (bits(&y), sim.snapshot())
    };
    let (got, want) = (run(&kernel), run(&oracle));
    prop_assert_eq!(&got.1, &want.1, "{}", profile.name);
    prop_assert_eq!(&got.0, &want.0, "{}", profile.name);
}

/// Row lengths: mostly short, some empty, a few long enough to span COO
/// intervals; the row count leaves a partial last warp and block.
fn row_lengths() -> impl Strategy<Value = Vec<usize>> {
    let len = (0u32..18, 0usize..600).prop_map(|(kind, v)| match kind {
        0..=3 => 0,
        4..=13 => 1 + v % 5,
        14..=16 => 6 + v % 34,
        _ => 100 + v,
    });
    prop::collection::vec(len, 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn baseline_kernels_match_the_lane_by_lane_oracle(
        lens in row_lengths(),
        cols in 1usize..900,
        interval in 1usize..600,
        seed in any::<u64>(),
    ) {
        let coo = matrix(cols, &lens, seed);
        let x: Vec<f64> = (0..cols).map(|i| ((i * 7) % 19) as f64 * 0.25 - 2.0).collect();
        let ell = EllMatrix::from_coo(&coo);
        let ellr = EllRMatrix::from_coo(&coo);
        for profile in DeviceProfile::evaluation_set() {
            agree(&profile, |s| ell_spmv(s, &ell, &x), |s| oracle_ell(s, &ell, &x));
            agree(&profile, |s| ellr_spmv(s, &ellr, &x), |s| oracle_ellr(s, &ellr, &x));
            agree(
                &profile,
                |s| coo_spmv_with(s, &coo, &x, interval),
                |s| oracle_coo(s, &coo, &x, interval),
            );
        }
    }
}

#[test]
fn oracle_covers_the_edge_shapes() {
    // All rows empty (k = 0, no COO entries), a single row spanning many
    // intervals, and a partial last warp with empty rows between full ones.
    let x = vec![1.5; 300];
    let shapes = [vec![0; 70], vec![650], (0..77).map(|r| [0, 3, 9][r % 3]).collect()];
    for lens in shapes {
        let coo = matrix(300, &lens, 11);
        let ell = EllMatrix::from_coo(&coo);
        let ellr = EllRMatrix::from_coo(&coo);
        for profile in DeviceProfile::evaluation_set() {
            agree(&profile, |s| ell_spmv(s, &ell, &x), |s| oracle_ell(s, &ell, &x));
            agree(&profile, |s| ellr_spmv(s, &ellr, &x), |s| oracle_ellr(s, &ellr, &x));
            for interval in [32, 100, 256] {
                agree(
                    &profile,
                    |s| coo_spmv_with(s, &coo, &x, interval),
                    |s| oracle_coo(s, &coo, &x, interval),
                );
            }
        }
    }
}
