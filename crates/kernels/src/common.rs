//! Shared helpers for the simulated kernels: lane runs, SpMV and SpMM
//! vectors, the COO-family interval launch and the HYB composition.

use bro_gpu_sim::{BlockCtx, BufferAddr, DeviceSim, WarpAccess};
use bro_matrix::Scalar;

use crate::BLOCK_SIZE;

/// A run of consecutive active lanes reading consecutive elements of one
/// buffer. The kernel adds a warp's active lanes in order with
/// [`lane`](LaneRun::lane) and calls [`end`](LaneRun::end) at every
/// inactive lane and after the last lane; each run then goes to the warp
/// access as one span.
#[derive(Debug, Clone, Copy)]
pub struct LaneRun {
    buf: BufferAddr,
    start: usize,
    len: usize,
}

impl LaneRun {
    /// An empty run over `buf`.
    pub fn new(buf: BufferAddr) -> Self {
        LaneRun { buf, start: 0, len: 0 }
    }

    /// Adds the active lane reading element `i` of the buffer: the element
    /// after the run's last one, or the first of a new run.
    #[inline]
    pub fn lane(&mut self, i: usize) {
        if self.len == 0 {
            self.start = i;
        }
        self.len += 1;
    }

    /// Ends the run at an inactive lane or the warp's end, adding it to
    /// `access`.
    #[inline]
    pub fn end(&mut self, access: &mut WarpAccess<'_>) {
        if self.len > 0 {
            access.lanes(self.buf.addr(self.start), self.len);
            self.len = 0;
        }
    }
}

/// The `k` input vectors of one launch (`k = 1` for SpMV) with the device
/// buffers of every `x` and `y`. A row kernel computes every vector in one
/// pass over the matrix: vector 0 rides the value load, each further
/// vector makes one more pass over the warp's valid lanes.
pub(crate) struct Vectors<'a, T> {
    xs: &'a [&'a [T]],
    x_bufs: Vec<BufferAddr>,
    y_bufs: Vec<BufferAddr>,
}

impl<'a, T: Scalar> Vectors<'a, T> {
    /// Allocates every `x`, then every `y` of `rows` elements.
    pub(crate) fn alloc(sim: &mut DeviceSim, xs: &'a [&'a [T]], rows: usize) -> Self {
        let x_bufs = xs.iter().map(|x| sim.alloc(x.len().max(1), T::BYTES)).collect();
        let y_bufs = xs.iter().map(|_| sim.alloc(rows, T::BYTES)).collect();
        Vectors { xs, x_bufs, y_bufs }
    }

    /// The number of vectors.
    pub(crate) fn k(&self) -> usize {
        self.xs.len()
    }

    /// Vector `v` and its device buffer.
    #[inline]
    pub(crate) fn x(&self, v: usize) -> (&'a [T], BufferAddr) {
        (self.xs[v], self.x_bufs[v])
    }

    /// SpMM vectors `1..k` of a warp step: one more pass each over the valid
    /// lanes (row in the block, value index, column). Out of line, like
    /// `store`, so the SpMV loop around the call compiles as without it.
    #[inline(never)]
    pub(crate) fn further_passes(
        &self,
        ctx: &mut BlockCtx,
        lanes: impl Iterator<Item = (usize, usize, usize)> + Clone,
        vals: &[T],
        y_local: &mut [T],
        flops: u64,
    ) {
        let height = y_local.len() / self.k();
        for (x, x_buf, y) in (1..self.k()).map(|v| (self.xs[v], self.x_bufs[v], v * height)) {
            for (r, i, c) in lanes.clone() {
                ctx.tex_lane(x_buf.addr(c), T::BYTES as u64);
                y_local[y + r] = vals[i].mul_add(x[c], y_local[y + r]);
            }
            ctx.flops(flops);
        }
    }

    /// Stores a warp's `lanes` rows from `row` of every `y`: one coalesced
    /// store per vector.
    #[inline(never)]
    pub(crate) fn store(&self, ctx: &mut BlockCtx, row: usize, lanes: usize) {
        for y_buf in &self.y_bufs {
            let mut store = ctx.store(T::BYTES as u64);
            store.lanes(y_buf.addr(row), lanes);
            store.end();
        }
    }

    /// Assembles the `k` dense `y` vectors from per-block outputs: block
    /// `b` owns rows `b · h ..` and returns each vector's rows in turn.
    pub(crate) fn assemble(&self, rows: usize, h: usize, chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let k = self.k();
        let mut ys = vec![vec![T::ZERO; rows]; k];
        for (b, chunk) in chunks.into_iter().enumerate() {
            let height = chunk.len() / k;
            for (v, y) in ys.iter_mut().enumerate() {
                y[b * h..b * h + height].copy_from_slice(&chunk[v * height..(v + 1) * height]);
            }
        }
        ys
    }
}

/// The longest of the `lanes` rows from `row`, for a warp that stops at
/// its longest row (ELLPACK-R, BRO-ELL-R, VLQ-ELL): the warp loads its
/// rows' lengths in one coalesced load.
pub(crate) fn longest_row(
    ctx: &mut BlockCtx,
    (lengths, len_buf): (&[u32], BufferAddr),
    row: usize,
    lanes: usize,
) -> usize {
    let mut load = ctx.load(4);
    load.lanes(len_buf.addr(row), lanes);
    load.end();
    lengths[row..row + lanes].iter().max().copied().unwrap_or(0) as usize
}

/// Assembles a dense `y` vector from per-block row-contiguous outputs (each
/// block owns rows `block · h .. block · h + chunk.len()`).
pub fn assemble_rows<T: Scalar>(rows: usize, h: usize, chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut y = vec![T::ZERO; rows];
    for (b, chunk) in chunks.into_iter().enumerate() {
        let start = b * h;
        y[start..start + chunk.len()].copy_from_slice(&chunk);
    }
    y
}

/// Scatters additive updates `(row, value)` into a dense `y` vector; used by
/// the COO-family kernels whose intervals may straddle row boundaries.
pub fn apply_updates<T: Scalar>(y: &mut [T], updates: impl IntoIterator<Item = (u32, T)>) {
    for (r, v) in updates {
        y[r as usize] += v;
    }
}

/// A COO-family SpMV (COO, BRO-COO) once the kernel's own arrays are
/// allocated: allocates `x`, `y` and two carries per interval, runs one
/// `warp`-lane warp per interval under `labels[0]`, then folds the carries
/// into `y` with atomics under `labels[1]`. `interval(ctx, scratch, sums,
/// iv, x_buf)` narrates interval `iv`, adds its entries to `sums` and
/// returns its last segment; `scratch` is the block's working memory.
pub(crate) fn interval_spmv<T: Scalar, S: Default>(
    sim: &mut DeviceSim,
    labels: [&'static str; 2],
    x: &[T],
    rows: usize,
    intervals: usize,
    warp: usize,
    interval: impl Fn(&mut BlockCtx, &mut S, &mut IntervalSums<T>, usize, BufferAddr) -> Segment<T>
        + Sync,
) -> Vec<T> {
    let x_buf = sim.alloc(x.len().max(1), T::BYTES);
    let y_buf = sim.alloc(rows, T::BYTES);
    // Two carries (row, value) per interval.
    let carry_buf = sim.alloc(intervals * 2, 4 + T::BYTES);
    let elem = T::BYTES as u64;

    let per_block = (BLOCK_SIZE / warp).max(1);
    sim.label_next_launch(labels[0]);
    let blocks = sim.launch(intervals.div_ceil(per_block), per_block * warp, |b, ctx| {
        let (mut sums, mut scratch) = (IntervalSums::default(), S::default());
        for iv in b * per_block..intervals.min((b + 1) * per_block) {
            let last = interval(ctx, &mut scratch, &mut sums, iv, x_buf);
            // The interval's last segment is a carry.
            sums.carries.push((last.row, last.sum));
            // Direct writes: scattered stores grouped per warp. `direct`
            // holds the block's earlier intervals too, so their stores are
            // charged again; the golden counts include this.
            for group in sums.direct.chunks(warp) {
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
        sums
    });

    let mut y = vec![T::ZERO; rows];
    let mut carries: Vec<(u32, T)> = Vec::new();
    for block in blocks {
        apply_updates(&mut y, block.direct);
        carries.extend(block.carries);
    }
    // Second kernel: fold the carries into y with atomics.
    let carries = &carries;
    // The carry kernel runs at the device's warp width.
    let warp = sim.profile().warp_size;
    sim.label_next_launch(labels[1]);
    sim.launch(carries.len().div_ceil(BLOCK_SIZE).max(1), BLOCK_SIZE, |b, ctx| {
        let start = b * BLOCK_SIZE;
        let end = (start + BLOCK_SIZE).min(carries.len());
        let mut atomics = Vec::with_capacity(warp);
        for w0 in (start..end).step_by(warp) {
            let lanes = (end - w0).min(warp);
            let mut load = ctx.load(4 + elem);
            load.lanes(carry_buf.addr(w0), lanes);
            load.end();
            atomics.clear();
            atomics.extend(carries[w0..w0 + lanes].iter().map(|&(r, _)| y_buf.addr(r as usize)));
            ctx.atomic_rmw(&atomics);
            ctx.flops(lanes as u64);
        }
    });
    apply_updates(&mut y, carries.iter().copied());
    y
}

/// The row sums of one block of a COO-family kernel. Each warp adds one
/// interval's entries in row order, and consecutive entries of one row form
/// a segment. A row strictly inside its interval is written directly; the
/// first and last segments, whose rows a neighbouring interval may share,
/// become carries.
#[derive(Default)]
pub(crate) struct IntervalSums<T> {
    direct: Vec<(u32, T)>,
    carries: Vec<(u32, T)>,
}

/// The open segment of one interval. The kernel keeps it in a local, so
/// the running sum stays in a register across the entries of a long row.
pub(crate) struct Segment<T> {
    row: u32,
    sum: T,
    first: bool,
}

impl<T: Scalar> Segment<T> {
    /// The first segment of an interval whose first entry is in row `row`.
    pub(crate) fn begin(row: u32) -> Self {
        Segment { row, sum: T::ZERO, first: true }
    }

    /// Adds the next entry, `v · x` into `row`, closing the segment into
    /// `sums` when the row changes.
    #[inline]
    pub(crate) fn add(&mut self, sums: &mut IntervalSums<T>, row: u32, v: T, x: T) {
        if row != self.row {
            let segment = (self.row, self.sum);
            if std::mem::take(&mut self.first) {
                sums.carries.push(segment);
            } else {
                sums.direct.push(segment);
            }
            (self.row, self.sum) = (row, T::ZERO);
        }
        self.sum = v.mul_add(x, self.sum);
    }
}

/// Adds the tail part of a composite kernel (HYB's COO part, BRO-HYB's
/// BRO-COO part) of `tail_nnz` entries to the head part's `y`. A nonempty
/// tail runs on a [`sibling`](DeviceSim::sibling), so it has its own
/// address space and does not reset the head part's statistics; `sim`
/// then absorbs its statistics.
pub(crate) fn add_tail<T: Scalar>(
    sim: &mut DeviceSim,
    mut y: Vec<T>,
    tail_nnz: usize,
    tail: impl FnOnce(&mut DeviceSim) -> Vec<T>,
) -> Vec<T> {
    if tail_nnz == 0 {
        return y;
    }
    let mut tail_sim = sim.sibling();
    let y_tail = tail(&mut tail_sim);
    sim.absorb_snapshot(&tail_sim.snapshot());
    for (a, b) in y.iter_mut().zip(y_tail) {
        *a += b;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::{DeviceProfile, DeviceSim};

    #[test]
    fn lane_runs_charge_what_single_lanes_charge() {
        // Lanes 0-2, 5, 6 and 40-41 of an 8-byte buffer: three runs.
        let active = [0, 1, 2, 5, 6, 40, 41];
        let mut by_run = DeviceSim::new(DeviceProfile::tesla_k20());
        let buf = by_run.alloc(64, 8);
        by_run.launch(1, 32, |_, ctx| {
            let mut load = ctx.load(8);
            let mut run = LaneRun::new(buf);
            for i in 0..64 {
                if active.contains(&i) {
                    run.lane(i);
                } else {
                    run.end(&mut load);
                }
            }
            run.end(&mut load);
            load.end();
        });
        let mut by_lane = DeviceSim::new(DeviceProfile::tesla_k20());
        let buf = by_lane.alloc(64, 8);
        by_lane.launch(1, 32, |_, ctx| {
            let mut load = ctx.load(8);
            for i in active {
                load.lane(buf.addr(i));
            }
            load.end();
        });
        assert_eq!(by_run.stats(), by_lane.stats());
        assert_eq!(by_run.stats().global_read_txns, 2);
    }

    #[test]
    fn assemble_rows_places_chunks() {
        let y = assemble_rows::<f64>(5, 2, vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0]]);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn apply_updates_accumulates() {
        let mut y = vec![0.0f64; 3];
        apply_updates(&mut y, vec![(0, 1.0), (2, 2.0), (0, 3.0)]);
        assert_eq!(y, vec![4.0, 0.0, 2.0]);
    }
}
