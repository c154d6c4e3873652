//! Shared helpers for the simulated kernels.

use bro_gpu_sim::{BufferAddr, WarpAccess};
use bro_matrix::Scalar;

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
