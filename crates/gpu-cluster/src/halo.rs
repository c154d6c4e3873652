//! Halo-exchange planning.
//!
//! From the per-device partitions, the planner derives the exact per-peer
//! communication pattern: for every ordered pair `(src, dst)` the list of
//! `x` entries (as indices into `src`'s owned chunk) that `src` must pack
//! and send so `dst` can fill its halo buffer.
//!
//! Because every device's halo columns are sorted by global id and column
//! ownership is contiguous and rank-ordered, the blocks a device receives
//! from its peers — taken in rank order — concatenate *exactly* into its
//! halo buffer. No receive-side permutation is needed, matching how real
//! distributed SpMV implementations lay out their ghost regions.
//!
//! The planner also prices the one-time index-list metadata both ways:
//! raw `u32` lists versus BRO bit-packed delta streams (the paper's
//! compression applied to the communication metadata), which the scaling
//! experiment reports.

use bro_bitstream::max_bits;
use bro_matrix::Scalar;

use crate::partition::{DevicePartition, RowPartition};

/// The most devices a [`HaloPlan`] is built for. The plan holds a dense
/// `devices × devices` table of send lists, about 25 MB at this limit and
/// 2.4 GB at 10 000 devices.
pub const MAX_DEVICES: usize = 1024;

/// Per-pair send lists and derived traffic accounting for one cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloPlan {
    /// `sends[src][dst]`: indices into `src`'s owned `x` chunk, in the order
    /// they are packed onto the wire. Empty when `src == dst`.
    sends: Vec<Vec<Vec<u32>>>,
}

impl HaloPlan {
    /// Builds the plan for the given partitioning.
    ///
    /// # Panics
    /// With more than [`MAX_DEVICES`] devices.
    pub fn build<T: Scalar>(part: &RowPartition, devices: &[DevicePartition<T>]) -> Self {
        let n = devices.len();
        assert!(n <= MAX_DEVICES, "{n} devices: a halo plan holds at most {MAX_DEVICES}");
        let mut sends = vec![vec![Vec::new(); n]; n];
        for dst in devices {
            for &c in &dst.halo_cols {
                let src = part.owner_of_col(c as usize);
                debug_assert_ne!(src, dst.rank, "halo columns are peer-owned");
                let local = c - part.cols_of(src).start as u32;
                sends[src][dst.rank].push(local);
            }
        }
        HaloPlan { sends }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// True for a zero-device plan (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// The send list from `src` to `dst` (indices into `src`'s owned chunk).
    pub fn send_list(&self, src: usize, dst: usize) -> &[u32] {
        &self.sends[src][dst]
    }

    /// Values `src` sends to each destination.
    pub fn send_counts(&self, src: usize) -> Vec<usize> {
        self.sends[src].iter().map(Vec::len).collect()
    }

    /// Values `dst` receives from each source.
    pub fn recv_counts(&self, dst: usize) -> Vec<usize> {
        self.sends.iter().map(|row| row[dst].len()).collect()
    }

    /// Total values crossing the interconnect per exchange.
    pub fn total_values(&self) -> usize {
        self.sends.iter().flatten().map(Vec::len).sum()
    }

    /// Performs the exchange functionally: gathers each device's halo
    /// buffer from the owned chunks. `owned[p]` is device `p`'s slice of
    /// `x`; the result's entry `p` aligns with `devices[p].halo_cols`.
    pub fn exchange<T: Scalar>(&self, owned: &[Vec<T>]) -> Vec<Vec<T>> {
        let n = self.len();
        assert_eq!(owned.len(), n, "one owned chunk per device");
        (0..n)
            .map(|dst| {
                let mut buf = Vec::with_capacity(self.recv_counts(dst).iter().sum());
                for (sends, own) in self.sends.iter().zip(owned) {
                    buf.extend(sends[dst].iter().map(|&i| own[i as usize]));
                }
                buf
            })
            .collect()
    }

    /// Bytes of `x` values `src` sends to `dst` per exchange.
    pub fn pair_bytes(&self, src: usize, dst: usize, val_bytes: usize) -> u64 {
        (self.sends[src][dst].len() * val_bytes) as u64
    }

    /// Total bytes of `x` values crossing the interconnect per exchange.
    pub fn exchange_bytes(&self, val_bytes: usize) -> u64 {
        (self.total_values() * val_bytes) as u64
    }

    /// One-time metadata cost of shipping every send list as raw `u32`s.
    pub fn index_bytes_raw(&self) -> u64 {
        4 * self.total_values() as u64
    }

    /// One-time metadata cost with BRO compression: each send list is
    /// delta-encoded (the lists are sorted) and bit-packed at the list's
    /// maximum delta width, plus an 8-byte header per non-empty list
    /// (first value and width).
    pub fn index_bytes_bro(&self) -> u64 {
        let mut total = 0u64;
        for row in &self.sends {
            for list in row {
                if list.is_empty() {
                    continue;
                }
                let deltas: Vec<u64> = list.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
                let width = max_bits(&deltas).max(1) as u64;
                total += 8 + (width * deltas.len() as u64).div_ceil(8);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_matrix::{CooMatrix, CsrMatrix};

    fn plan_for(
        n: usize,
        band: usize,
        devices: usize,
    ) -> (RowPartition, Vec<DevicePartition<f64>>, HaloPlan) {
        let mut r = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        for i in 0..n {
            for d in 0..=band {
                if i + d < n {
                    r.push(i);
                    c.push(i + d);
                    v.push((i + d) as f64 + 1.0);
                }
                if i >= d && d > 0 {
                    r.push(i);
                    c.push(i - d);
                    v.push(i as f64 - d as f64 + 0.5);
                }
            }
        }
        let a = CsrMatrix::from_coo(&CooMatrix::from_triplets(n, n, &r, &c, &v).unwrap());
        let part = RowPartition::uniform(&a, devices);
        let devs = part.split(&a);
        let plan = HaloPlan::build(&part, &devs);
        (part, devs, plan)
    }

    #[test]
    fn every_halo_col_is_sent_by_exactly_one_peer() {
        let (part, devs, plan) = plan_for(120, 4, 4);
        for dst in &devs {
            let mut received: Vec<u32> = Vec::new();
            for src in 0..plan.len() {
                for &i in plan.send_list(src, dst.rank) {
                    received.push(part.cols_of(src).start as u32 + i);
                }
            }
            // Rank-order concatenation reproduces halo_cols exactly.
            assert_eq!(received, dst.halo_cols);
        }
    }

    #[test]
    fn no_self_sends() {
        let (_, _, plan) = plan_for(80, 3, 4);
        for p in 0..plan.len() {
            assert!(plan.send_list(p, p).is_empty());
        }
    }

    #[test]
    fn exchange_delivers_owned_values() {
        let (part, devs, plan) = plan_for(64, 2, 4);
        // owned[p][i] encodes the global column id, so delivery is checkable.
        let owned: Vec<Vec<f64>> =
            (0..plan.len()).map(|p| part.cols_of(p).map(|c| c as f64).collect()).collect();
        let halos = plan.exchange(&owned);
        for (d, halo) in devs.iter().zip(&halos) {
            let want: Vec<f64> = d.halo_cols.iter().map(|&c| c as f64).collect();
            assert_eq!(halo, &want);
        }
    }

    #[test]
    fn band_matrix_halo_is_narrow() {
        let (_, devs, plan) = plan_for(400, 2, 4);
        // A bandwidth-2 matrix needs at most 2 columns from each side.
        for d in &devs {
            assert!(d.halo_cols.len() <= 4, "rank {} halo {:?}", d.rank, d.halo_cols);
        }
        assert!(plan.total_values() <= 4 * 4);
    }

    #[test]
    fn counts_are_consistent() {
        let (_, _, plan) = plan_for(150, 6, 4);
        let total: usize = (0..plan.len()).map(|p| plan.send_counts(p).iter().sum::<usize>()).sum();
        let total_recv: usize =
            (0..plan.len()).map(|p| plan.recv_counts(p).iter().sum::<usize>()).sum();
        assert_eq!(total, plan.total_values());
        assert_eq!(total_recv, plan.total_values());
        assert_eq!(plan.exchange_bytes(8), 8 * total as u64);
    }

    #[test]
    fn bro_index_metadata_beats_raw_on_dense_lists() {
        // Contiguous send lists delta-encode to width-1 symbols.
        let (_, _, plan) = plan_for(4000, 40, 2);
        assert!(plan.total_values() > 0);
        assert!(
            plan.index_bytes_bro() < plan.index_bytes_raw(),
            "bro {} raw {}",
            plan.index_bytes_bro(),
            plan.index_bytes_raw()
        );
    }

    #[test]
    fn single_device_has_no_traffic() {
        let (_, devs, plan) = plan_for(100, 3, 1);
        assert_eq!(plan.total_values(), 0);
        assert_eq!(devs[0].halo_cols.len(), 0);
        assert_eq!(devs[0].remote.nnz(), 0);
    }
}
