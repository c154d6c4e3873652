//! Property-based tests of the simulator's accounting invariants.

use bro_gpu_sim::{BlockCtx, DeviceProfile, DeviceSim, KernelReport, SetAssocCache, WarpAccess};
use proptest::prelude::*;

/// Reference LRU: per-way last-use stamps, evicting the minimum stamp
/// (empty ways have stamp 0, so they fill first). Same geometry rule as
/// [`SetAssocCache::new`].
struct StampLru {
    sets: u64,
    assoc: usize,
    line_bytes: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl StampLru {
    fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        let sets = if capacity_bytes == 0 {
            0
        } else {
            ((capacity_bytes / line_bytes).max(assoc) / assoc).max(1)
        };
        StampLru {
            sets: sets as u64,
            assoc,
            line_bytes: line_bytes as u64,
            tags: vec![u64::MAX; sets * assoc],
            stamps: vec![0; sets * assoc],
            clock: 0,
        }
    }

    fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        if self.sets == 0 {
            return false;
        }
        let line = addr / self.line_bytes;
        let start = (line % self.sets) as usize * self.assoc;
        let ways = start..start + self.assoc;
        if let Some(w) = ways.clone().find(|&w| self.tags[w] == line) {
            self.stamps[w] = self.clock;
            return true;
        }
        let lru = ways.min_by_key(|&w| self.stamps[w]).expect("assoc >= 1");
        self.tags[lru] = line;
        self.stamps[lru] = self.clock;
        false
    }
}

/// Adds `addrs` to a warp access one lane at a time, then charges it.
fn narrate(mut warp: WarpAccess<'_>, addrs: &[u64]) {
    addrs.iter().for_each(|&a| warp.lane(a));
    warp.end();
}

/// Reference coalescer: every segment each lane touches, sorted and
/// deduplicated.
fn distinct_segments(addrs: &[u64], elem_bytes: u64, txn_bytes: u64) -> u64 {
    let mut segs: Vec<u64> =
        addrs.iter().flat_map(|&a| a / txn_bytes..=(a + elem_bytes - 1) / txn_bytes).collect();
    segs.sort_unstable();
    segs.dedup();
    segs.len() as u64
}

/// Cache geometries: C2070 (96 sets), K20 (384 sets), one set, zero
/// capacity, direct-mapped, 2-, 3-, 6- and 8-way (3 and 6 ways leave empty
/// padding ways in each stored set), and 128-byte lines.
const GEOMETRIES: [(usize, usize, usize); 11] = [
    (12 * 1024, 32, 4),
    (48 * 1024, 32, 4),
    (128, 32, 4),
    (0, 32, 4),
    (4096, 32, 1),
    (2048, 32, 2),
    (3 * 1024, 32, 3),
    (6 * 1024, 32, 6),
    (16 * 1024, 32, 8),
    (48 * 1024, 128, 4),
    (8 * 1024, 128, 8),
];

/// Address regions. The second and third straddle line number 2³² for 32-
/// and 128-byte lines, and the last lies far above it.
const REGIONS: [u64; 4] = [0, (1 << 37) - 16 * 1024, (1 << 39) - 16 * 1024, 1 << 52];

proptest! {
    /// Coalescing never produces more transactions than active lanes (for
    /// elements that fit in one segment) nor fewer than the minimum needed
    /// to cover the bytes.
    #[test]
    fn coalescing_bounds(addrs in prop::collection::vec(0u64..1_000_000, 1..32)) {
        let mut sim = DeviceSim::new(DeviceProfile::tesla_c2070());
        let a = addrs.clone();
        sim.launch(1, 32, move |_, ctx| narrate(ctx.load(4), &a));
        let txns = sim.stats().global_read_txns;
        prop_assert!(txns >= 1);
        // 4-byte elements can straddle at most 2 segments each.
        prop_assert!(txns <= 2 * addrs.len() as u64);
        prop_assert_eq!(sim.stats().global_read_bytes, txns * 128);
    }

    /// A fully coalesced unit-stride warp read is exactly
    /// ceil(span / txn_bytes) transactions when aligned.
    #[test]
    fn unit_stride_transactions(base_seg in 0u64..1000, lanes in 1usize..=32) {
        let base = base_seg * 128;
        let addrs: Vec<u64> = (0..lanes as u64).map(|i| base + i * 4).collect();
        let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
        let a = addrs.clone();
        sim.launch(1, 32, move |_, ctx| narrate(ctx.load(4), &a));
        let span = lanes * 4;
        prop_assert_eq!(sim.stats().global_read_txns, span.div_ceil(128) as u64);
    }

    /// Cache hits + misses equals accesses; hit rate is within [0, 1].
    #[test]
    fn cache_accounting(addrs in prop::collection::vec(0u64..100_000, 1..500)) {
        let mut c = SetAssocCache::new(4096, 32, 4);
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        prop_assert!(c.hit_rate() >= 0.0 && c.hit_rate() <= 1.0);
    }

    /// The move-to-front cache hits and misses exactly where the stamp LRU
    /// does, on every access. Besides scattered and windowed accesses the
    /// sequences repeat the previous line (an MRU hit, like neighbouring
    /// lanes of a warp), ping-pong between lines of one set, which moves
    /// every way, and now and then reset both caches, after which the
    /// previous line must miss.
    #[test]
    fn cache_matches_stamp_lru(
        geometry in 0..GEOMETRIES.len(),
        accesses in prop::collection::vec((0..REGIONS.len(), 0u64..32 * 1024, 0u64..61), 1..3000),
    ) {
        let (capacity, line, assoc) = GEOMETRIES[geometry];
        let mut fast = SetAssocCache::new(capacity, line, assoc);
        let mut oracle = StampLru::new(capacity, line, assoc);
        // One set's stride: lines `k · sets` apart all map to the same set.
        let set_stride = (fast.sets().max(1) * line) as u64;
        let mut prev = REGIONS[0];
        let mut since_reset = 0;
        for (i, &(region, offset, kind)) in accesses.iter().enumerate() {
            // `kind / 10` picks the access; kind 60 (one in 61) resets.
            let addr = match kind / 10 {
                // Narrow accesses revisit a small window, so hits are common.
                0 => REGIONS[region] + offset % 2048,
                // The previous access's line again.
                1 | 2 => prev - prev % line as u64 + offset % line as u64,
                // One of assoc + 1 lines of one set.
                3 => REGIONS[region] + (offset % (assoc as u64 + 1)) * set_stride,
                6 => {
                    fast.reset();
                    oracle.reset();
                    since_reset = 0;
                    continue;
                }
                _ => REGIONS[region] + offset,
            };
            prop_assert_eq!(fast.access(addr), oracle.access(addr), "access {} at {:#x}", i, addr);
            prev = addr;
            since_reset += 1;
        }
        prop_assert_eq!(fast.hits() + fast.misses(), since_reset);
    }

    /// One-pass coalescing counts the same transactions as sort + dedup, for
    /// lanes in order, reversed, duplicated or shuffled, spread out and then
    /// stepping back, and for elements of 1 to 256 bytes straddling segment
    /// boundaries; whether the lanes come one by one, one by one between
    /// other lanes' texture reads, or as spans of consecutive elements.
    #[test]
    fn coalescing_matches_sort_dedup(
        base in 0u64..4096,
        offsets in prop::collection::vec(0u64..1024, 1..=32),
        elem_bytes in 1u64..=256,
        pattern in 0u8..6,
    ) {
        let mut addrs: Vec<u64> = offsets.iter().map(|&o| base + o).collect();
        match pattern {
            0 => {}
            1 => addrs.sort_unstable(),
            2 => {
                addrs.sort_unstable();
                addrs.reverse();
            }
            3 => {
                addrs.truncate(16);
                addrs.sort_unstable();
                addrs = addrs.iter().flat_map(|&a| [a, a]).collect();
            }
            4 => addrs = (0..offsets.len() as u64).map(|i| base + i * elem_bytes).collect(),
            _ => {
                // Ascending lanes with gaps between their segments, then a
                // lane below them all: the fallback must recall every run.
                addrs = (0..offsets.len().min(31) as u64).map(|i| base + i * 300).collect();
                addrs.push(base / 2);
            }
        }
        let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
        let a = addrs.clone();
        sim.launch(1, 32, move |_, ctx| {
            narrate(ctx.load(elem_bytes), &a);
            narrate(ctx.store(elem_bytes), &a);
        });
        let expect = distinct_segments(&addrs, elem_bytes, 128);
        prop_assert_eq!(sim.stats().global_read_txns, expect, "lanes {:?}", addrs);
        prop_assert_eq!(sim.stats().global_write_txns, expect);

        let mut streamed = DeviceSim::new(DeviceProfile::tesla_k20());
        let a = addrs.clone();
        streamed.launch(1, 32, move |_, ctx| {
            for open in [BlockCtx::load, BlockCtx::store] {
                let mut warp = open(ctx, elem_bytes);
                for &lane in &a {
                    warp.lane(lane);
                    warp.tex_lane(lane, elem_bytes);
                }
                warp.end();
            }
        });
        let got = streamed.stats();
        prop_assert_eq!(got.global_read_txns, expect);
        prop_assert_eq!(got.global_write_txns, expect);
        prop_assert_eq!(got.global_load_instrs + got.global_store_instrs, 2);
        prop_assert_eq!(got.tex_accesses, 2 * addrs.len() as u64);

        // Runs of lanes reading consecutive elements, each added as a span.
        let mut spans = DeviceSim::new(DeviceProfile::tesla_k20());
        let a = addrs.clone();
        spans.launch(1, 32, move |_, ctx| {
            let mut warp = ctx.load(elem_bytes);
            let mut i = 0;
            while i < a.len() {
                let n = 1 + a[i + 1..]
                    .iter()
                    .zip(&a[i..])
                    .take_while(|&(&next, &prev)| next == prev + elem_bytes)
                    .count();
                warp.lanes(a[i], n);
                i += n;
            }
            warp.end();
        });
        prop_assert_eq!(spans.stats().global_read_txns, expect);
        prop_assert_eq!(spans.stats().global_load_instrs, 1);
    }

    /// Repeating an access sequence entirely within capacity yields 100%
    /// hits the second time.
    #[test]
    fn cache_residency(seed in 0u64..1000) {
        let mut c = SetAssocCache::new(8192, 32, 4);
        // A working set of 64 lines (2 KiB) in an 8 KiB cache.
        let addrs: Vec<u64> = (0..64u64).map(|i| (seed + i) * 32).collect();
        for &a in &addrs {
            c.access(a);
        }
        let h0 = c.hits();
        for &a in &addrs {
            prop_assert!(c.access(a));
        }
        prop_assert_eq!(c.hits() - h0, 64);
    }

    /// Timing monotonicity: more bytes never makes a kernel faster, and
    /// more int ops never makes it faster.
    #[test]
    fn report_monotonicity(
        bytes in 1u64..10_000_000,
        extra in 1u64..10_000_000,
        ops in 0u64..1_000_000,
    ) {
        use bro_gpu_sim::LaunchStats;
        let p = DeviceProfile::gtx680();
        let mk = |b: u64, o: u64| LaunchStats {
            global_read_bytes: b,
            int_ops: o,
            blocks_launched: 1000,
            warps_launched: 8000,
            ..Default::default()
        };
        let r1 = KernelReport::compute(&p, &mk(bytes, ops), 1, 1000, 8);
        let r2 = KernelReport::compute(&p, &mk(bytes + extra, ops), 1, 1000, 8);
        let r3 = KernelReport::compute(&p, &mk(bytes, ops + extra), 1, 1000, 8);
        prop_assert!(r2.time_s >= r1.time_s);
        prop_assert!(r3.time_s >= r1.time_s);
    }

    /// Launch outputs preserve block order regardless of SM scheduling.
    #[test]
    fn launch_output_order(blocks in 1usize..200) {
        let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
        let outs = sim.launch(blocks, 64, |b, _| b);
        prop_assert_eq!(outs, (0..blocks).collect::<Vec<_>>());
    }
}
