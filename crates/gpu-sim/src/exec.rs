//! SIMT execution engine.
//!
//! A kernel launch is expressed as a closure executed once per thread block.
//! Blocks are assigned round-robin to SMs (`sm = block % sms`, matching the
//! hardware's greedy block scheduler for uniform-duration blocks); the SMs
//! run in parallel on host threads, each processing its blocks sequentially
//! against its own texture cache, so results and statistics are
//! deterministic.
//!
//! Inside a block, the kernel narrates its work to the [`BlockCtx`]:
//! warp-level memory instructions (the byte address of each active lane,
//! given lane by lane or as a span of consecutive lanes) and arithmetic
//! operation counts. The context coalesces each instruction's lanes as they
//! arrive, drives the texture cache, and accumulates [`LaunchStats`].

use rayon::prelude::*;

use crate::buffer::{AddrSpace, BufferAddr, BASE_ADDR};
use crate::cache::SetAssocCache;
use crate::device::DeviceProfile;
use crate::stats::{LaunchStats, StatsSnapshot};
use crate::trace::{SpanId, Tracer};

/// A simulated GPU device: a profile plus an address space and the
/// accumulated statistics of every launch since the last [`DeviceSim::reset_stats`].
///
/// Besides the resettable accumulators the device keeps **lifetime**
/// counters that only ever grow; the tracer reads those, so per-span deltas
/// survive the `reset_stats()` every kernel performs on entry.
#[derive(Debug)]
pub struct DeviceSim {
    profile: DeviceProfile,
    addr_space: AddrSpace,
    accumulated: LaunchStats,
    launches: usize,
    /// Monotonic totals since construction — never reset.
    lifetime: LaunchStats,
    lifetime_launches: usize,
    tracer: Tracer,
    /// Timeline lane for spans recorded by this device (0 = driver; cluster
    /// devices use `rank + 1`).
    lane: u32,
    /// One-shot label consumed by the next [`launch`](DeviceSim::launch).
    next_launch_label: Option<&'static str>,
}

/// Configures and validates a [`DeviceSim`].
///
/// ```
/// use bro_gpu_sim::{DeviceProfile, DeviceSim, Tracer};
/// let sim = DeviceSim::builder(DeviceProfile::tesla_k20())
///     .tracer(Tracer::disabled())
///     .lane(0)
///     .build();
/// assert_eq!(sim.profile().name, "Tesla K20");
/// ```
#[derive(Debug)]
pub struct DeviceSimBuilder {
    profile: DeviceProfile,
    tracer: Tracer,
    lane: u32,
}

impl DeviceSimBuilder {
    /// Attaches a tracer; spans from this device (and its
    /// [siblings](DeviceSim::sibling)) land in its recording.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Timeline lane for this device's spans (default 0).
    pub fn lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Overrides the texture-cache geometry (capacity, line size,
    /// associativity) of the profile. `capacity_bytes = 0` disables the
    /// cache (every access misses).
    pub fn tex_cache(mut self, capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        self.profile.tex_cache_bytes = capacity_bytes;
        self.profile.tex_line_bytes = line_bytes;
        self.profile.tex_assoc = assoc;
        self
    }

    /// Validates the configuration and builds the device.
    pub fn try_build(self) -> Result<DeviceSim, String> {
        let p = &self.profile;
        if p.sms == 0 {
            return Err(format!("profile '{}': a device needs at least one SM", p.name));
        }
        if p.warp_size == 0 {
            return Err(format!("profile '{}': warp size must be positive", p.name));
        }
        if p.txn_bytes == 0 || !p.txn_bytes.is_power_of_two() {
            return Err(format!(
                "profile '{}': memory transaction size {} must be a power of two",
                p.name, p.txn_bytes
            ));
        }
        if p.tex_line_bytes == 0 || !p.tex_line_bytes.is_power_of_two() {
            return Err(format!(
                "profile '{}': texture line size {} must be a power of two",
                p.name, p.tex_line_bytes
            ));
        }
        if p.tex_assoc == 0 {
            return Err(format!("profile '{}': texture associativity must be positive", p.name));
        }
        Ok(DeviceSim {
            profile: self.profile,
            addr_space: AddrSpace::new(),
            accumulated: LaunchStats::default(),
            launches: 0,
            lifetime: LaunchStats::default(),
            lifetime_launches: 0,
            tracer: self.tracer,
            lane: self.lane,
            next_launch_label: None,
        })
    }

    /// Builds the device, panicking on an invalid configuration.
    pub fn build(self) -> DeviceSim {
        self.try_build().unwrap_or_else(|e| panic!("invalid DeviceSim configuration: {e}"))
    }
}

impl DeviceSim {
    /// Starts configuring a device. [`new`](DeviceSim::new) is the
    /// no-frills shortcut for the common untraced case.
    pub fn builder(profile: DeviceProfile) -> DeviceSimBuilder {
        DeviceSimBuilder { profile, tracer: Tracer::disabled(), lane: 0 }
    }

    /// Creates an untraced device from a profile — equivalent to
    /// `DeviceSim::builder(profile).build()`.
    pub fn new(profile: DeviceProfile) -> Self {
        DeviceSim::builder(profile).build()
    }

    /// A fresh device with the same profile, tracer, and lane but its own
    /// address space and statistics. Composite kernels (HYB = ELL + COO)
    /// run their secondary part on a sibling and
    /// [`absorb`](DeviceSim::absorb) it, so sibling launches still show up
    /// in the parent's trace, nested under the parent's open span.
    pub fn sibling(&self) -> DeviceSim {
        let mut sim = DeviceSim::new(self.profile.clone());
        sim.tracer = self.tracer.clone();
        sim.lane = self.lane;
        sim
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The tracer attached to this device (possibly disabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This device's timeline lane.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Allocates a simulated device buffer for a host slice.
    pub fn alloc_for<T>(&mut self, data: &[T]) -> BufferAddr {
        self.addr_space.alloc_for(data)
    }

    /// Allocates a simulated device buffer by length and element size.
    pub fn alloc(&mut self, len: usize, elem_bytes: usize) -> BufferAddr {
        self.addr_space.alloc(len, elem_bytes)
    }

    /// Charges a constant-memory working set (e.g. the `bit_alloc` arrays).
    /// The constant cache broadcasts to all SMs, so the set is charged once
    /// per launch, not per block.
    pub fn charge_constant(&mut self, bytes: u64) {
        self.accumulated.const_bytes += bytes;
        self.lifetime.const_bytes += bytes;
    }

    /// Statistics accumulated since construction or the last reset.
    pub fn stats(&self) -> &LaunchStats {
        &self.accumulated
    }

    /// Number of kernel launches since the last reset.
    pub fn launches(&self) -> usize {
        self.launches
    }

    /// Clears accumulated statistics and the launch counter (the address
    /// space is kept).
    pub fn reset_stats(&mut self) {
        self.accumulated = LaunchStats::default();
        self.launches = 0;
    }

    /// Copies the accumulated statistics and launch count into an owned
    /// [`StatsSnapshot`], leaving the device untouched.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot { stats: self.accumulated.clone(), launches: self.launches }
    }

    /// Takes a snapshot and resets the accumulators in one step — the
    /// natural primitive for per-phase accounting on a long-lived device.
    pub fn take_snapshot(&mut self) -> StatsSnapshot {
        let snap = self.snapshot();
        self.reset_stats();
        snap
    }

    /// Merges a snapshot (typically taken from another device) into this
    /// device's accumulators.
    pub fn absorb_snapshot(&mut self, snap: &StatsSnapshot) {
        self.accumulated.merge(&snap.stats);
        self.launches += snap.launches;
        self.lifetime.merge(&snap.stats);
        self.lifetime_launches += snap.launches;
    }

    /// Monotonic counter totals since construction. Unlike
    /// [`stats`](DeviceSim::stats) these survive
    /// [`reset_stats`](DeviceSim::reset_stats), which is what makes per-span
    /// deltas well-defined: kernels reset the accumulators on entry, but a
    /// span brackets two readings of the lifetime totals.
    pub fn lifetime_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot { stats: self.lifetime.clone(), launches: self.lifetime_launches }
    }

    /// Opens a span on this device's lane, capturing the lifetime counters
    /// as the baseline; [`trace_end`](DeviceSim::trace_end) attributes the
    /// growth since then to the span. No-op (cheap) when tracing is off.
    pub fn trace_begin(&self, name: &str) -> SpanId {
        let baseline = self.tracer.is_enabled().then(|| self.lifetime_snapshot());
        self.tracer.begin_with_baseline(self.lane, name, baseline)
    }

    /// Closes a span opened with [`trace_begin`](DeviceSim::trace_begin).
    pub fn trace_end(&self, span: SpanId) {
        if self.tracer.is_enabled() {
            self.tracer.end_with_stats(span, &self.lifetime_snapshot());
        }
    }

    /// Names the next [`launch`](DeviceSim::launch)'s auto-recorded span
    /// (one-shot). Kernels use this to label their phases, e.g.
    /// `"bro-coo/carry"`.
    pub fn label_next_launch(&mut self, label: &'static str) {
        self.next_launch_label = Some(label);
    }

    /// Merges the accumulated statistics and launch count of another device
    /// run into this one. Used by composite kernels (HYB = ELL + COO) whose
    /// parts execute as separate launches that must be reported together.
    pub fn absorb(&mut self, other: &DeviceSim) {
        self.absorb_snapshot(&other.snapshot());
    }

    /// Launches a grid of `blocks` thread blocks of `threads_per_block`
    /// threads. `f(block_id, ctx)` executes one block and may return a
    /// per-block output; outputs are returned in block order.
    pub fn launch<O, F>(&mut self, blocks: usize, threads_per_block: usize, f: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize, &mut BlockCtx) -> O + Sync,
    {
        assert!(threads_per_block > 0, "empty thread blocks are not allowed");
        let label = self.next_launch_label.take().unwrap_or("launch");
        let span = self.tracer.is_enabled().then(|| self.tracer.begin(self.lane, label));
        let sms = self.profile.sms;
        let warp = self.profile.warp_size;
        let warps_per_block = threads_per_block.div_ceil(warp) as u64;
        let hwm = self.addr_space.high_watermark();

        let mut per_sm: Vec<(Vec<(usize, O)>, LaunchStats)> = (0..sms)
            .into_par_iter()
            .map(|sm| {
                // One context per SM: its blocks run in turn against the
                // SM's texture cache.
                let mut ctx = BlockCtx {
                    block_id: sm,
                    threads: threads_per_block,
                    warp_size: warp,
                    txn_bytes: self.profile.txn_bytes as u64,
                    hwm,
                    stats: LaunchStats::default(),
                    cache: SetAssocCache::new(
                        self.profile.tex_cache_bytes,
                        self.profile.tex_line_bytes,
                        self.profile.tex_assoc,
                    ),
                    spill: Vec::with_capacity(2 * warp),
                };
                let mut outs = Vec::new();
                let mut block = sm;
                while block < blocks {
                    ctx.block_id = block;
                    outs.push((block, f(block, &mut ctx)));
                    block += sms;
                }
                let BlockCtx { mut stats, cache, .. } = ctx;
                stats.blocks_launched = outs.len() as u64;
                stats.warps_launched = outs.len() as u64 * warps_per_block;
                stats.tex_accesses = cache.hits() + cache.misses();
                stats.tex_hits = cache.hits();
                stats.tex_misses = cache.misses();
                stats.tex_fill_bytes = cache.misses() * cache.line_bytes();
                (outs, stats)
            })
            .collect();

        let mut outputs: Vec<(usize, O)> = Vec::with_capacity(blocks);
        let mut launch_total = LaunchStats::default();
        for (outs, stats) in per_sm.iter_mut() {
            outputs.append(outs);
            launch_total.merge(stats);
        }
        self.accumulated.merge(&launch_total);
        self.lifetime.merge(&launch_total);
        self.launches += 1;
        self.lifetime_launches += 1;
        if let Some(span) = span {
            // The auto-span's delta is exactly this launch's merged totals;
            // it nests under whatever span the instrumenting code had open.
            self.tracer.end_with_stats(span, &StatsSnapshot { stats: launch_total, launches: 1 });
        }
        outputs.sort_by_key(|&(b, _)| b);
        outputs.into_iter().map(|(_, o)| o).collect()
    }
}

/// Counts the memory transactions of one warp instruction as its lanes
/// arrive: the number of distinct `txn_bytes` segments that
/// `[addr, addr + elem_bytes)` covers over the lanes.
///
/// Lanes almost always ascend. Then each lane's segments start at or after
/// every earlier lane's, so the counted segments that can overlap the new
/// lane are exactly those from its first one up to the previous lane's last
/// one, and the count runs in one pass. The counted segments form runs; a
/// run is written to the spill only when a gap ends it, so contiguous lanes
/// touch no memory. A lane below its predecessor switches the instruction
/// to the fallback: spill every segment, then count the distinct ones.
#[derive(Debug, Clone, Copy)]
struct Coalescer {
    txn_shift: u32,
    elem_bytes: u64,
    /// The previous lane's address (0 before the first lane), or
    /// [`UNORDERED`] once a lane came below its predecessor.
    prev: u64,
    /// The counted segments `run_start..next_seg` not yet spilled.
    run_start: u64,
    next_seg: u64,
    txns: u64,
    /// Lanes so far, for the debug checks.
    lanes: u64,
}

/// [`Coalescer::prev`] of an instruction on the fallback.
const UNORDERED: u64 = u64::MAX;

impl Coalescer {
    fn new(txn_shift: u32, elem_bytes: u64) -> Self {
        debug_assert!(elem_bytes > 0, "memory accesses move at least one byte per lane");
        Coalescer { txn_shift, elem_bytes, prev: 0, run_start: 0, next_seg: 0, txns: 0, lanes: 0 }
    }

    /// Adds `lanes` lanes whose elements together cover `[a, a + bytes)`:
    /// one lane, or consecutive lanes reading consecutive elements, whose
    /// segments are those of the whole span.
    #[inline]
    fn push(&mut self, a: u64, bytes: u64, lanes: u64, spill: &mut Vec<u64>) {
        let first = a >> self.txn_shift;
        let end = ((a + bytes - 1) >> self.txn_shift) + 1;
        self.lanes += lanes;
        if a >= self.prev {
            if end > self.next_seg {
                if first > self.next_seg {
                    spill.extend(self.run_start..self.next_seg);
                    self.run_start = first;
                }
                self.txns += end - first.max(self.next_seg);
                self.next_seg = end;
            }
            self.prev = a;
        } else {
            if self.prev != UNORDERED {
                self.prev = UNORDERED;
                spill.extend(self.run_start..self.next_seg);
            }
            spill.extend(first..end);
        }
    }

    /// Whether no lane was added.
    fn is_empty(&self) -> bool {
        self.txns == 0 && self.prev != UNORDERED
    }

    /// The instruction's transaction count; `spill` holds what
    /// [`push`](Self::push) spilled.
    fn finish(&self, spill: &mut Vec<u64>) -> u64 {
        let txns = if self.prev != UNORDERED {
            self.txns
        } else {
            spill.sort_unstable();
            spill.dedup();
            spill.len() as u64
        };
        // Coalescing sanity: a non-empty warp instruction needs at least one
        // transaction and at most one per segment its lanes can span.
        debug_assert!(txns >= 1);
        debug_assert!(
            txns <= self.lanes * (self.elem_bytes.div_ceil(1 << self.txn_shift) + 1),
            "coalescing produced {txns} transactions for {} lanes of {} B",
            self.lanes,
            self.elem_bytes,
        );
        txns
    }
}

/// Per-block execution context handed to kernels. The blocks of one SM
/// share it in turn, with the SM's statistics and texture cache.
pub struct BlockCtx {
    block_id: usize,
    threads: usize,
    warp_size: usize,
    txn_bytes: u64,
    hwm: u64,
    stats: LaunchStats,
    cache: SetAssocCache,
    /// Segments spilled by the open warp memory instruction.
    spill: Vec<u64>,
}

/// Debug-build bounds check for a simulated memory access.
///
/// Active only when the device has real allocations (high watermark above
/// [`BASE_ADDR`]); launches that narrate raw synthetic addresses without
/// allocating — common in micro-tests — are exempt.
#[inline]
fn check_bounds(hwm: u64, a: u64, elem_bytes: u64, what: &str) {
    if cfg!(debug_assertions) && hwm > BASE_ADDR {
        assert!(
            a >= BASE_ADDR && a + elem_bytes <= hwm,
            "simulated {what} out of bounds: [{:#x}, {:#x}) outside the allocated \
             device range [{:#x}, {:#x})",
            a,
            a + elem_bytes,
            BASE_ADDR,
            hwm,
        );
    }
}

/// One warp-level global memory instruction, narrated lane by lane: add
/// each active lane with [`lane`](WarpAccess::lane) (inactive lanes are
/// simply not added), then charge it with [`end`](WarpAccess::end). While
/// it is open, the lanes' texture reads go through
/// [`tex_lane`](WarpAccess::tex_lane), so a kernel can load, read `x` and
/// multiply-add in one pass over the warp.
#[must_use = "a warp access is charged by `end`"]
pub struct WarpAccess<'a> {
    stats: &'a mut LaunchStats,
    spill: &'a mut Vec<u64>,
    tex: &'a mut SetAssocCache,
    hwm: u64,
    warp_size: usize,
    txn_bytes: u64,
    coalescer: Coalescer,
    store: bool,
}

impl WarpAccess<'_> {
    /// Adds the byte address of one active lane.
    #[inline]
    pub fn lane(&mut self, addr: u64) {
        self.lanes(addr, 1);
    }

    /// Adds `n` active lanes that read consecutive elements, the first at
    /// byte address `addr`; the same as `n` calls of
    /// [`lane`](Self::lane) with ascending addresses.
    #[inline]
    pub fn lanes(&mut self, addr: u64, n: usize) {
        if n == 0 {
            return;
        }
        let bytes = n as u64 * self.coalescer.elem_bytes;
        let what = if self.store { "global store" } else { "global load" };
        check_bounds(self.hwm, addr, bytes, what);
        self.coalescer.push(addr, bytes, n as u64, self.spill);
    }

    /// One lane's texture read; see [`BlockCtx::tex_lane`].
    #[inline]
    pub fn tex_lane(&mut self, addr: u64, elem_bytes: u64) {
        check_bounds(self.hwm, addr, elem_bytes, "texture read");
        self.tex.access(addr);
    }

    /// Charges the instruction; an instruction with no active lane is free.
    pub fn end(self) {
        let c = self.coalescer;
        if c.is_empty() {
            return;
        }
        debug_assert!(
            c.lanes <= self.warp_size as u64,
            "a warp instruction has at most warp_size active lanes"
        );
        let txns = c.finish(self.spill);
        let stats = self.stats;
        let (instrs, txn_count, bytes) = if self.store {
            (
                &mut stats.global_store_instrs,
                &mut stats.global_write_txns,
                &mut stats.global_write_bytes,
            )
        } else {
            (
                &mut stats.global_load_instrs,
                &mut stats.global_read_txns,
                &mut stats.global_read_bytes,
            )
        };
        *instrs += 1;
        *txn_count += txns;
        *bytes += txns * self.txn_bytes;
    }
}

impl BlockCtx {
    /// This block's index within the grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Threads per block (the paper's slice height `h`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Threads per warp.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    fn access(&mut self, elem_bytes: u64, store: bool) -> WarpAccess<'_> {
        self.spill.clear();
        WarpAccess {
            stats: &mut self.stats,
            spill: &mut self.spill,
            tex: &mut self.cache,
            hwm: self.hwm,
            warp_size: self.warp_size,
            txn_bytes: self.txn_bytes,
            coalescer: Coalescer::new(self.txn_bytes.trailing_zeros(), elem_bytes),
            store,
        }
    }

    /// Opens a warp-level global **load** moving `elem_bytes` per lane.
    #[inline]
    pub fn load(&mut self, elem_bytes: u64) -> WarpAccess<'_> {
        self.access(elem_bytes, false)
    }

    /// Opens a warp-level global **store** moving `elem_bytes` per lane.
    #[inline]
    pub fn store(&mut self, elem_bytes: u64) -> WarpAccess<'_> {
        self.access(elem_bytes, true)
    }

    /// One warp-level atomic read-modify-write. Each distinct address costs
    /// one 32-byte L2 sector round trip.
    pub fn atomic_rmw(&mut self, addrs: &[u64]) {
        if addrs.is_empty() {
            return;
        }
        debug_assert!(
            addrs.len() <= self.warp_size,
            "a warp atomic has at most warp_size active lanes"
        );
        for &a in addrs {
            check_bounds(self.hwm, a, 1, "atomic");
        }
        let distinct = &mut self.spill;
        distinct.clear();
        distinct.extend_from_slice(addrs);
        distinct.sort_unstable();
        distinct.dedup();
        let n = distinct.len() as u64;
        self.stats.atomic_txns += n;
        self.stats.atomic_bytes += n * 32;
    }

    /// One lane's read of an `elem_bytes` element of the input vector
    /// through the SM's texture cache.
    #[inline]
    pub fn tex_lane(&mut self, addr: u64, elem_bytes: u64) {
        check_bounds(self.hwm, addr, elem_bytes, "texture read");
        self.cache.access(addr);
    }

    /// `n` useful floating-point operations (one FMA counts as 2).
    pub fn flops(&mut self, n: u64) {
        self.stats.flops += n;
    }

    /// `n` integer / shift / branch operations (decompression work).
    pub fn int_ops(&mut self, n: u64) {
        self.stats.int_ops += n;
    }

    /// `n` warp-synchronous operations (shuffle, scan or reduction steps).
    pub fn warp_ops(&mut self, n: u64) {
        self.stats.warp_ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceProfile::tesla_c2070())
    }

    /// One warp load whose active lanes read `addrs`.
    fn read(ctx: &mut BlockCtx, addrs: &[u64], elem_bytes: u64) {
        let mut warp = ctx.load(elem_bytes);
        addrs.iter().for_each(|&a| warp.lane(a));
        warp.end();
    }

    /// One warp store whose active lanes write `addrs`.
    fn write(ctx: &mut BlockCtx, addrs: &[u64], elem_bytes: u64) {
        let mut warp = ctx.store(elem_bytes);
        addrs.iter().for_each(|&a| warp.lane(a));
        warp.end();
    }

    /// Texture reads of `addrs`, in lane order.
    fn tex(ctx: &mut BlockCtx, addrs: &[u64], elem_bytes: u64) {
        addrs.iter().for_each(|&a| ctx.tex_lane(a, elem_bytes));
    }

    #[test]
    fn launch_returns_outputs_in_block_order() {
        let mut s = sim();
        let outs = s.launch(100, 32, |b, _| b * 2);
        assert_eq!(outs.len(), 100);
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(o, i * 2);
        }
    }

    #[test]
    fn coalesced_warp_read_is_minimal() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            // 32 lanes x 4-byte elements, consecutive: exactly one 128 B txn.
            let addrs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 4).collect();
            read(ctx, &addrs, 4);
        });
        assert_eq!(s.stats().global_read_txns, 1);
        assert_eq!(s.stats().global_read_bytes, 128);
    }

    #[test]
    fn strided_warp_read_explodes_transactions() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            // Each lane hits its own 128 B segment.
            let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
            read(ctx, &addrs, 4);
        });
        assert_eq!(s.stats().global_read_txns, 32);
    }

    #[test]
    fn element_spanning_segment_counts_both() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            // An 8-byte element straddling a 128 B boundary.
            read(ctx, &[124], 8);
        });
        assert_eq!(s.stats().global_read_txns, 2);
    }

    #[test]
    fn double_precision_warp_read_needs_two_txns() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            let addrs: Vec<u64> = (0..32).map(|i| 0x2000 + i * 8).collect();
            read(ctx, &addrs, 8);
        });
        assert_eq!(s.stats().global_read_txns, 2);
        assert_eq!(s.stats().global_read_bytes, 256);
    }

    #[test]
    fn empty_access_is_free() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            read(ctx, &[], 8);
            write(ctx, &[], 8);
            ctx.atomic_rmw(&[]);
        });
        assert_eq!(s.stats().global_read_txns, 0);
        assert_eq!(s.stats().global_load_instrs, 0);
    }

    #[test]
    fn atomics_dedupe_addresses() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            ctx.atomic_rmw(&[8, 8, 8, 16]);
        });
        assert_eq!(s.stats().atomic_txns, 2);
        assert_eq!(s.stats().atomic_bytes, 64);
    }

    #[test]
    fn texture_reads_hit_per_sm_cache() {
        let mut s = sim();
        // Two blocks land on different SMs (round-robin), so the same
        // address misses twice; within a block the second read hits.
        s.launch(2, 32, |_, ctx| {
            tex(ctx, &[0x100], 8);
            tex(ctx, &[0x100], 8);
        });
        assert_eq!(s.stats().tex_misses, 2);
        assert_eq!(s.stats().tex_hits, 2);
        assert_eq!(s.stats().tex_fill_bytes, 2 * 32);
    }

    #[test]
    fn blocks_on_same_sm_share_cache() {
        let mut s = sim();
        // 14 SMs on the C2070: blocks 0 and 14 run on SM 0 sequentially.
        s.launch(15, 32, |b, ctx| {
            if b == 0 || b == 14 {
                tex(ctx, &[0x100], 8);
            }
        });
        assert_eq!(s.stats().tex_misses, 1);
        assert_eq!(s.stats().tex_hits, 1);
    }

    #[test]
    fn op_counters_accumulate() {
        let mut s = sim();
        s.launch(3, 64, |_, ctx| {
            ctx.flops(10);
            ctx.int_ops(7);
            ctx.warp_ops(2);
        });
        assert_eq!(s.stats().flops, 30);
        assert_eq!(s.stats().int_ops, 21);
        assert_eq!(s.stats().warp_ops, 6);
        assert_eq!(s.stats().blocks_launched, 3);
        assert_eq!(s.stats().warps_launched, 6);
    }

    #[test]
    fn stats_reset() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| ctx.flops(1));
        assert_eq!(s.launches(), 1);
        s.reset_stats();
        assert_eq!(s.launches(), 0);
        assert_eq!(s.stats().flops, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim();
            s.launch(37, 256, |b, ctx| {
                let addrs: Vec<u64> = (0..32).map(|i| (b as u64 * 37 + i * 8) % 4096).collect();
                read(ctx, &addrs, 8);
                tex(ctx, &addrs, 8);
                ctx.flops(b as u64);
            });
            s.stats().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_block_launch_is_a_noop() {
        let mut s = sim();
        let outs: Vec<u32> = s.launch(0, 32, |_, _| 0);
        assert!(outs.is_empty());
        assert_eq!(s.stats().blocks_launched, 0);
        assert_eq!(s.launches(), 1);
    }

    #[test]
    fn results_independent_of_thread_pool_size() {
        // SM-major scheduling makes results and stats deterministic no
        // matter how rayon slices the SM loop.
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut s = sim();
                let outs = s.launch(53, 128, |b, ctx| {
                    let addrs: Vec<u64> =
                        (0..32).map(|i| (b as u64 * 13 + i) * 32 % 8192).collect();
                    tex(ctx, &addrs, 4);
                    read(ctx, &addrs, 4);
                    b * 3
                });
                (outs, s.stats().clone())
            })
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn snapshot_take_and_absorb_round_trip() {
        let mut a = sim();
        a.launch(2, 32, |_, ctx| ctx.flops(5));
        let before = a.snapshot();
        assert_eq!(before.stats.flops, 10);
        assert_eq!(before.launches, 1);
        // snapshot() leaves the device untouched; take_snapshot() resets it.
        assert_eq!(a.snapshot(), before);
        let taken = a.take_snapshot();
        assert_eq!(taken, before);
        assert_eq!(a.launches(), 0);
        assert_eq!(a.stats(), &LaunchStats::default());
        // Absorbing the snapshot restores the totals, same as absorb() did.
        let mut b = sim();
        b.launch(1, 32, |_, ctx| ctx.flops(1));
        b.absorb_snapshot(&taken);
        assert_eq!(b.stats().flops, 11);
        assert_eq!(b.launches(), 2);
    }

    #[test]
    fn allocated_accesses_pass_bounds_checks() {
        let mut s = sim();
        let buf = s.alloc(64, 8);
        s.launch(1, 32, |_, ctx| {
            let addrs: Vec<u64> = (0..32).map(|i| buf.addr(i)).collect();
            read(ctx, &addrs, 8);
            write(ctx, &addrs[..4], 8);
            tex(ctx, &addrs, 8);
            ctx.atomic_rmw(&addrs[..2]);
        });
        assert!(s.stats().global_read_txns > 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "global load out of bounds")]
    fn read_past_the_heap_panics_in_debug() {
        let mut s = sim();
        let buf = s.alloc(4, 8); // heap ends at buf.base + 32 (aligned up)
        s.launch(1, 32, |_, ctx| {
            read(ctx, &[buf.base + 4096], 8);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "global store out of bounds")]
    fn write_below_the_heap_panics_in_debug() {
        let mut s = sim();
        let _buf = s.alloc(4, 8);
        s.launch(1, 32, |_, ctx| {
            write(ctx, &[16], 8); // below BASE_ADDR
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "texture read out of bounds")]
    fn tex_read_past_the_heap_panics_in_debug() {
        let mut s = sim();
        let buf = s.alloc(4, 8);
        s.launch(1, 32, |_, ctx| {
            tex(ctx, &[buf.base + (1 << 20)], 8);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "texture read out of bounds")]
    fn tex_element_straddling_the_heap_end_panics_in_debug() {
        let mut s = sim();
        let buf = s.alloc(32, 8); // exactly 256 B: the heap ends at the buffer's end
        s.launch(1, 32, |_, ctx| {
            // Its first byte is inside the heap, its last four are past it.
            ctx.tex_lane(buf.addr(31) + 4, 8);
        });
    }

    #[test]
    fn raw_addresses_are_exempt_without_allocations() {
        // Micro-tests narrate synthetic addresses without ever allocating;
        // the bounds check must stay silent for them.
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            read(ctx, &[0, 128, 1 << 40], 8);
            tex(ctx, &[42], 8);
        });
        assert!(s.stats().global_read_txns >= 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at most warp_size active lanes")]
    fn oversubscribed_warp_instruction_panics_in_debug() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            let addrs: Vec<u64> = (0..33).map(|i| i * 8).collect();
            read(ctx, &addrs, 8);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_access_panics_in_debug() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| {
            read(ctx, &[0x1000], 0);
        });
    }

    #[test]
    fn constant_charge_once() {
        let mut s = sim();
        s.charge_constant(512);
        assert_eq!(s.stats().const_bytes, 512);
        assert_eq!(s.stats().dram_bytes(), 512);
    }

    #[test]
    fn builder_validates_profiles() {
        // Every shipped profile builds.
        for p in DeviceProfile::evaluation_set() {
            assert!(DeviceSim::builder(p).try_build().is_ok());
        }
        let mut bad = DeviceProfile::tesla_c2070();
        bad.sms = 0;
        assert!(DeviceSim::builder(bad).try_build().unwrap_err().contains("SM"));
        let mut bad = DeviceProfile::tesla_c2070();
        bad.txn_bytes = 100; // not a power of two
        assert!(DeviceSim::builder(bad).try_build().is_err());
        // The cache override is validated too.
        let err = DeviceSim::builder(DeviceProfile::tesla_c2070())
            .tex_cache(4096, 48, 4)
            .try_build()
            .unwrap_err();
        assert!(err.contains("line size"));
    }

    #[test]
    #[should_panic(expected = "invalid DeviceSim configuration")]
    fn builder_build_panics_on_invalid() {
        let mut bad = DeviceProfile::tesla_c2070();
        bad.warp_size = 0;
        DeviceSim::builder(bad).build();
    }

    #[test]
    fn builder_cache_override_applies() {
        let s = DeviceSim::builder(DeviceProfile::tesla_c2070()).tex_cache(0, 32, 1).build();
        assert_eq!(s.profile().tex_cache_bytes, 0);
        assert_eq!(s.profile().tex_assoc, 1);
    }

    #[test]
    fn lifetime_counters_survive_reset() {
        let mut s = sim();
        s.launch(1, 32, |_, ctx| ctx.flops(5));
        s.reset_stats();
        s.launch(1, 32, |_, ctx| ctx.flops(2));
        assert_eq!(s.stats().flops, 2);
        let life = s.lifetime_snapshot();
        assert_eq!(life.stats.flops, 7);
        assert_eq!(life.launches, 2);
    }

    #[test]
    fn trace_spans_carry_exact_deltas_across_resets() {
        let tracer = Tracer::enabled();
        let mut s = DeviceSim::builder(DeviceProfile::tesla_c2070()).tracer(tracer.clone()).build();
        let span = s.trace_begin("spmv/fake");
        s.reset_stats(); // what every kernel does on entry
        s.launch(2, 32, |_, ctx| ctx.flops(3));
        s.trace_end(span);
        let spans = tracer.spans();
        // The launch auto-span nests under the wrapper; the wrapper is root.
        let root = spans.iter().find(|sp| sp.name == "spmv/fake").unwrap();
        let launch = spans.iter().find(|sp| sp.name == "launch").unwrap();
        assert!(root.is_root());
        assert_eq!(launch.parent, Some(root.id));
        assert_eq!(root.delta.as_ref().unwrap().stats.flops, 6);
        assert_eq!(launch.delta.as_ref().unwrap().stats.flops, 6);
        assert_eq!(root.delta.as_ref().unwrap().launches, 1);
    }

    #[test]
    fn launch_labels_are_one_shot() {
        let tracer = Tracer::enabled();
        let mut s = DeviceSim::builder(DeviceProfile::tesla_c2070()).tracer(tracer.clone()).build();
        s.label_next_launch("phase-a");
        s.launch(1, 32, |_, _| ());
        s.launch(1, 32, |_, _| ());
        let names: Vec<String> = tracer.spans().into_iter().map(|sp| sp.name).collect();
        assert_eq!(names, vec!["phase-a".to_string(), "launch".to_string()]);
    }

    #[test]
    fn sibling_shares_tracer_and_lane() {
        let tracer = Tracer::enabled();
        let s =
            DeviceSim::builder(DeviceProfile::tesla_c2070()).tracer(tracer.clone()).lane(3).build();
        let mut sib = s.sibling();
        assert_eq!(sib.lane(), 3);
        assert!(sib.tracer().is_enabled());
        sib.launch(1, 32, |_, ctx| ctx.int_ops(1));
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.spans()[0].lane, 3);
    }

    #[test]
    fn stats_identical_with_and_without_tracer() {
        let run = |tracer: Tracer| {
            let mut s = DeviceSim::builder(DeviceProfile::tesla_c2070()).tracer(tracer).build();
            let span = s.trace_begin("wrapped");
            s.launch(7, 64, |b, ctx| {
                let addrs: Vec<u64> = (0..32).map(|i| (b as u64 * 7 + i) * 8 % 2048).collect();
                read(ctx, &addrs, 8);
                tex(ctx, &addrs, 8);
                ctx.flops(b as u64);
            });
            s.trace_end(span);
            s.snapshot()
        };
        assert_eq!(run(Tracer::disabled()), run(Tracer::enabled()));
    }

    #[test]
    fn absorb_feeds_lifetime_counters() {
        let mut a = sim();
        a.launch(1, 32, |_, ctx| ctx.flops(4));
        let mut b = sim();
        b.absorb(&a);
        assert_eq!(b.lifetime_snapshot().stats.flops, 4);
        assert_eq!(b.lifetime_snapshot().launches, 1);
    }
}
