//! Set-associative LRU cache model, used for the per-SM texture cache that
//! services reads of the input vector `x`.

/// A set-associative cache with LRU replacement.
///
/// Only tags are tracked — the simulator never stores data in the cache; the
/// kernel reads actual values from host memory and the cache decides whether
/// the access produces DRAM traffic.
///
/// Each set keeps its tags in recency order, most recently used first, so a
/// hit moves its way to the front and a miss drops the last way. This holds
/// exactly the lines a per-way timestamp LRU would hold after every access.
/// The line of the previous access is always the MRU way of its set, so an
/// access to that line again (neighbouring lanes of a warp usually read the
/// same line) hits without a set lookup. Every other access updates its set
/// in straight-line code: a set is `W` ∈ {1, 2, 4, 8} tags, `assoc` rounded
/// up, and the ways past `assoc` stay empty, since the LRU way a miss
/// replaces is way `assoc − 1`.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    /// Ways stored per set: `assoc` rounded up to 1, 2, 4 or 8.
    width: usize,
    line_shift: u32,
    /// Lemire's fast-mod multiplier `⌊2⁶⁴ / sets⌋ + 1` (wrapping), exact for
    /// line numbers below 2³².
    set_magic: u64,
    /// Line of the previous access, `u64::MAX` when there is none.
    last: u64,
    /// `1 << (assoc − 1)`: the LRU way, as a bit of a set's hit mask.
    lru_bit: u32,
    /// `sets * width` tags, each set ordered MRU → LRU; `u64::MAX` marks an
    /// empty way (empty ways always sit behind the filled ones).
    tags: Vec<u64>,
    accesses: u64,
    misses: u64,
}

/// Largest associativity the cache model supports.
pub(crate) const MAX_ASSOC: usize = 8;

impl SetAssocCache {
    /// Builds a cache of `capacity_bytes` with the given line size and
    /// associativity (1 to 8). The number of sets is rounded up to at least 1.
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!((1..=MAX_ASSOC).contains(&assoc), "associativity must be in 1..={MAX_ASSOC}");
        // Zero capacity disables the cache entirely: every access misses.
        let sets = if capacity_bytes == 0 {
            0
        } else {
            ((capacity_bytes / line_bytes).max(assoc) / assoc).max(1)
        };
        let sets32 = u32::try_from(sets).expect("a cache has at most 2^32 sets");
        let width = assoc.next_power_of_two();
        SetAssocCache {
            sets,
            assoc,
            width,
            line_shift: line_bytes.trailing_zeros(),
            set_magic: (u64::MAX / u64::from(sets32.max(1))).wrapping_add(1),
            last: u64::MAX,
            lru_bit: 1 << (assoc - 1),
            tags: vec![u64::MAX; sets * width],
            accesses: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        (self.sets * self.assoc) << self.line_shift
    }

    /// `line % sets`; `sets` is not a power of two on real devices (384 on
    /// the K20), so the common case avoids the division.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if line >> 32 == 0 {
            let low = self.set_magic.wrapping_mul(line);
            ((u128::from(low) * self.sets as u128) >> 64) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Accesses the byte address; returns `true` on hit. A miss installs the
    /// line, evicting the LRU way of its set.
    ///
    /// Every kernel's per-lane loop calls this. Left to the inliner, whether
    /// it is inlined there depends on which other callers share the
    /// kernel's codegen unit, and that moved a kernel's host time by about
    /// 10 % between builds of the same source. So the whole access is always
    /// inlined; the `match` on the set width takes the same arm on every
    /// access of a cache.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        if self.sets == 0 {
            self.misses += 1;
            return false;
        }
        let line = addr >> self.line_shift;
        if line == self.last {
            return true;
        }
        self.last = line;
        let hit = match self.width {
            1 => self.update::<1>(line),
            2 => self.update::<2>(line),
            4 => self.update::<4>(line),
            _ => self.update::<8>(line),
        };
        self.misses += u64::from(!hit);
        hit
    }

    /// Moves `line` to the front of its set of `W` ways: the hit way, or on
    /// a miss the LRU way `assoc − 1`, takes the line and the ways before it
    /// age by one. Returns whether it hit. Written without data-dependent
    /// branches; whether an access hits, and where, is unpredictable.
    #[inline(always)]
    fn update<const W: usize>(&mut self, line: u64) -> bool {
        let first = self.set_of(line) * W;
        let ways: &mut [u64; W] =
            (&mut self.tags[first..first + W]).try_into().expect("a set is W ways");
        let old = *ways;
        // Tags in a set are distinct, so at most one way matches.
        let mut found = 0u32;
        for (w, &tag) in old.iter().enumerate() {
            found |= u32::from(tag == line) << w;
        }
        let k = (found | self.lru_bit).trailing_zeros() as usize;
        for w in 1..W {
            ways[w] = if w <= k { old[w - 1] } else { old[w] };
        }
        ways[0] = line;
        found != 0
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses as f64
        }
    }

    /// Invalidates all lines and resets statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.last = u64::MAX;
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        assert!(!c.access(100));
        assert!(c.access(100));
        assert!(c.access(127)); // same 32-byte line as 96..128? 100/32=3, 127/32=3
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_lines_miss() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(!c.access(64));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets x 2 ways x 32B lines = 128 B.
        let mut c = SetAssocCache::new(128, 32, 2);
        assert_eq!(c.sets(), 2);
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.access(0); // line 0
        c.access(2 * 32);
        c.access(0); // touch line 0: line 2 becomes LRU
        c.access(4 * 32); // evicts line 2
        assert!(c.access(0), "line 0 must have survived");
        assert!(!c.access(2 * 32), "line 2 must have been evicted");
    }

    #[test]
    fn capacity_working_set_hits_after_warmup() {
        let mut c = SetAssocCache::new(4096, 32, 4);
        for round in 0..3 {
            for addr in (0..4096u64).step_by(32) {
                let hit = c.access(addr);
                if round > 0 {
                    assert!(hit, "addr {addr} should hit after warmup");
                }
            }
        }
        assert_eq!(c.misses(), 128);
    }

    #[test]
    fn over_capacity_streaming_never_hits() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        for round in 0..2 {
            for addr in (0..64 * 1024u64).step_by(32) {
                assert!(!c.access(addr), "round {round} addr {addr}");
            }
        }
    }

    #[test]
    fn hit_rate_and_reset() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn tiny_capacity_clamped() {
        let c = SetAssocCache::new(16, 32, 4);
        assert!(c.capacity_bytes() >= 4 * 32);
    }

    #[test]
    fn set_index_is_line_mod_sets() {
        // 96 and 384 sets are the C2070 and K20 geometries.
        for sets in [1usize, 2, 3, 96, 384, 1000, 65_537] {
            let c = SetAssocCache::new(sets * 32, 32, 1);
            assert_eq!(c.sets(), sets);
            let edges =
                [0, 1, 95, 383, u32::MAX as u64 - 1, u32::MAX as u64, 1 << 32, u64::MAX >> 5];
            let spread = (0..2000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 31);
            for line in edges.into_iter().chain(spread) {
                assert_eq!(
                    c.set_of(line),
                    (line % sets as u64) as usize,
                    "line {line}, {sets} sets"
                );
            }
        }
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = SetAssocCache::new(0, 32, 4);
        assert_eq!(c.capacity_bytes(), 0);
        assert!(!c.access(0));
        assert!(!c.access(0));
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 0);
    }
}
