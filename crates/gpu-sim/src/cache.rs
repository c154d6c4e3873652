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
/// An access first checks the set's MRU way: neighbouring lanes of a warp
/// usually read the same line, and a hit there leaves the order as it is.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    line_shift: u32,
    /// Lemire's fast-mod multiplier `⌊2⁶⁴ / sets⌋ + 1` (wrapping), exact for
    /// line numbers below 2³².
    set_magic: u64,
    /// `sets * assoc` tags, each set ordered MRU → LRU; `u64::MAX` marks an
    /// empty way (empty ways always sit behind the filled ones).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache of `capacity_bytes` with the given line size and
    /// associativity. The number of sets is rounded up to at least 1.
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1);
        // Zero capacity disables the cache entirely: every access misses.
        let sets = if capacity_bytes == 0 {
            0
        } else {
            ((capacity_bytes / line_bytes).max(assoc) / assoc).max(1)
        };
        let sets32 = u32::try_from(sets).expect("a cache has at most 2^32 sets");
        SetAssocCache {
            sets,
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            set_magic: (u64::MAX / u64::from(sets32.max(1))).wrapping_add(1),
            tags: vec![u64::MAX; sets * assoc],
            hits: 0,
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
    /// 10 % between builds of the same source. So the MRU check is always
    /// inlined and the rest of the access is never.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        if self.sets == 0 {
            self.misses += 1;
            return false;
        }
        let line = addr >> self.line_shift;
        let first = self.set_of(line) * self.assoc;
        if self.tags[first] == line {
            self.hits += 1;
            return true;
        }
        self.access_behind_mru(first, line)
    }

    /// [`access`](Self::access) past the MRU way of the set whose ways start
    /// at `first`: the hit way, or on a miss the LRU way, takes the line to
    /// the front and the ways before it age by one. Written without
    /// data-dependent branches; a miss here is common and unpredictable.
    #[inline(never)]
    fn access_behind_mru(&mut self, first: usize, line: u64) -> bool {
        let ways = &mut self.tags[first..first + self.assoc];
        let mut k = ways.len() - 1;
        let mut hit = false;
        for w in (1..ways.len()).rev() {
            let found = ways[w] == line;
            k = if found { w } else { k };
            hit |= found;
        }
        for w in (1..ways.len()).rev() {
            ways[w] = if w <= k { ways[w - 1] } else { ways[w] };
        }
        ways[0] = line;
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidates all lines and resets statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.hits = 0;
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
