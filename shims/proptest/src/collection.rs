//! Collection strategies (`prop::collection::vec`, `btree_set`).

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A size specification: anything convertible to a `[min, max]` length
/// interval (mirrors `proptest::collection::SizeRange`).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        let span = (self.max_inclusive - self.min) as u128 + 1;
        self.min + rng.below(span) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max_inclusive: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { min: r.start, max_inclusive: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { min: *r.start(), max_inclusive: *r.end() }
    }
}

/// Strategy for `Vec`s with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec`](fn@vec).
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeSet`s. The size bound limits generation attempts, so
/// (as with real proptest under a small element domain) the resulting set
/// may be smaller than the lower bound when duplicates collide.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size: size.into() }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        for _ in 0..target.saturating_mul(2) {
            if set.len() >= target {
                break;
            }
            set.insert(self.element.generate(rng));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_in_range() {
        let s = vec(0u64..10, 2..6);
        let mut rng = TestRng::deterministic("vec-len", 0);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn vec_exact_size() {
        let s = vec(0u64..10, 4usize);
        let mut rng = TestRng::deterministic("vec-exact", 0);
        assert_eq!(s.generate(&mut rng).len(), 4);
    }

    #[test]
    fn btree_set_unique_sorted() {
        let s = btree_set(0u32..1000, 0..64);
        let mut rng = TestRng::deterministic("set", 0);
        let v = s.generate(&mut rng);
        assert!(v.len() < 64);
    }
}
