//! BRO-aware reordering (BAR) — Section 3.4 of the paper.
//!
//! Row reordering is posed as constrained data clustering: find `v = m/h`
//! equi-partitions `{S_t}` of the delta-encoded rows minimizing the
//! Eqn. (1) objective
//!
//! ```text
//! Φ = Σ_i  h/w · ( ⌈Σ_j d(S_i, j) / α⌉  +  Σ_j c(S_i, j) )
//! ```
//!
//! where `d(S, j)` is the maximum bit width of column `j`'s deltas over the
//! partition's rows (Eqn. 2) and `c(S, j)` the number of distinct x-vector
//! cachelines column `j` touches (Eqn. 3). The first term counts the memory
//! transactions for the compressed index stream at symbol length `α`; the
//! second the transactions for reading `x`.
//!
//! The NP-hard clustering is attacked with the greedy heuristic of
//! Algorithm 2: sort rows by length, seed each cluster with rows spaced `h`
//! apart, then place every remaining row into the non-full cluster whose
//! objective grows the least.

use std::hash::{BuildHasher, RandomState};

use bro_bitstream::bits_for;
use bro_matrix::{CooMatrix, Permutation, Scalar};

/// Parameters of the Eqn. (1) objective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarConfig {
    /// Cluster capacity `h` — the BRO-ELL slice height / thread block size.
    pub slice_height: usize,
    /// Warp size `w`.
    pub warp_size: usize,
    /// Symbol length `α` in bits.
    pub alpha_bits: u32,
    /// Cacheline size in bytes for the x-access term.
    pub cacheline_bytes: usize,
    /// Bytes per x element (scalar width).
    pub val_bytes: usize,
}

impl Default for BarConfig {
    fn default() -> Self {
        BarConfig {
            slice_height: 256,
            warp_size: 32,
            alpha_bits: 32,
            cacheline_bytes: 128,
            val_bytes: 8,
        }
    }
}

/// Marks an empty slot of a [`LineSet`].
const NIL: u32 = u32::MAX;
/// The top two bits of a [`LineSet`] owner say what the rest is: a
/// cluster (`00`), an offset into `chunks` (`CHUNK`) or into `masks`
/// (`MASK`). `NIL` has both bits set.
const TAG: u32 = 3 << 30;
const CHUNK: u32 = 1 << 30;
const MASK: u32 = 2 << 30;

/// The x cachelines the clusters touch at one column position, each with
/// the clusters that touch it: the `c(S, j)` terms of every cluster at
/// once, inverted.
///
/// An open-addressing table (multiplicative hashing, linear probing) maps
/// each line to its owner. Its load stays at most 3/4. It starts with room
/// for half the most lines its column can hold, one per row long enough to
/// reach it, and grows at most once, to all of them: sized for the bound
/// from the start, every column's table is live at its largest at once,
/// while columns past the current row length are dropped as rows get
/// shorter. A
/// line one cluster touches holds that cluster inline. A shared line holds
/// its clusters in one contiguous piece: a chunk of cluster ids in
/// `chunks` (`[len, id, id, …]`, capacity the next power of two of `len`)
/// while that is smaller than a `⌈v/64⌉`-word bitmask, and the bitmask in
/// `masks` from then on. A full chunk moves to twice its capacity or, once
/// that would be at least the mask's size, becomes the mask, so every form
/// is at most twice the ids it holds, and `chunks` and `masks` grow with
/// the distinct `(cluster, line)` pairs of the column, never with `v` per
/// line. [`count`](Self::count) returns the slot it found, so
/// [`insert`](Self::insert) does not probe again; whether the line is new
/// for the cluster is then a compare, a bit test, or a scan of fewer than
/// `2·⌈v/64⌉` chunk ids.
struct LineSet {
    /// Odd multiplier of the hash, drawn per call: lines come from the
    /// input matrix, which must not be able to pick colliding ones.
    multiplier: u32,
    /// `(line, owner)` of each slot; the owner is `NIL` for an empty slot.
    slots: Vec<(u32, u32)>,
    /// Lines held.
    len: usize,
    /// Lines the table holds before it grows.
    room: usize,
    /// The most lines the column can hold.
    max: usize,
    /// Words per mask, `⌈v/64⌉`.
    words: usize,
    chunks: Vec<u32>,
    masks: Vec<u64>,
}

impl LineSet {
    /// An empty set for a column that can hold at most `max` lines.
    fn new(multiplier: u32, v: usize, max: usize) -> Self {
        let room = (max / 2).max(8).min(max);
        LineSet {
            multiplier,
            slots: vec![(0, NIL); room + room / 3 + 1],
            len: 0,
            room,
            max,
            words: v.div_ceil(64),
            chunks: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// The slot holding `line`, or the empty slot where it would go.
    fn find(&self, line: u32) -> u32 {
        // The hash's top bits, scaled to the table length.
        let n = self.slots.len();
        let mut i = ((u64::from(line.wrapping_mul(self.multiplier)) * n as u64) >> 32) as usize;
        while self.slots[i].1 != NIL && self.slots[i].0 != line {
            i = if i + 1 == n { 0 } else { i + 1 };
        }
        i as u32
    }

    /// Adds 1 to `hits[t]` for every cluster `t` of the bitmask `live`
    /// that touches `line`, pushing `t` onto `touched` on its first hit,
    /// and returns [`find`](Self::find)'s slot for [`insert`](Self::insert).
    fn count(&self, line: u32, live: &[u64], hits: &mut [u32], touched: &mut Vec<u32>) -> u32 {
        let slot = self.find(line);
        let mut hit = |t: u32| {
            if live[t as usize / 64] >> (t % 64) & 1 == 1 {
                let h = &mut hits[t as usize];
                if *h == 0 {
                    touched.push(t);
                }
                *h += 1;
            }
        };
        let owner = self.slots[slot as usize].1;
        let off = (owner & !TAG) as usize;
        match owner & TAG {
            _ if owner == NIL => {}
            0 => hit(owner),
            CHUNK => {
                self.chunks[off + 1..][..self.chunks[off] as usize].iter().for_each(|&t| hit(t))
            }
            _ => {
                let words = self.masks[off..off + self.words].iter().zip(live);
                for (w, (&word, &live)) in words.enumerate() {
                    let mut word = word & live;
                    while word != 0 {
                        hit(64 * w as u32 + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
            }
        }
        slot
    }

    /// Records that cluster `t` touches `line`, whose slot `find` returned
    /// with no insert into this set since; returns whether that is new.
    fn insert(&mut self, line: u32, t: u32, slot: u32) -> bool {
        debug_assert!(t < CHUNK);
        debug_assert_eq!(slot, self.find(line));
        let i = slot as usize;
        let owner = self.slots[i].1;
        let off = (owner & !TAG) as usize;
        match owner & TAG {
            _ if owner == NIL => {
                let i = if self.len < self.room { i } else { self.grow(line) };
                self.slots[i] = (line, t);
                self.len += 1;
            }
            0 if owner == t => return false,
            0 => self.slots[i].1 = self.widen(owner, t),
            CHUNK => {
                let len = self.chunks[off] as usize;
                if self.chunks[off + 1..][..len].contains(&t) {
                    return false;
                }
                if len.is_power_of_two() {
                    self.slots[i].1 = self.widen(owner, t);
                } else {
                    self.chunks[off + 1 + len] = t;
                    self.chunks[off] += 1;
                }
            }
            _ => {
                let word = &mut self.masks[off + t as usize / 64];
                if *word >> (t % 64) & 1 == 1 {
                    return false;
                }
                *word |= 1 << (t % 64);
            }
        }
        true
    }

    /// Doubles the table's room, up to `max`, and returns the empty slot
    /// where `line` goes.
    fn grow(&mut self, line: u32) -> usize {
        self.room = (2 * self.room).min(self.max);
        debug_assert!(self.len < self.room, "a column holds at most `max` lines");
        let n = self.room + self.room / 3 + 1;
        for (l, owner) in std::mem::replace(&mut self.slots, vec![(0, NIL); n]) {
            if owner != NIL {
                let i = self.find(l) as usize;
                self.slots[i] = (l, owner);
            }
        }
        self.find(line) as usize
    }

    /// Moves the clusters of `owner`, one cluster or a full chunk, and `t`
    /// into a chunk of twice the room, or into a mask if that is no
    /// larger; returns the new owner.
    fn widen(&mut self, owner: u32, t: u32) -> u32 {
        let (single, ids) = match owner & TAG {
            CHUNK => {
                let off = (owner & !TAG) as usize;
                (None, off + 1..off + 1 + self.chunks[off] as usize)
            }
            _ => (Some(owner), 0..0),
        };
        let cap = 2 * ids.len().max(1);
        let (tag, off) = if 2 * self.words <= cap {
            let off = self.masks.len();
            self.masks.resize(off + self.words, 0);
            for &u in self.chunks[ids].iter().chain(&single).chain(&[t]) {
                self.masks[off + u as usize / 64] |= 1 << (u % 64);
            }
            (MASK, off)
        } else {
            let off = self.chunks.len();
            self.chunks.push((ids.len() + 1).max(2) as u32);
            self.chunks.extend(single);
            self.chunks.extend_from_within(ids);
            self.chunks.push(t);
            self.chunks.resize(off + 1 + cap, NIL);
            (CHUNK, off)
        };
        assert!(off < CHUNK as usize, "fewer than 2^30 shared-line words per column");
        tag | off as u32
    }
}

/// A bitmask of `⌈n/64⌉` words with bits `0..n` set.
fn ones_below(n: usize) -> Vec<u64> {
    (0..n).step_by(64).map(|lo| u64::MAX >> (64 - (n - lo).min(64))).collect()
}

/// The set bits of a bitmask, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
            .take_while(|&x| x != 0)
            .map(move |x| 64 * w + x.trailing_zeros() as usize)
    })
}

/// One row's delta bit widths and x cachelines, made when it is placed.
#[derive(Default)]
struct RowTerms {
    bits: Vec<u8>,
    lines: Vec<u32>,
}

impl RowTerms {
    fn load(&mut self, cols: &[u32], elems_per_line: u32) {
        self.bits.clear();
        self.lines.clear();
        let mut prev: i64 = -1;
        for &c in cols {
            self.bits.push(bits_for((c as i64 - prev) as u64) as u8);
            self.lines.push(c / elems_per_line);
            prev = c as i64;
        }
    }
}

/// The greedy clustering state of Algorithm 2.
///
/// Only the first `width` columns are tracked: no row still to be placed
/// is longer, so a column beyond it gains no other row of its cluster and
/// enters `sum_d` and `lines` directly. `d(S_t, j)` is kept per cluster,
/// as long as its longest tracked row (so O(nnz) in all), and the bits
/// term of one row against one cluster is one pass of contiguous `u8`
/// saturating subtractions. The line term of one row against every
/// cluster is one [`LineSet`] lookup per nonzero.
struct Clusters {
    /// Cluster capacity `h`.
    h: usize,
    /// Rows are placed longest first, so `width` only shrinks.
    width: usize,
    alpha: u32,
    /// `d[t][j] = d(S_t, j)`, zero past the end.
    d: Vec<Vec<u8>>,
    /// Σ_j d(S_t, j).
    sum_d: Vec<u32>,
    /// Unused bits of each cluster's last α-bit symbol: `⌈sum_d/α⌉·α − sum_d`.
    /// A row adding `e` bits costs `⌈(e − slack)/α⌉` more transactions when
    /// `e > slack` and none otherwise.
    slack: Vec<u32>,
    /// Σ_j c(S_t, j): distinct `(j, line)` pairs of each cluster.
    lines: Vec<u64>,
    /// The line sets of the first `width` columns.
    index: Vec<LineSet>,
    rows: Vec<Vec<u32>>,
    /// Bitmask of the non-full clusters.
    live: Vec<u64>,
    /// Lines each non-full cluster shares with the row being scored; zero
    /// outside [`best`](Self::best).
    hits: Vec<u32>,
    /// The clusters with nonzero `hits`, in order of first hit.
    touched: Vec<u32>,
}

impl Clusters {
    /// Clusters tracking one column per entry of `lines`, the most lines
    /// that column can hold.
    fn new(v: usize, h: usize, alpha: u32, lines: &[usize]) -> Self {
        let width = lines.len();
        assert!(v < CHUNK as usize, "fewer than 2^30 clusters");
        let multiplier = RandomState::new().hash_one(0u32) as u32 | 1;
        Clusters {
            h,
            width,
            alpha,
            d: vec![Vec::new(); v],
            sum_d: vec![0; v],
            slack: vec![0; v],
            lines: vec![0; v],
            index: lines.iter().map(|&n| LineSet::new(multiplier, v, n)).collect(),
            rows: vec![Vec::new(); v],
            live: ones_below(v),
            hits: vec![0; v],
            touched: Vec::new(),
        }
    }

    /// The [`LineSet::find`] slot of each tracked column of a row.
    fn locate(&self, lines: &[u32], slots: &mut Vec<u32>) {
        slots.clear();
        slots.extend(self.index.iter().zip(lines).map(|(set, &l)| set.find(l)));
    }

    /// Places row `r` in cluster `t`; `slots` is [`locate`](Self::locate)'s
    /// or [`best`](Self::best)'s for this row.
    fn insert(&mut self, t: usize, r: u32, row: &RowTerms, slots: &[u32]) {
        let (bits, lines) = (&row.bits, &row.lines);
        self.rows[t].push(r);
        let tracked = bits.len().min(self.width);
        if self.d[t].len() < tracked {
            self.d[t].resize(tracked, 0);
        }
        for (j, (&b, &l)) in bits.iter().zip(lines).enumerate() {
            if j < self.width {
                let cur = &mut self.d[t][j];
                if b > *cur {
                    self.sum_d[t] += (b - *cur) as u32;
                    *cur = b;
                }
                if self.index[j].insert(l, t as u32, slots[j]) {
                    self.lines[t] += 1;
                }
            } else {
                self.sum_d[t] += b as u32;
                self.lines[t] += 1;
            }
        }
        let sum = self.sum_d[t] as u64;
        self.slack[t] = (sum.div_ceil(self.alpha as u64) * self.alpha as u64 - sum) as u32;
        if self.rows[t].len() >= self.h {
            self.live[t / 64] &= !(1 << (t % 64));
        }
    }

    /// Stops tracking the columns at `width` and beyond.
    fn shrink_width(&mut self, width: usize) {
        if width < self.width {
            self.index.truncate(width);
            self.width = width;
        }
    }

    /// Bits a row adds to cluster `t`'s `Σ_j d(S_t, j)`.
    fn extra(&self, t: usize, bits: &[u8]) -> u32 {
        let d = &self.d[t];
        let (shared, past) = bits.split_at(bits.len().min(d.len()));
        let grown: u32 = shared.iter().zip(d).map(|(&b, &cur)| b.saturating_sub(cur) as u32).sum();
        grown + past.iter().map(|&b| b as u32).sum::<u32>()
    }

    /// Growth of the parenthesized Eqn. (1) term when a row of `bits`
    /// joins cluster `t`, with `hits[t]` already counted.
    fn cost(&self, t: usize, bits: &[u8]) -> u64 {
        let (e, slack) = (self.extra(t, bits), self.slack[t]);
        let txn = if e > slack { (e - slack).div_ceil(self.alpha) as u64 } else { 0 };
        txn + bits.len() as u64 - self.hits[t] as u64
    }

    /// The lowest-index non-full cluster minimizing the growth of the
    /// parenthesized Eqn. (1) term, or `None` if all are full; fills
    /// `slots` for [`insert`](Self::insert).
    ///
    /// The line term comes first: one [`LineSet::count`] per nonzero
    /// gives `hits` and the clusters the row touches. A cluster it does
    /// not touch costs `k` new lines plus its new transactions, so at
    /// least `k`. Only the touched non-full clusters get the O(k) bits
    /// term, and their best cost `c` decides how far to look:
    /// - `c < k`: no untouched cluster can match it;
    /// - `c = k`: a lower-index untouched cluster ties and wins if the row
    ///   adds no transaction to it, which `slack ≥ Σ bits` shows without a
    ///   pass;
    /// - `c > k`, or the row touches no non-full cluster: every non-full
    ///   cluster is scored.
    fn best(&mut self, row: &RowTerms, slots: &mut Vec<u32>) -> Option<usize> {
        let (bits, lines) = (row.bits.as_slice(), &row.lines);
        slots.clear();
        for (set, &l) in self.index.iter().zip(lines) {
            slots.push(set.count(l, &self.live, &mut self.hits, &mut self.touched));
        }
        let k = bits.len() as u64;
        let (cost, t) = self
            .touched
            .iter()
            .map(|&t| (self.cost(t as usize, bits), t as usize))
            .min()
            .unwrap_or((u64::MAX, usize::MAX));
        let winner = if cost < k {
            Some(t)
        } else if cost == k {
            let sum: u32 = bits.iter().map(|&b| b as u32).sum();
            let ties = |&u: &usize| {
                self.hits[u] == 0 && (self.slack[u] >= sum || self.extra(u, bits) <= self.slack[u])
            };
            ones(&self.live).take_while(|&u| u < t).find(ties).or(Some(t))
        } else {
            ones(&self.live).map(|t| (self.cost(t, bits), t)).min().map(|(_, t)| t)
        };
        for &t in &self.touched {
            self.hits[t as usize] = 0;
        }
        self.touched.clear();
        winner
    }
}

/// Computes the BAR row permutation of a matrix (Algorithm 2).
///
/// Returns the permutation together with the final objective value Φ.
///
/// Each row placed after seeding costs one line-index lookup per nonzero,
/// plus one step per cluster found there, and an O(k) bits term for each
/// non-full cluster it touches (see `Clusters::best`). Only when no
/// touched cluster costs `k` or less are all non-full clusters scored,
/// O(k) each. Memory is O(nnz + v): `d(S, j)` up to each cluster's
/// longest row, and line sets sized by the nonzeros that reach their
/// column, each shared line at most twice the size of its cluster list. A
/// row's bit widths and lines are made only when it is placed.
pub fn bar_order<T: Scalar>(a: &CooMatrix<T>, cfg: &BarConfig) -> (Permutation, u64) {
    let m = a.rows();
    if m == 0 {
        return (Permutation::identity(0), 0);
    }
    let h = cfg.slice_height.max(1);
    let v = m.div_ceil(h);
    let elems_per_line = (cfg.cacheline_bytes / cfg.val_bytes).max(1) as u32;

    let ptr = a.row_offsets();
    let len = |r: u32| ptr[r as usize + 1] - ptr[r as usize];
    let cols = |r: u32| &a.col_indices()[ptr[r as usize]..ptr[r as usize + 1]];
    let mut row = RowTerms::default();

    // Line 2: rows sorted by length (descending, stable by index).
    let mut sorted: Vec<u32> = (0..m as u32).collect();
    sorted.sort_by_key(|&r| std::cmp::Reverse(len(r)));

    // Lines 3–6: seed each cluster with rows spaced h apart. Every cluster
    // gets a seed, because (v - 1)·h < m.
    let seed = |pos: usize| pos.is_multiple_of(h);
    let width = (0..m).filter(|&p| !seed(p)).map(|p| len(sorted[p])).max().unwrap_or(0);
    // Column j holds at most one line per row longer than j.
    let x_lines = a.cols().div_ceil(elems_per_line as usize);
    let longer = |j: usize| sorted.partition_point(|&r| len(r) > j);
    let caps: Vec<usize> = (0..width).map(|j| longer(j).min(x_lines)).collect();
    let mut clusters = Clusters::new(v, h, cfg.alpha_bits, &caps);
    let mut slots = Vec::with_capacity(width);
    for t in 0..v {
        let r = sorted[t * h];
        row.load(cols(r), elems_per_line);
        clusters.locate(&row.lines, &mut slots);
        clusters.insert(t, r, &row, &slots);
    }

    // Lines 7–13: greedy placement of the remaining rows into the non-full
    // cluster whose objective grows the least, ties going to the lowest
    // index.
    for (pos, &r) in sorted.iter().enumerate() {
        if seed(pos) {
            continue;
        }
        row.load(cols(r), elems_per_line);
        clusters.shrink_width(row.bits.len());
        let t = clusters.best(&row, &mut slots).expect("total cluster capacity v*h >= m");
        clusters.insert(t, r, &row, &slots);
    }

    let scale = (h / cfg.warp_size.max(1)).max(1) as u64;
    let phi: u64 = (0..v)
        .map(|t| scale * (clusters.sum_d[t].div_ceil(cfg.alpha_bits) as u64 + clusters.lines[t]))
        .sum();

    let order = clusters.rows.concat();
    (Permutation::from_order(order).expect("clusters partition the rows"), phi)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use bro_matrix::generate::{GeneratorSpec, PlacementModel, RowLengthModel};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    use crate::bro_ell::{BroEll, BroEllConfig};

    fn small_cfg(h: usize) -> BarConfig {
        BarConfig {
            slice_height: h,
            warp_size: 2,
            alpha_bits: 32,
            cacheline_bytes: 128,
            val_bytes: 8,
        }
    }

    #[test]
    fn returns_valid_permutation() {
        let a = bro_matrix::generate::laplacian_2d::<f64>(10);
        let (p, phi) = bar_order(&a, &small_cfg(8));
        assert_eq!(p.len(), 100);
        assert!(phi > 0);
    }

    #[test]
    fn equi_partition_constraint_respected() {
        // 20 rows, h = 4 -> 5 clusters of exactly 4.
        let a = bro_matrix::generate::laplacian_2d::<f64>(5); // 25 rows
        let (p, _) = bar_order(&a, &small_cfg(5));
        assert_eq!(p.len(), 25);
        // Permutation validity already enforces each row appears once.
    }

    #[test]
    fn groups_similar_rows_together() {
        // Two row populations: short 2-entry rows and long 8-entry rows,
        // interleaved. BAR with h = 4 should cluster like with like,
        // reducing per-slice bit allocations.
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let m = 16;
        for r in 0..m {
            let len = if r % 2 == 0 { 2 } else { 8 };
            for j in 0..len {
                rows.push(r);
                cols.push(if r % 2 == 0 { j * 50 } else { j });
                vals.push(1.0);
            }
        }
        let a = CooMatrix::from_triplets(m, 512, &rows, &cols, &vals).unwrap();
        let cfg = small_cfg(4);
        let (p, _) = bar_order(&a, &cfg);
        // After reordering, compression should not be worse.
        let ell_cfg = BroEllConfig { slice_height: 4, ..Default::default() };
        let before: BroEll<f64> = BroEll::from_coo(&a, &ell_cfg);
        let after: BroEll<f64> = BroEll::from_coo(&p.apply_rows(&a), &ell_cfg);
        assert!(
            after.space_savings().compressed_bytes <= before.space_savings().compressed_bytes,
            "BAR must not hurt compression on a clusterable matrix: {} vs {}",
            after.space_savings().compressed_bytes,
            before.space_savings().compressed_bytes,
        );
    }

    #[test]
    fn improves_compression_on_mixed_width_matrix() {
        // Rows alternating between tiny deltas and huge deltas.
        let spec = GeneratorSpec {
            name: "mixed".into(),
            rows: 256,
            cols: 1 << 16,
            row_lengths: RowLengthModel::Constant(12),
            placement: PlacementModel::Blend { bandwidth: 64, banded_fraction: 0.5 },
            seed: 7,
        };
        let a = spec.generate::<f64>();
        let cfg = BarConfig { slice_height: 32, ..BarConfig::default() };
        let (p, _) = bar_order(&a, &cfg);
        let ell_cfg = BroEllConfig { slice_height: 32, ..Default::default() };
        let before: BroEll<f64> = BroEll::from_coo(&a, &ell_cfg);
        let after: BroEll<f64> = BroEll::from_coo(&p.apply_rows(&a), &ell_cfg);
        assert!(
            after.space_savings().eta() >= before.space_savings().eta() - 0.02,
            "eta before {} after {}",
            before.space_savings().eta(),
            after.space_savings().eta()
        );
    }

    #[test]
    fn spmv_result_is_permutation_of_original() {
        let a = bro_matrix::generate::laplacian_2d::<f64>(6);
        let (p, _) = bar_order(&a, &small_cfg(6));
        let x: Vec<f64> = (0..36).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let y = a.spmv_reference(&x).unwrap();
        let y2 = p.apply_rows(&a).spmv_reference(&x).unwrap();
        assert_eq!(y2, p.apply_vec(&y));
    }

    #[test]
    fn single_cluster_degenerate_case() {
        let a = bro_matrix::generate::laplacian_2d::<f64>(3);
        let (p, _) = bar_order(&a, &small_cfg(16)); // h > m: one cluster
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn empty_matrix() {
        let a = CooMatrix::<f64>::zeros(0, 0);
        let (p, phi) = bar_order(&a, &BarConfig::default());
        assert_eq!(p.len(), 0);
        assert_eq!(phi, 0);
    }

    #[test]
    fn permutation_independent_of_thread_count() {
        let spec = GeneratorSpec {
            name: "mixed".into(),
            rows: 700,
            cols: 1 << 15,
            row_lengths: RowLengthModel::Constant(9),
            placement: PlacementModel::Blend { bandwidth: 48, banded_fraction: 0.5 },
            seed: 23,
        };
        let a = spec.generate::<f64>();
        // A small slice height gives many clusters to score per row.
        let cfg = BarConfig { slice_height: 4, ..BarConfig::default() };
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| bar_order(&a, &cfg))
        };
        let (p1, phi1) = run(1);
        let (p4, phi4) = run(4);
        assert_eq!(phi1, phi4);
        let order = |p: &Permutation| (0..p.len()).map(|i| p.old_index(i)).collect::<Vec<_>>();
        assert_eq!(order(&p1), order(&p4));
    }

    /// A `rows.len() × cols` matrix with the given column lists.
    fn rows_matrix(cols: usize, rows: &[&[usize]]) -> CooMatrix<f64> {
        let ri: Vec<usize> = rows.iter().enumerate().flat_map(|(r, c)| vec![r; c.len()]).collect();
        let ci: Vec<usize> = rows.concat();
        CooMatrix::from_triplets(rows.len(), cols, &ri, &ci, &vec![1.0; ci.len()]).unwrap()
    }

    /// `bar_order`'s row order, checked against the oracle's.
    fn oracle_order(a: &CooMatrix<f64>, cfg: &BarConfig) -> Vec<u32> {
        let (p, phi) = bar_order(a, cfg);
        let (p_old, phi_old) = oracle::bar_order(a, cfg);
        let order = |p: &Permutation| (0..p.len()).map(|i| p.old_index(i)).collect::<Vec<_>>();
        assert_eq!(order(&p), order(&p_old), "{cfg:?}");
        assert_eq!(phi, phi_old);
        order(&p)
    }

    /// `h = 2` with α = 7: seeds are rows 0 and 2, row 1 is placed first.
    fn alpha7(cacheline_bytes: usize) -> BarConfig {
        BarConfig { slice_height: 2, alpha_bits: 7, cacheline_bytes, ..BarConfig::default() }
    }

    #[test]
    fn tie_at_k_goes_to_lower_untouched_cluster_with_slack() {
        // Row 1 shares line 7 with cluster 1's seed (7 bits, no slack) and
        // adds one bit there: cost 1 + 1 − 1 = k. Cluster 0 (8 bits, slack
        // 6) is untouched and takes row 1's 8 bits with no new transaction:
        // cost k too, and the lower index wins.
        let a = rows_matrix(256, &[&[128], &[127], &[126], &[200]]);
        assert_eq!(oracle_order(&a, &alpha7(128)), [0, 1, 2, 3]);
        // The same tie, shown by slack alone: cluster 0's slack 5 covers all
        // 4 bits of row 1, which shares line 0 at column 0 with cluster 1's
        // one-entry seed and adds a 1-bit column to it.
        let a = rows_matrix(256, &[&[200, 201], &[3, 4], &[100], &[50]]);
        assert_eq!(oracle_order(&a, &alpha7(1024)), [0, 1, 2, 3]);
    }

    #[test]
    fn tie_at_k_loses_when_untouched_cluster_is_short_of_slack() {
        // As above, but cluster 0's seed has 1 bit and slack 6, and row 1
        // adds 7: one transaction, cost k + 1, so cluster 1 keeps row 1.
        let a = rows_matrix(256, &[&[0], &[127], &[126], &[200]]);
        assert_eq!(oracle_order(&a, &alpha7(128)), [0, 3, 2, 1]);
    }

    #[test]
    fn touched_cost_above_k_scores_every_cluster() {
        // Row 1 (k = 2) touches only cluster 1, which it costs 2 new
        // transactions and 1 new line: 3 > k. Untouched cluster 0 costs 3
        // transactions more; untouched cluster 2 already holds wider
        // deltas and costs only its k lines, so it takes row 1.
        let a = rows_matrix(
            40_000,
            &[&[0, 1], &[300, 16_684], &[301, 302], &[5000, 5001], &[1000, 33_768], &[6000, 6001]],
        );
        let order = oracle_order(&a, &alpha7(128));
        assert_eq!(&order[4..], [4, 1]);
    }

    #[test]
    fn line_set_counts_clusters_in_every_mask_word() {
        // Three words per mask: the line holds cluster 3 inline, then
        // chunks of room 2 and 4, then a mask from the fifth cluster on.
        let mut set = LineSet::new(1, 130, 4);
        let steps =
            [(3, true), (70, true), (3, false), (129, true), (5, true), (64, true), (70, false)];
        for (t, new) in steps {
            assert_eq!(set.insert(9, t, set.find(9)), new, "cluster {t}");
        }
        assert_eq!(set.masks.len(), 3);
        let (mut hits, mut touched) = (vec![0; 130], Vec::new());
        let mut live = ones_below(130);
        live[1] &= !(1 << (70 - 64));
        set.count(9, &live, &mut hits, &mut touched);
        touched.sort_unstable();
        assert_eq!(touched, [3, 5, 64, 129]);
        assert_eq!(hits.iter().sum::<u32>(), 4);
    }

    #[test]
    fn clusters_past_one_mask_word_match_oracle() {
        // 100 clusters of two rows; every row draws from 24 columns over
        // 3 lines, so each line is shared by clusters in both mask words.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let rows: Vec<Vec<usize>> = (0..200)
            .map(|_| {
                let len = rng.gen_range(1..6);
                (0..len)
                    .map(|_| rng.gen_range(0..24))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect()
            })
            .collect();
        let rows: Vec<&[usize]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = rows_matrix(24, &rows);
        for alpha_bits in [7, 32] {
            let cfg = BarConfig {
                slice_height: 2,
                alpha_bits,
                cacheline_bytes: 64,
                ..BarConfig::default()
            };
            oracle_order(&a, &cfg);
        }
    }

    /// A seeded `m × cols` matrix of one of five shapes:
    /// 0. random rows of 0–12 entries;
    /// 1. mostly short rows, a third of them empty, plus one row over half
    ///    the columns;
    /// 2. rail-like: at most 40 rows of 100–600 entries over 20k+ columns;
    /// 3. banded rows of 1–9 entries near the diagonal;
    /// 4. prefixes of one shared row of up to 12 entries, so most clusters
    ///    touch every line.
    fn shaped_matrix(shape: usize, m: usize, cols: usize, seed: u64) -> CooMatrix<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (m, cols) = if shape == 2 { (1 + m % 40, 20_000 + 10 * cols) } else { (m, cols) };
        let long_row = rng.gen_range(0..m);
        let shared: BTreeSet<usize> = match shape {
            4 => (0..12).map(|_| rng.gen_range(0..cols)).collect(),
            _ => BTreeSet::new(),
        };
        let (mut ri, mut ci) = (Vec::new(), Vec::new());
        for r in 0..m {
            let len: usize = match shape {
                0 => rng.gen_range(0..13),
                1 if r == long_row => cols / 2 + 1,
                1 => rng.gen_range(0..3),
                2 => rng.gen_range(100..600),
                3 => rng.gen_range(1..10),
                _ => rng.gen_range(1..=shared.len()),
            }
            .min(cols);
            let centre = r * cols / m;
            let mut row: BTreeSet<usize> = shared.iter().copied().take(len).collect();
            while row.len() < len {
                row.insert(if shape == 3 {
                    (centre + rng.gen_range(0..4 * len)).saturating_sub(2 * len).min(cols - 1)
                } else {
                    rng.gen_range(0..cols)
                });
            }
            for c in row {
                ri.push(r);
                ci.push(c);
            }
        }
        let vals = vec![1.0; ri.len()];
        CooMatrix::from_triplets(m, cols, &ri, &ci, &vals).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_hashset_oracle(
            shape in 0usize..5,
            m in 1usize..300,
            cols in 1usize..3000,
            seed in any::<u64>(),
            h_i in 0usize..5,
            alpha_i in 0usize..3,
        ) {
            let a = shaped_matrix(shape, m, cols, seed);
            let cfg = BarConfig {
                slice_height: [1, 2, 4, 32, 256][h_i],
                alpha_bits: [7, 32, 64][alpha_i],
                cacheline_bytes: [32, 128, 128][alpha_i],
                ..BarConfig::default()
            };
            let (p, phi) = bar_order(&a, &cfg);
            let (p_old, phi_old) = oracle::bar_order(&a, &cfg);
            let order = |p: &Permutation| (0..p.len()).map(|i| p.old_index(i)).collect::<Vec<_>>();
            prop_assert_eq!(order(&p), order(&p_old), "shape {} m {} cfg {:?}", shape, a.rows(), cfg);
            prop_assert_eq!(phi, phi_old);
        }
    }
}
