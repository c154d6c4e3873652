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

/// Marks an empty slot of a [`LineSet`] and the end of a cluster list.
const NIL: u32 = u32::MAX;
/// Tags a [`LineSet`] owner that is a list head in `nodes`, not a cluster.
const LIST: u32 = 1 << 31;

/// The x cachelines the clusters touch at one column position, each with
/// the clusters that touch it: the `c(S, j)` terms of every cluster at
/// once, inverted.
///
/// An open-addressing table (multiply-shift hashing, linear probing) maps
/// each line to its owner: the one cluster touching it, or, tagged with
/// `LIST`, the head of a linked list of clusters in `nodes`. The set grows
/// with the distinct `(cluster, line)` pairs of its column, never with
/// `nnz`.
struct LineSet {
    /// Odd multiplier of the hash, drawn per call: lines come from the
    /// input matrix, which must not be able to pick colliding ones.
    multiplier: u32,
    lines: Vec<u32>,
    /// Owner of each slot, or `NIL` for an empty slot.
    owners: Vec<u32>,
    /// `32 - log2(slots)`: the multiplicative hash keeps the top bits.
    shift: u32,
    len: usize,
    /// `(cluster, next node)`.
    nodes: Vec<(u32, u32)>,
}

impl LineSet {
    fn new(multiplier: u32) -> Self {
        LineSet {
            multiplier,
            lines: Vec::new(),
            owners: Vec::new(),
            shift: 0,
            len: 0,
            nodes: Vec::new(),
        }
    }

    /// The slot holding `line`, or the empty slot where it would go.
    fn slot(&self, line: u32) -> usize {
        let mask = self.lines.len() - 1;
        let mut i = (line.wrapping_mul(self.multiplier) >> self.shift) as usize;
        while self.owners[i] != NIL && self.lines[i] != line {
            i = (i + 1) & mask;
        }
        i
    }

    /// Adds 1 to `hits[t]` for every cluster `t` that touches `line`.
    fn count(&self, line: u32, hits: &mut [u32]) {
        if self.len == 0 {
            return;
        }
        let mut n = match self.owners[self.slot(line)] {
            NIL => return,
            t if t & LIST == 0 => return hits[t as usize] += 1,
            head => head & !LIST,
        };
        while n != NIL {
            let (t, next) = self.nodes[n as usize];
            hits[t as usize] += 1;
            n = next;
        }
    }

    /// Records that cluster `t` touches `line`; returns whether that is new.
    fn insert(&mut self, line: u32, t: u32) -> bool {
        debug_assert!(t < LIST);
        if 4 * (self.len + 1) > 3 * self.lines.len() {
            self.grow();
        }
        let i = self.slot(line);
        let head = match self.owners[i] {
            NIL => {
                self.lines[i] = line;
                self.owners[i] = t;
                self.len += 1;
                return true;
            }
            owner if owner & LIST == 0 => {
                if owner == t {
                    return false;
                }
                self.node(owner, NIL)
            }
            head => {
                let mut n = head & !LIST;
                while n != NIL {
                    let (c, next) = self.nodes[n as usize];
                    if c == t {
                        return false;
                    }
                    n = next;
                }
                head & !LIST
            }
        };
        self.owners[i] = LIST | self.node(t, head);
        true
    }

    /// Appends a list node and returns its index.
    fn node(&mut self, t: u32, next: u32) -> u32 {
        let n = self.nodes.len();
        assert!(n < LIST as usize, "fewer than 2^31 (cluster, line) pairs per column");
        self.nodes.push((t, next));
        n as u32
    }

    fn grow(&mut self) {
        let slots = (2 * self.lines.len()).max(8);
        let lines = std::mem::replace(&mut self.lines, vec![0; slots]);
        let owners = std::mem::replace(&mut self.owners, vec![NIL; slots]);
        self.shift = 32 - slots.trailing_zeros();
        for (line, owner) in lines.into_iter().zip(owners) {
            if owner != NIL {
                let i = self.slot(line);
                self.lines[i] = line;
                self.owners[i] = owner;
            }
        }
    }
}

/// The greedy clustering state of Algorithm 2.
///
/// `d(S_t, j)` is stored column-major across clusters (`d[j * v + t]`), so
/// the bits term of one row against every cluster is one pass of contiguous
/// `u8` saturating subtractions per nonzero. Only the first `width` columns
/// are tracked: no row still to be placed is longer, so a column beyond it
/// gains no other row of its cluster and enters `sum_d` and `lines`
/// directly. The line term of one row is one [`LineSet`] lookup per
/// nonzero, whatever the number of clusters.
struct Clusters {
    v: usize,
    /// Rows are placed longest first, so `width` only shrinks.
    width: usize,
    alpha: u32,
    d: Vec<u8>,
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
}

impl Clusters {
    fn new(v: usize, width: usize, alpha: u32) -> Self {
        let multiplier = RandomState::new().hash_one(0u32) as u32 | 1;
        Clusters {
            v,
            width,
            alpha,
            d: vec![0; width * v],
            sum_d: vec![0; v],
            slack: vec![0; v],
            lines: vec![0; v],
            index: (0..width).map(|_| LineSet::new(multiplier)).collect(),
            rows: vec![Vec::new(); v],
        }
    }

    fn insert(&mut self, t: usize, r: u32, bits: &[u8], lines: &[u32]) {
        self.rows[t].push(r);
        for (j, (&b, &l)) in bits.iter().zip(lines).enumerate() {
            if j < self.width {
                let cur = &mut self.d[j * self.v + t];
                if b > *cur {
                    self.sum_d[t] += (b - *cur) as u32;
                    *cur = b;
                }
                if self.index[j].insert(l, t as u32) {
                    self.lines[t] += 1;
                }
            } else {
                self.sum_d[t] += b as u32;
                self.lines[t] += 1;
            }
        }
        let sum = self.sum_d[t] as u64;
        self.slack[t] = (sum.div_ceil(self.alpha as u64) * self.alpha as u64 - sum) as u32;
    }

    /// Stops tracking the columns at `width` and beyond.
    fn shrink_width(&mut self, width: usize) {
        if width < self.width {
            self.index.truncate(width);
            self.width = width;
        }
    }

    /// The lowest-index cluster of `alive` minimizing the growth of the
    /// parenthesized Eqn. (1) term, `extra` and `hits` being scratch.
    fn best(
        &self,
        alive: &[usize],
        bits: &[u8],
        lines: &[u32],
        extra: &mut [u32],
        hits: &mut [u32],
    ) -> usize {
        extra.fill(0);
        hits.fill(0);
        for (j, (&b, &l)) in bits.iter().zip(lines).enumerate() {
            let col = &self.d[j * self.v..(j + 1) * self.v];
            for (e, &cur) in extra.iter_mut().zip(col) {
                *e += b.saturating_sub(cur) as u32;
            }
            self.index[j].count(l, hits);
        }
        let k = bits.len() as u64;
        let mut best = (u64::MAX, usize::MAX);
        for &t in alive {
            let (e, slack) = (extra[t], self.slack[t]);
            let txn = if e > slack { (e - slack).div_ceil(self.alpha) as u64 } else { 0 };
            let cost = txn + k - hits[t] as u64;
            if cost < best.0 {
                best = (cost, t);
            }
        }
        best.1
    }
}

/// Computes the BAR row permutation of a matrix (Algorithm 2).
///
/// Returns the permutation together with the final objective value Φ.
///
/// Each row placed after seeding costs one pass over its nonzeros per
/// cluster for the bits term (contiguous `u8` operations) plus one index
/// lookup per nonzero for the line term, whose cost is the number of
/// clusters already touching that line at that column.
pub fn bar_order<T: Scalar>(a: &CooMatrix<T>, cfg: &BarConfig) -> (Permutation, u64) {
    let m = a.rows();
    if m == 0 {
        return (Permutation::identity(0), 0);
    }
    let h = cfg.slice_height.max(1);
    let v = m.div_ceil(h);
    let elems_per_line = (cfg.cacheline_bytes / cfg.val_bytes).max(1) as u32;

    // Per-nonzero delta bit widths and x cachelines, row-major; row r is
    // `ptr[r]..ptr[r + 1]`.
    let ptr = a.row_offsets();
    let mut bits = Vec::with_capacity(a.nnz());
    let mut lines = Vec::with_capacity(a.nnz());
    for r in 0..m {
        let mut prev: i64 = -1;
        for &c in &a.col_indices()[ptr[r]..ptr[r + 1]] {
            bits.push(bits_for((c as i64 - prev) as u64) as u8);
            lines.push(c / elems_per_line);
            prev = c as i64;
        }
    }
    let row = |r: u32| {
        let span = ptr[r as usize]..ptr[r as usize + 1];
        (&bits[span.clone()], &lines[span])
    };

    // Line 2: rows sorted by length (descending, stable by index).
    let mut sorted: Vec<u32> = (0..m as u32).collect();
    sorted.sort_by_key(|&r| std::cmp::Reverse(ptr[r as usize + 1] - ptr[r as usize]));

    // Lines 3–6: seed each cluster with rows spaced h apart. Every cluster
    // gets a seed, because (v - 1)·h < m.
    let seed = |pos: usize| pos.is_multiple_of(h);
    let width = (0..m).filter(|&p| !seed(p)).map(|p| row(sorted[p]).0.len()).max().unwrap_or(0);
    let mut clusters = Clusters::new(v, width, cfg.alpha_bits);
    for t in 0..v {
        let r = sorted[t * h];
        let (b, l) = row(r);
        clusters.insert(t, r, b, l);
    }

    // Lines 7–13: greedy placement of the remaining rows into the non-full
    // cluster whose objective grows the least, ties going to the lowest
    // index. `alive` lists the non-full clusters in ascending order.
    let mut alive: Vec<usize> = if h > 1 { (0..v).collect() } else { Vec::new() };
    let (mut extra, mut hits) = (vec![0u32; v], vec![0u32; v]);
    for (pos, &r) in sorted.iter().enumerate() {
        if seed(pos) {
            continue;
        }
        let (b, l) = row(r);
        clusters.shrink_width(b.len());
        let t = clusters.best(&alive, b, l, &mut extra, &mut hits);
        assert!(t < v, "total cluster capacity v*h >= m");
        clusters.insert(t, r, b, l);
        if clusters.rows[t].len() >= h {
            let pos = alive.binary_search(&t).expect("the winner is alive");
            alive.remove(pos);
        }
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

    /// A seeded `m × cols` matrix of one of four shapes:
    /// 0. random rows of 0–12 entries;
    /// 1. mostly short rows, a third of them empty, plus one row over half
    ///    the columns;
    /// 2. rail-like: at most 40 rows of 100–600 entries over 20k+ columns;
    /// 3. banded rows of 1–9 entries near the diagonal.
    fn shaped_matrix(shape: usize, m: usize, cols: usize, seed: u64) -> CooMatrix<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (m, cols) = if shape == 2 { (1 + m % 40, 20_000 + 10 * cols) } else { (m, cols) };
        let long_row = rng.gen_range(0..m);
        let (mut ri, mut ci) = (Vec::new(), Vec::new());
        for r in 0..m {
            let len: usize = match shape {
                0 => rng.gen_range(0..13),
                1 if r == long_row => cols / 2 + 1,
                1 => rng.gen_range(0..3),
                2 => rng.gen_range(100..600),
                _ => rng.gen_range(1..10),
            }
            .min(cols);
            let centre = r * cols / m;
            let mut row = BTreeSet::new();
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
            shape in 0usize..4,
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
