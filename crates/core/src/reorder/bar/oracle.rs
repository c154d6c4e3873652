//! Test-only oracle: Algorithm 2 as first written, scoring every row
//! against every non-full cluster through per-cluster, per-column
//! `HashSet`s of x cachelines. `bar_order` must return exactly its
//! permutation and Φ.

use std::collections::HashSet;

use bro_bitstream::bits_for;
use bro_matrix::{CooMatrix, Permutation, Scalar};

use super::BarConfig;

struct RowInfo {
    bits: Vec<u8>,
    lines: Vec<u32>,
}

struct Cluster {
    rows: Vec<u32>,
    d: Vec<u8>,
    sum_d: u32,
    lines: Vec<HashSet<u32>>,
}

impl Cluster {
    fn new() -> Self {
        Cluster { rows: Vec::new(), d: Vec::new(), sum_d: 0, lines: Vec::new() }
    }

    fn delta_cost(&self, row: &RowInfo, alpha: u32) -> u64 {
        let mut new_sum = self.sum_d;
        for (j, &b) in row.bits.iter().enumerate() {
            let cur = self.d.get(j).copied().unwrap_or(0);
            if b > cur {
                new_sum += (b - cur) as u32;
            }
        }
        let txn_before = self.sum_d.div_ceil(alpha) as u64;
        let txn_after = new_sum.div_ceil(alpha) as u64;
        let mut new_lines = 0u64;
        for (j, &l) in row.lines.iter().enumerate() {
            match self.lines.get(j) {
                Some(set) if set.contains(&l) => {}
                _ => new_lines += 1,
            }
        }
        (txn_after - txn_before) + new_lines
    }

    fn insert(&mut self, idx: u32, row: &RowInfo) {
        self.rows.push(idx);
        if self.d.len() < row.bits.len() {
            self.d.resize(row.bits.len(), 0);
        }
        if self.lines.len() < row.lines.len() {
            self.lines.resize_with(row.lines.len(), HashSet::new);
        }
        for (j, &b) in row.bits.iter().enumerate() {
            if b > self.d[j] {
                self.sum_d += (b - self.d[j]) as u32;
                self.d[j] = b;
            }
        }
        for (j, &l) in row.lines.iter().enumerate() {
            self.lines[j].insert(l);
        }
    }

    fn cost(&self, alpha: u32) -> u64 {
        self.sum_d.div_ceil(alpha) as u64 + self.lines.iter().map(|s| s.len() as u64).sum::<u64>()
    }
}

pub(super) fn bar_order<T: Scalar>(a: &CooMatrix<T>, cfg: &BarConfig) -> (Permutation, u64) {
    let m = a.rows();
    if m == 0 {
        return (Permutation::identity(0), 0);
    }
    let h = cfg.slice_height.max(1);
    let v = m.div_ceil(h);
    let elems_per_line = (cfg.cacheline_bytes / cfg.val_bytes).max(1) as u32;

    let rows_info: Vec<RowInfo> = (0..m)
        .map(|r| {
            let (cols, _) = a.row(r as u32);
            let mut bits = Vec::with_capacity(cols.len());
            let mut prev: i64 = -1;
            for &c in cols {
                bits.push(bits_for((c as i64 - prev) as u64) as u8);
                prev = c as i64;
            }
            RowInfo { bits, lines: cols.iter().map(|&c| c / elems_per_line).collect() }
        })
        .collect();

    let mut sorted: Vec<u32> = (0..m as u32).collect();
    sorted.sort_by_key(|&r| std::cmp::Reverse(rows_info[r as usize].bits.len()));

    let mut clusters: Vec<Cluster> = (0..v).map(|_| Cluster::new()).collect();
    let mut seeded = vec![false; m];
    for (t, cluster) in clusters.iter_mut().enumerate() {
        let pos = t * h;
        if pos < m {
            let r = sorted[pos];
            cluster.insert(r, &rows_info[r as usize]);
            seeded[r as usize] = true;
        }
    }

    let mut alive: Vec<usize> = (0..v).filter(|&t| clusters[t].rows.len() < h).collect();
    for &r in &sorted {
        if seeded[r as usize] {
            continue;
        }
        let info = &rows_info[r as usize];
        let (_, t) = alive
            .iter()
            .map(|&t| (clusters[t].delta_cost(info, cfg.alpha_bits), t))
            .min()
            .expect("total cluster capacity v*h >= m");
        clusters[t].insert(r, info);
        if clusters[t].rows.len() >= h {
            if let Ok(pos) = alive.binary_search(&t) {
                alive.remove(pos);
            }
        }
    }

    let scale = (h / cfg.warp_size.max(1)).max(1) as u64;
    let phi: u64 = clusters.iter().map(|c| scale * c.cost(cfg.alpha_bits)).sum();

    let mut order = Vec::with_capacity(m);
    for c in &clusters {
        order.extend_from_slice(&c.rows);
    }
    (Permutation::from_order(order).expect("clusters partition the rows"), phi)
}
