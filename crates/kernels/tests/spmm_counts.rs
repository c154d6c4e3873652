//! SpMM is the SpMV kernel over `k` vectors: with one vector it must count
//! exactly what SpMV counts, and for wider blocks its counts are pinned to
//! the model of the SpMM kernels as first written (one value pass per
//! column, then each vector's texture reads and multiply-adds in turn).

use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::{DeviceProfile, DeviceSim, StatsSnapshot};
use bro_kernels::{bro_ell_spmm, bro_ell_spmv, ell_spmm, ell_spmv};
use bro_matrix::{CooMatrix, EllMatrix};

/// `ell` and `bro-ell` SpMM statistics: launches, then every `LaunchStats`
/// field in declaration order.
const PINNED: &str = "\
ell laplacian Tesla C2070 k=2: 1 180 268 34304 36 72 9216 0 0 5568 5232 336 10752 0 11136 5760 0 24 3
bro-ell laplacian Tesla C2070 k=2: 1 108 196 25088 36 72 9216 0 0 5568 5088 480 15360 81 11136 16704 0 18 9
ell laplacian Tesla C2070 k=4: 1 180 268 34304 72 144 18432 0 0 11136 10464 672 21504 0 22272 5760 0 24 3
bro-ell laplacian Tesla C2070 k=4: 1 108 196 25088 72 144 18432 0 0 11136 10176 960 30720 81 22272 16704 0 18 9
ell laplacian GTX680 k=2: 1 180 268 34304 36 72 9216 0 0 5568 5232 336 10752 0 11136 5760 0 24 3
bro-ell laplacian GTX680 k=2: 1 108 196 25088 36 72 9216 0 0 5568 5088 480 15360 81 11136 16704 0 18 9
ell laplacian GTX680 k=4: 1 180 268 34304 72 144 18432 0 0 11136 10464 672 21504 0 22272 5760 0 24 3
bro-ell laplacian GTX680 k=4: 1 108 196 25088 72 144 18432 0 0 11136 10176 960 30720 81 22272 16704 0 18 9
ell laplacian Tesla K20 k=2: 1 180 268 34304 36 72 9216 0 0 5568 5232 336 10752 0 11136 5760 0 24 3
bro-ell laplacian Tesla K20 k=2: 1 108 196 25088 36 72 9216 0 0 5568 5088 480 15360 81 11136 16704 0 18 9
ell laplacian Tesla K20 k=4: 1 180 268 34304 72 144 18432 0 0 11136 10464 672 21504 0 22272 5760 0 24 3
bro-ell laplacian Tesla K20 k=4: 1 108 196 25088 72 144 18432 0 0 11136 10176 960 30720 81 22272 16704 0 18 9
ell skewed Tesla C2070 k=2: 1 140 203 25984 20 38 4864 0 0 1596 1270 326 10432 0 3192 4200 0 16 2
bro-ell skewed Tesla C2070 k=2: 1 90 160 20480 20 38 4864 0 0 1596 784 812 25984 55 3192 12900 0 10 5
ell skewed Tesla C2070 k=4: 1 140 203 25984 40 76 9728 0 0 3192 2443 749 23968 0 6384 4200 0 16 2
bro-ell skewed Tesla C2070 k=4: 1 90 160 20480 40 76 9728 0 0 3192 1562 1630 52160 55 6384 12900 0 10 5
ell skewed GTX680 k=2: 1 140 203 25984 20 38 4864 0 0 1596 1270 326 10432 0 3192 4200 0 16 2
bro-ell skewed GTX680 k=2: 1 90 160 20480 20 38 4864 0 0 1596 784 812 25984 55 3192 12900 0 10 5
ell skewed GTX680 k=4: 1 140 203 25984 40 76 9728 0 0 3192 2540 652 20864 0 6384 4200 0 16 2
bro-ell skewed GTX680 k=4: 1 90 160 20480 40 76 9728 0 0 3192 1568 1624 51968 55 6384 12900 0 10 5
ell skewed Tesla K20 k=2: 1 140 203 25984 20 38 4864 0 0 1596 1270 326 10432 0 3192 4200 0 16 2
bro-ell skewed Tesla K20 k=2: 1 90 160 20480 20 38 4864 0 0 1596 784 812 25984 55 3192 12900 0 10 5
ell skewed Tesla K20 k=4: 1 140 203 25984 40 76 9728 0 0 3192 2540 652 20864 0 6384 4200 0 16 2
bro-ell skewed Tesla K20 k=4: 1 90 160 20480 40 76 9728 0 0 3192 1568 1624 51968 55 6384 12900 0 10 5
";

fn devices() -> [DeviceProfile; 3] {
    [DeviceProfile::tesla_c2070(), DeviceProfile::gtx680(), DeviceProfile::tesla_k20()]
}

/// Rows of 1 to 7 entries, every third row empty, and one 150-entry row.
fn skewed() -> CooMatrix<f64> {
    let mut trips = Vec::new();
    for i in (0..300usize).filter(|i| i % 3 != 1) {
        let len = if i == 40 { 150 } else { 1 + i % 7 };
        trips.extend((0..len).map(|j| (i, (i * 5 + j * 13) % 400)));
    }
    trips.sort_unstable();
    trips.dedup();
    let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
    CooMatrix::from_triplets(300, 400, &r, &c, &vec![1.0; r.len()]).unwrap()
}

fn matrices() -> [(&'static str, CooMatrix<f64>); 2] {
    [("laplacian", bro_matrix::generate::laplacian_2d(24)), ("skewed", skewed())]
}

fn block(cols: usize, k: usize) -> Vec<Vec<f64>> {
    let x = |v: usize| (0..cols).map(|i| 1.0 + ((i * (v + 3)) % 11) as f64 * 0.2).collect();
    (0..k).map(x).collect()
}

fn line(s: &StatsSnapshot) -> String {
    let t = &s.stats;
    let fields = [
        s.launches as u64,
        t.global_load_instrs,
        t.global_read_txns,
        t.global_read_bytes,
        t.global_store_instrs,
        t.global_write_txns,
        t.global_write_bytes,
        t.atomic_txns,
        t.atomic_bytes,
        t.tex_accesses,
        t.tex_hits,
        t.tex_misses,
        t.tex_fill_bytes,
        t.const_bytes,
        t.flops,
        t.int_ops,
        t.warp_ops,
        t.warps_launched,
        t.blocks_launched,
    ];
    fields.map(|f| f.to_string()).join(" ")
}

fn run<Y>(p: &DeviceProfile, kernel: impl FnOnce(&mut DeviceSim) -> Y) -> (Y, StatsSnapshot) {
    let mut sim = DeviceSim::new(p.clone());
    let y = kernel(&mut sim);
    (y, sim.snapshot())
}

#[test]
fn one_vector_spmm_is_spmv_count_for_count() {
    for (name, a) in matrices() {
        let ell = EllMatrix::from_coo(&a);
        let cfg = BroEllConfig { slice_height: 64, ..Default::default() };
        let bro: BroEll<f64> = BroEll::from_coo(&a, &cfg);
        let xs = block(a.cols(), 1);
        for p in devices() {
            let (ys, spmm) = run(&p, |s| ell_spmm(s, &ell, &xs));
            let (y, spmv) = run(&p, |s| ell_spmv(s, &ell, &xs[0]));
            assert_eq!((ys, spmm), (vec![y], spmv), "ell {name} {}", p.name);
            let (ys, spmm) = run(&p, |s| bro_ell_spmm(s, &bro, &xs));
            let (y, spmv) = run(&p, |s| bro_ell_spmv(s, &bro, &xs[0]));
            assert_eq!((ys, spmm), (vec![y], spmv), "bro-ell {name} {}", p.name);
        }
    }
}

#[test]
fn block_counts_are_pinned() {
    let mut got = Vec::new();
    for (name, a) in matrices() {
        let ell = EllMatrix::from_coo(&a);
        let cfg = BroEllConfig { slice_height: 64, ..Default::default() };
        let bro: BroEll<f64> = BroEll::from_coo(&a, &cfg);
        for p in devices() {
            for k in [2, 4] {
                let xs = block(a.cols(), k);
                let (ys, stats) = run(&p, |s| ell_spmm(s, &ell, &xs));
                for (x, y) in xs.iter().zip(&ys) {
                    assert_eq!(y, &ell_spmv(&mut DeviceSim::new(p.clone()), &ell, x));
                }
                got.push(format!("ell {name} {} k={k}: {}", p.name, line(&stats)));
                let (ys, stats) = run(&p, |s| bro_ell_spmm(s, &bro, &xs));
                for (x, y) in xs.iter().zip(&ys) {
                    assert_eq!(y, &bro_ell_spmv(&mut DeviceSim::new(p.clone()), &bro, x));
                }
                got.push(format!("bro-ell {name} {} k={k}: {}", p.name, line(&stats)));
            }
        }
    }
    let want: Vec<&str> = PINNED.lines().collect();
    assert_eq!(got, want);
}
