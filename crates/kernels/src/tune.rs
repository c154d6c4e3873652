//! Format auto-selection — the library-level feature the paper's related
//! work (clSpMV's "cocktail" framework) motivates: given a matrix and a
//! target device, simulate every candidate format once and recommend the
//! fastest.
//!
//! Because the simulator is deterministic and cheap relative to a real
//! device sweep, the tuner simply builds every candidate through the kernel
//! registry and measures it end to end, skipping ELLPACK-family candidates
//! whose padding would explode memory.

use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport};
use bro_matrix::CooMatrix;

use crate::registry;

/// The registry kernels the tuner measures, in measuring order, each with
/// whether it pads every row to the longest one (the ELLPACK family).
///
/// The order breaks ties: candidates are sorted stably, so of two equally
/// fast kernels the earlier one wins. On `mc2depi` (scale 0.25, K20)
/// BRO-HYB and BRO-ELL tie bit for bit, and this order picks `bro-hyb`.
pub const CANDIDATES: [(&str, bool); 9] = [
    ("coo", false),
    ("csr-vector", false),
    ("bro-coo", false),
    ("hyb", false),
    ("bro-hyb", false),
    ("ell", true),
    ("ellr", true),
    ("bro-ell", true),
    ("bro-ellr", true),
];

/// One measured candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Registry name of the kernel.
    pub format: &'static str,
    /// Estimated GFLOP/s on the target device.
    pub gflops: f64,
    /// Total DRAM bytes per SpMV.
    pub dram_bytes: u64,
}

/// The tuner's verdict.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Registry name of the fastest kernel.
    pub best: &'static str,
    /// All measured candidates, fastest first.
    pub candidates: Vec<Candidate>,
    /// Candidates skipped with the reason.
    pub skipped: Vec<(&'static str, String)>,
}

/// Padding-blowup limit: ELLPACK-family formats are skipped when the padded
/// slot count exceeds this multiple of nnz.
pub const MAX_ELL_BLOWUP: f64 = 8.0;

/// Measures every viable candidate for `a` on `profile` and recommends the
/// fastest. `x` supplies the access pattern (use a representative input).
pub fn recommend_format(a: &CooMatrix<f64>, x: &[f64], profile: &DeviceProfile) -> TuneReport {
    assert_eq!(x.len(), a.cols(), "x length must match matrix columns");
    let flops = 2 * a.nnz() as u64;
    let stats = a.stats();
    let slots = stats.rows * stats.max_row_len;
    let ell_fits = a.nnz() == 0 || slots as f64 <= MAX_ELL_BLOWUP * a.nnz() as f64;
    let mut candidates = Vec::new();
    let mut skipped = Vec::new();
    for (name, padded) in CANDIDATES {
        if padded && !ell_fits {
            let blowup = slots as f64 / a.nnz() as f64;
            let reason = format!("padding blowup {blowup:.1}x exceeds limit {MAX_ELL_BLOWUP}x");
            skipped.push((name, reason));
            continue;
        }
        let kernel = registry::by_name(name).expect("tuner candidates are registry names");
        let mut sim = DeviceSim::new(profile.clone());
        std::hint::black_box(kernel.build_from_coo(a).run(&mut sim, x));
        let r = KernelReport::from_device(&sim, flops, 8);
        candidates.push(Candidate { format: name, gflops: r.gflops, dram_bytes: r.dram_bytes });
    }
    candidates.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
    TuneReport { best: candidates[0].format, candidates, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_matrix::suite;

    /// The `repro formats` scale. BRO-HYB and BRO-ELL tie bit for bit on
    /// `mc2depi` at every scale tried from 0.005 to 0.25.
    const TIE_SCALE: f64 = 0.25;

    fn x_for(a: &CooMatrix<f64>) -> Vec<f64> {
        (0..a.cols()).map(|i| 1.0 + (i % 4) as f64 * 0.5).collect()
    }

    #[test]
    fn fem_matrix_prefers_a_bro_format() {
        // Large enough that one-thread-per-row kernels fill the device
        // (tiny matrices legitimately tune to CSR-vector or COO, which put
        // a warp on every row).
        let a: CooMatrix<f64> = suite::by_name("consph").unwrap().spec(0.12).generate();
        let x = x_for(&a);
        let report = recommend_format(&a, &x, &DeviceProfile::tesla_c2070());
        assert!(
            ["bro-ell", "bro-ellr", "bro-hyb"].contains(&report.best),
            "best = {} of {:?}",
            report.best,
            report.candidates.iter().map(|c| (c.format, c.gflops)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn extreme_skew_skips_ellpack_family() {
        // One full row + a diagonal: padding blowup is ~n/2.
        let n = 4096;
        let mut r: Vec<usize> = (0..n).collect();
        let mut c: Vec<usize> = (0..n).collect();
        for j in 0..n {
            if j != 0 {
                r.push(0);
                c.push(j);
            }
        }
        let mut trips: Vec<(usize, usize)> = r.into_iter().zip(c).collect();
        trips.sort_unstable();
        trips.dedup();
        let (r, c): (Vec<_>, Vec<_>) = trips.into_iter().unzip();
        let a = CooMatrix::from_triplets(n, n, &r, &c, &vec![1.0; r.len()]).unwrap();
        let report = recommend_format(&a, &vec![1.0; n], &DeviceProfile::tesla_k20());
        assert_eq!(report.skipped.len(), 4);
        assert!(report.candidates.iter().all(|cand| !["ell", "bro-ell"].contains(&cand.format)));
    }

    #[test]
    fn candidates_sorted_descending() {
        let a: CooMatrix<f64> = suite::by_name("epb3").unwrap().spec(0.01).generate();
        let x = x_for(&a);
        let report = recommend_format(&a, &x, &DeviceProfile::gtx680());
        for w in report.candidates.windows(2) {
            assert!(w[0].gflops >= w[1].gflops);
        }
        assert_eq!(report.best, report.candidates[0].format);
    }

    #[test]
    fn every_candidate_is_a_registry_kernel() {
        for (name, _) in CANDIDATES {
            assert_eq!(registry::by_name(name).map(|k| k.name()), Some(name));
        }
    }

    /// BRO-HYB and BRO-ELL reach bit-identical GFLOP/s on `mc2depi`; the
    /// candidate order, not the registry order, decides the pick.
    #[test]
    fn exact_tie_keeps_the_earlier_candidate() {
        let a: CooMatrix<f64> = suite::by_name("mc2depi").unwrap().spec(TIE_SCALE).generate();
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 8) as f64 * 0.25).collect();
        let report = recommend_format(&a, &x, &DeviceProfile::tesla_k20());
        let [first, second, ..] = &report.candidates[..] else { panic!("too few candidates") };
        assert_eq!((first.format, second.format), ("bro-hyb", "bro-ell"));
        assert_eq!(first.gflops.to_bits(), second.gflops.to_bits());
        assert_eq!(report.best, "bro-hyb");
    }
}
