//! Thread-count determinism checks.
//!
//! The execution engine is parallel by default (rayon across thread
//! blocks, BRO slices/intervals, and cluster devices), but every parallel region is written to merge results in a
//! fixed order, so the observable output must be bit-identical no matter
//! how many worker threads run it. This module makes that guarantee a
//! tested property: each check re-runs a pipeline under several pool
//! sizes and compares the results byte-for-byte —
//!
//! * BRO-ELL and BRO-COO encodings of every fuzz [`Family`], compared as
//!   serialized bitstreams;
//! * BAR reordering permutations and their objective value (BAR itself
//!   is serial; the check keeps it independent of the pool);
//! * the full per-device golden snapshot document ([`snapshot_device`]);
//! * the distributed cluster snapshot ([`snapshot_cluster`]).
//!
//! Any mismatch is reported with the family/device and the offending
//! thread count, along with the seed needed to replay it.

use bro_core::reorder::{bar_order, BarConfig};
use bro_core::{write_bro_coo, write_bro_ell, BroCoo, BroCooConfig, BroEll, BroEllConfig};
use bro_gpu_sim::DeviceProfile;

use crate::generators::Family;
use crate::golden::{snapshot_cluster, snapshot_device};

/// Outcome of a determinism sweep.
#[derive(Debug, Clone)]
pub struct DeterminismReport {
    /// Pool sizes the sweep compared (first entry is the reference).
    pub thread_counts: Vec<usize>,
    /// Individual comparisons performed.
    pub checks: usize,
    /// Human-readable descriptions of every mismatch found.
    pub mismatches: Vec<String>,
}

impl DeterminismReport {
    /// True when every comparison matched.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs `f` inside a scoped rayon pool of `n` workers.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("thread pool").install(f)
}

/// Compares `f`'s output across all `thread_counts`, recording one
/// mismatch line per divergent count.
fn check<R: PartialEq>(
    report: &mut DeterminismReport,
    what: &str,
    thread_counts: &[usize],
    f: impl Fn() -> R,
) {
    let reference = with_threads(thread_counts[0], &f);
    for &n in &thread_counts[1..] {
        report.checks += 1;
        if with_threads(n, &f) != reference {
            report.mismatches.push(format!(
                "{what}: result with {n} thread(s) differs from {} thread(s)",
                thread_counts[0]
            ));
        }
    }
}

/// Sweeps every fuzz family and both golden snapshots across the given
/// pool sizes. `thread_counts` must hold at least two entries; the seed
/// feeds the family generators and is echoed in mismatch output so CI
/// failures are replayable.
pub fn run(thread_counts: &[usize], seed: u64) -> DeterminismReport {
    assert!(thread_counts.len() >= 2, "need at least two thread counts to compare");
    let mut report = DeterminismReport {
        thread_counts: thread_counts.to_vec(),
        checks: 0,
        mismatches: Vec::new(),
    };

    for family in Family::all() {
        let a = family.generate(seed);
        let name = family.name();

        check(
            &mut report,
            &format!("bro-ell bitstream / {name} (seed {seed})"),
            thread_counts,
            || {
                let bro = BroEll::<f64, u32>::from_coo(&a, &BroEllConfig::default());
                let mut bytes = Vec::new();
                write_bro_ell(&bro, &mut bytes).expect("in-memory serialize");
                bytes
            },
        );
        check(
            &mut report,
            &format!("bro-coo bitstream / {name} (seed {seed})"),
            thread_counts,
            || {
                let bro = BroCoo::<f64, u32>::compress(&a, &BroCooConfig::default());
                let mut bytes = Vec::new();
                write_bro_coo(&bro, &mut bytes).expect("in-memory serialize");
                bytes
            },
        );
        check(
            &mut report,
            &format!("bar reordering / {name} (seed {seed})"),
            thread_counts,
            || {
                let (perm, phi) = bar_order(&a, &BarConfig::default());
                (perm.as_slice().to_vec(), phi)
            },
        );
    }

    for profile in DeviceProfile::evaluation_set() {
        check(&mut report, &format!("device snapshot / {}", profile.name), thread_counts, || {
            snapshot_device(&profile).to_pretty()
        });
    }
    check(&mut report, "cluster snapshot", thread_counts, || snapshot_cluster().to_pretty());

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_pipelines_agree() {
        // The acceptance gate: 1 vs N workers, byte-identical everywhere.
        let report = run(&[1, 4], 42);
        assert!(report.checks > 0);
        assert!(report.is_clean(), "mismatches: {:#?}", report.mismatches);
    }

    #[test]
    fn three_pool_sizes_agree() {
        // A second, odd pool size catches chunk-boundary bugs the 1-vs-N
        // comparison can miss. One representative family keeps it fast.
        let family = Family::all()[1];
        let a = family.generate(7);
        let encode = |n: usize| {
            with_threads(n, || {
                let bro = BroEll::<f64, u32>::from_coo(&a, &BroEllConfig::default());
                let mut bytes = Vec::new();
                write_bro_ell(&bro, &mut bytes).expect("in-memory serialize");
                bytes
            })
        };
        let reference = encode(1);
        assert_eq!(encode(3), reference);
        assert_eq!(encode(8), reference);
    }
}
