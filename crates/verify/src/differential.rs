//! The differential fuzzing engine.
//!
//! Every iteration draws a structured random matrix from a generator
//! family, computes the serial CSR reference product, and runs each
//! registered format's simulated kernel on the same input. Any output that
//! falls outside the ULP/relative [`Tolerance`] is a failure: the engine
//! greedily shrinks the matrix (see [`crate::shrink`](mod@crate::shrink)) and hands back a
//! reproducer small enough to paste into a unit test or persist to the
//! regression corpus.
//!
//! Fault injection (`FaultSpec`) corrupts one format's input or output on
//! purpose, proving end-to-end that the harness detects and minimizes real
//! divergence — the CI `verify` job runs once clean and once injected.

use bro_gpu_sim::{DeviceProfile, DeviceSim};
use bro_kernels::SpmvKernel;
use bro_matrix::CooMatrix;

use crate::corpus::CorpusCase;
use crate::formats::kernels;
use crate::generators::{input_vector, Family};
use crate::shrink::{shrink, Shrunk};
use crate::tolerance::{compare, Mismatch, Tolerance};

/// Which deliberate corruption to apply (to one format only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The kernel sees the matrix with its last non-zero removed while the
    /// reference uses the full matrix (models a lost entry in compression).
    DropLastEntry,
    /// One output element is perturbed after the kernel runs (models a
    /// decode writing to the right row with the wrong value).
    PerturbValue,
}

impl FaultKind {
    /// Stable name for CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DropLastEntry => "drop-last-entry",
            FaultKind::PerturbValue => "perturb-value",
        }
    }

    /// Parses a [`FaultKind::name`].
    pub fn by_name(name: &str) -> Option<FaultKind> {
        [FaultKind::DropLastEntry, FaultKind::PerturbValue].into_iter().find(|k| k.name() == name)
    }
}

/// A fault targeted at one format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Name of the kernel whose run is corrupted.
    pub format: &'static str,
    /// How to corrupt it.
    pub kind: FaultKind,
}

/// Fuzzing campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Generator families to draw from.
    pub families: Vec<Family>,
    /// Kernels under test.
    pub formats: Vec<&'static dyn SpmvKernel>,
    /// Seeds tried per family.
    pub iters: u64,
    /// First seed (successive iterations use `seed0 + i`).
    pub seed0: u64,
    /// Acceptance thresholds.
    pub tolerance: Tolerance,
    /// Optional deliberate corruption.
    pub fault: Option<FaultSpec>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            families: Family::all().to_vec(),
            formats: kernels().to_vec(),
            iters: 8,
            seed0: 1,
            tolerance: Tolerance::default(),
            fault: None,
        }
    }
}

/// A minimized divergence between a kernel and the reference.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Family that produced the original case.
    pub family: Family,
    /// Seed of the failing iteration.
    pub seed: u64,
    /// Name of the diverging kernel.
    pub format: &'static str,
    /// First mismatching element of the *shrunk* case.
    pub mismatch: Mismatch,
    /// The minimized reproducer.
    pub shrunk: Shrunk,
}

impl Failure {
    /// Converts the failure into a persistable corpus case.
    pub fn to_corpus(&self) -> CorpusCase {
        CorpusCase {
            family: self.family.name().to_string(),
            seed: self.seed,
            note: format!("{} diverged: {}", self.format, self.mismatch),
            matrix: self.shrunk.matrix.clone(),
            x: self.shrunk.x.clone(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "format '{}' diverged on family '{}' seed {}: {} \
             (shrunk to {}x{}, {} nnz in {} checks)",
            self.format,
            self.family.name(),
            self.seed,
            self.mismatch,
            self.shrunk.matrix.rows(),
            self.shrunk.matrix.cols(),
            self.shrunk.matrix.nnz(),
            self.shrunk.checks,
        )
    }
}

/// Outcome of a campaign: how much ran, and the first failure if any.
#[derive(Debug)]
pub struct FuzzReport {
    /// (family, seed, format) triples executed.
    pub cases_run: u64,
    /// First divergence found, already shrunk. `None` means all passed.
    pub failure: Option<Failure>,
}

/// Runs one (kernel, matrix, x) case, returning the first mismatch against
/// the CSR reference, or `None` when the output is accepted.
pub fn run_case(
    kernel: &dyn SpmvKernel,
    a: &CooMatrix<f64>,
    x: &[f64],
    tol: &Tolerance,
    fault: Option<FaultSpec>,
) -> Option<Mismatch> {
    let want = a.spmv_reference(x).expect("reference SpMV on a valid matrix");
    let fault = fault.filter(|f| f.format == kernel.name());

    let kernel_input = match fault {
        Some(FaultSpec { kind: FaultKind::DropLastEntry, .. }) if a.nnz() > 0 => {
            let trips: Vec<(u32, u32, f64)> = a.iter().collect();
            let (keep, _) = trips.split_at(trips.len() - 1);
            let (r, (c, v)): (Vec<usize>, (Vec<usize>, Vec<f64>)) =
                keep.iter().map(|&(r, c, v)| (r as usize, (c as usize, v))).unzip();
            Some(CooMatrix::from_triplets(a.rows(), a.cols(), &r, &c, &v).unwrap())
        }
        _ => None,
    };
    let kernel_a = kernel_input.as_ref().unwrap_or(a);

    let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
    let mut got = kernel.build_from_coo(kernel_a).run(&mut sim, x);

    if let Some(FaultSpec { kind: FaultKind::PerturbValue, .. }) = fault {
        if let Some(y0) = got.first_mut() {
            *y0 = *y0 * 1.5 + 1.0;
        }
    }

    compare(&got, &want, &a.row_lengths(), tol)
}

/// Runs a fuzzing campaign, stopping (and shrinking) at the first failure.
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut cases_run = 0;
    for i in 0..config.iters {
        let seed = config.seed0 + i;
        for &family in &config.families {
            let a = family.generate(seed);
            let x = input_vector(a.cols(), seed);
            for &kernel in &config.formats {
                cases_run += 1;
                let Some(_first) = run_case(kernel, &a, &x, &config.tolerance, config.fault) else {
                    continue;
                };
                let tol = config.tolerance.clone();
                let fault = config.fault;
                let shrunk = shrink(&a, &x, |m, xs| run_case(kernel, m, xs, &tol, fault).is_some());
                let mismatch = run_case(kernel, &shrunk.matrix, &shrunk.x, &tol, fault)
                    .expect("shrunk case still fails");
                let format = kernel.name();
                return FuzzReport {
                    cases_run,
                    failure: Some(Failure { family, seed, format, mismatch, shrunk }),
                };
            }
        }
    }
    FuzzReport { cases_run, failure: None }
}

/// Replays a corpus case against every kernel, returning the first
/// divergence (kernel name, mismatch) if any.
pub fn replay(
    case: &CorpusCase,
    formats: &[&'static dyn SpmvKernel],
    tol: &Tolerance,
) -> Option<(&'static str, Mismatch)> {
    formats.iter().find_map(|&k| Some((k.name(), run_case(k, &case.matrix, &case.x, tol, None)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &str) -> &'static dyn SpmvKernel {
        crate::formats::kernel(name).unwrap()
    }

    #[test]
    fn clean_campaign_passes_every_format() {
        let config = FuzzConfig {
            families: vec![Family::Tiny, Family::Banded],
            iters: 2,
            ..Default::default()
        };
        let report = fuzz(&config);
        assert!(report.failure.is_none(), "unexpected: {}", report.failure.unwrap());
        assert_eq!(report.cases_run, 2 * 2 * kernels().len() as u64);
    }

    #[test]
    fn injected_matrix_fault_is_caught_and_shrunk() {
        let config = FuzzConfig {
            families: vec![Family::Banded],
            formats: vec![kernel("ell"), kernel("bro-ell")],
            iters: 4,
            fault: Some(FaultSpec { format: "bro-ell", kind: FaultKind::DropLastEntry }),
            ..Default::default()
        };
        let report = fuzz(&config);
        let failure = report.failure.expect("injected fault must be detected");
        assert_eq!(failure.format, "bro-ell");
        // A single dropped entry shrinks to a single-entry reproducer.
        assert!(failure.shrunk.matrix.nnz() <= 2, "nnz = {}", failure.shrunk.matrix.nnz());
        assert!(failure.to_corpus().note.contains("bro-ell"));
    }

    #[test]
    fn injected_output_fault_is_caught() {
        let config = FuzzConfig {
            families: vec![Family::Banded],
            formats: vec![kernel("csr-scalar")],
            iters: 1,
            fault: Some(FaultSpec { format: "csr-scalar", kind: FaultKind::PerturbValue }),
            ..Default::default()
        };
        let report = fuzz(&config);
        let failure = report.failure.expect("perturbed output must be detected");
        assert_eq!(failure.mismatch.index, 0);
    }

    #[test]
    fn fault_only_hits_its_target_format() {
        let a = Family::Banded.generate(3);
        let x = input_vector(a.cols(), 3);
        let tol = Tolerance::default();
        let fault = Some(FaultSpec { format: "hyb", kind: FaultKind::DropLastEntry });
        assert!(run_case(kernel("ell"), &a, &x, &tol, fault).is_none());
        assert!(run_case(kernel("hyb"), &a, &x, &tol, fault).is_some());
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for k in [FaultKind::DropLastEntry, FaultKind::PerturbValue] {
            assert_eq!(FaultKind::by_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::by_name("bitrot"), None);
    }
}
