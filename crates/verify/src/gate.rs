//! The correctness gate: every pillar in one pass.
//!
//! [`gate`] runs differential fuzzing, regression-corpus replay, golden
//! conformance and the thread-determinism sweep, in that order, and returns
//! one [`GateReport`]. `bro_tool verify` prints it line by line and `repro
//! verify` turns it into a table, so both front ends run the same checks.

use crate::corpus::{corpus_dir, load_dir, CorpusError};
use crate::determinism::{self, DeterminismReport};
use crate::differential::{fuzz, replay, FuzzConfig, FuzzReport};
use crate::formats::kernels;
use crate::golden::{self, GoldenOutcome};
use crate::tolerance::Tolerance;

/// Outcome of replaying the committed regression corpus.
#[derive(Debug)]
pub struct CorpusReplay {
    /// Cases replayed.
    pub cases: usize,
    /// One `<file>: format '<name>': <mismatch>` line per diverging case.
    pub failures: Vec<String>,
}

/// What one run of the gate found, pillar by pillar.
#[derive(Debug)]
pub struct GateReport {
    /// Differential fuzzing against the CSR reference.
    pub fuzz: FuzzReport,
    /// Replay of [`corpus_dir`] through every kernel, with no fault injected.
    pub corpus: Result<CorpusReplay, CorpusError>,
    /// Golden perf-model conformance (or the rewrite, in update mode).
    pub golden: std::io::Result<GoldenOutcome>,
    /// Serial versus parallel bit-identity.
    pub determinism: DeterminismReport,
}

impl GateReport {
    /// Whether every pillar passed. Rewritten golden files count as a pass.
    pub fn passed(&self) -> bool {
        self.fuzz.failure.is_none()
            && self.corpus.as_ref().is_ok_and(|c| c.failures.is_empty())
            && self.golden.as_ref().is_ok_and(GoldenOutcome::is_clean)
            && self.determinism.is_clean()
    }
}

/// Runs the whole gate: fuzzing under `config`, corpus replay, the golden
/// snapshots (rewritten instead of checked when `update_golden` is set),
/// and the determinism sweep of 1 versus `max(2, pool size)` worker threads
/// at `config.seed0`.
pub fn gate(config: &FuzzConfig, update_golden: bool) -> GateReport {
    let fuzz = fuzz(config);
    let corpus = load_dir(&corpus_dir()).map(|cases| CorpusReplay {
        cases: cases.len(),
        failures: cases
            .iter()
            .filter_map(|(name, case)| {
                let (format, mismatch) = replay(case, kernels(), &Tolerance::default())?;
                Some(format!("{name}: format '{format}': {mismatch}"))
            })
            .collect(),
    });
    let golden = golden::run(update_golden);
    let counts = [1, rayon::current_num_threads().max(2)];
    let determinism = determinism::run(&counts, config.seed0);
    GateReport { fuzz, corpus, golden, determinism }
}
