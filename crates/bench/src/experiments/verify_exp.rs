//! Correctness gate for the experiment pipeline.
//!
//! Every other experiment trusts the kernels; this one re-earns that trust
//! before (or after) a `repro all` run. It runs `bro_verify::gate`, the
//! same gate as `bro_tool verify`: a differential fuzzing pass over every
//! registered format and generator family, the regression-corpus replay,
//! the golden-model conformance check, and a thread-count determinism
//! sweep (parallel execution must be bit-identical to serial). The fuzz
//! budget is sized for the experiment run, and the result is reported as
//! a table so it lands in `--out` CSVs next to the perf results.

use bro_verify::{gate, kernels, Family, FuzzConfig};

use crate::cli::die;
use crate::context::ExpContext;
use crate::table::TextTable;

/// Runs the correctness gate. Dies (non-zero exit) on any divergence so a
/// scripted `repro` pipeline cannot silently publish numbers from broken
/// kernels; `bro_tool verify` with the same budget and seed prints each
/// failure and writes its reproducer.
pub fn run(ctx: &mut ExpContext) {
    // Scale the fuzz budget like the matrices: full scale = 16 seeds/family.
    let iters = ((16.0 * ctx.scale).ceil() as u64).max(2);
    let config = FuzzConfig { iters, ..Default::default() };
    let report = gate(&config, false);
    if !report.passed() {
        die(&format!(
            "correctness gate failed; `bro_tool verify --iters {iters} --seed {}` reports why",
            config.seed0
        ));
    }
    let corpus = report.corpus.expect("a passing gate replayed the corpus");
    let golden = report.golden.expect("a passing gate checked the goldens");
    let det = report.determinism;

    let mut t = TextTable::new(&["check", "coverage", "result"]);
    t.row(vec![
        "differential vs CSR".into(),
        format!("{} formats x {} families x {} seeds", kernels().len(), Family::all().len(), iters),
        format!("{} cases passed", report.fuzz.cases_run),
    ]);
    t.row(vec![
        "regression corpus".into(),
        format!("{} cases x {} formats", corpus.cases, kernels().len()),
        "replayed clean".into(),
    ]);
    t.row(vec![
        "golden perf snapshots".into(),
        format!("{} files", golden.files.len()),
        "conformant".into(),
    ]);
    t.row(vec![
        "thread determinism".into(),
        format!("{} comparisons across {:?} threads", det.checks, det.thread_counts),
        "bit-identical".into(),
    ]);
    ctx.emit("verify", "Correctness gate: differential fuzzing + golden snapshots", &t);
}
