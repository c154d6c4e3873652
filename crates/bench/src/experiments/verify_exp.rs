//! Correctness gate for the experiment pipeline.
//!
//! Every other experiment trusts the kernels; this one re-earns that trust
//! before (or after) a `repro all` run: a differential fuzzing pass over
//! every registered format and generator family, the golden-model
//! conformance check, and a thread-count determinism sweep (parallel
//! execution must be bit-identical to serial). It is the same machinery
//! as `bro-tool verify`, sized for the experiment budget and reported as
//! a table so it lands in `--out` CSVs next to the perf results.

use bro_verify::{determinism, fuzz, golden, kernels, Family, FuzzConfig};

use crate::cli::die;
use crate::context::ExpContext;
use crate::table::TextTable;

/// Runs the correctness gate. Dies (non-zero exit) on any divergence so a
/// scripted `repro` pipeline cannot silently publish numbers from broken
/// kernels.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&["check", "coverage", "result"]);

    // Scale the fuzz budget like the matrices: full scale = 16 seeds/family.
    let iters = ((16.0 * ctx.scale).ceil() as u64).max(2);
    let config = FuzzConfig { iters, ..Default::default() };
    let report = fuzz(&config);
    let coverage =
        format!("{} formats x {} families x {} seeds", kernels().len(), Family::all().len(), iters);
    match report.failure {
        None => t.row(vec![
            "differential vs CSR".into(),
            coverage,
            format!("{} cases passed", report.cases_run),
        ]),
        Some(failure) => die(&format!("differential fuzzing failed: {failure}")),
    }

    match golden::run(false) {
        Ok(outcome) if outcome.is_clean() => t.row(vec![
            "golden perf snapshots".into(),
            format!("{} files", outcome.files.len()),
            "conformant".into(),
        ]),
        Ok(outcome) => {
            for d in outcome.diffs.iter().take(10) {
                eprintln!("  {d}");
            }
            die(&format!("golden conformance failed with {} diffs", outcome.diffs.len()));
        }
        Err(e) => die(&format!("golden conformance could not run: {e}")),
    }

    let counts = [1usize, rayon::current_num_threads().max(2)];
    let det = determinism::run(&counts, config.seed0);
    if det.is_clean() {
        t.row(vec![
            "thread determinism".into(),
            format!("{} comparisons across {:?} threads", det.checks, counts),
            "bit-identical".into(),
        ]);
    } else {
        for m in det.mismatches.iter().take(10) {
            eprintln!("  {m}");
        }
        die(&format!(
            "determinism sweep failed: {} of {} comparisons diverged (seed {})",
            det.mismatches.len(),
            det.checks,
            config.seed0
        ));
    }

    ctx.emit("verify", "Correctness gate: differential fuzzing + golden snapshots", &t);
}
