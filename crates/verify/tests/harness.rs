//! End-to-end exercises of the verification harness: a full fuzz →
//! detect → shrink → persist → replay cycle with an injected fault, and
//! conformance of the committed golden snapshots.

use bro_verify::{
    fuzz, golden, kernel, kernels, replay, run_case, CorpusCase, Family, FaultKind, FaultSpec,
    FuzzConfig, Tolerance,
};

/// The flagship acceptance path: inject a fault, watch the engine catch it,
/// shrink it, persist the reproducer, and confirm the reproducer round-trips
/// and still pins the fault.
#[test]
fn injected_fault_is_caught_shrunk_persisted_and_replayable() {
    let bro_hyb = kernel("bro-hyb").unwrap();
    let fault = FaultSpec { format: "bro-hyb", kind: FaultKind::DropLastEntry };
    let config = FuzzConfig {
        families: vec![Family::PowerLaw],
        formats: vec![kernel("hyb").unwrap(), bro_hyb],
        iters: 4,
        fault: Some(fault),
        ..Default::default()
    };
    let report = fuzz(&config);
    let failure = report.failure.expect("the injected fault must be detected");
    assert_eq!(failure.format, "bro-hyb");

    // The shrunk case is tiny and still fails under the fault…
    assert!(failure.shrunk.matrix.nnz() <= 4, "nnz = {}", failure.shrunk.matrix.nnz());
    let tol = Tolerance::default();
    assert!(
        run_case(bro_hyb, &failure.shrunk.matrix, &failure.shrunk.x, &tol, Some(fault)).is_some()
    );

    // …and passes without it (the kernel itself is fine).
    assert!(run_case(bro_hyb, &failure.shrunk.matrix, &failure.shrunk.x, &tol, None).is_none());

    // Persist → reload → bit-identical, and clean under replay.
    let path =
        std::env::temp_dir().join(format!("bro-verify-harness-{}.corpus", std::process::id()));
    let case = failure.to_corpus();
    case.save(&path).unwrap();
    let back = CorpusCase::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, case);
    assert!(replay(&back, kernels(), &tol).is_none());
}

/// A fuzzing pass over every format and family with no fault injected must
/// come back clean — this is the tier-1 differential gate.
#[test]
fn clean_differential_pass_over_all_formats() {
    let config = FuzzConfig { iters: 2, ..Default::default() };
    let report = fuzz(&config);
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert_eq!(report.cases_run, 2 * (Family::all().len() * kernels().len()) as u64);
}

/// The committed golden snapshots must match what the simulator produces
/// today. A legitimate perf-model change regenerates them with
/// `UPDATE_GOLDEN=1 cargo run --release --bin bro_tool verify`.
#[test]
fn committed_golden_snapshots_conform() {
    if std::env::var_os("BRO_GOLDEN_DIR").is_some() {
        // Respect an explicit override (the CI verify job sets it when
        // exercising the update path); conformance is checked separately.
        return;
    }
    let outcome = golden::run(false).expect("golden suite io");
    assert!(outcome.is_clean(), "golden snapshots diverged:\n  {}", outcome.diffs.join("\n  "));
    assert_eq!(outcome.files.len(), 4, "c2070, gtx680, k20, cluster");
}
