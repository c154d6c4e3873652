//! The determinism guard. A host-side speed-up must leave every simulated
//! statistic unchanged, so the exact counts (`gpu_sim.*`, BAR cost, halo
//! bytes, CG iterations) and the modeled metrics of one round must repeat
//! bit for bit across runs and between 1 and several worker threads.

use bro_perfbench::cg_solve::CgSolve;
use bro_perfbench::cluster_spmv::ClusterStep;
use bro_perfbench::paper_eval::PaperEval;
use bro_perfbench::{drive, nproc, set_threads, Config, Counts, Model, Probe, Workload};

/// Exact counts and modeled metrics of one round of ops.
fn fingerprint<W: Workload>(cfg: &Config) -> (Counts, Model) {
    let probe = Probe::off();
    let mut w = W::setup(cfg, &probe).expect("set-up succeeds");
    // A zero budget runs exactly one round.
    let phase = drive(&mut w, 0.0, &probe);
    assert_eq!(phase.failed, 0, "ops failed: {:?}", phase.errors);
    (phase.round0_counts(), w.model(&phase.round0))
}

fn assert_deterministic<W: Workload>(name: &str) {
    let work_dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{name}"));
    std::fs::create_dir_all(&work_dir).expect("create scratch directory");
    let cfg = Config { seed: 7, scale: 0.02, work_dir };
    set_threads(nproc().max(2));
    let first = fingerprint::<W>(&cfg);
    let second = fingerprint::<W>(&cfg);
    set_threads(1);
    let serial = fingerprint::<W>(&cfg);
    assert_eq!(first, second, "{name}: two runs differ");
    assert_eq!(first, serial, "{name}: 1 thread differs from several");
    assert!(first.0.launches > 0 && first.1.gflops > 0.0, "{name}: nothing was simulated");
    let other = fingerprint::<W>(&Config { seed: 8, ..cfg.clone() });
    assert_ne!(first.0, other.0, "{name}: the seed does not reach the inputs");
    std::fs::remove_dir_all(&cfg.work_dir).ok();
}

// One test for all workloads: the worker-pool size is process-global.
#[test]
fn exact_counts_and_model_repeat_across_runs_and_thread_counts() {
    assert_deterministic::<PaperEval>("paper-eval");
    assert_deterministic::<CgSolve>("cg-solve");
    assert_deterministic::<ClusterStep>("cluster-spmv");
}
