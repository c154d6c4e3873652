//! # bro-verify — correctness harness for the BRO SpMV stack
//!
//! Three pillars, one crate:
//!
//! 1. **Differential fuzzing** ([`differential`]): structured matrix
//!    generators ([`generators`]) feed every registered SpMV kernel
//!    ([`kernels()`]) and compare against the serial CSR reference under a
//!    ULP-aware tolerance ([`tolerance`]). Failures are minimized by a
//!    greedy shrinker ([`shrink`](mod@shrink)) and persisted as replayable corpus
//!    cases ([`corpus`]).
//! 2. **Golden-model conformance** ([`golden`]): JSON snapshots
//!    ([`Json`]) of the simulator's `LaunchStats` counters and roofline
//!    `KernelReport` for a fixed (matrix, format, device) grid — including
//!    the 3-device cluster — diffed field-by-field and refreshed with
//!    `UPDATE_GOLDEN=1`.
//! 3. **Runtime invariants**: debug assertions inside `bro-gpu-sim` itself
//!    (address bounds, coalescing sanity), active whenever any test in the
//!    workspace drives the simulator.
//!
//! The `bro_tool verify` subcommand and the CI `verify` job drive all of
//! this from one entry point; `tests/harness.rs` exercises the pillars
//! end-to-end (including proving that an injected fault is caught).

#![warn(missing_docs)]

pub mod corpus;
pub mod determinism;
pub mod differential;
pub mod formats;
pub mod generators;
pub mod golden;
pub mod shrink;
pub mod tolerance;
pub mod trace_check;

pub use bro_gpu_sim::Json;
pub use corpus::{load_dir, CorpusCase, CorpusError};
pub use determinism::DeterminismReport;
pub use differential::{
    fuzz, replay, run_case, Failure, FaultKind, FaultSpec, FuzzConfig, FuzzReport,
};
pub use formats::{kernel, kernels};
pub use generators::{input_vector, Family};
pub use golden::{golden_dir, update_requested, GoldenOutcome};
pub use shrink::{shrink, Shrunk};
pub use tolerance::{compare, ulp_diff, Mismatch, Tolerance};
pub use trace_check::validate_chrome_trace;
