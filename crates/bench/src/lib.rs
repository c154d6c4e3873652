//! # bro-bench
//!
//! The reproduction harness: one experiment per table/figure of the paper,
//! listed in [`experiments::EXPERIMENTS`] and driven by the `repro` binary
//! (`cargo run --release -p bro-bench --bin repro -- <experiment>`).
//!
//! Experiments run at a configurable `--scale` (default 0.1): matrices keep
//! their published row-length statistics and structure class but shrink
//! proportionally, so the full suite runs in minutes on a laptop.
//! `--scale 1.0` reproduces paper-size inputs.

pub mod cli;
pub mod context;
pub mod experiments;
pub mod table;

pub use context::ExpContext;
pub use table::TextTable;
