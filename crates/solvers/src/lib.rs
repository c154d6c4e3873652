//! # bro-solvers
//!
//! Iterative Krylov solvers — the workloads whose inner loop is the SpMV
//! kernel this whole workspace optimizes (the paper's introduction motivates
//! BRO with CG/GMRES-style iterative methods, where the same sparse matrix
//! is multiplied against hundreds of vectors and offline compression
//! amortizes to zero).
//!
//! The solvers are format-agnostic: they take the matrix as an
//! `FnMut(&[T]) -> Vec<T>` operator, so the same CG runs against the CPU
//! reference, a simulated ELLPACK kernel, or a simulated BRO-ELL kernel
//! (see the `cg_solver` example at the workspace root). The operator can
//! even be a whole simulated cluster: `bro-gpu-cluster`'s `cluster_cg`
//! wraps [`cg`](fn@cg) around a halo-exchanged multi-GPU SpMV, accumulating
//! per-iteration exchange traffic and overlap statistics.

pub mod bicgstab;
pub mod cg;
pub mod gmres;
pub mod trace;
pub mod vecops;

pub use bicgstab::{bicgstab, BiCgStabOptions};
pub use cg::{cg, cg_jacobi, CgOptions};
pub use gmres::{gmres, GmresOptions};
pub use trace::{bicgstab_traced, cg_traced, gmres_traced};

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual ‖b − A·x‖ / ‖b‖.
    pub residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}
