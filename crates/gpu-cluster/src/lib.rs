//! # bro-gpu-cluster
//!
//! Simulated multi-GPU distributed SpMV, following the canonical GPGPU
//! cluster design of Kreutzer et al. (arXiv:1112.5588) on top of this
//! workspace's single-device simulator:
//!
//! * [`partition`] — nnz-balanced 1D row-block partitioning with
//!   per-partition column renumbering into local and halo ranges;
//! * [`halo`] — exact per-peer send/recv index lists, packed halo buffer
//!   layouts, and the BRO-vs-raw cost of the exchange metadata;
//! * [`interconnect`] — α–β link timing profiles (PCIe gen2/gen3,
//!   NVLink-class);
//! * [`exec`] — the executor: compresses each partition with any existing
//!   kernel format (BRO-HYB by default), runs per-device simulations in
//!   parallel, and models the local/remote two-phase schedule so the halo
//!   exchange overlaps the local phase;
//! * [`solve`] — distributed CG built on the operator-generic
//!   `bro-solvers`;
//! * [`stats`] — per-device and cluster-level reporting.
//!
//! Every distributed SpMV verifies its result against the CPU CSR
//! reference before returning: the timing model can never drift away from
//! a functionally wrong kernel.
//!
//! ```
//! use bro_gpu_cluster::ClusterSpmv;
//! use bro_gpu_sim::DeviceProfile;
//! use bro_matrix::{generate::laplacian_2d, CsrMatrix};
//!
//! let a = CsrMatrix::from_coo(&laplacian_2d::<f64>(16));
//! let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::tesla_k20(), 4);
//! let x = vec![1.0; a.cols()];
//! let (y, report) = cluster.spmv(&x); // verified against the CPU reference
//! assert_eq!(y.len(), a.rows());
//! assert!(report.gflops > 0.0);
//! ```

pub mod exec;
pub mod halo;
pub mod interconnect;
pub mod partition;
pub mod registry;
pub mod solve;
pub mod stats;

pub use exec::{ClusterConfig, ClusterFormat, ClusterSpmv};
pub use halo::{HaloPlan, MAX_DEVICES};
pub use interconnect::LinkProfile;
pub use partition::{bandwidth_weights, DevicePartition, RowPartition};
pub use registry::ClusterKernel;
pub use solve::{cluster_cg, ClusterSolveReport};
pub use stats::{ClusterReport, DeviceTiming};
