//! # bro-spmv
//!
//! Facade crate for the bit-representation-optimized (BRO) SpMV library, a
//! reproduction of Tang et al., *"Accelerating Sparse Matrix-Vector
//! Multiplication on GPUs using Bit-Representation-Optimized Schemes"*
//! (SC '13).
//!
//! The workspace is organized as a set of focused crates, all re-exported
//! here:
//!
//! * [`matrix`] — classical sparse formats (COO/CSR/ELLPACK/ELLPACK-R/HYB),
//!   MatrixMarket IO, row-length statistics and the synthetic matrix suite
//!   standing in for the University of Florida collection.
//! * [`bitstream`] — the BRO wire format: bit widths, delta coding, and
//!   multiplexed symbol streams.
//! * [`gpu_sim`] — a SIMT GPU simulator with coalescing and texture-cache
//!   models plus a roofline timing model for the paper's three devices.
//! * [`core`] — the paper's contribution: BRO-ELL / BRO-COO / BRO-HYB
//!   compressors and the BRO-aware reordering (BAR) plus RCM/AMD baselines.
//! * [`kernels`] — SpMV kernels (classical and BRO) executing on the
//!   simulator.
//! * [`solvers`] — CG / BiCGSTAB iterative solvers, the motivating workload.
//! * [`gpu_cluster`] — simulated multi-GPU distributed SpMV: nnz-balanced
//!   row-block sharding, halo exchange with BRO-compressed index metadata,
//!   interconnect timing, and comm/compute overlap.
//! * [`verify`] — the correctness harness: differential fuzzing of every
//!   SpMV format against the CSR reference (with greedy shrinking and a
//!   regression corpus) plus golden-model snapshots of the simulator's
//!   performance counters (see docs/TESTING.md).
//!
//! ## Quickstart
//!
//! ```
//! use bro_spmv::prelude::*;
//!
//! // Build a small sparse matrix, compress it, and run SpMV on a simulated
//! // Tesla K20.
//! let coo = CooMatrix::from_triplets(
//!     4, 5,
//!     &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
//!     &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
//!     &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
//! ).unwrap();
//! let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
//! let x = vec![1.0; 5];
//! let mut gpu = DeviceSim::new(DeviceProfile::tesla_k20());
//! let y = bro_ell_spmv(&mut gpu, &bro, &x);
//! assert_eq!(y, vec![5.0, 18.0, 17.0, 11.0]);
//! ```

pub use bro_bitstream as bitstream;
pub use bro_core as core;
pub use bro_gpu_cluster as gpu_cluster;
pub use bro_gpu_sim as gpu_sim;
pub use bro_kernels as kernels;
pub use bro_matrix as matrix;
pub use bro_solvers as solvers;
pub use bro_verify as verify;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use bro_bitstream::{bits_for, BitReader, BitWriter};
    pub use bro_core::{
        reorder::{amd_order, bar_order, rcm_order, BarConfig},
        BroCoo, BroCooConfig, BroEll, BroEllConfig, BroHyb, BroHybConfig,
    };
    pub use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport};
    pub use bro_kernels::{
        bro_coo_spmv, bro_ell_spmv, bro_ellr_spmv, bro_hyb_spmv, coo_spmv, csr_scalar_spmv,
        csr_vector_spmv, ell_spmv, ellr_spmv, hyb_spmv, recommend_format, reference::csr_spmv,
        sliced_ell_spmv,
    };
    pub use bro_matrix::{
        CooMatrix, CsrMatrix, EllMatrix, EllRMatrix, HybMatrix, MatrixStats, Permutation,
    };
    pub use bro_solvers::{cg, CgOptions};
}
