//! # bro-kernels
//!
//! SpMV kernels executing on the SIMT simulator (`bro-gpu-sim`): the
//! classical cusp-style kernels the paper benchmarks against (ELLPACK,
//! ELLPACK-R, COO, HYB) and the paper's BRO kernels (BRO-ELL Algorithm 1,
//! BRO-COO, BRO-HYB), plus the multi-threads-per-row BRO-ELL variant the
//! paper lists as future work.
//!
//! Every kernel is **functional**: it returns the actual product `y = A·x`,
//! computed while narrating its memory accesses and arithmetic to the
//! simulator. Each call resets the device's statistics first, so
//! `KernelReport::from_device(&sim, 2 * nnz, T::BYTES)` immediately after a
//! kernel call reports exactly that kernel.
//!
//! ```
//! use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport};
//! use bro_kernels::ell_spmv;
//! use bro_matrix::{CooMatrix, EllMatrix};
//!
//! let coo = CooMatrix::from_triplets(2, 2, &[0, 1], &[0, 1], &[2.0, 3.0]).unwrap();
//! let ell = EllMatrix::from_coo(&coo);
//! let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
//! let y = ell_spmv(&mut sim, &ell, &[1.0, 1.0]);
//! assert_eq!(y, vec![2.0, 3.0]);
//! let report = KernelReport::from_device(&sim, 2 * 2, 8);
//! assert!(report.gflops > 0.0);
//! ```

pub mod bro_coo;
pub mod bro_ell;
pub mod bro_ellr;
pub mod bro_hyb;
pub mod common;
pub mod coo;
pub mod csr;
pub mod ell;
pub mod ellr;
pub mod hyb;
pub mod multirow;
pub mod reference;
pub mod registry;
pub mod sliced_ell;
pub mod spmm;
pub mod tune;
pub mod vlq_ell;

pub use bro_coo::bro_coo_spmv;
pub use bro_ell::bro_ell_spmv;
pub use bro_ellr::bro_ellr_spmv;
pub use bro_hyb::bro_hyb_spmv;
pub use coo::coo_spmv;
pub use csr::{csr_scalar_spmv, csr_vector_spmv};
pub use ell::ell_spmv;
pub use ellr::ellr_spmv;
pub use hyb::hyb_spmv;
pub use multirow::bro_ell_multirow_spmv;
pub use registry::{PreparedSpmv, SpmvKernel};
pub use sliced_ell::sliced_ell_spmv;
pub use spmm::{bro_ell_spmm, ell_spmm};
pub use tune::{recommend_format, TuneReport};
pub use vlq_ell::vlq_ell_spmv;

/// Thread block size used by every kernel, matching the paper's `h = 256`.
pub const BLOCK_SIZE: usize = 256;
