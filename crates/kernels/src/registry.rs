//! Kernel registry — every SpMV implementation behind one trait.
//!
//! A [`SpmvKernel`] names a format and knows how to compress a COO matrix
//! into it; the result is a [`PreparedSpmv`] whose `run` executes the
//! kernel on any [`DeviceSim`]. The registry is the single list the fuzzer,
//! the golden suite, the benchmark runner, and the CLIs iterate — and the
//! single place telemetry hooks: `PreparedSpmv::run` brackets every kernel
//! in a `spmv/<name>` span, so instrumentation attaches to all formats at
//! once instead of per call site.
//!
//! The distributed kernel lives in `bro-gpu-cluster` (which depends on this
//! crate and therefore cannot be listed here); `bro_verify::kernels()`
//! chains it after this list.

use bro_core::{BroCoo, BroCooConfig, BroEll, BroEllConfig, BroEllR, BroHyb, BroHybConfig, VlqEll};
use bro_gpu_sim::DeviceSim;
use bro_matrix::{CooMatrix, CsrMatrix, EllMatrix, EllRMatrix, HybMatrix, SlicedEllMatrix};

use crate::{
    bro_coo_spmv, bro_ell_multirow_spmv, bro_ell_spmm, bro_ell_spmv, bro_ellr_spmv, bro_hyb_spmv,
    coo_spmv, csr_scalar_spmv, csr_vector_spmv, ell_spmv, ellr_spmv, hyb_spmv, sliced_ell_spmv,
    vlq_ell_spmv,
};

/// Slice height of the sliced-ELL registry entry. This is the registry's
/// own choice (one warp per slice), not the paper's `h`, which is 256
/// (`BroEllConfig::default`).
pub const SLICED_ELL_SLICE: usize = 32;

/// Threads cooperating per row in the multirow registry entry.
pub const MULTIROW_THREADS: usize = 2;

/// One SpMV format: a stable name plus a compression step producing a
/// runnable kernel.
pub trait SpmvKernel: Sync {
    /// Stable lowercase name, e.g. `"bro-ell"`.
    fn name(&self) -> &'static str;

    /// Compresses `a` into this kernel's storage format and returns the
    /// runnable kernel. Building is the expensive step; the returned
    /// [`PreparedSpmv`] can run many times (CG-style) without recompressing.
    fn build_from_coo(&self, a: &CooMatrix<f64>) -> PreparedSpmv;
}

impl std::fmt::Debug for dyn SpmvKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The boxed kernel closure a [`PreparedSpmv`] executes.
pub type SpmvFn = Box<dyn Fn(&mut DeviceSim, &[f64]) -> Vec<f64> + Send + Sync>;

/// A compressed matrix bound to its kernel, ready to multiply.
pub struct PreparedSpmv {
    name: &'static str,
    run: SpmvFn,
}

impl PreparedSpmv {
    /// Wraps a kernel closure under a registry name.
    pub fn new(name: &'static str, run: SpmvFn) -> Self {
        PreparedSpmv { name, run }
    }

    /// The owning kernel's [`SpmvKernel::name`].
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Computes `y = A·x` on `sim`.
    ///
    /// This is the central telemetry hook: when `sim` carries an enabled
    /// tracer the whole kernel executes inside a `spmv/<name>` span whose
    /// counter delta is exactly this run's traffic, with the kernel's
    /// individual launches nested below.
    pub fn run(&self, sim: &mut DeviceSim, x: &[f64]) -> Vec<f64> {
        if !sim.tracer().is_enabled() {
            return (self.run)(sim, x);
        }
        let span = sim.trace_begin(&format!("spmv/{}", self.name));
        let y = (self.run)(sim, x);
        sim.trace_end(span);
        y
    }
}

impl std::fmt::Debug for PreparedSpmv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PreparedSpmv({})", self.name)
    }
}

macro_rules! kernels {
    ($($(#[$doc:meta])* $ty:ident, $name:literal, |$a:ident| $build:expr;)+) => {
        $(
            $(#[$doc])*
            #[derive(Debug, Clone, Copy, Default)]
            pub struct $ty;

            impl SpmvKernel for $ty {
                fn name(&self) -> &'static str {
                    $name
                }

                fn build_from_coo(&self, $a: &CooMatrix<f64>) -> PreparedSpmv {
                    PreparedSpmv::new($name, $build)
                }
            }
        )+

        /// Every single-device kernel, in the paper's presentation order.
        pub fn all() -> &'static [&'static dyn SpmvKernel] {
            static KERNELS: [&dyn SpmvKernel; 14] = [$(&$ty,)+];
            &KERNELS
        }
    };
}

kernels! {
    /// ELLPACK, one thread per row.
    EllKernel, "ell", |a| {
        let m = EllMatrix::from_coo(a);
        Box::new(move |sim, x| ell_spmv(sim, &m, x))
    };
    /// ELLPACK-R (explicit row lengths).
    EllRKernel, "ellr", |a| {
        let m = EllRMatrix::from_coo(a);
        Box::new(move |sim, x| ellr_spmv(sim, &m, x))
    };
    /// Sliced ELLPACK (per-slice widths).
    SlicedEllKernel, "sliced-ell", |a| {
        let m = SlicedEllMatrix::from_coo(a, SLICED_ELL_SLICE);
        Box::new(move |sim, x| sliced_ell_spmv(sim, &m, x))
    };
    /// HYB = ELL + COO tail.
    HybKernel, "hyb", |a| {
        let m = HybMatrix::from_coo(a);
        Box::new(move |sim, x| hyb_spmv(sim, &m, x))
    };
    /// COO with warp-level segmented reduction.
    CooKernel, "coo", |a| {
        let m = a.clone();
        Box::new(move |sim, x| coo_spmv(sim, &m, x))
    };
    /// CSR, one thread per row.
    CsrScalarKernel, "csr-scalar", |a| {
        let m = CsrMatrix::from_coo(a);
        Box::new(move |sim, x| csr_scalar_spmv(sim, &m, x))
    };
    /// CSR, one warp per row.
    CsrVectorKernel, "csr-vector", |a| {
        let m = CsrMatrix::from_coo(a);
        Box::new(move |sim, x| csr_vector_spmv(sim, &m, x))
    };
    /// BRO-ELL (Algorithm 1).
    BroEllKernel, "bro-ell", |a| {
        let m: BroEll<f64> = BroEll::from_coo(a, &BroEllConfig::default());
        Box::new(move |sim, x| bro_ell_spmv(sim, &m, x))
    };
    /// BRO-ELL-R.
    BroEllRKernel, "bro-ellr", |a| {
        let m: BroEllR<f64> = BroEllR::from_coo(a, &BroEllConfig::default());
        Box::new(move |sim, x| bro_ellr_spmv(sim, &m, x))
    };
    /// BRO-COO.
    BroCooKernel, "bro-coo", |a| {
        let m: BroCoo<f64> = BroCoo::compress(a, &BroCooConfig::default());
        Box::new(move |sim, x| bro_coo_spmv(sim, &m, x))
    };
    /// BRO-HYB.
    BroHybKernel, "bro-hyb", |a| {
        let m: BroHyb<f64> = BroHyb::from_coo(a, &BroHybConfig::default());
        Box::new(move |sim, x| bro_hyb_spmv(sim, &m, x))
    };
    /// VLQ-ELL, the CPU-style varint counterfactual.
    VlqEllKernel, "vlq-ell", |a| {
        let m = VlqEll::from_coo(a);
        Box::new(move |sim, x| vlq_ell_spmv(sim, &m, x))
    };
    /// BRO-ELL with 2 threads cooperating per row plus a reduction kernel.
    MultirowKernel, "multirow", |a| {
        let m = a.clone();
        Box::new(move |sim, x| {
            bro_ell_multirow_spmv(sim, &m, x, MULTIROW_THREADS, &BroEllConfig::default())
        })
    };
    /// BRO-ELL SpMM, single-column block (exercises the SpMM path).
    SpmmKernel, "spmm", |a| {
        let m: BroEll<f64> = BroEll::from_coo(a, &BroEllConfig::default());
        Box::new(move |sim, x| {
            let ys = bro_ell_spmm(sim, &m, std::slice::from_ref(&x.to_vec()));
            ys.into_iter().next().unwrap_or_default()
        })
    };
}

/// Looks a kernel up by its [`SpmvKernel::name`].
pub fn by_name(name: &str) -> Option<&'static dyn SpmvKernel> {
    all().iter().copied().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::{DeviceProfile, Tracer};

    #[test]
    fn names_round_trip_exhaustively() {
        for &k in all() {
            let found = by_name(k.name()).expect("every registry kernel resolves by name");
            assert_eq!(found.name(), k.name());
        }
        assert!(by_name("no-such-kernel").is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
    }

    #[test]
    fn every_kernel_matches_the_reference() {
        let a = bro_matrix::generate::laplacian_2d::<f64>(6);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let want = a.spmv_reference(&x).unwrap();
        for &k in all() {
            let prepared = k.build_from_coo(&a);
            assert_eq!(prepared.name(), k.name());
            let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
            let got = prepared.run(&mut sim, &x);
            bro_matrix::scalar::assert_vec_approx_eq(&got, &want, 1e-9);
        }
    }

    #[test]
    fn run_wraps_kernels_in_a_root_span() {
        let a = bro_matrix::generate::laplacian_2d::<f64>(5);
        let x = vec![1.0; a.cols()];
        let tracer = Tracer::enabled();
        let mut sim = DeviceSim::builder(DeviceProfile::tesla_k20()).tracer(tracer.clone()).build();
        by_name("bro-hyb").unwrap().build_from_coo(&a).run(&mut sim, &x);
        let spans = tracer.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.is_root()).collect();
        assert_eq!(roots.len(), 1, "one kernel run, one root span");
        assert_eq!(roots[0].name, "spmv/bro-hyb");
        // The root's delta is the whole run: it matches the device totals.
        let delta = roots[0].delta.as_ref().unwrap();
        assert_eq!(delta.stats, sim.lifetime_snapshot().stats);
        assert!(spans.len() > 1, "kernel launches nest inside the root span");
    }
}
