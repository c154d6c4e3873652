//! The distributed SpMV as a registry kernel.
//!
//! `bro-gpu-cluster` depends on `bro-kernels`, so the cluster kernel cannot
//! be listed inside `bro_kernels::registry::all()` without a dependency
//! cycle. Instead [`ClusterKernel`] implements the same [`SpmvKernel`]
//! trait here; `bro_verify::kernels()` (which sees both crates) chains it
//! after the registry's list.

use bro_gpu_sim::DeviceProfile;
use bro_kernels::registry::{PreparedSpmv, SpmvKernel};
use bro_matrix::{CooMatrix, CsrMatrix};

use crate::exec::{ClusterConfig, ClusterFormat, ClusterSpmv};

/// Distributed SpMV across simulated devices, as a [`SpmvKernel`].
///
/// Running a prepared cluster kernel does **not** touch the passed
/// device's counters — the work happens on the cluster's own per-rank
/// simulators, whose statistics surface through the trace (phase spans on
/// lanes `rank + 1`) and the [`crate::ClusterReport`]. This mirrors the
/// single-device kernels' contract only in shape: `run` still returns the
/// verified product.
#[derive(Debug, Clone)]
pub struct ClusterKernel {
    profiles: Vec<DeviceProfile>,
    config: ClusterConfig,
}

impl ClusterKernel {
    /// A cluster over arbitrary devices and options.
    pub fn new(profiles: Vec<DeviceProfile>, config: ClusterConfig) -> Self {
        assert!(!profiles.is_empty(), "at least one device is required");
        ClusterKernel { profiles, config }
    }

    /// The registry default: the paper's three evaluation devices with
    /// BRO-HYB partitions — the `cluster` entry of `bro_verify::kernels()`.
    pub fn evaluation_set() -> Self {
        ClusterKernel::new(
            DeviceProfile::evaluation_set(),
            ClusterConfig { format: ClusterFormat::BroHyb, ..Default::default() },
        )
    }
}

impl SpmvKernel for ClusterKernel {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn build_from_coo(&self, a: &CooMatrix<f64>) -> PreparedSpmv {
        let csr = CsrMatrix::from_coo(a);
        let cluster = ClusterSpmv::build(&csr, &self.profiles, self.config.clone());
        PreparedSpmv::new("cluster", Box::new(move |sim, x| cluster.spmv_traced(x, sim.tracer()).0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::{DeviceSim, Tracer};
    use bro_matrix::generate::laplacian_2d;
    use bro_matrix::scalar::assert_vec_approx_eq;

    #[test]
    fn cluster_kernel_matches_reference() {
        let a = laplacian_2d::<f64>(10);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let want = a.spmv_reference(&x).unwrap();
        let kernel = ClusterKernel::evaluation_set();
        assert_eq!(kernel.name(), "cluster");
        let prepared = kernel.build_from_coo(&a);
        let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
        let got = prepared.run(&mut sim, &x);
        assert_vec_approx_eq(&got, &want, 1e-9);
    }

    #[test]
    fn traced_cluster_run_emits_per_rank_phase_spans() {
        let a = laplacian_2d::<f64>(12);
        let x = vec![1.0; a.cols()];
        let tracer = Tracer::enabled();
        let mut sim = DeviceSim::builder(DeviceProfile::tesla_k20()).tracer(tracer.clone()).build();
        ClusterKernel::evaluation_set().build_from_coo(&a).run(&mut sim, &x);
        let spans = tracer.spans();
        assert_eq!(tracer.open_spans(), 0);
        // Wall-clock: local phases for all 3 ranks, on distinct lanes.
        let local_lanes: Vec<u32> =
            spans.iter().filter(|s| s.name == "local-phase").map(|s| s.lane).collect();
        assert_eq!(local_lanes.len(), 3);
        assert!(local_lanes.iter().all(|&l| (1..=3).contains(&l)));
        // Model timeline: the remote kernel starts after max(local, exchange).
        for rank_lane in 1..=3u32 {
            let local = spans
                .iter()
                .find(|s| s.model_time && s.lane == rank_lane && s.name == "local-kernel");
            let remote = spans
                .iter()
                .find(|s| s.model_time && s.lane == rank_lane && s.name == "remote-kernel");
            if let (Some(local), Some(remote)) = (local, remote) {
                assert!(remote.start_us >= local.dur_us - 1e-9);
            }
        }
    }
}
