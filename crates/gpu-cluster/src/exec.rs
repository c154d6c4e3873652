//! Distributed SpMV executor.
//!
//! [`ClusterSpmv`] owns everything a multi-GPU SpMV needs: the row
//! partitioning, one compressed matrix pair (local + remote phase) per
//! simulated device, the halo-exchange plan, and the interconnect profile.
//! Each [`ClusterSpmv::spmv`] call runs the classic two-phase schedule on
//! every device in parallel (one rayon task per device):
//!
//! 1. **post the halo exchange** — modeled by the α–β link cost of the
//!    per-peer packed `x` values;
//! 2. **local phase** — the kernel over entries whose columns are owned by
//!    this device, overlapping the exchange;
//! 3. **remote phase** — the kernel over halo-dependent entries, which can
//!    only start once both the local kernel and the exchange finished.
//!
//! A device's critical path is therefore
//! `max(t_local, t_exchange) + t_remote`, and the cluster's SpMV time is
//! the slowest device's critical path.
//!
//! Every call computes the *actual* product on every device and asserts it
//! against the CPU CSR reference before returning, preserving the
//! workspace invariant that the timing model can never drift away from a
//! functionally wrong kernel.

use bro_core::{BroEll, BroEllConfig, BroHyb, BroHybConfig};
use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport, LaunchStats, Tracer};
use bro_kernels::{bro_ell_spmv, bro_hyb_spmv, coo_spmv, ell_spmv, hyb_spmv};
use bro_matrix::scalar::assert_vec_approx_eq;
use bro_matrix::{CooMatrix, CsrMatrix, EllMatrix, HybMatrix, Scalar};
use rayon::prelude::*;

use crate::halo::HaloPlan;
use crate::interconnect::LinkProfile;
use crate::partition::{bandwidth_weights, DevicePartition, RowPartition};
use crate::stats::{ClusterReport, DeviceTiming};

/// Storage format each per-device partition is compressed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFormat {
    /// BRO-HYB (the paper's best general-purpose scheme) — the default.
    BroHyb,
    /// Uncompressed HYB (Bell–Garland baseline).
    Hyb,
    /// BRO-ELL.
    BroEll,
    /// Uncompressed ELLPACK.
    Ell,
    /// Uncompressed COO.
    Coo,
}

impl ClusterFormat {
    /// Looks a format up by its CLI name: `bro-hyb`, `hyb`, `bro-ell`,
    /// `ell` or `coo`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "bro-hyb" => Some(ClusterFormat::BroHyb),
            "hyb" => Some(ClusterFormat::Hyb),
            "bro-ell" => Some(ClusterFormat::BroEll),
            "ell" => Some(ClusterFormat::Ell),
            "coo" => Some(ClusterFormat::Coo),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClusterFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ClusterFormat::BroHyb => "BRO-HYB",
            ClusterFormat::Hyb => "HYB",
            ClusterFormat::BroEll => "BRO-ELL",
            ClusterFormat::Ell => "ELL",
            ClusterFormat::Coo => "COO",
        })
    }
}

/// One partition phase compressed into the chosen kernel format.
#[derive(Debug, Clone)]
enum PhaseMatrix<T: Scalar> {
    BroHyb(BroHyb<T>),
    Hyb(HybMatrix<T>),
    BroEll(BroEll<T>),
    Ell(EllMatrix<T>),
    Coo(CooMatrix<T>),
}

impl<T: Scalar> PhaseMatrix<T> {
    fn compress(coo: &CooMatrix<T>, format: ClusterFormat) -> Self {
        match format {
            ClusterFormat::BroHyb => {
                PhaseMatrix::BroHyb(BroHyb::from_coo(coo, &BroHybConfig::default()))
            }
            ClusterFormat::Hyb => PhaseMatrix::Hyb(HybMatrix::from_coo(coo)),
            ClusterFormat::BroEll => {
                PhaseMatrix::BroEll(BroEll::from_coo(coo, &BroEllConfig::default()))
            }
            ClusterFormat::Ell => PhaseMatrix::Ell(EllMatrix::from_coo(coo)),
            ClusterFormat::Coo => PhaseMatrix::Coo(coo.clone()),
        }
    }

    fn spmv(&self, sim: &mut DeviceSim, x: &[T]) -> Vec<T> {
        match self {
            PhaseMatrix::BroHyb(m) => bro_hyb_spmv(sim, m, x),
            PhaseMatrix::Hyb(m) => hyb_spmv(sim, m, x),
            PhaseMatrix::BroEll(m) => bro_ell_spmv(sim, m, x),
            PhaseMatrix::Ell(m) => ell_spmv(sim, m, x),
            PhaseMatrix::Coo(m) => coo_spmv(sim, m, x),
        }
    }
}

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Interconnect profile shared by every device pair.
    pub link: LinkProfile,
    /// Per-partition compression format.
    pub format: ClusterFormat,
}

/// Relative tolerance of the mandatory CPU-reference check.
const CHECK_TOL: f64 = 1e-9;

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { link: LinkProfile::pcie_gen2(), format: ClusterFormat::BroHyb }
    }
}

/// One device's compressed share of the matrix.
#[derive(Debug, Clone)]
struct ClusterNode<T: Scalar> {
    part: DevicePartition<T>,
    profile: DeviceProfile,
    local: PhaseMatrix<T>,
    remote: PhaseMatrix<T>,
}

/// A matrix sharded across N simulated devices, ready for repeated
/// distributed SpMV.
#[derive(Debug, Clone)]
pub struct ClusterSpmv<T: Scalar> {
    partition: RowPartition,
    plan: HaloPlan,
    nodes: Vec<ClusterNode<T>>,
    config: ClusterConfig,
    /// CPU reference copy: every `spmv` call is checked against it.
    reference: CsrMatrix<T>,
}

impl<T: Scalar> ClusterSpmv<T> {
    /// Shards `a` across the given device profiles and compresses every
    /// partition (in parallel, one rayon task per device).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn build(a: &CsrMatrix<T>, profiles: &[DeviceProfile], config: ClusterConfig) -> Self {
        assert!(!profiles.is_empty(), "at least one device is required");
        // Partition weights follow each device's memory bandwidth.
        let partition = RowPartition::balanced(a, &bandwidth_weights(profiles));
        let parts = partition.split(a);
        let plan = HaloPlan::build(&partition, &parts);
        let format = config.format;
        let nodes: Vec<ClusterNode<T>> = parts
            .into_iter()
            .zip(profiles.iter().cloned())
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(part, profile)| ClusterNode {
                local: PhaseMatrix::compress(&part.local, format),
                remote: PhaseMatrix::compress(&part.remote, format),
                part,
                profile,
            })
            .collect();
        ClusterSpmv { partition, plan, nodes, config, reference: a.clone() }
    }

    /// Convenience constructor: `n` identical devices.
    pub fn homogeneous(a: &CsrMatrix<T>, profile: &DeviceProfile, n: usize) -> Self {
        Self::build(a, &vec![profile.clone(); n], ClusterConfig::default())
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.nodes.len()
    }

    /// The row partitioning in use.
    pub fn partition(&self) -> &RowPartition {
        &self.partition
    }

    /// The halo-exchange plan in use.
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }

    /// Per-device partition views, rank order.
    pub fn partitions(&self) -> impl Iterator<Item = &DevicePartition<T>> {
        self.nodes.iter().map(|n| &n.part)
    }

    /// Runs one distributed SpMV: returns `y = A·x` (already verified
    /// against the CPU CSR reference) and the cluster timing report.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length or the distributed product
    /// disagrees with the reference beyond a relative tolerance of 1e-9.
    pub fn spmv(&self, x: &[T]) -> (Vec<T>, ClusterReport) {
        self.spmv_traced(x, &Tracer::disabled())
    }

    /// [`spmv`](ClusterSpmv::spmv) with telemetry: every device's local and
    /// remote phases run inside wall-clock spans on lane `rank + 1` (with
    /// the kernels' individual launches nested below), and the perf model's
    /// phase times are recorded as model-time spans — local kernel and halo
    /// exchange starting together at t = 0, the remote kernel after
    /// `max(t_local, t_exchange)` — so the comm/compute overlap the
    /// schedule claims is visible on the timeline.
    pub fn spmv_traced(&self, x: &[T], tracer: &Tracer) -> (Vec<T>, ClusterReport) {
        assert_eq!(x.len(), self.reference.cols(), "x length must match the matrix");
        let n = self.nodes.len();

        // Distribute x conformally and perform the (functional) exchange.
        let owned: Vec<Vec<T>> = (0..n).map(|p| x[self.partition.cols_of(p)].to_vec()).collect();
        let halos = self.plan.exchange(&owned);

        // Two-phase kernel on every device, one rayon task each.
        let umbrella = tracer.begin(0, "cluster/spmv");
        let per_device: Vec<(Vec<T>, DeviceTiming)> = (0..n)
            .into_par_iter()
            .map(|p| self.run_device(p, &self.nodes[p], &owned[p], &halos[p], tracer))
            .collect();
        tracer.end(umbrella);

        let mut y = Vec::with_capacity(self.reference.rows());
        let mut timings = Vec::with_capacity(n);
        for (y_dev, t) in per_device {
            y.extend(y_dev);
            timings.push(t);
        }

        // The invariant: a distributed run that returns is a correct run.
        let expect = self.reference.spmv(x).expect("reference SpMV on conforming input");
        assert_vec_approx_eq(&y, &expect, CHECK_TOL);

        let report = ClusterReport::from_devices(
            timings,
            self.plan.exchange_bytes(T::BYTES),
            self.plan.index_bytes_raw(),
            self.plan.index_bytes_bro(),
        );
        (y, report)
    }

    /// Runs both phases for one device and assembles its timing row.
    fn run_device(
        &self,
        rank: usize,
        node: &ClusterNode<T>,
        x_owned: &[T],
        x_halo: &[T],
        tracer: &Tracer,
    ) -> (Vec<T>, DeviceTiming) {
        let rows = node.part.rows.len();
        let local_nnz = node.part.local.nnz();
        let remote_nnz = node.part.remote.nnz();
        let lane = rank as u32 + 1;

        // Local phase: overlaps the halo exchange.
        let mut sim =
            DeviceSim::builder(node.profile.clone()).tracer(tracer.clone()).lane(lane).build();
        let (mut y, local_report, t_local) = if local_nnz > 0 {
            let span = sim.trace_begin("local-phase");
            let y = node.local.spmv(&mut sim, x_owned);
            sim.trace_end(span);
            let r = KernelReport::from_device(&sim, 2 * local_nnz as u64, T::BYTES);
            let t = r.time_s;
            (y, r, t)
        } else {
            // Nothing to compute: no launch, no time.
            let r = KernelReport::compute(&node.profile, &LaunchStats::default(), 1, 0, T::BYTES);
            (vec![T::ZERO; rows], r, 0.0)
        };
        if y.is_empty() {
            y = vec![T::ZERO; rows];
        }
        let mut snapshot = sim.take_snapshot();

        // Remote phase: starts after both the local kernel and the exchange.
        let (remote_report, t_remote) = if remote_nnz > 0 {
            let mut rsim = sim.sibling();
            let span = rsim.trace_begin("remote-phase");
            let y_remote = node.remote.spmv(&mut rsim, x_halo);
            rsim.trace_end(span);
            for (a, b) in y.iter_mut().zip(y_remote) {
                *a += b;
            }
            let r = KernelReport::from_device(&rsim, 2 * remote_nnz as u64, T::BYTES);
            snapshot.merge(&rsim.snapshot());
            let t = r.time_s;
            (Some(r), t)
        } else {
            (None, 0.0)
        };

        let t_exchange = self.config.link.exchange_time_s(&self.plan, rank, T::BYTES);
        let t_total = t_local.max(t_exchange) + t_remote;

        // Model-time lanes: the local kernel and the halo exchange start
        // together at t = 0 (the exchange is posted first, on its own link
        // lane so the overlap is visible); the remote kernel waits for both.
        if tracer.is_enabled() {
            if t_local > 0.0 {
                tracer.record_model_span(lane, "local-kernel", 0.0, t_local, None);
            }
            if t_exchange > 0.0 {
                tracer.record_model_span(
                    Tracer::LINK_LANE_OFFSET + lane,
                    "halo-exchange",
                    0.0,
                    t_exchange,
                    None,
                );
            }
            if t_remote > 0.0 {
                tracer.record_model_span(
                    lane,
                    "remote-kernel",
                    t_local.max(t_exchange),
                    t_remote,
                    None,
                );
            }
        }
        let nnz = local_nnz + remote_nnz;
        let send_bytes: u64 =
            (0..self.nodes.len()).map(|d| self.plan.pair_bytes(rank, d, T::BYTES)).sum();
        let recv_bytes: u64 =
            (0..self.nodes.len()).map(|s| self.plan.pair_bytes(s, rank, T::BYTES)).sum();

        let timing = DeviceTiming {
            rank,
            device: node.profile.name,
            rows,
            nnz,
            remote_nnz,
            halo_cols: node.part.halo_cols.len(),
            local: local_report,
            remote: remote_report,
            snapshot,
            send_bytes,
            recv_bytes,
            t_local_s: t_local,
            t_remote_s: t_remote,
            t_exchange_s: t_exchange,
            t_total_s: t_total,
            gflops: if t_total > 0.0 { 2.0 * nnz as f64 / t_total / 1e9 } else { 0.0 },
        };
        (y, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_matrix::generate::laplacian_2d;

    fn laplacian(n: usize) -> CsrMatrix<f64> {
        CsrMatrix::from_coo(&laplacian_2d::<f64>(n))
    }

    fn x_for(a: &CsrMatrix<f64>) -> Vec<f64> {
        (0..a.cols()).map(|i| 1.0 + ((i * 37) % 19) as f64 * 0.25).collect()
    }

    #[test]
    fn by_name_takes_exactly_the_cli_names() {
        for (name, format) in [
            ("bro-hyb", ClusterFormat::BroHyb),
            ("hyb", ClusterFormat::Hyb),
            ("bro-ell", ClusterFormat::BroEll),
            ("ell", ClusterFormat::Ell),
            ("coo", ClusterFormat::Coo),
        ] {
            assert_eq!(ClusterFormat::by_name(name), Some(format));
        }
        for name in ["brohyb", "broell", "BRO-HYB", "csr"] {
            assert_eq!(ClusterFormat::by_name(name), None, "{name}");
        }
    }

    #[test]
    fn distributed_matches_reference_all_formats() {
        let a = laplacian(24);
        let x = x_for(&a);
        let expect = a.spmv(&x).unwrap();
        for format in [
            ClusterFormat::BroHyb,
            ClusterFormat::Hyb,
            ClusterFormat::BroEll,
            ClusterFormat::Ell,
            ClusterFormat::Coo,
        ] {
            let cfg = ClusterConfig { format, ..Default::default() };
            let cluster = ClusterSpmv::build(&a, &vec![DeviceProfile::tesla_k20(); 4], cfg);
            let (y, report) = cluster.spmv(&x);
            assert_vec_approx_eq(&y, &expect, 1e-9);
            assert_eq!(report.device_count(), 4);
            assert!(report.gflops > 0.0, "{format}: {report}");
        }
    }

    #[test]
    fn device_counts_one_through_eight() {
        let a = laplacian(20);
        let x = x_for(&a);
        for n in [1, 2, 4, 8] {
            let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::tesla_k20(), n);
            let (_, report) = cluster.spmv(&x);
            assert_eq!(report.device_count(), n);
            if n == 1 {
                assert_eq!(report.exchange_bytes, 0);
                assert_eq!(report.overlap_efficiency, 1.0);
            } else {
                assert!(report.exchange_bytes > 0);
                assert!(report.halo_fraction > 0.0);
            }
        }
    }

    #[test]
    fn heterogeneous_cluster_balances_by_bandwidth() {
        let a = laplacian(32);
        let profiles = vec![DeviceProfile::tesla_k20(), DeviceProfile::tesla_c2070()];
        let cluster = ClusterSpmv::build(&a, &profiles, ClusterConfig::default());
        let parts: Vec<_> = cluster.partitions().collect();
        // The K20's measured bandwidth is higher, so it must own more nnz.
        assert!(parts[0].nnz() > parts[1].nnz());
        let (_, report) = cluster.spmv(&x_for(&a));
        assert_eq!(report.devices[0].device, "Tesla K20");
        assert_eq!(report.devices[1].device, "Tesla C2070");
    }

    #[test]
    fn exchange_overlaps_local_phase() {
        // On a narrow-band matrix the halo is tiny, so the exchange hides
        // entirely behind the local phase.
        let a = laplacian(40);
        let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::tesla_k20(), 4);
        let (_, report) = cluster.spmv(&x_for(&a));
        for d in &report.devices {
            assert!(
                d.t_total_s >= d.t_local_s.max(d.t_exchange_s) + d.t_remote_s - 1e-15,
                "critical path violated on rank {}",
                d.rank
            );
        }
        assert!(report.overlap_efficiency > 0.5, "overlap {}", report.overlap_efficiency);
    }

    #[test]
    fn snapshot_aggregates_both_phases() {
        let a = laplacian(16);
        let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::tesla_k20(), 2);
        let (_, report) = cluster.spmv(&x_for(&a));
        let total = bro_gpu_sim::StatsSnapshot::merged(report.devices.iter().map(|d| &d.snapshot));
        // Useful flops: 2 per nnz, all devices combined, both phases.
        assert!(total.stats.flops >= 2 * a.nnz() as u64);
        assert!(total.launches >= 2);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let a = laplacian(8);
        let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::tesla_k20(), 2);
        cluster.spmv(&[1.0; 3]);
    }

    #[test]
    fn more_devices_than_rows_still_correct() {
        let a = laplacian(2); // 4 rows
        let x = x_for(&a);
        let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::gtx680(), 8);
        let (y, _) = cluster.spmv(&x);
        assert_vec_approx_eq(&y, &a.spmv(&x).unwrap(), 1e-9);
    }
}
