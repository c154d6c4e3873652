//! `cluster-spmv`: repeated distributed SpMV, one step per op.
//!
//! Set-up generates `scircuit`, writes and reads it back as `.mtx` and
//! shards it as BRO-HYB across four simulated K20s joined by PCIe
//! (`ClusterSpmv::homogeneous`), which partitions rows, plans the halo
//! exchange and encodes every shard. Each op is one step with a seeded `x`.

use bro_core::analysis::SpaceSavings;
use bro_core::{BroHyb, BroHybConfig};
use bro_gpu_cluster::{ClusterConfig, ClusterFormat, ClusterReport, ClusterSpmv};
use bro_gpu_sim::DeviceProfile;
use bro_matrix::{io, suite, CooMatrix, CsrMatrix};

use crate::{check_y, seeded_vec, Config, Counts, Model, Probe, Sample, Workload};

/// Simulated devices in the cluster.
const DEVICES: usize = 4;
/// Input vectors cycled through by the ops.
const XS: usize = 8;

/// The `cluster-spmv` workload state.
pub struct ClusterStep {
    csr: CsrMatrix<f64>,
    row_terms: Vec<u32>,
    cluster: ClusterSpmv<f64>,
    xs: Vec<Vec<f64>>,
    wants: Vec<Vec<f64>>,
}

/// Outputs of one step.
pub struct Out {
    x: usize,
    y: Vec<f64>,
    report: ClusterReport,
}

impl Workload for ClusterStep {
    type Out = Out;

    fn setup(cfg: &Config, probe: &Probe) -> Result<Self, String> {
        let mut spec =
            suite::by_name("scircuit").ok_or("no suite matrix scircuit")?.spec(cfg.scale);
        spec.seed ^= cfg.seed;
        let g: CooMatrix<f64> = probe.span("matrix.generate", || spec.generate());
        let path = cfg.work_dir.join("scircuit.mtx");
        probe
            .span("matrix.io.write", || io::write_matrix_market_file(&g, &path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let a: CooMatrix<f64> = probe
            .span("matrix.io.read", || io::read_matrix_market_file(&path))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        probe.add_work(|w| w.io_read_bytes += bytes);
        let csr = CsrMatrix::from_coo(&a);
        let cluster = probe.span("gpu_cluster.build", || {
            ClusterSpmv::homogeneous(&csr, &DeviceProfile::tesla_k20(), DEVICES)
        });
        let xs: Vec<Vec<f64>> = (0..XS)
            .map(|i| {
                seeded_vec(cfg.seed ^ (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93), a.cols())
            })
            .collect();
        let wants = xs
            .iter()
            .map(|x| a.spmv_reference(x).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(ClusterStep { row_terms: a.row_lengths(), csr, cluster, xs, wants })
    }

    fn ops_per_round(&self) -> usize {
        1
    }

    fn op(&mut self, k: usize, probe: &Probe) -> Out {
        let i = k % self.xs.len();
        let x = &self.xs[i];
        let (y, report) =
            probe.span("gpu_cluster.step", || self.cluster.spmv_traced(x, probe.tracer()));
        Out { x: i, y, report }
    }

    fn check(&mut self, out: Out) -> Result<Sample, String> {
        check_y("distributed product", &out.y, &self.wants[out.x], &self.row_terms)?;
        let r = &out.report;
        let mut counts = Counts {
            halo_bytes: r.exchange_bytes,
            exposed_exchange_us: r
                .devices
                .iter()
                .map(|d| d.exposed_exchange_s())
                .fold(0.0, f64::max)
                * 1e6,
            load_imbalance: r.load_imbalance(),
            ..Counts::default()
        };
        for d in &r.devices {
            counts.add_sim(&d.snapshot);
        }
        Ok(Sample { sim_nnz: r.nnz as u64, counts, gflops: vec![r.gflops], ..Sample::default() })
    }

    /// Compares against the same cluster with uncompressed HYB shards; η is
    /// that of the BRO-HYB shards.
    fn model(&mut self, round0: &[Sample]) -> Model {
        let profiles = vec![DeviceProfile::tesla_k20(); DEVICES];
        let hyb = ClusterSpmv::build(
            &self.csr,
            &profiles,
            ClusterConfig { format: ClusterFormat::Hyb, ..ClusterConfig::default() },
        );
        let bro = self.cluster.spmv(&self.xs[0]).1.gflops;
        let ratio = bro / hyb.spmv(&self.xs[0]).1.gflops;
        let mut savings = SpaceSavings { original_bytes: 0, compressed_bytes: 0 };
        for p in self.cluster.partitions() {
            for shard in [&p.local, &p.remote] {
                savings = savings.combine(
                    &BroHyb::<f64>::from_coo(shard, &BroHybConfig::default()).space_savings(),
                );
            }
        }
        Model { speedup: ratio, eta: savings.eta(), ..Model::from_samples(round0) }
    }
}
