//! Extension: multi-GPU strong/weak scaling of distributed BRO-HYB SpMV
//! (`repro scaling`).
//!
//! Shards Test-Set-1 matrices across 1/2/4/8 simulated Tesla K20s joined
//! by a PCIe-gen2 interconnect and reports, per cluster size: cluster and
//! per-device GFLOP/s, the halo fraction, bytes exchanged per SpMV,
//! overlap efficiency (how much of the exchange hides behind the local
//! phase), and the one-time exchange-metadata cost raw vs BRO-compressed.
//!
//! Expected qualitative trends: narrow-band matrices (epb3, qcd5_4) scale
//! nearly linearly because their halo fraction stays small and the
//! exchange overlaps completely; wider-band or denser matrices (cant)
//! expose more exchange as device counts grow; BRO metadata compression
//! shrinks the index lists several-fold because send lists are
//! near-contiguous. Every distributed run is verified against the CPU CSR
//! reference inside the executor.

use bro_gpu_cluster::{ClusterReport, ClusterSpmv};
use bro_gpu_sim::DeviceProfile;
use bro_matrix::{suite, CsrMatrix};

use crate::context::ExpContext;
use crate::table::{f, pct, TextTable};

/// Matrices used for the scaling study: one very regular lattice, one
/// narrow-band FEM, one wide-band FEM, one 2D lattice.
const MATRICES: [&str; 4] = ["qcd5_4", "epb3", "cant", "mc2depi"];

/// Cluster sizes swept.
const SIZES: [usize; 4] = [1, 2, 4, 8];

fn per_device_range(report: &ClusterReport) -> String {
    let lo = report.devices.iter().map(|d| d.gflops).fold(f64::INFINITY, f64::min);
    let hi = report.devices.iter().map(|d| d.gflops).fold(0.0f64, f64::max);
    format!("{:.2}..{:.2}", lo, hi)
}

/// Runs the strong- and weak-scaling sweeps. `ClusterSpmv` runs directly:
/// the distributed kernel is not in the single-device registry, and each
/// sweep sets the cluster size.
pub fn run(ctx: &mut ExpContext) {
    let device = DeviceProfile::tesla_k20();

    // Strong scaling: fixed problem, growing cluster.
    let mut strong = TextTable::new(&[
        "Matrix",
        "devs",
        "GF/s",
        "per-dev GF/s",
        "speedup",
        "halo %nnz",
        "exch KB",
        "overlap",
        "idx raw KB",
        "idx BRO KB",
    ]);
    for name in ctx.select(MATRICES) {
        let a = CsrMatrix::from_coo(ctx.matrix(name));
        let x = ctx.input_vector(a.cols());
        let mut base_gflops = 0.0;
        for n in SIZES {
            let cluster = ClusterSpmv::homogeneous(&a, &device, n);
            let (_, report) = cluster.spmv(&x);
            if n == 1 {
                base_gflops = report.gflops;
            }
            strong.row(vec![
                name.to_string(),
                n.to_string(),
                f(report.gflops, 2),
                per_device_range(&report),
                f(report.gflops / base_gflops, 2),
                pct(report.halo_fraction),
                f(report.exchange_bytes as f64 / 1e3, 1),
                pct(report.overlap_efficiency),
                f(report.index_bytes_raw as f64 / 1e3, 1),
                f(report.index_bytes_bro as f64 / 1e3, 1),
            ]);
        }
    }
    ctx.emit(
        "scaling",
        "Scaling: distributed BRO-HYB SpMV, strong scaling on 1/2/4/8 Tesla K20s",
        &strong,
    );

    // Weak scaling: problem grows with the cluster.
    let mut weak = TextTable::new(&["Matrix", "devs", "scale", "nnz", "GF/s", "efficiency"]);
    for name in ctx.select(MATRICES) {
        let entry = suite::by_name(name).expect("scaling matrix is in the suite");
        let mut base_gflops = 0.0;
        for n in SIZES {
            let scale = (ctx.scale * n as f64).min(1.0);
            let a = CsrMatrix::from_coo(&entry.spec(scale).generate::<f64>());
            let x = ctx.input_vector(a.cols());
            let cluster = ClusterSpmv::homogeneous(&a, &device, n);
            let (_, report) = cluster.spmv(&x);
            if n == 1 {
                base_gflops = report.gflops;
            }
            weak.row(vec![
                name.to_string(),
                n.to_string(),
                f(scale, 2),
                a.nnz().to_string(),
                f(report.gflops, 2),
                pct(report.gflops / (n as f64 * base_gflops)),
            ]);
        }
    }
    ctx.emit("scaling_weak", "Scaling: weak scaling (problem grows with the cluster)", &weak);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.02);
        ctx.matrix_filter = Some("epb3".into());
        run(&mut ctx);
    }
}
