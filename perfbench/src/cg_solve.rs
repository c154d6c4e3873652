//! `cg-solve`: the amortized operator, one CG solve per op.
//!
//! Set-up generates `cant`, writes and reads it back as `.mtx`, makes it SPD
//! (symmetrized, diagonal shifted by the largest off-diagonal row sum plus
//! one), BAR-reorders it and builds it once as BRO-ELL for a simulated K20.
//! Each op solves `A·x = b` to 1e-8 for one seeded right-hand side; the
//! operator un-permutes the BAR-ordered product.

use bro_core::reorder::{bar_order, BarConfig};
use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport};
use bro_kernels::{registry, PreparedSpmv};
use bro_matrix::{io, suite, CooMatrix, Permutation};
use bro_solvers::{cg, CgOptions, SolveStats};

use crate::{check_y, seeded_vec, Config, Counts, Model, Probe, Sample, Workload};

/// Right-hand sides cycled through by the ops.
const RHS: usize = 8;
/// CG stopping tolerance on the relative residual.
const TOL: f64 = 1e-8;

/// The `cg-solve` workload state.
pub struct CgSolve {
    /// The SPD operator in original row order.
    a: CooMatrix<f64>,
    row_terms: Vec<u32>,
    /// BAR row order of `a` and its inverse.
    perm: Permutation,
    inv: Permutation,
    bar_cost: u64,
    op: PreparedSpmv,
    sim: DeviceSim,
    rhs: Vec<Vec<f64>>,
}

/// Outputs of one solve: every operator input and output, the solution
/// and the device counters it consumed.
pub struct Out {
    b: usize,
    x: Vec<f64>,
    stats: SolveStats,
    applied: Vec<(Vec<f64>, Vec<f64>)>,
    counts: Counts,
    gflops: f64,
}

impl Workload for CgSolve {
    type Out = Out;

    fn setup(cfg: &Config, probe: &Probe) -> Result<Self, String> {
        let mut spec = suite::by_name("cant").ok_or("no suite matrix cant")?.spec(cfg.scale);
        spec.seed ^= cfg.seed;
        let g: CooMatrix<f64> = probe.span("matrix.generate", || spec.generate());
        let path = cfg.work_dir.join("cant.mtx");
        probe
            .span("matrix.io.write", || io::write_matrix_market_file(&g, &path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let read: CooMatrix<f64> = probe
            .span("matrix.io.read", || io::read_matrix_market_file(&path))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        probe.add_work(|w| w.io_read_bytes += bytes);
        let a = probe.span("matrix.spd", || {
            let s = read.symmetrized();
            s.add_diagonal(s.max_offdiag_row_sum() + 1.0)
        });
        let (perm, bar_cost) =
            probe.span("core.reorder.bar", || bar_order(&a, &BarConfig::default()));
        let reordered = perm.apply_rows(&a);
        let kernel = registry::by_name("bro-ell").expect("bro-ell is registered");
        probe.add_work(|w| w.build_nnz_bro += a.nnz() as u64);
        let op = probe.span("kernels.build.bro", || kernel.build_from_coo(&reordered));
        let rhs = (0..RHS)
            .map(|i| {
                seeded_vec(cfg.seed ^ (i as u64 + 1).wrapping_mul(0xC6A4_A793_5BD1_E995), a.rows())
            })
            .collect();
        Ok(CgSolve {
            row_terms: a.row_lengths(),
            inv: perm.inverse(),
            perm,
            bar_cost,
            op,
            sim: probe.device(DeviceProfile::tesla_k20()),
            rhs,
            a,
        })
    }

    fn ops_per_round(&self) -> usize {
        1
    }

    fn op(&mut self, k: usize, probe: &Probe) -> Out {
        let b = k % self.rhs.len();
        let before = self.sim.lifetime_snapshot();
        let mut applied = Vec::new();
        let (sim, op, inv) = (&mut self.sim, &self.op, &self.inv);
        let (x, stats) = probe.span("solvers.cg", || {
            let apply = |p: &[f64]| {
                probe.span("solvers.cg.operator", || {
                    let y = inv.apply_vec(&probe.span("kernels.run", || op.run(sim, p)));
                    applied.push((p.to_vec(), y.clone()));
                    y
                })
            };
            cg(apply, &self.rhs[b], &CgOptions { max_iters: 1000, tol: TOL })
        });
        let flops = 2 * self.a.nnz() as u64;
        let gflops =
            probe.span("gpu_sim.model", || KernelReport::from_device(&self.sim, flops, 8).gflops);
        let mut counts = Counts { cg_iters: stats.iterations as u64, ..Counts::default() };
        counts.add_sim(&self.sim.lifetime_snapshot().diff(&before));
        Out { b, x, stats, applied, counts, gflops }
    }

    fn check(&mut self, out: Out) -> Result<Sample, String> {
        if !out.stats.converged {
            return Err(format!(
                "CG did not converge: residual {:e} after {} iterations",
                out.stats.residual, out.stats.iterations
            ));
        }
        for (i, (p, y)) in out.applied.iter().enumerate() {
            let want = self.a.spmv_reference(p).map_err(|e| e.to_string())?;
            check_y(&format!("operator call {i}"), y, &want, &self.row_terms)?;
        }
        // The residual of the returned solution, recomputed on the host.
        let ax = self.a.spmv_reference(&out.x).map_err(|e| e.to_string())?;
        let b = &self.rhs[out.b];
        let r2: f64 = ax.iter().zip(b).map(|(a, b)| (a - b) * (a - b)).sum();
        let res = (r2 / b.iter().map(|v| v * v).sum::<f64>()).sqrt();
        if res > 10.0 * TOL {
            return Err(format!("CG solution residual {res:e} exceeds {:e}", 10.0 * TOL));
        }
        Ok(Sample {
            sim_nnz: out.applied.len() as u64 * self.a.nnz() as u64,
            counts: Counts { bar_cost: self.bar_cost, ..out.counts },
            gflops: vec![out.gflops],
            ..Sample::default()
        })
    }

    /// Compares the BRO-ELL operator with ELL built on the same matrix, on
    /// the same device.
    fn model(&mut self, round0: &[Sample]) -> Model {
        let x = &self.rhs[0];
        let flops = 2 * self.a.nnz() as u64;
        let run = |kernel: &str, a: &CooMatrix<f64>| {
            let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
            registry::by_name(kernel).expect("registered").build_from_coo(a).run(&mut sim, x);
            KernelReport::from_device(&sim, flops, 8).gflops
        };
        let reordered = self.perm.apply_rows(&self.a);
        let ratio = run("bro-ell", &reordered) / run("ell", &self.a);
        let eta =
            BroEll::<f64>::from_coo(&reordered, &BroEllConfig::default()).space_savings().eta();
        Model { speedup: ratio, eta, ..Model::from_samples(round0) }
    }
}
