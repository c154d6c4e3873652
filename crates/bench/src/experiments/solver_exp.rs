//! Extension experiment: end-to-end solver economics.
//!
//! The paper's justification for offline compression is that iterative
//! solvers multiply the *same* matrix hundreds of times, so a one-time
//! host-side compression cost amortizes. This experiment makes the claim
//! concrete for a CG solve of a Poisson problem: measured host compression
//! wall time, simulated per-iteration device time for ELLPACK vs BRO-ELL,
//! and the break-even iteration count.

use bro_gpu_sim::DeviceProfile;
use bro_matrix::{generate::laplacian_2d, CsrMatrix};
use bro_solvers::{cg, CgOptions};

use crate::context::ExpContext;
use crate::experiments::{build, run_kernel};
use crate::table::{f, TextTable};

/// Runs the economics analysis on a Poisson problem sized by scale.
pub fn run(ctx: &mut ExpContext) {
    let n = ((600.0 * ctx.scale.sqrt()) as usize).max(48);
    let a = laplacian_2d::<f64>(n);
    let dev = DeviceProfile::tesla_k20();
    let x = ctx.input_vector(a.cols());
    let flops = 2 * a.nnz() as u64;

    // One-time compression cost (host wall time of the registry build).
    let ell = build("ell", &a);
    let t0 = std::time::Instant::now();
    let bro = build("bro-ell", &a);
    let compress_s = t0.elapsed().as_secs_f64();

    // Per-iteration simulated device times.
    let [r_ell, r_bro] = [ell, bro].map(|p| run_kernel(&dev, flops, 8, |s| p.run(s, &x)));
    let saved_per_iter = r_ell.time_s - r_bro.time_s;

    // How many iterations does CG actually need here?
    let csr = CsrMatrix::from_coo(&a);
    let b: Vec<f64> = (0..a.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
    let (_, stats) = cg(|v| csr.par_spmv(v).unwrap(), &b, &CgOptions::default());

    let mut t = TextTable::new(&["quantity", "value"]);
    t.row(vec![format!("problem"), format!("poisson {n}x{n} grid, nnz = {}", a.nnz())]);
    t.row(vec!["compression wall time (host)".into(), format!("{:.1} ms", compress_s * 1e3)]);
    t.row(vec!["ELLPACK time / SpMV (simulated)".into(), format!("{:.1} us", r_ell.time_s * 1e6)]);
    t.row(vec!["BRO-ELL time / SpMV (simulated)".into(), format!("{:.1} us", r_bro.time_s * 1e6)]);
    t.row(vec!["saving / SpMV".into(), format!("{:.1} us", saved_per_iter * 1e6)]);
    if saved_per_iter > 0.0 {
        t.row(vec![
            "iterations to amortize compression".into(),
            f((compress_s / saved_per_iter).ceil(), 0),
        ]);
    }
    t.row(vec!["CG iterations to 1e-10 on this system".into(), stats.iterations.to_string()]);
    t.row(vec![
        "net CG SpMV-time saving".into(),
        format!(
            "{:.1} ms over {} iterations (minus {:.1} ms compression)",
            saved_per_iter * stats.iterations as f64 * 1e3,
            stats.iterations,
            compress_s * 1e3
        ),
    ]);
    ctx.emit("solver", "Extension: solver economics — amortizing offline compression", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_tiny_scale() {
        let mut ctx = ExpContext::new(0.01);
        run(&mut ctx);
    }
}
