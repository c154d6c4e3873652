//! Extension experiment: block SpMV (SpMM) — how the BRO-ELL advantage
//! decays as the index stream amortizes over a widening block of input
//! vectors.

use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::DeviceProfile;
use bro_kernels::{bro_ell_spmm, ell_spmm};
use bro_matrix::EllMatrix;

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, TextTable};

/// Block widths swept.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Runs the sweep on a compressible FEM matrix.
pub fn run(ctx: &mut ExpContext) {
    let dev = DeviceProfile::tesla_k20();
    let name = if ctx.selected("cant") { "cant" } else { "consph" };
    let a = ctx.matrix(name).clone();
    // Built directly: registry kernels multiply one vector, not a block of k.
    let ell = EllMatrix::from_coo(&a);
    let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());

    let mut t = TextTable::new(&["vectors", "ELL GF/s", "BRO-ELL GF/s", "speedup"]);
    for &k in WIDTHS.iter() {
        let xs: Vec<Vec<f64>> = (0..k)
            .map(|v| (0..a.cols()).map(|i| 1.0 + ((i * (v + 2)) % 13) as f64 * 0.1).collect())
            .collect();
        let flops = 2 * a.nnz() as u64 * k as u64;
        let r_ell = run_kernel(&dev, flops, 8, |s| ell_spmm(s, &ell, &xs));
        let r_bro = run_kernel(&dev, flops, 8, |s| bro_ell_spmm(s, &bro, &xs));
        t.row(vec![
            k.to_string(),
            f(r_ell.gflops, 2),
            f(r_bro.gflops, 2),
            f(r_bro.gflops / r_ell.gflops, 2),
        ]);
    }
    ctx.emit(
        "spmm",
        &format!("Extension: block SpMV — BRO gain vs block width ({name}, Tesla K20)"),
        &t,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs() {
        let mut ctx = ExpContext::new(0.01);
        run(&mut ctx);
    }
}
