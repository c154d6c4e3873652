//! Fig. 4: BRO-ELL versus ELLPACK and ELLPACK-R across Test Set 1 on all
//! three devices, with per-device average speedups (the paper reports
//! 1.5×/1.6×/1.4× over ELLPACK and +13% over ELLPACK-R on average).

use bro_core::{BroEll, BroEllConfig};
use bro_kernels::{bro_ell_spmv, ell_spmv, ellr_spmv};
use bro_matrix::{suite, EllMatrix, EllRMatrix};

use crate::context::ExpContext;
use crate::experiments::{geomean, run_kernel};
use crate::table::{f, TextTable};

/// Runs the Test Set 1 performance comparison.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&[
        "Matrix",
        "Device",
        "ELL GF/s",
        "ELL-R GF/s",
        "BRO-ELL GF/s",
        "vs ELL",
        "vs ELL-R",
    ]);
    let mut per_device_speedup: Vec<Vec<f64>> = vec![Vec::new(); ctx.devices.len()];
    let mut per_device_vs_ellr: Vec<Vec<f64>> = vec![Vec::new(); ctx.devices.len()];

    for entry in suite::test_set_1() {
        if !ctx.selected(entry.name) {
            continue;
        }
        let coo = ctx.matrix(entry.name).clone();
        let ell = EllMatrix::from_coo(&coo);
        let ellr = EllRMatrix::from_coo(&coo);
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let x = ctx.input_vector(coo.cols());
        let flops = 2 * coo.nnz() as u64;

        for (d, dev) in ctx.devices.clone().iter().enumerate() {
            let r_ell = run_kernel(dev, flops, 8, |s| {
                ell_spmv(s, &ell, &x);
            });
            let r_ellr = run_kernel(dev, flops, 8, |s| {
                ellr_spmv(s, &ellr, &x);
            });
            let r_bro = run_kernel(dev, flops, 8, |s| {
                bro_ell_spmv(s, &bro, &x);
            });
            per_device_speedup[d].push(r_bro.gflops / r_ell.gflops);
            per_device_vs_ellr[d].push(r_bro.gflops / r_ellr.gflops);
            t.row(vec![
                entry.name.to_string(),
                dev.name.to_string(),
                f(r_ell.gflops, 2),
                f(r_ellr.gflops, 2),
                f(r_bro.gflops, 2),
                f(r_bro.gflops / r_ell.gflops, 2),
                f(r_bro.gflops / r_ellr.gflops, 2),
            ]);
        }
    }
    ctx.emit("fig4", "Fig. 4: BRO-ELL vs ELLPACK vs ELLPACK-R (Test Set 1)", &t);

    let mut avg = TextTable::new(&["Device", "avg speedup vs ELL", "avg speedup vs ELL-R"]);
    for (d, dev) in ctx.devices.iter().enumerate() {
        avg.row(vec![
            dev.name.to_string(),
            f(geomean(&per_device_speedup[d]), 2),
            f(geomean(&per_device_vs_ellr[d]), 2),
        ]);
    }
    ctx.emit("fig4_avg", "Fig. 4 summary: average speedups", &avg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_matrix_single_device() {
        let mut ctx = ExpContext::new(0.02);
        ctx.devices.truncate(1);
        ctx.matrix_filter = Some("epb3".into());
        run(&mut ctx);
    }
}
