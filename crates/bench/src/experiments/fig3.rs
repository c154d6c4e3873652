//! Fig. 3: BRO-ELL kernel GFLOP/s versus index space savings on a dense
//! matrix, per device, with the ELLPACK baseline annotated and the
//! break-even savings derived.
//!
//! Following Section 4.2.1: a dense matrix avoids x-cache variation, and
//! the compression ratio is swept by forcing the per-index bit allocation
//! from 32 bits (no savings) down to 1 bit.

use bro_core::{BroEll, BroEllConfig};
use bro_kernels::bro_ell_spmv;
use bro_matrix::DenseMatrix;

use crate::context::ExpContext;
use crate::experiments::{build, run_kernel};
use crate::table::{f, pct, TextTable};

/// Dense matrix width (columns); small enough that x stays cache-resident.
const DENSE_COLS: usize = 128;

/// Sweep of forced per-index bit widths.
const WIDTHS: [u8; 8] = [32, 24, 20, 16, 12, 8, 4, 1];

/// Runs the sweep and prints one series per device.
pub fn run(ctx: &mut ExpContext) {
    // Enough rows to keep every device fully occupied (the sweep isolates
    // traffic effects, not occupancy); tests shrink via very small scales.
    let rows = ((131_072.0 * ctx.scale) as usize).max(1024);
    let dense =
        DenseMatrix::from_fn(rows, DENSE_COLS, |r, c| 1.0 + ((r * 31 + c * 7) % 16) as f64 * 0.125);
    let coo = dense.to_coo_full();
    let ell = build("ell", &coo);
    let x = ctx.input_vector(DENSE_COLS);
    let flops = 2 * coo.nnz() as u64;

    let mut t = TextTable::new(&["Device", "forced bits", "savings", "GFLOP/s", "vs ELLPACK"]);
    let mut crossovers = TextTable::new(&["Device", "ELLPACK GFLOP/s", "break-even savings"]);

    for dev in ctx.devices.clone() {
        let ell_report = run_kernel(&dev, flops, 8, |s| ell.run(s, &x));

        let mut prev: Option<(f64, f64)> = None; // (savings, gflops)
        let mut crossover: Option<f64> = None;
        for &w in WIDTHS.iter() {
            // Built directly: no registry kernel forces the index width.
            let cfg = BroEllConfig { slice_height: 256, forced_width: Some(w) };
            let bro: BroEll<f64> = BroEll::from_coo(&coo, &cfg);
            let eta = bro.space_savings().eta();
            let report = run_kernel(&dev, flops, 8, |sim| bro_ell_spmv(sim, &bro, &x));
            t.row(vec![
                dev.name.to_string(),
                w.to_string(),
                pct(eta),
                f(report.gflops, 2),
                f(report.gflops / ell_report.gflops, 2),
            ]);
            // Linear interpolation of the break-even point against ELLPACK.
            if let Some((s0, g0)) = prev {
                if g0 < ell_report.gflops && report.gflops >= ell_report.gflops {
                    let frac = (ell_report.gflops - g0) / (report.gflops - g0);
                    crossover = Some(s0 + frac * (eta - s0));
                }
            }
            prev = Some((eta, report.gflops));
        }
        crossovers.row(vec![
            dev.name.to_string(),
            f(ell_report.gflops, 2),
            crossover.map(pct).unwrap_or_else(|| "n/a".into()),
        ]);
    }
    ctx.emit("fig3", "Fig. 3: BRO-ELL GFLOP/s vs space savings (dense matrix)", &t);
    ctx.emit("fig3_breakeven", "Fig. 3 annotation: ELLPACK break-even points", &crossovers);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_at_tiny_scale() {
        let mut ctx = ExpContext::new(0.01);
        // Shrink further for test speed.
        ctx.devices.truncate(1);
        run(&mut ctx);
    }
}
