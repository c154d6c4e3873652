//! Fig. 6: DRAM bandwidth utilization of the BRO-ELL kernel across the
//! three devices for the first six matrices of Test Set 1 — including the
//! `e40r5000` occupancy dip on the wide Kepler devices.

use crate::context::ExpContext;
use crate::experiments::{build, run_kernel};
use crate::table::{f, pct, TextTable};

/// The first six matrices of Table 2, as plotted in the paper.
pub const MATRICES: [&str; 6] = ["cage12", "cant", "consph", "e40r5000", "epb3", "lhr71"];

/// Computes bandwidth utilization per matrix and device.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&["Matrix", "Device", "achieved GB/s", "utilization", "occupancy"]);
    for name in ctx.select(MATRICES) {
        let a = ctx.matrix(name);
        let (flops, cols) = (2 * a.nnz() as u64, a.cols());
        let bro = build("bro-ell", a);
        let x = ctx.input_vector(cols);
        for dev in &ctx.devices {
            let r = run_kernel(dev, flops, 8, |s| bro.run(s, &x));
            t.row(vec![
                name.to_string(),
                dev.name.to_string(),
                f(r.achieved_bw_gbs, 1),
                pct(r.bw_utilization),
                pct(r.occupancy),
            ]);
        }
    }
    ctx.emit("fig6", "Fig. 6: BRO-ELL DRAM bandwidth utilization (first six matrices)", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.02);
        ctx.devices.truncate(1);
        ctx.matrix_filter = Some("epb3".into());
        run(&mut ctx);
    }
}
