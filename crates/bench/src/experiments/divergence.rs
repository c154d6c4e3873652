//! Extension experiment: why CPU compression schemes fail on GPUs.
//!
//! Section 3 of the paper dismisses byte-oriented CPU schemes (delta+RLE,
//! varint indices) because their decoders diverge and scatter under SIMT
//! execution. This experiment makes the claim quantitative: VLQ-ELL (a
//! LEB128-varint encoding of the very same deltas) versus BRO-ELL on the
//! Test Set 1 matrices — similar compression, very different kernels.

use bro_core::{BroEll, BroEllConfig, VlqEll};
use bro_kernels::{bro_ell_spmv, vlq_ell_spmv};

use crate::context::ExpContext;
use crate::experiments::{geomean, run_kernel};
use crate::table::{f, pct, TextTable};

/// Runs the comparison on a representative subset of Test Set 1.
pub const MATRICES: [&str; 6] = ["cant", "consph", "epb3", "qcd5_4", "venkat01", "torso3"];

/// Runs the comparison across all devices.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&[
        "Matrix", "Device", "eta VLQ", "eta BRO", "VLQ GF/s", "BRO GF/s", "BRO/VLQ",
    ]);
    let mut ratios = Vec::new();
    for name in ctx.select(MATRICES) {
        let a = ctx.matrix(name).clone();
        let x = ctx.input_vector(a.cols());
        let flops = 2 * a.nnz() as u64;
        // Built directly: the table needs each format's own η, which a
        // registry kernel does not expose.
        let vlq: VlqEll<f64> = VlqEll::from_coo(&a);
        let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
        for dev in ctx.devices.clone() {
            let r_vlq = run_kernel(&dev, flops, 8, |s| vlq_ell_spmv(s, &vlq, &x));
            let r_bro = run_kernel(&dev, flops, 8, |s| bro_ell_spmv(s, &bro, &x));
            ratios.push(r_bro.gflops / r_vlq.gflops);
            t.row(vec![
                name.to_string(),
                dev.name.to_string(),
                pct(vlq.space_savings().eta()),
                pct(bro.space_savings().eta()),
                f(r_vlq.gflops, 2),
                f(r_bro.gflops, 2),
                f(r_bro.gflops / r_vlq.gflops, 2),
            ]);
        }
    }
    ctx.emit(
        "divergence",
        "Extension: BRO-ELL vs a CPU-style varint scheme (the divergence argument)",
        &t,
    );
    let mut avg = TextTable::new(&["metric", "value"]);
    avg.row(vec!["avg BRO-ELL advantage over VLQ-ELL".into(), geomean(&ratios, 2)]);
    ctx.emit("divergence_avg", "Divergence summary", &avg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.01);
        ctx.devices.truncate(1);
        ctx.matrix_filter = Some("epb3".into());
        run(&mut ctx);
    }
}
