//! Fig. 8: BRO-HYB versus HYB, one [`Comparison`] run by [`compare`].

use bro_matrix::suite;

use super::{compare, Comparison};
use crate::context::ExpContext;

/// Fig. 8: BRO-HYB versus HYB on Test Set 2, both split at HYB's width (an
/// identical partition, as in the paper). The paper plots the Tesla K20
/// ("results for C2070 and GTX680 are similar") and reports average
/// speedups of 1.6×/1.3×/1.4× on C2070/GTX680/K20; this harness prints all
/// three devices plus the per-device averages.
pub const FIG8: Comparison = Comparison {
    id: "fig8",
    title: "Fig. 8: BRO-HYB vs HYB (Test Set 2)",
    avg_title: "Fig. 8 summary: average BRO-HYB speedup per device",
    set: suite::test_set_2,
    kernels: &["hyb", "bro-hyb"],
    header: &["Matrix", "Device", "HYB GF/s", "BRO-HYB GF/s", "speedup"],
    avg_header: &["Device", "avg speedup"],
};

/// Runs Fig. 8.
pub fn run(ctx: &mut ExpContext) {
    compare(ctx, &FIG8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.02);
        ctx.devices.truncate(1);
        ctx.matrix_filter = Some("sme3Da".into());
        run(&mut ctx);
    }
}
