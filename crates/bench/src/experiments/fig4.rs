//! Fig. 4: BRO-ELL versus ELLPACK and ELLPACK-R, one [`Comparison`] run by [`compare`].

use bro_matrix::suite;

use super::{compare, Comparison};
use crate::context::ExpContext;

/// Fig. 4: BRO-ELL versus ELLPACK and ELLPACK-R across Test Set 1 on all
/// three devices, with per-device average speedups (the paper reports
/// 1.5×/1.6×/1.4× over ELLPACK and +13% over ELLPACK-R on average).
pub const FIG4: Comparison = Comparison {
    id: "fig4",
    title: "Fig. 4: BRO-ELL vs ELLPACK vs ELLPACK-R (Test Set 1)",
    avg_title: "Fig. 4 summary: average speedups",
    set: suite::test_set_1,
    kernels: &["ell", "ellr", "bro-ell"],
    header: &["Matrix", "Device", "ELL GF/s", "ELL-R GF/s", "BRO-ELL GF/s", "vs ELL", "vs ELL-R"],
    avg_header: &["Device", "avg speedup vs ELL", "avg speedup vs ELL-R"],
};

/// Runs Fig. 4.
pub fn run(ctx: &mut ExpContext) {
    compare(ctx, &FIG4);
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
