//! Fig. 7: BRO-COO versus COO, one [`Comparison`] run by [`compare`].

use bro_matrix::suite;

use super::{compare, Comparison};
use crate::context::ExpContext;

/// Fig. 7: BRO-COO versus COO across all thirty matrices and all three
/// devices. The paper's finding: gains exist but are smaller than
/// BRO-ELL's, and shrink (sometimes below 1×) on the Kepler devices whose
/// higher bandwidth and faster caches lift the COO baseline while the
/// decode scan still costs compute.
pub const FIG7: Comparison = Comparison {
    id: "fig7",
    title: "Fig. 7: BRO-COO vs COO (all matrices)",
    avg_title: "Fig. 7 summary: average BRO-COO speedup per device",
    set: suite::full_suite,
    kernels: &["coo", "bro-coo"],
    header: &["Matrix", "Device", "COO GF/s", "BRO-COO GF/s", "speedup"],
    avg_header: &["Device", "avg speedup"],
};

/// Runs Fig. 7.
pub fn run(ctx: &mut ExpContext) {
    compare(ctx, &FIG7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.02);
        ctx.devices.truncate(1);
        ctx.matrix_filter = Some("scircuit".into());
        run(&mut ctx);
    }
}
