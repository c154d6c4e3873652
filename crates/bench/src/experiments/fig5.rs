//! Fig. 5: effective arithmetic intensity (EAI = useful flops per DRAM
//! byte) of BRO-ELL versus ELLPACK on the Tesla K20.

use bro_gpu_sim::DeviceProfile;
use bro_matrix::suite;

use crate::context::ExpContext;
use crate::experiments::{build, run_kernel};
use crate::table::{f, TextTable};

/// Computes the EAI comparison on Test Set 1.
pub fn run(ctx: &mut ExpContext) {
    let k20 = DeviceProfile::tesla_k20();
    let mut t = TextTable::new(&["Matrix", "EAI ELLPACK", "EAI BRO-ELL", "ratio"]);
    for entry in ctx.select(suite::test_set_1()) {
        let a = ctx.matrix(entry.name);
        let (flops, cols) = (2 * a.nnz() as u64, a.cols());
        let [ell, bro] = ["ell", "bro-ell"].map(|k| build(k, a));
        let x = ctx.input_vector(cols);
        let [r_ell, r_bro] = [ell, bro].map(|p| run_kernel(&k20, flops, 8, |s| p.run(s, &x)));
        t.row(vec![
            entry.name.to_string(),
            f(r_ell.eai, 3),
            f(r_bro.eai, 3),
            f(r_bro.eai / r_ell.eai, 2),
        ]);
    }
    ctx.emit("fig5", "Fig. 5: effective arithmetic intensity on Tesla K20", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bro_eai_exceeds_ellpack() {
        let mut ctx = ExpContext::new(0.02);
        ctx.matrix_filter = Some("venkat01".into());
        run(&mut ctx);
    }
}
