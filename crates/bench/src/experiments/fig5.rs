//! Fig. 5: effective arithmetic intensity (EAI = useful flops per DRAM
//! byte) of BRO-ELL versus ELLPACK on the Tesla K20.

use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::DeviceProfile;
use bro_kernels::{bro_ell_spmv, ell_spmv};
use bro_matrix::{suite, EllMatrix};

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, TextTable};

/// Computes the EAI comparison on Test Set 1.
pub fn run(ctx: &mut ExpContext) {
    let k20 = DeviceProfile::tesla_k20();
    let mut t = TextTable::new(&["Matrix", "EAI ELLPACK", "EAI BRO-ELL", "ratio"]);
    for entry in suite::test_set_1() {
        if !ctx.selected(entry.name) {
            continue;
        }
        let coo = ctx.matrix(entry.name).clone();
        let ell = EllMatrix::from_coo(&coo);
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let x = ctx.input_vector(coo.cols());
        let flops = 2 * coo.nnz() as u64;
        let r_ell = run_kernel(&k20, flops, 8, |s| {
            ell_spmv(s, &ell, &x);
        });
        let r_bro = run_kernel(&k20, flops, 8, |s| {
            bro_ell_spmv(s, &bro, &x);
        });
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
