//! Extension experiment: multiple threads per row for BRO-ELL (the paper's
//! future work). Sweeps the thread count on matrices with few rows — where
//! the single-thread-per-row kernel cannot fill the device (the Fig. 6
//! `e40r5000` regime) — and on a tall matrix where splitting only hurts.

use bro_gpu_sim::DeviceProfile;
use bro_kernels::bro_ell_multirow_spmv;

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, pct, TextTable};

/// Thread-per-row sweep values.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the sweep on a short-and-fat matrix and a reference tall matrix.
pub fn run(ctx: &mut ExpContext) {
    let dev = DeviceProfile::tesla_k20();
    let mut t = TextTable::new(&["Matrix", "threads/row", "GFLOP/s", "occupancy", "vs t=1"]);
    for name in ctx.select(["e40r5000", "rim", "cant"]) {
        let coo = ctx.matrix(name).clone();
        let x = ctx.input_vector(coo.cols());
        let flops = 2 * coo.nnz() as u64;
        let mut base = None;
        for &threads in THREADS.iter() {
            // Run directly: the registry's `multirow` fixes the thread count.
            let r = run_kernel(&dev, flops, 8, |s| {
                bro_ell_multirow_spmv(s, &coo, &x, threads, &Default::default())
            });
            let base_gf = *base.get_or_insert(r.gflops);
            t.row(vec![
                name.to_string(),
                threads.to_string(),
                f(r.gflops, 2),
                pct(r.occupancy),
                f(r.gflops / base_gf, 2),
            ]);
        }
    }
    ctx.emit("multirow", "Extension: multiple threads per row (BRO-ELL, Tesla K20)", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs() {
        let mut ctx = ExpContext::new(0.01);
        ctx.matrix_filter = Some("rim".into());
        run(&mut ctx);
    }
}
