//! Extension experiment: the full format zoo — every kernel of the
//! registry (classical, BRO and the extension formats) on the Tesla K20,
//! plus the autotuner's pick per matrix.

use bro_gpu_sim::DeviceProfile;
use bro_kernels::{recommend_format, registry};

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, TextTable};

/// Matrices covering the structural regimes.
pub const MATRICES: [&str; 4] = ["consph", "mc2depi", "twotone", "scircuit"];

/// Runs the zoo on the Tesla K20.
pub fn run(ctx: &mut ExpContext) {
    let dev = DeviceProfile::tesla_k20();
    let mut t = TextTable::new(&["Matrix", "format", "GFLOP/s", "DRAM MB"]);
    let mut picks = TextTable::new(&["Matrix", "autotuner pick"]);
    for name in ctx.select(MATRICES) {
        let a = ctx.matrix(name).clone();
        let x = ctx.input_vector(a.cols());
        let flops = 2 * a.nnz() as u64;
        for &kernel in registry::all() {
            let prepared = kernel.build_from_coo(&a);
            let r = run_kernel(&dev, flops, 8, |s| prepared.run(s, &x));
            t.row(vec![
                name.to_string(),
                kernel.name().to_string(),
                f(r.gflops, 2),
                f(r.dram_bytes as f64 / 1e6, 2),
            ]);
        }
        let tune = recommend_format(&a, &x, &dev);
        picks.row(vec![name.to_string(), tune.best.to_string()]);
    }
    ctx.emit("formats", "Extension: full format comparison (Tesla K20)", &t);
    ctx.emit("formats_pick", "Extension: autotuner picks", &picks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_runs_on_one_matrix() {
        let mut ctx = ExpContext::new(0.01);
        ctx.matrix_filter = Some("mc2depi".into());
        run(&mut ctx);
    }
}
