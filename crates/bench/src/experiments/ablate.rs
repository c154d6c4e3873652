//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * slice height `h` (the paper fixes 256 — the thread block size);
//! * symbol length `sym_len` (32 vs 64 bits);
//! * BRO-COO interval length.

use bro_core::{BroCoo, BroCooConfig, BroEll, BroEllConfig};
use bro_gpu_sim::DeviceProfile;
use bro_kernels::{bro_coo_spmv, bro_ell_spmv};

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, pct, TextTable};

/// Slice heights swept.
pub const HEIGHTS: [usize; 5] = [32, 64, 128, 256, 512];
/// Interval lengths swept.
pub const INTERVALS: [usize; 4] = [256, 512, 1024, 4096];

/// Runs all ablations on a representative FEM matrix. Every format is built
/// directly: each sweep varies a config (`h`, the symbol type, the interval)
/// or the device's texture cache, which the registry's defaults fix.
pub fn run(ctx: &mut ExpContext) {
    let dev = DeviceProfile::tesla_k20();
    let name = if ctx.selected("cant") { "cant" } else { "consph" };
    let coo = ctx.matrix(name).clone();
    let x = ctx.input_vector(coo.cols());
    let flops = 2 * coo.nnz() as u64;

    // Slice height sweep.
    let mut t_h = TextTable::new(&["h", "eta", "GFLOP/s"]);
    for &h in HEIGHTS.iter() {
        let cfg = BroEllConfig { slice_height: h, ..Default::default() };
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &cfg);
        let r = run_kernel(&dev, flops, 8, |s| bro_ell_spmv(s, &bro, &x));
        t_h.row(vec![h.to_string(), pct(bro.space_savings().eta()), f(r.gflops, 2)]);
    }
    ctx.emit("ablate_h", &format!("Ablation: slice height h ({name}, Tesla K20)"), &t_h);

    // Symbol length: 32 vs 64 bits.
    let mut t_sym = TextTable::new(&["sym_len", "eta", "GFLOP/s"]);
    {
        let bro32: BroEll<f64, u32> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let r32 = run_kernel(&dev, flops, 8, |s| bro_ell_spmv(s, &bro32, &x));
        t_sym.row(vec!["32".into(), pct(bro32.space_savings().eta()), f(r32.gflops, 2)]);
        let bro64: BroEll<f64, u64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let r64 = run_kernel(&dev, flops, 8, |s| bro_ell_spmv(s, &bro64, &x));
        t_sym.row(vec!["64".into(), pct(bro64.space_savings().eta()), f(r64.gflops, 2)]);
    }
    ctx.emit("ablate_sym", &format!("Ablation: symbol length ({name}, Tesla K20)"), &t_sym);

    // BRO-COO interval length.
    let mut t_iv = TextTable::new(&["interval", "eta", "GFLOP/s"]);
    for &ilen in INTERVALS.iter() {
        let cfg = BroCooConfig { interval_len: ilen, warp_size: 32 };
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &cfg);
        let r = run_kernel(&dev, flops, 8, |s| bro_coo_spmv(s, &bro, &x));
        t_iv.row(vec![ilen.to_string(), pct(bro.space_savings().eta()), f(r.gflops, 2)]);
    }
    ctx.emit(
        "ablate_interval",
        &format!("Ablation: BRO-COO interval length ({name}, Tesla K20)"),
        &t_iv,
    );

    // Texture cache: default size vs effectively disabled (a single line).
    // Quantifies how much of SpMV performance rides on x-vector locality.
    let mut t_tex = TextTable::new(&["tex cache", "GFLOP/s", "tex hit rate", "DRAM MB"]);
    let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
    for (label, bytes) in [("48 KiB (default)", dev.tex_cache_bytes), ("disabled", 0)] {
        let mut small_dev = dev.clone();
        small_dev.tex_cache_bytes = bytes;
        let r = run_kernel(&small_dev, flops, 8, |s| bro_ell_spmv(s, &bro, &x));
        t_tex.row(vec![
            label.into(),
            f(r.gflops, 2),
            pct(r.stats.tex_hit_rate()),
            f(r.dram_bytes as f64 / 1e6, 2),
        ]);
    }
    ctx.emit("ablate_tex", &format!("Ablation: texture cache ({name}, Tesla K20)"), &t_tex);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_at_tiny_scale() {
        let mut ctx = ExpContext::new(0.005);
        run(&mut ctx);
    }
}
