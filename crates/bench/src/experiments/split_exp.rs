//! Extension experiment: the HYB dividing width.
//!
//! The paper (and cusp) fix the BRO-HYB split with the Bell–Garland
//! one-third heuristic. This ablation sweeps the split across row-length
//! quantiles on skewed Test Set 2 matrices and checks where the simulated
//! optimum falls relative to the heuristic.

use bro_core::{BroHyb, BroHybConfig};
use bro_gpu_sim::DeviceProfile;
use bro_kernels::bro_hyb_spmv;
use bro_matrix::HybMatrix;

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, pct, TextTable};

/// Row-length quantiles swept for the split width.
pub const QUANTILES: [f64; 5] = [0.25, 0.5, 0.66, 0.85, 0.95];

fn quantile_len(lengths: &mut [u32], q: f64) -> usize {
    lengths.sort_unstable();
    let idx = ((lengths.len() as f64 - 1.0) * q).round() as usize;
    lengths[idx] as usize
}

/// Runs the sweep on skewed matrices.
pub fn run(ctx: &mut ExpContext) {
    let dev = DeviceProfile::tesla_k20();
    let mut t = TextTable::new(&["Matrix", "split k", "source", "%ELL", "eta", "GFLOP/s"]);
    for name in ctx.select(["twotone", "gupta2", "scircuit"]) {
        let a = ctx.matrix(name).clone();
        let x = ctx.input_vector(a.cols());
        let flops = 2 * a.nnz() as u64;
        let mut lens = a.row_lengths();

        let heuristic_k = HybMatrix::<f64>::split_width(&lens);
        let mut candidates: Vec<(usize, String)> = vec![(heuristic_k, "1/3 heuristic".into())];
        for &q in QUANTILES.iter() {
            let k = quantile_len(&mut lens, q);
            if !candidates.iter().any(|(ck, _)| *ck == k) {
                candidates.push((k, format!("p{:.0}", q * 100.0)));
            }
        }
        candidates.sort_by_key(|&(k, _)| k);

        for (k, source) in candidates {
            // Built directly: the registry's BRO-HYB always splits at HYB's width.
            let bro: BroHyb<f64> =
                BroHyb::from_coo(&a, &BroHybConfig { split_k: Some(k), ..Default::default() });
            let r = run_kernel(&dev, flops, 8, |s| bro_hyb_spmv(s, &bro, &x));
            t.row(vec![
                name.to_string(),
                k.to_string(),
                source,
                pct(bro.ell_fraction()),
                pct(bro.space_savings().eta()),
                f(r.gflops, 2),
            ]);
        }
    }
    ctx.emit("split", "Extension: BRO-HYB split-width sweep (Tesla K20)", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_sorted() {
        let mut lens = vec![1u32, 3, 5, 7, 100];
        assert_eq!(quantile_len(&mut lens, 0.5), 5);
        assert_eq!(quantile_len(&mut lens, 0.0), 1);
        assert_eq!(quantile_len(&mut lens, 1.0), 100);
    }

    #[test]
    fn sweep_runs() {
        let mut ctx = ExpContext::new(0.01);
        ctx.matrix_filter = Some("scircuit".into());
        run(&mut ctx);
    }
}
