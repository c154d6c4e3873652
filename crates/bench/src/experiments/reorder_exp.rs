//! Fig. 9 and Table 5: the effect of BRO-aware reordering.
//!
//! For every Test Set 1 matrix: BRO-ELL performance without reordering and
//! after BAR, RCM and AMD row reorderings, plus ELLPACK as the floor
//! (Fig. 9), and the space savings after BAR (Table 5). The paper reports
//! BAR gaining ~7% on average while the non-BRO-aware orderings *lose*
//! ~4%.

use bro_core::reorder::{amd_order, bar_order, rcm_order, sorted_by_length_order, BarConfig};
use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::DeviceProfile;
use bro_kernels::bro_ell_spmv;
use bro_matrix::{suite, CooMatrix, Permutation};

use crate::context::ExpContext;
use crate::experiments::{build, geomean, run_kernel};
use crate::table::{f, pct, TextTable};

/// Published η after BAR (Table 5).
pub const PAPER_ETA_BAR: [(&str, f64); 16] = [
    ("cage12", 0.811),
    ("cant", 0.927),
    ("consph", 0.917),
    ("e40r5000", 0.954),
    ("epb3", 0.832),
    ("lhr71", 0.957),
    ("mc2depi", 0.507),
    ("pdb1HYS", 0.908),
    ("qcd5_4", 0.889),
    ("rim", 0.960),
    ("rma10", 0.949),
    ("shipsec1", 0.948),
    ("stomach", 0.823),
    ("torso3", 0.836),
    ("venkat01", 0.923),
    ("xenon2", 0.873),
];

/// Builds BRO-ELL directly, not through the registry: the study needs the
/// format's own η, which a registry kernel does not expose.
fn bro_gflops(dev: &DeviceProfile, coo: &CooMatrix<f64>, x: &[f64]) -> (f64, f64) {
    let bro: BroEll<f64> = BroEll::from_coo(coo, &BroEllConfig::default());
    let flops = 2 * coo.nnz() as u64;
    let r = run_kernel(dev, flops, 8, |s| bro_ell_spmv(s, &bro, x));
    (r.gflops, bro.space_savings().eta())
}

/// Runs the reordering study; `table_only` restricts output to Table 5.
pub fn run(ctx: &mut ExpContext, table_only: bool) {
    let dev = DeviceProfile::tesla_k20();
    let mut fig9 = TextTable::new(&[
        "Matrix",
        "ELL GF/s",
        "BRO-ELL GF/s",
        "+BAR GF/s",
        "+RCM GF/s",
        "+AMD GF/s",
        "+SORT GF/s",
    ]);
    let mut table5 = TextTable::new(&["Matrix", "eta BAR (paper)", "eta none", "eta BAR"]);
    let (mut g_bar, mut g_rcm, mut g_amd, mut g_sort) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for entry in ctx.select(suite::test_set_1()) {
        let coo = ctx.matrix(entry.name).clone();
        let x = ctx.input_vector(coo.cols());

        let (bar_p, _) = bar_order(&coo, &BarConfig::default());
        let (base_gf, base_eta) = bro_gflops(&dev, &coo, &x);
        let (bar_gf, bar_eta) = bro_gflops(&dev, &bar_p.apply_rows(&coo), &x);

        let paper_eta = PAPER_ETA_BAR
            .iter()
            .find(|(n, _)| *n == entry.name)
            .map(|(_, e)| pct(*e))
            .unwrap_or_else(|| "-".into());
        table5.row(vec![entry.name.to_string(), paper_eta, pct(base_eta), pct(bar_eta)]);

        if !table_only {
            let apply = |p: &Permutation| p.apply_rows(&coo);
            let (rcm_gf, _) = bro_gflops(&dev, &apply(&rcm_order(&coo)), &x);
            let (amd_gf, _) = bro_gflops(&dev, &apply(&amd_order(&coo)), &x);
            let (sort_gf, _) = bro_gflops(&dev, &apply(&sorted_by_length_order(&coo)), &x);
            let ell = build("ell", &coo);
            let r_ell = run_kernel(&dev, 2 * coo.nnz() as u64, 8, |s| ell.run(s, &x));
            g_bar.push(bar_gf / base_gf);
            g_rcm.push(rcm_gf / base_gf);
            g_amd.push(amd_gf / base_gf);
            g_sort.push(sort_gf / base_gf);
            fig9.row(vec![
                entry.name.to_string(),
                f(r_ell.gflops, 2),
                f(base_gf, 2),
                f(bar_gf, 2),
                f(rcm_gf, 2),
                f(amd_gf, 2),
                f(sort_gf, 2),
            ]);
        }
    }
    ctx.emit("table5", "Table 5: space savings after BAR reordering", &table5);
    if !table_only {
        ctx.emit("fig9", "Fig. 9: BAR vs RCM vs AMD (BRO-ELL, Tesla K20)", &fig9);
        let mut avg = TextTable::new(&["Reordering", "avg perf vs unordered BRO-ELL"]);
        avg.row(vec!["BAR".into(), geomean(&g_bar, 3)]);
        avg.row(vec!["RCM".into(), geomean(&g_rcm, 3)]);
        avg.row(vec!["AMD".into(), geomean(&g_amd, 3)]);
        avg.row(vec!["sort-by-length (ext.)".into(), geomean(&g_sort, 3)]);
        ctx.emit("fig9_avg", "Fig. 9 summary: average reordering effect", &avg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_covers_test_set_1() {
        let names: Vec<&str> = suite::test_set_1().iter().map(|e| e.name).collect();
        for (n, _) in PAPER_ETA_BAR {
            assert!(names.contains(&n));
        }
    }

    #[test]
    fn table5_only_on_one_matrix() {
        let mut ctx = ExpContext::new(0.01);
        ctx.matrix_filter = Some("epb3".into());
        run(&mut ctx, true);
    }
}
