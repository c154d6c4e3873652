//! Table 3: index space savings η achieved by BRO-ELL on Test Set 1.

use bro_core::{BroEll, BroEllConfig};
use bro_matrix::suite;

use crate::context::ExpContext;
use crate::table::{pct, TextTable};

/// Published η values (%) for comparison in the output.
pub const PAPER_ETA: [(&str, f64); 16] = [
    ("cage12", 0.780),
    ("cant", 0.859),
    ("consph", 0.853),
    ("e40r5000", 0.925),
    ("epb3", 0.832),
    ("lhr71", 0.921),
    ("mc2depi", 0.507),
    ("pdb1HYS", 0.892),
    ("qcd5_4", 0.877),
    ("rim", 0.927),
    ("rma10", 0.908),
    ("shipsec1", 0.929),
    ("stomach", 0.707),
    ("torso3", 0.759),
    ("venkat01", 0.902),
    ("xenon2", 0.740),
];

/// Computes η for every Test Set 1 matrix.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&["Matrix", "eta (paper)", "eta (measured)", "kappa"]);
    for entry in ctx.select(suite::test_set_1()) {
        let coo = ctx.matrix(entry.name);
        let bro: BroEll<f64> = BroEll::from_coo(coo, &BroEllConfig::default());
        let s = bro.space_savings();
        let paper = PAPER_ETA
            .iter()
            .find(|(n, _)| *n == entry.name)
            .map(|(_, e)| pct(*e))
            .unwrap_or_else(|| "-".into());
        t.row(vec![entry.name.to_string(), paper, pct(s.eta()), format!("{:.2}x", s.kappa())]);
    }
    ctx.emit("table3", "Table 3: BRO-ELL index space savings (Test Set 1)", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_eta_covers_test_set_1() {
        let names: Vec<&str> = suite::test_set_1().iter().map(|e| e.name).collect();
        for (n, _) in PAPER_ETA {
            assert!(names.contains(&n), "{n} not in test set 1");
        }
        assert_eq!(PAPER_ETA.len(), 16);
    }

    #[test]
    fn runs_on_one_matrix() {
        let mut ctx = ExpContext::new(0.02);
        ctx.matrix_filter = Some("venkat01".into());
        run(&mut ctx);
    }

    /// The shape claim behind Table 3: measured compressibility must *rank*
    /// the matrices like the paper does, even where absolute η differs.
    #[test]
    fn measured_eta_rank_correlates_with_paper() {
        use bro_core::{BroEll, BroEllConfig};
        let mut ctx = ExpContext::new(0.02);
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for (name, paper_eta) in PAPER_ETA {
            let coo = ctx.matrix(name).clone();
            let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
            pairs.push((paper_eta, bro.space_savings().eta()));
        }
        // Spearman rank correlation.
        let rank = |vals: &[f64]| -> Vec<f64> {
            let mut idx: Vec<usize> = (0..vals.len()).collect();
            idx.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
            let mut r = vec![0.0; vals.len()];
            for (pos, &i) in idx.iter().enumerate() {
                r[i] = pos as f64;
            }
            r
        };
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let (rx, ry) = (rank(&xs), rank(&ys));
        let n = rx.len() as f64;
        let d2: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - b).powi(2)).sum();
        let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
        assert!(rho > 0.5, "Spearman rho = {rho:.2}; compressibility ranking diverged");
    }
}
