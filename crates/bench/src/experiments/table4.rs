//! Table 4: BRO-HYB partitioning of Test Set 2 — the fraction of non-zeros
//! landing in the BRO-ELL part and the combined index space savings η.

use bro_core::{BroHyb, BroHybConfig};
use bro_matrix::suite;

use crate::context::ExpContext;
use crate::table::{pct, TextTable};

/// Published (% BRO-ELL, η) values for comparison.
pub const PAPER: [(&str, f64, f64); 14] = [
    ("bcsstk32", 0.966, 0.604),
    ("cop20k_A", 0.823, 0.467),
    ("ct20stif", 0.907, 0.559),
    ("gupta2", 0.500, 0.438),
    ("hvdc2", 0.869, 0.455),
    ("mac_econ", 0.811, 0.516),
    ("ohne2", 0.965, 0.495),
    ("pwtk", 0.994, 0.787),
    ("rail4284", 0.0085, 0.452),
    ("rajat30", 0.681, 0.345),
    ("scircuit", 0.782, 0.366),
    ("sme3Da", 0.836, 0.556),
    ("twotone", 0.618, 0.488),
    ("webbase-1M", 0.642, 0.134),
];

/// Computes the partition and savings for every Test Set 2 matrix.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&[
        "Matrix",
        "%BRO-ELL (paper)",
        "%BRO-ELL (measured)",
        "eta (paper)",
        "eta (measured)",
    ]);
    for entry in ctx.select(suite::test_set_2()) {
        let coo = ctx.matrix(entry.name);
        let bro: BroHyb<f64> = BroHyb::from_coo(coo, &BroHybConfig::default());
        let paper = PAPER.iter().find(|(n, _, _)| *n == entry.name);
        t.row(vec![
            entry.name.to_string(),
            paper.map(|(_, p, _)| pct(*p)).unwrap_or_else(|| "-".into()),
            pct(bro.ell_fraction()),
            paper.map(|(_, _, e)| pct(*e)).unwrap_or_else(|| "-".into()),
            pct(bro.space_savings().eta()),
        ]);
    }
    ctx.emit("table4", "Table 4: BRO-HYB partitioning and space savings (Test Set 2)", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_cover_test_set_2() {
        let names: Vec<&str> = suite::test_set_2().iter().map(|e| e.name).collect();
        for (n, _, _) in PAPER {
            assert!(names.contains(&n), "{n} not in test set 2");
        }
        assert_eq!(PAPER.len(), 14);
    }

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.02);
        ctx.matrix_filter = Some("sme3Da".into());
        run(&mut ctx);
    }
}
