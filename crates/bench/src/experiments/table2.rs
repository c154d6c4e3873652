//! Table 2: the benchmark matrix suite — published statistics side by side
//! with the statistics of the generated stand-ins at the current scale.

use bro_matrix::suite;

use crate::context::ExpContext;
use crate::table::{f, TextTable};

/// Prints the suite overview.
pub fn run(ctx: &mut ExpContext) {
    let mut t = TextTable::new(&[
        "Matrix",
        "Set",
        "Dim (gen)",
        "nnz (gen)",
        "mu (paper)",
        "mu (gen)",
        "sigma (paper)",
        "sigma (gen)",
    ]);
    for entry in ctx.select(suite::full_suite()) {
        let m = ctx.matrix(entry.name);
        let s = m.stats();
        t.row(vec![
            entry.name.to_string(),
            match entry.test_set {
                suite::TestSet::One => "1".into(),
                suite::TestSet::Two => "2".into(),
            },
            format!("{}x{}", s.rows, s.cols),
            s.nnz.to_string(),
            f(entry.mu, 1),
            f(s.mean_row_len, 1),
            f(entry.sigma, 1),
            f(s.std_row_len, 1),
        ]);
    }
    ctx.emit(
        "table2",
        &format!("Table 2: benchmark matrices (generated at scale {})", ctx.scale),
        &t,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_whole_suite_at_tiny_scale() {
        let mut ctx = ExpContext::new(0.01);
        ctx.matrix_filter = Some("epb3".into());
        run(&mut ctx);
    }
}
