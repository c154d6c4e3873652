//! Extension experiment: value-data compression (the paper's future work).
//!
//! Reports, per matrix, the dictionary compressibility of the value stream
//! and the combined index+value savings when stacked on BRO-ELL. Synthetic
//! suite matrices carry random values (incompressible by design), so the
//! table also includes stencil workloads whose values repeat — the case the
//! extension targets.

use bro_core::{analyze_value_compression, BroEll, BroEllConfig};
use bro_matrix::{generate::laplacian_2d, suite, CooMatrix};

use crate::context::ExpContext;
use crate::table::{pct, TextTable};

fn report_row(name: &str, coo: &CooMatrix<f64>, t: &mut TextTable) {
    let idx = BroEll::<f64>::from_coo(coo, &BroEllConfig::default()).space_savings();
    let val = analyze_value_compression(coo);
    let combined_orig = idx.original_bytes + val.original_bytes;
    let combined_comp = idx.compressed_bytes + val.compressed_bytes;
    let combined = 1.0 - combined_comp as f64 / combined_orig.max(1) as f64;
    t.row(vec![name.to_string(), pct(idx.eta()), pct(val.eta()), pct(combined)]);
}

/// Runs the value-compression analysis.
pub fn run(ctx: &mut ExpContext) {
    let mut t =
        TextTable::new(&["Matrix", "index eta (BRO-ELL)", "value eta (dict)", "combined eta"]);
    // Stencil workloads with repeating coefficients.
    let lap = laplacian_2d::<f64>(((300.0 * ctx.scale.sqrt()) as usize).max(32));
    report_row("laplace2d (stencil)", &lap, &mut t);
    for entry in ctx.select(suite::test_set_1()) {
        let coo = ctx.matrix(entry.name).clone();
        report_row(entry.name, &coo, &mut t);
    }
    ctx.emit("values", "Extension: value-stream dictionary compression on top of BRO-ELL", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_values_compress() {
        let mut ctx = ExpContext::new(0.01);
        ctx.matrix_filter = Some("qcd5_4".into());
        run(&mut ctx);
    }
}
