//! Extension experiment: single versus double precision.
//!
//! The paper evaluates double precision only, but its Table 1 highlights
//! the GTX680's weak DP unit (129 GFLOP/s vs. 3090 SP). In SP the value
//! stream halves (4 B instead of 8 B per element), making the *index*
//! stream a larger fraction of total traffic — so BRO compression helps SP
//! SpMV relatively more.

use bro_core::{BroEll, BroEllConfig};
use bro_gpu_sim::DeviceProfile;
use bro_kernels::{bro_ell_spmv, ell_spmv};
use bro_matrix::{CooMatrix, EllMatrix, Scalar};

use crate::context::ExpContext;
use crate::experiments::run_kernel;
use crate::table::{f, TextTable};

fn to_f32(a: &CooMatrix<f64>) -> CooMatrix<f32> {
    let rows: Vec<usize> = a.row_indices().iter().map(|&r| r as usize).collect();
    let cols: Vec<usize> = a.col_indices().iter().map(|&c| c as usize).collect();
    let vals: Vec<f32> = a.values().iter().map(|&v| v as f32).collect();
    CooMatrix::from_triplets(a.rows(), a.cols(), &rows, &cols, &vals).unwrap()
}

/// ELLPACK and BRO-ELL GFLOP/s at `T`'s precision. Both are built
/// directly: the registry's kernels are f64 only.
fn gflops<T: Scalar>(dev: &DeviceProfile, a: &CooMatrix<T>, x: &[T]) -> (f64, f64) {
    let flops = 2 * a.nnz() as u64;
    let ell = EllMatrix::from_coo(a);
    let bro: BroEll<T> = BroEll::from_coo(a, &BroEllConfig::default());
    let r_ell = run_kernel(dev, flops, T::BYTES, |s| ell_spmv(s, &ell, x));
    let r_bro = run_kernel(dev, flops, T::BYTES, |s| bro_ell_spmv(s, &bro, x));
    (r_ell.gflops, r_bro.gflops)
}

/// Runs the SP/DP comparison on a few representative matrices.
pub fn run(ctx: &mut ExpContext) {
    let mut t =
        TextTable::new(&["Matrix", "Device", "prec", "ELL GF/s", "BRO-ELL GF/s", "speedup"]);
    for name in ctx.select(["cant", "stomach", "qcd5_4"]) {
        let a64 = ctx.matrix(name).clone();
        let a32 = to_f32(&a64);
        let x64 = ctx.input_vector(a64.cols());
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        for dev in &ctx.devices {
            let runs = [("f64", gflops(dev, &a64, &x64)), ("f32", gflops(dev, &a32, &x32))];
            for (prec, (ell, bro)) in runs {
                t.row(vec![
                    name.into(),
                    dev.name.into(),
                    prec.into(),
                    f(ell, 2),
                    f(bro, 2),
                    f(bro / ell, 2),
                ]);
            }
        }
    }
    ctx.emit("precision", "Extension: single vs double precision BRO-ELL", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_one_matrix() {
        let mut ctx = ExpContext::new(0.01);
        ctx.devices.truncate(1);
        ctx.matrix_filter = Some("qcd5_4".into());
        run(&mut ctx);
    }

    #[test]
    fn f32_conversion_preserves_structure() {
        let mut ctx = ExpContext::new(0.01);
        let a = ctx.matrix("cant").clone();
        let b = to_f32(&a);
        assert_eq!(a.nnz(), b.nnz());
        assert_eq!(a.row_indices(), b.row_indices());
    }
}
