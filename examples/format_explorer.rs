//! Format explorer: picks a matrix from the paper's Table 2 suite (or a
//! MatrixMarket file) and compares every kernel of the registry — COO,
//! ELLPACK, ELLPACK-R, HYB, their BRO counterparts and the extension
//! formats — on all three simulated GPUs. It panics if any kernel's result
//! differs from the CPU reference.
//!
//! ```sh
//! cargo run --release --example format_explorer -- cant
//! cargo run --release --example format_explorer -- path/to/matrix.mtx
//! ```

use bro_spmv::core::{BroCoo, BroCooConfig, BroHyb, BroHybConfig};
use bro_spmv::kernels::registry;
use bro_spmv::matrix::{io::read_matrix_market_file, suite};
use bro_spmv::prelude::*;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "cant".to_string());
    let a: CooMatrix<f64> = if arg.ends_with(".mtx") {
        read_matrix_market_file(&arg).expect("failed to read MatrixMarket file")
    } else {
        let entry = suite::by_name(&arg).unwrap_or_else(|| {
            eprintln!("unknown matrix '{arg}'; available:");
            for e in suite::full_suite() {
                eprintln!("  {}", e.name);
            }
            std::process::exit(2);
        });
        // A tenth-scale stand-in keeps this example fast.
        entry.spec(0.1).generate()
    };
    println!("{arg}: {}", a.stats());

    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let reference = csr_spmv(&CsrMatrix::from_coo(&a), &x);
    let flops = 2 * a.nnz() as u64;

    let bro_ell: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    let bro_coo: BroCoo<f64> = BroCoo::compress(&a, &BroCooConfig::default());
    let bro_hyb: BroHyb<f64> = BroHyb::from_coo(&a, &BroHybConfig::default());
    println!(
        "BRO-ELL eta = {:.1}%   BRO-COO eta = {:.1}%   BRO-HYB eta = {:.1}% ({}% of nnz in ELL part)",
        bro_ell.space_savings().eta() * 100.0,
        bro_coo.space_savings().eta() * 100.0,
        bro_hyb.space_savings().eta() * 100.0,
        (bro_hyb.ell_fraction() * 100.0).round()
    );

    println!("\n{:<12} {:>14} {:>14} {:>14}", "format", "C2070 GF/s", "GTX680 GF/s", "K20 GF/s");
    let verify = |y: &[f64]| {
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "kernel diverged from reference");
        }
    };
    for &kernel in registry::all() {
        // Compress once, run on every device.
        let prepared = kernel.build_from_coo(&a);
        let mut cells = Vec::new();
        for profile in DeviceProfile::evaluation_set() {
            let mut sim = DeviceSim::new(profile);
            verify(&prepared.run(&mut sim, &x));
            let r = KernelReport::from_device(&sim, flops, 8);
            cells.push(format!("{:>14.2}", r.gflops));
        }
        println!("{:<12} {}", kernel.name(), cells.join(" "));
    }
}
