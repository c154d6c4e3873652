//! Reordering tuner: shows how BRO-aware row reordering (BAR, Algorithm 2
//! of the paper) improves compressibility compared to the classical RCM and
//! minimum-degree orderings, and what that does to simulated SpMV
//! performance.
//!
//! ```sh
//! cargo run --release --example reorder_tuning -- rma10
//! ```

use bro_spmv::gpu_sim::KernelReport;
use bro_spmv::matrix::suite;
use bro_spmv::prelude::*;

fn measure(name: &str, a: &CooMatrix<f64>, x: &[f64]) {
    let bro: BroEll<f64> = BroEll::from_coo(a, &BroEllConfig::default());
    let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
    let y = bro_ell_spmv(&mut sim, &bro, x);
    std::hint::black_box(y);
    let r = KernelReport::from_device(&sim, 2 * a.nnz() as u64, 8);
    println!(
        "{name:<12} eta = {:>5.1}%   {:>6.2} GFLOP/s   {:>7.2} MB DRAM",
        bro.space_savings().eta() * 100.0,
        r.gflops,
        r.dram_bytes as f64 / 1e6
    );
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "rma10".to_string());
    let entry = suite::by_name(&arg).unwrap_or_else(|| {
        eprintln!("unknown matrix '{arg}'");
        std::process::exit(2);
    });
    let a: CooMatrix<f64> = entry.spec(0.08).generate();
    println!("{}: {}\n", entry.name, a.stats());
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();

    measure("original", &a, &x);

    let t0 = std::time::Instant::now();
    let (p_bar, phi) = bar_order(&a, &BarConfig::default());
    println!(
        "\nBAR clustering finished in {:.2}s (objective phi = {phi})",
        t0.elapsed().as_secs_f64()
    );
    measure("BAR", &p_bar.apply_rows(&a), &x);
    measure("RCM", &rcm_order(&a).apply_rows(&a), &x);
    measure("AMD", &amd_order(&a).apply_rows(&a), &x);

    println!(
        "\nNote: y comes out permuted as P*y; recover the original ordering with\n\
         the inverse permutation (Permutation::inverse), a free epilogue in an\n\
         iterative solver."
    );
}
