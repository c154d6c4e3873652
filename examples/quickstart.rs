//! Quickstart: build a sparse matrix, compress it with BRO-ELL, and run
//! SpMV on a simulated Tesla K20, comparing traffic and performance against
//! the classical ELLPACK kernel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bro_spmv::gpu_sim::KernelReport;
use bro_spmv::matrix::generate::laplacian_2d;
use bro_spmv::prelude::*;

fn main() {
    // A 2D Poisson problem: the classic memory-bound SpMV workload.
    let n = 256;
    let a = laplacian_2d::<f64>(n);
    println!("matrix: {}", a.stats());

    // Offline (host-side) compression into BRO-ELL.
    let ell = EllMatrix::from_coo(&a);
    let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    let savings = bro.space_savings();
    println!(
        "index compression: {} -> {} bytes (eta = {:.1}%, kappa = {:.2}x)",
        savings.original_bytes,
        savings.compressed_bytes,
        savings.eta() * 100.0,
        savings.kappa()
    );

    // The input vector and the CPU reference.
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 10) as f64 * 0.1).collect();
    let reference = csr_spmv(&CsrMatrix::from_coo(&a), &x);

    // Simulated SpMV: ELLPACK baseline, then BRO-ELL.
    let flops = 2 * a.nnz() as u64;
    let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());

    let y_ell = ell_spmv(&mut sim, &ell, &x);
    assert_eq!(y_ell, reference, "ELLPACK kernel must match the CPU reference");
    let r_ell = KernelReport::from_device(&sim, flops, 8);
    println!("ELLPACK : {r_ell}");

    let y_bro = bro_ell_spmv(&mut sim, &bro, &x);
    assert_eq!(y_bro, reference, "BRO-ELL kernel must match the CPU reference");
    let r_bro = KernelReport::from_device(&sim, flops, 8);
    println!("BRO-ELL : {r_bro}");

    println!(
        "speedup: {:.2}x from {:.1}% less DRAM traffic",
        r_bro.gflops / r_ell.gflops,
        (1.0 - r_bro.dram_bytes as f64 / r_ell.dram_bytes as f64) * 100.0
    );
}
