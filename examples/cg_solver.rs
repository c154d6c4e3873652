//! Conjugate-Gradient solve of a 2D Poisson problem with the SpMV inner
//! loop running on the simulated GPU — the workload the paper's
//! introduction motivates: the matrix is compressed **once** offline, then
//! multiplied hundreds of times, so the BRO traffic savings compound every
//! iteration.
//!
//! ```sh
//! cargo run --release --example cg_solver
//! ```

use bro_spmv::gpu_sim::KernelReport;
use bro_spmv::matrix::generate::laplacian_2d;
use bro_spmv::prelude::*;

fn main() {
    let n = 96; // 9216 unknowns
    let a = laplacian_2d::<f64>(n);
    let m = a.rows();
    println!("solving A x = b, A: {}", a.stats());

    // Right-hand side: a point source in the middle of the grid.
    let mut b = vec![0.0f64; m];
    b[m / 2 + n / 2] = 1.0;

    let opts = CgOptions { max_iters: 500, tol: 1e-8 };

    // CPU reference solve.
    let csr = CsrMatrix::from_coo(&a);
    let (x_ref, stats_ref) = cg(|v| csr.spmv(v).unwrap(), &b, &opts);
    println!(
        "CPU CSR      : {} iterations, residual {:.2e}",
        stats_ref.iterations, stats_ref.residual
    );

    // Simulated-GPU solve with BRO-ELL SpMV; the simulator accumulates
    // traffic and timing across all iterations.
    let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
    sim.reset_stats();
    let mut spmv_calls = 0usize;
    let (x_gpu, stats_gpu) = cg(
        |v| {
            spmv_calls += 1;
            // Accumulate stats across iterations instead of resetting.
            let mut iter_sim = DeviceSim::new(DeviceProfile::tesla_k20());
            let y = bro_ell_spmv(&mut iter_sim, &bro, v);
            sim.absorb(&iter_sim);
            y
        },
        &b,
        &opts,
    );
    println!(
        "simulated GPU: {} iterations, residual {:.2e}",
        stats_gpu.iterations, stats_gpu.residual
    );
    assert!(stats_gpu.converged && stats_ref.converged);

    // Solutions agree.
    let max_diff = x_ref.iter().zip(&x_gpu).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("max |x_cpu - x_gpu| = {max_diff:.2e}");
    assert!(max_diff < 1e-6);

    let report = KernelReport::from_device(&sim, 2 * (a.nnz() * spmv_calls) as u64, 8);
    println!(
        "{} SpMV calls on the device: {:.2} GFLOP/s sustained, {:.1} MB total DRAM traffic",
        spmv_calls,
        report.gflops,
        report.dram_bytes as f64 / 1e6
    );
    println!(
        "one-time compression saved {:.1}% of index traffic on every iteration",
        bro.space_savings().eta() * 100.0
    );
}
