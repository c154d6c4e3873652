//! End-to-end integration tests spanning every crate: generate → reorder →
//! compress → simulate → validate against the CPU reference.

use bro_spmv::core::{BroCoo, BroCooConfig, BroHyb, BroHybConfig};
use bro_spmv::gpu_sim::KernelReport;
use bro_spmv::kernels::{bro_coo_spmv, bro_hyb_spmv, coo_spmv, hyb_spmv};
use bro_spmv::matrix::scalar::assert_vec_approx_eq;
use bro_spmv::matrix::suite;
use bro_spmv::prelude::*;

fn input(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| 1.0 + ((i * 37) % 19) as f64 * 0.21).collect()
}

/// Every kernel and every format agree with the CPU reference on a
/// realistic suite matrix.
#[test]
fn all_formats_agree_on_suite_matrix() {
    let entry = suite::by_name("venkat01").unwrap();
    let a: CooMatrix<f64> = entry.spec(0.02).generate();
    let x = input(a.cols());
    let reference = csr_spmv(&CsrMatrix::from_coo(&a), &x);

    let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());

    let ell = EllMatrix::from_coo(&a);
    assert_vec_approx_eq(&ell_spmv(&mut sim, &ell, &x), &reference, 1e-10);

    let ellr = EllRMatrix::from_coo(&a);
    assert_vec_approx_eq(&ellr_spmv(&mut sim, &ellr, &x), &reference, 1e-10);

    assert_vec_approx_eq(&coo_spmv(&mut sim, &a, &x), &reference, 1e-9);

    let hyb = HybMatrix::from_coo(&a);
    assert_vec_approx_eq(&hyb_spmv(&mut sim, &hyb, &x), &reference, 1e-9);

    let bro_ell: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    assert_vec_approx_eq(&bro_ell_spmv(&mut sim, &bro_ell, &x), &reference, 1e-10);

    let bro_coo: BroCoo<f64> = BroCoo::compress(&a, &BroCooConfig::default());
    assert_vec_approx_eq(&bro_coo_spmv(&mut sim, &bro_coo, &x), &reference, 1e-9);

    let bro_hyb: BroHyb<f64> = BroHyb::from_coo(&a, &BroHybConfig::default());
    assert_vec_approx_eq(&bro_hyb_spmv(&mut sim, &bro_hyb, &x), &reference, 1e-9);
}

/// The full pipeline with BAR reordering: compression improves (or at
/// least does not regress), and the permuted product is the permuted
/// reference.
#[test]
fn reordered_pipeline_end_to_end() {
    let entry = suite::by_name("rma10").unwrap();
    let a: CooMatrix<f64> = entry.spec(0.02).generate();
    let x = input(a.cols());
    let y_ref = csr_spmv(&CsrMatrix::from_coo(&a), &x);

    let (p, _) = bar_order(&a, &BarConfig::default());
    let pa = p.apply_rows(&a);

    let before: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    let after: BroEll<f64> = BroEll::from_coo(&pa, &BroEllConfig::default());
    assert!(
        after.space_savings().eta() >= before.space_savings().eta() - 0.02,
        "BAR must not materially hurt compression: {} -> {}",
        before.space_savings().eta(),
        after.space_savings().eta()
    );

    let mut sim = DeviceSim::new(DeviceProfile::tesla_c2070());
    let y_perm = bro_ell_spmv(&mut sim, &after, &x);
    assert_vec_approx_eq(&y_perm, &p.apply_vec(&y_ref), 1e-10);
}

/// The headline result of the paper holds on the simulator: BRO-ELL beats
/// ELLPACK on a compressible FEM matrix on every device.
#[test]
fn bro_ell_beats_ellpack_on_fem_matrix() {
    let entry = suite::by_name("shipsec1").unwrap();
    let a: CooMatrix<f64> = entry.spec(0.03).generate();
    let x = input(a.cols());
    let flops = 2 * a.nnz() as u64;
    let ell = EllMatrix::from_coo(&a);
    let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    assert!(bro.space_savings().eta() > 0.7, "FEM matrix must compress well");

    for profile in DeviceProfile::evaluation_set() {
        let mut s1 = DeviceSim::new(profile.clone());
        ell_spmv(&mut s1, &ell, &x);
        let r_ell = KernelReport::from_device(&s1, flops, 8);
        let mut s2 = DeviceSim::new(profile.clone());
        bro_ell_spmv(&mut s2, &bro, &x);
        let r_bro = KernelReport::from_device(&s2, flops, 8);
        assert!(
            r_bro.gflops > r_ell.gflops,
            "{}: BRO-ELL {:.2} <= ELLPACK {:.2}",
            profile.name,
            r_bro.gflops,
            r_ell.gflops
        );
    }
}

/// CG on the simulated device converges to the CPU solution, exercising
/// solver + kernel + compression together.
#[test]
fn cg_with_simulated_bro_ell_matches_cpu() {
    let a = bro_spmv::matrix::generate::laplacian_2d::<f64>(24);
    let csr = CsrMatrix::from_coo(&a);
    let b: Vec<f64> = (0..a.rows()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let opts = CgOptions { max_iters: 400, tol: 1e-9 };

    let (x_cpu, s_cpu) = cg(|v| csr.spmv(v).unwrap(), &b, &opts);
    assert!(s_cpu.converged);

    let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    let (x_gpu, s_gpu) = cg(
        |v| {
            let mut sim = DeviceSim::new(DeviceProfile::gtx680());
            bro_ell_spmv(&mut sim, &bro, v)
        },
        &b,
        &opts,
    );
    assert!(s_gpu.converged);
    assert_vec_approx_eq(&x_cpu, &x_gpu, 1e-6);
}

/// MatrixMarket round trip feeds the whole pipeline: write a generated
/// matrix, read it back, compress, simulate.
#[test]
fn matrix_market_file_through_pipeline() {
    let entry = suite::by_name("epb3").unwrap();
    let a: CooMatrix<f64> = entry.spec(0.01).generate();
    let path = std::env::temp_dir().join("bro_spmv_e2e.mtx");
    bro_spmv::matrix::io::write_matrix_market_file(&a, &path).unwrap();
    let back: CooMatrix<f64> = bro_spmv::matrix::io::read_matrix_market_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.nnz(), a.nnz());

    let x = input(back.cols());
    let bro: BroEll<f64> = BroEll::from_coo(&back, &BroEllConfig::default());
    let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
    let y = bro_ell_spmv(&mut sim, &bro, &x);
    assert_vec_approx_eq(&y, &csr_spmv(&CsrMatrix::from_coo(&back), &x), 1e-10);
}

/// Compression must be byte-identical across repeated runs (determinism of
/// the whole offline pipeline, including parallel slice compression).
#[test]
fn compression_is_deterministic() {
    let entry = suite::by_name("torso3").unwrap();
    let a: CooMatrix<f64> = entry.spec(0.01).generate();
    let b1: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    let b2: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
    assert_eq!(b1, b2);
    let c1: BroCoo<f64> = BroCoo::compress(&a, &BroCooConfig::default());
    let c2: BroCoo<f64> = BroCoo::compress(&a, &BroCooConfig::default());
    assert_eq!(c1, c2);
}
