//! Workspace-level property tests: every simulated kernel computes the same
//! product as the CPU reference on arbitrary sparse matrices, and
//! serialization round-trips arbitrary compressed artifacts.

use bro_spmv::core::{
    read_bro_coo, read_bro_ell, write_bro_coo, write_bro_ell, BroCoo, BroCooConfig, BroEll,
    BroEllConfig, BroEllR, BroHyb, BroHybConfig,
};
use bro_spmv::kernels::{
    bro_coo_spmv, bro_ellr_spmv, bro_hyb_spmv, coo_spmv, csr_scalar_spmv, csr_vector_spmv,
    hyb_spmv, sliced_ell_spmv,
};
use bro_spmv::matrix::SlicedEllMatrix;
use bro_spmv::prelude::*;
use proptest::prelude::*;

fn arb_matrix_and_x() -> impl Strategy<Value = (CooMatrix<f64>, Vec<f64>)> {
    (1usize..60, 1usize..120).prop_flat_map(|(rows, cols)| {
        (
            prop::collection::vec((0..rows, 0..cols, -3.0f64..3.0), 0..300),
            prop::collection::vec(-2.0f64..2.0, cols),
        )
            .prop_map(move |(mut trips, x)| {
                trips.sort_by_key(|&(r, c, _)| (r, c));
                trips.dedup_by_key(|&mut (r, c, _)| (r, c));
                let (ri, (ci, vs)): (Vec<_>, (Vec<_>, Vec<_>)) =
                    trips.into_iter().map(|(r, c, v)| (r, (c, v))).unzip();
                (CooMatrix::from_triplets(rows, cols, &ri, &ci, &vs).unwrap(), x)
            })
    })
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9 * y.abs().max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_kernel_matches_reference((a, x) in arb_matrix_and_x()) {
        let reference = a.spmv_reference(&x).unwrap();
        let mut sim = DeviceSim::new(DeviceProfile::tesla_c2070());

        let ell = EllMatrix::from_coo(&a);
        prop_assert!(close(&ell_spmv(&mut sim, &ell, &x), &reference));
        let ellr = EllRMatrix::from_coo(&a);
        prop_assert!(close(&ellr_spmv(&mut sim, &ellr, &x), &reference));
        let csr = CsrMatrix::from_coo(&a);
        prop_assert!(close(&csr_scalar_spmv(&mut sim, &csr, &x), &reference));
        prop_assert!(close(&csr_vector_spmv(&mut sim, &csr, &x), &reference));
        let se = SlicedEllMatrix::from_coo(&a, 16);
        prop_assert!(close(&sliced_ell_spmv(&mut sim, &se, &x), &reference));
        prop_assert!(close(&coo_spmv(&mut sim, &a, &x), &reference));
        let hyb = HybMatrix::from_coo(&a);
        prop_assert!(close(&hyb_spmv(&mut sim, &hyb, &x), &reference));
    }

    #[test]
    fn every_bro_kernel_matches_reference((a, x) in arb_matrix_and_x(), h in 1usize..20) {
        let reference = a.spmv_reference(&x).unwrap();
        let mut sim = DeviceSim::new(DeviceProfile::tesla_k20());
        let cfg = BroEllConfig { slice_height: h, ..Default::default() };

        let bro: BroEll<f64> = BroEll::from_coo(&a, &cfg);
        prop_assert!(close(&bro_ell_spmv(&mut sim, &bro, &x), &reference));
        let bror: BroEllR<f64> = BroEllR::from_coo(&a, &cfg);
        prop_assert!(close(&bro_ellr_spmv(&mut sim, &bror, &x), &reference));
        let bcoo: BroCoo<f64> = BroCoo::compress(&a, &BroCooConfig::default());
        prop_assert!(close(&bro_coo_spmv(&mut sim, &bcoo, &x), &reference));
        let bhyb: BroHyb<f64> = BroHyb::from_coo(&a, &BroHybConfig::default());
        prop_assert!(close(&bro_hyb_spmv(&mut sim, &bhyb, &x), &reference));
    }

    #[test]
    fn serialization_round_trips((a, _x) in arb_matrix_and_x(), h in 1usize..20) {
        let bro: BroEll<f64> =
            BroEll::from_coo(&a, &BroEllConfig { slice_height: h, ..Default::default() });
        let mut buf = Vec::new();
        write_bro_ell(&bro, &mut buf).unwrap();
        let back: BroEll<f64> = read_bro_ell(&mut &buf[..]).unwrap();
        prop_assert_eq!(back, bro);

        let bcoo: BroCoo<f64> =
            BroCoo::compress(&a, &BroCooConfig { interval_len: 64, warp_size: 8 });
        let mut buf = Vec::new();
        write_bro_coo(&bcoo, &mut buf).unwrap();
        let back: BroCoo<f64> = read_bro_coo(&mut &buf[..]).unwrap();
        prop_assert_eq!(back, bcoo);
    }

    #[test]
    fn corrupting_any_header_byte_is_detected((a, _x) in arb_matrix_and_x(), pos in 0usize..11) {
        let bro: BroEll<f64> = BroEll::from_coo(&a, &BroEllConfig::default());
        let mut buf = Vec::new();
        write_bro_ell(&bro, &mut buf).unwrap();
        buf[pos] ^= 0xA5;
        prop_assert!(read_bro_ell::<f64, u32, _>(&mut &buf[..]).is_err());
    }
}

/// Replays the committed regression corpus (`tests/corpus/*.corpus`) through
/// every registered format. Each file pins a historically interesting shape
/// (boundary deltas, empty rows, corner entries); a divergence here means a
/// previously-fixed bug came back. New shrunk reproducers from
/// `bro_tool verify --inject-fault` land in the same directory.
#[test]
fn regression_corpus_replays_clean() {
    use bro_spmv::verify::{kernels, load_dir, replay, Tolerance};

    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"));
    let cases = load_dir(dir).expect("corpus directory must be readable");
    assert!(!cases.is_empty(), "the committed regression corpus must not be empty");
    let tol = Tolerance::default();
    for (name, case) in &cases {
        if let Some((format, mismatch)) = replay(case, kernels(), &tol) {
            panic!("corpus case '{name}' ({}) diverged on {format}: {mismatch}", case.note);
        }
    }
}
