//! Property-based tests: BRO compression is lossless for arbitrary sparse
//! matrices and arbitrary slice/interval geometry, and the space accounting
//! is consistent.

use bro_core::{
    reorder::{amd_order, bar_order, rcm_order, BarConfig},
    BroCoo, BroCooConfig, BroEll, BroEllConfig, BroHyb, BroHybConfig,
};
use bro_matrix::CooMatrix;
use proptest::prelude::*;

fn arb_coo() -> impl Strategy<Value = CooMatrix<f64>> {
    (1usize..40, 1usize..600).prop_flat_map(|(rows, cols)| {
        prop::collection::vec((0..rows, 0..cols, 0.5f64..2.0), 0..200).prop_map(move |mut trips| {
            trips.sort_by_key(|&(r, c, _)| (r, c));
            trips.dedup_by_key(|&mut (r, c, _)| (r, c));
            let (ri, (ci, vs)): (Vec<_>, (Vec<_>, Vec<_>)) =
                trips.into_iter().map(|(r, c, v)| (r, (c, v))).unzip();
            CooMatrix::from_triplets(rows, cols, &ri, &ci, &vs).unwrap()
        })
    })
}

fn arb_square_coo() -> impl Strategy<Value = CooMatrix<f64>> {
    (2usize..30).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 0.5f64..2.0), 1..120).prop_map(move |mut trips| {
            trips.sort_by_key(|&(r, c, _)| (r, c));
            trips.dedup_by_key(|&mut (r, c, _)| (r, c));
            let (ri, (ci, vs)): (Vec<_>, (Vec<_>, Vec<_>)) =
                trips.into_iter().map(|(r, c, v)| (r, (c, v))).unzip();
            CooMatrix::from_triplets(n, n, &ri, &ci, &vs).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bro_ell_lossless(coo in arb_coo(), h in 1usize..12) {
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig { slice_height: h, ..Default::default() });
        prop_assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn bro_ell_lossless_u64_symbols(coo in arb_coo(), h in 1usize..12) {
        let bro: BroEll<f64, u64> = BroEll::from_coo(&coo, &BroEllConfig { slice_height: h, ..Default::default() });
        prop_assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn bro_ell_savings_bounded(coo in arb_coo(), h in 1usize..12) {
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig { slice_height: h, ..Default::default() });
        let eta = bro.space_savings().eta();
        prop_assert!(eta < 1.0);
    }

    #[test]
    fn bro_coo_lossless(coo in arb_coo(), w_exp in 1u32..6, ilen in 1usize..64) {
        let cfg = BroCooConfig { interval_len: ilen, warp_size: 1 << w_exp };
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &cfg);
        prop_assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn bro_coo_interval_widths_cover_deltas(coo in arb_coo()) {
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        let rows = bro.decompress_rows();
        prop_assert_eq!(rows.as_slice(), coo.row_indices());
    }

    #[test]
    fn bro_hyb_lossless(coo in arb_coo(), split in 0usize..8) {
        let cfg = BroHybConfig {
            ell: BroEllConfig { slice_height: 4, ..Default::default() },
            coo: BroCooConfig { interval_len: 8, warp_size: 4 },
            split_k: Some(split),
        };
        let bro: BroHyb<f64> = BroHyb::from_coo(&coo, &cfg);
        prop_assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn reorderings_are_valid_permutations(coo in arb_square_coo()) {
        let n = coo.rows();
        prop_assert_eq!(rcm_order(&coo).len(), n);
        prop_assert_eq!(amd_order(&coo).len(), n);
        let cfg = BarConfig { slice_height: 4, ..BarConfig::default() };
        let (p, _) = bar_order(&coo, &cfg);
        prop_assert_eq!(p.len(), n);
    }

    #[test]
    fn bar_never_corrupts_spmv(coo in arb_square_coo()) {
        let cfg = BarConfig { slice_height: 4, ..BarConfig::default() };
        let (p, _) = bar_order(&coo, &cfg);
        let x: Vec<f64> = (0..coo.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let y = coo.spmv_reference(&x).unwrap();
        let y2 = p.apply_rows(&coo).spmv_reference(&x).unwrap();
        let expect = p.apply_vec(&y);
        for (a, b) in y2.iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reordered_bro_ell_still_lossless(coo in arb_square_coo()) {
        let cfg = BarConfig { slice_height: 4, ..BarConfig::default() };
        let (p, _) = bar_order(&coo, &cfg);
        let permuted = p.apply_rows(&coo);
        let bro: BroEll<f64> = BroEll::from_coo(&permuted, &BroEllConfig { slice_height: 4, ..Default::default() });
        prop_assert_eq!(bro.decompress(), permuted);
    }
}
