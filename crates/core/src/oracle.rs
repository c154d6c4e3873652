//! The BRO and HYB encoders as first written, kept as test oracles for the
//! one-pass encoders: ELLPACK is built first, each row is read back and
//! packed into its own [`BitWriter`], and the row streams are interleaved
//! with [`multiplex`]. The one-pass encoders must give equal structs and
//! equal `.bro` bytes.

use bro_bitstream::{bits_for, delta_encode_row, multiplex, BitWriter, Symbol};
use bro_matrix::{CooMatrix, EllMatrix, HybMatrix, Scalar, INVALID_INDEX};
use proptest::prelude::*;

use crate::bro_coo::{BroCoo, BroCooConfig, BroCooInterval};
use crate::bro_ell::{BroEll, BroEllConfig, BroEllSlice};
use crate::bro_ellr::BroEllR;
use crate::bro_hyb::{BroHyb, BroHybConfig};
use crate::serialize::{write_bro_coo, write_bro_ell};

/// The column indices of ELLPACK row `r` without padding.
fn row_cols<T: Scalar>(ell: &EllMatrix<T>, r: usize) -> Vec<u32> {
    (0..ell.width()).map(|j| ell.col_at(r, j)).take_while(|&c| c != INVALID_INDEX).collect()
}

fn bro_ell<T: Scalar, W: Symbol>(coo: &CooMatrix<T>, cfg: &BroEllConfig) -> BroEll<T, W> {
    let ell = EllMatrix::from_coo(coo);
    let m = ell.rows();
    let h = cfg.slice_height;
    let slices = (0..m.div_ceil(h))
        .map(|s| bro_ell_slice(&ell, s * h, (m - s * h).min(h), cfg.forced_width))
        .collect();
    BroEll::from_parts(m, ell.cols(), ell.nnz(), ell.width(), h, slices)
}

fn bro_ell_slice<T: Scalar, W: Symbol>(
    ell: &EllMatrix<T>,
    row0: usize,
    height: usize,
    forced_width: Option<u8>,
) -> BroEllSlice<T, W> {
    let rows = row0..row0 + height;
    let num_cols = rows.clone().map(|r| row_cols(ell, r).len()).max().unwrap_or(0);
    let delta_rows: Vec<Vec<u64>> = rows
        .clone()
        .map(|r| {
            let cols = row_cols(ell, r);
            delta_encode_row(&cols, num_cols - cols.len()).unwrap()
        })
        .collect();
    let floor = forced_width.unwrap_or(0).min(W::BITS as u8);
    let mut bit_alloc = vec![floor; num_cols];
    for row in &delta_rows {
        for (j, &d) in row.iter().enumerate() {
            bit_alloc[j] = bit_alloc[j].max(bits_for(d) as u8);
        }
    }
    let row_bits: u32 = bit_alloc.iter().map(|&b| b as u32).sum();
    let pad_bits = (W::BITS - row_bits % W::BITS) % W::BITS;
    let bitstrings: Vec<_> = delta_rows
        .iter()
        .map(|row| {
            let mut w = BitWriter::<W>::new();
            for (j, &d) in row.iter().enumerate() {
                w.write(d, bit_alloc[j] as u32);
            }
            let mut s = w.finish();
            s.pad_to_symbol();
            s
        })
        .collect();
    let stream = multiplex(&bitstrings).unwrap();
    let syms_per_row = stream.len().checked_div(height).unwrap_or(0);
    let mut vals = vec![T::ZERO; height * num_cols];
    for (i, r) in rows.enumerate() {
        for j in 0..row_cols(ell, r).len() {
            vals[j * height + i] = ell.val_at(r, j);
        }
    }
    BroEllSlice { height, num_cols, bit_alloc, pad_bits, syms_per_row, stream, vals }
}

fn bro_coo<T: Scalar, W: Symbol>(coo: &CooMatrix<T>, cfg: &BroCooConfig) -> BroCoo<T, W> {
    let w = cfg.warp_size;
    let ilen = cfg.interval_len.div_ceil(w) * w;
    let rows = coo.row_indices();
    let nnz = coo.nnz();
    let intervals = (0..nnz.div_ceil(ilen))
        .map(|iv| {
            let start = iv * ilen;
            let len = (nnz - start).min(ilen);
            let base_row = if start == 0 { rows[0] } else { rows[start - 1] };
            let deltas: Vec<u64> = (0..len)
                .map(|p| {
                    let prev = if start + p == 0 { rows[0] } else { rows[start + p - 1] };
                    (rows[start + p] - prev) as u64
                })
                .collect();
            let bit_width = deltas.iter().map(|&d| bits_for(d)).max().unwrap_or(0) as u8;
            let steps = len.div_ceil(w);
            let lanes: Vec<_> = (0..w)
                .map(|lane| {
                    let mut writer = BitWriter::<W>::new();
                    for j in 0..steps {
                        let p = j * w + lane;
                        writer.write(if p < len { deltas[p] } else { 0 }, bit_width as u32);
                    }
                    let mut s = writer.finish();
                    s.pad_to_symbol();
                    s
                })
                .collect();
            let stream = multiplex(&lanes).unwrap();
            let syms_per_lane = stream.len() / w;
            BroCooInterval { start, len, base_row, bit_width, syms_per_lane, stream }
        })
        .collect();
    BroCoo::from_parts(
        coo.rows(),
        coo.cols(),
        w,
        intervals,
        coo.col_indices().to_vec(),
        coo.values().to_vec(),
    )
}

/// The HYB split as first written: the first `k` entries of every row go
/// left, the rest right.
fn split_at_row_width<T: Scalar>(coo: &CooMatrix<T>, k: usize) -> (CooMatrix<T>, CooMatrix<T>) {
    let mut in_row = 0usize;
    let mut prev_row = u32::MAX;
    let mut left = (Vec::new(), Vec::new(), Vec::new());
    let mut right = (Vec::new(), Vec::new(), Vec::new());
    for (r, c, v) in coo.iter() {
        if r != prev_row {
            prev_row = r;
            in_row = 0;
        }
        let target = if in_row < k { &mut left } else { &mut right };
        target.0.push(r);
        target.1.push(c);
        target.2.push(v);
        in_row += 1;
    }
    let (m, n) = (coo.rows(), coo.cols());
    (
        CooMatrix::from_sorted_parts(m, n, left.0, left.1, left.2),
        CooMatrix::from_sorted_parts(m, n, right.0, right.1, right.2),
    )
}

/// The ELLPACK layout as first written (a fill counter per row, entries in
/// COO order): width, column-index array, value array.
fn ell_layout<T: Scalar>(coo: &CooMatrix<T>) -> (usize, Vec<u32>, Vec<T>) {
    let stride = coo.rows().div_ceil(32) * 32;
    let k = coo.row_lengths().iter().copied().max().unwrap_or(0) as usize;
    let mut col_idx = vec![INVALID_INDEX; stride * k];
    let mut vals = vec![T::ZERO; stride * k];
    let mut fill = vec![0usize; coo.rows()];
    for (r, c, v) in coo.iter() {
        let (r, j) = (r as usize, fill[r as usize]);
        col_idx[j * stride + r] = c;
        vals[j * stride + r] = v;
        fill[r] = j + 1;
    }
    (k, col_idx, vals)
}

fn assert_ell_layout<T: Scalar>(got: &EllMatrix<T>, want: &CooMatrix<T>) {
    let (k, col_idx, vals) = ell_layout(want);
    assert_eq!((got.rows(), got.cols(), got.nnz()), (want.rows(), want.cols(), want.nnz()));
    assert_eq!(got.width(), k);
    assert_eq!(got.col_idx_raw(), col_idx.as_slice());
    assert_eq!(got.vals_raw(), vals.as_slice());
}

/// Every encoder against its oracle on one matrix, structs and bytes.
fn check<W: Symbol>(coo: &CooMatrix<f64>, ell_cfg: &BroEllConfig, coo_cfg: &BroCooConfig) {
    let want: BroEll<f64, W> = bro_ell(coo, ell_cfg);
    let got: BroEll<f64, W> = BroEll::from_coo(coo, ell_cfg);
    assert_eq!(got, want);
    let (mut got_bytes, mut want_bytes) = (Vec::new(), Vec::new());
    write_bro_ell(&got, &mut got_bytes).unwrap();
    write_bro_ell(&want, &mut want_bytes).unwrap();
    assert_eq!(got_bytes, want_bytes);
    assert_eq!(BroEllR::<f64, W>::from_coo(coo, ell_cfg).bro(), &want);

    let want: BroCoo<f64, W> = bro_coo(coo, coo_cfg);
    let got: BroCoo<f64, W> = BroCoo::compress(coo, coo_cfg);
    assert_eq!(got, want);
    let (mut got_bytes, mut want_bytes) = (Vec::new(), Vec::new());
    write_bro_coo(&got, &mut got_bytes).unwrap();
    write_bro_coo(&want, &mut want_bytes).unwrap();
    assert_eq!(got_bytes, want_bytes);

    assert_ell_layout(&EllMatrix::from_coo(coo), coo);
    let longest = coo.row_lengths().iter().copied().max().unwrap_or(0) as usize;
    for k in [0, 1, 2, longest, longest + 1] {
        let (left, right) = split_at_row_width(coo, k);
        let hyb = HybMatrix::from_coo_with_width(coo, k);
        assert_ell_layout(hyb.ell(), &left);
        assert_eq!(hyb.coo(), &right);

        let cfg = BroHybConfig { ell: ell_cfg.clone(), coo: coo_cfg.clone(), split_k: Some(k) };
        let bro: BroHyb<f64, W> = BroHyb::from_coo(coo, &cfg);
        assert_eq!(bro.split_k(), k);
        assert_eq!(bro.ell(), &bro_ell::<f64, W>(&left, ell_cfg));
        assert_eq!(bro.coo(), &bro_coo::<f64, W>(&right, coo_cfg));
    }
}

fn matrix(rows: usize, cols: usize, trips: &[(usize, usize)]) -> CooMatrix<f64> {
    let (r, c): (Vec<usize>, Vec<usize>) = trips.iter().copied().unzip();
    let v: Vec<f64> = (0..trips.len()).map(|i| 1.0 + i as f64 * 0.25).collect();
    CooMatrix::from_triplets(rows, cols, &r, &c, &v).unwrap()
}

/// Rows with 0 to 7 entries, row lengths varying across a slice.
fn staircase(rows: usize, cols: usize) -> CooMatrix<f64> {
    let trips: Vec<(usize, usize)> =
        (0..rows).flat_map(|r| (0..r % 8).map(move |j| (r, (r * 7 + j * 13) % cols))).collect();
    let mut trips = trips;
    trips.sort_unstable();
    trips.dedup();
    matrix(rows, cols, &trips)
}

#[test]
fn forced_widths_match_the_oracle() {
    // The Fig. 3 sweep forces every column to a width, also past the
    // symbol width (clamped).
    let coo = staircase(100, 50);
    for forced in [0u8, 1, 5, 8, 16, 31, 32, 33, 64] {
        let cfg = BroEllConfig { slice_height: 16, forced_width: Some(forced) };
        check::<u32>(&coo, &cfg, &BroCooConfig::default());
        check::<u64>(&coo, &cfg, &BroCooConfig::default());
    }
}

#[test]
fn slice_heights_one_and_max_match_the_oracle() {
    let coo = staircase(1500, 300);
    for h in [1, 7, 256, 1024] {
        let cfg = BroEllConfig { slice_height: h, forced_width: None };
        check::<u32>(&coo, &cfg, &BroCooConfig { interval_len: 256, warp_size: 32 });
        check::<u64>(&coo, &cfg, &BroCooConfig { interval_len: 100, warp_size: 8 });
    }
}

#[test]
fn empty_rows_and_a_partial_last_slice_match_the_oracle() {
    // 11 rows with h = 4: slices of 4, 4 and 3 rows; rows 0-2, 5 and the
    // whole middle slice but one row are empty.
    let coo = matrix(11, 9, &[(3, 0), (3, 8), (6, 4), (9, 1), (9, 2), (10, 8)]);
    let cfg = BroEllConfig { slice_height: 4, forced_width: None };
    for (w, ilen) in [(1, 1), (2, 3), (4, 4), (32, 256)] {
        check::<u32>(&coo, &cfg, &BroCooConfig { interval_len: ilen, warp_size: w });
    }
    check::<u32>(&CooMatrix::zeros(5, 3), &cfg, &BroCooConfig::default());
    check::<u64>(&CooMatrix::zeros(0, 0), &cfg, &BroCooConfig::default());
}

#[test]
fn a_32_bit_first_delta_matches_the_oracle() {
    // Column 2^32 - 2 is the largest index: its first delta is 2^32 - 1,
    // a full 32-bit symbol; row 2^32 - 2 gives BRO-COO a 32-bit row delta.
    let last = u32::MAX as usize - 1;
    let coo = matrix(last + 1, last + 1, &[(0, last), (1, 0), (1, last), (last, 3)]);
    let cfg = BroEllConfig { slice_height: 2, forced_width: None };
    let bro: BroEll<f64> = BroEll::from_coo(&matrix(2, last + 1, &[(0, last)]), &cfg);
    assert_eq!(bro.slices()[0].bit_alloc, vec![32]);
    check::<u32>(
        &matrix(2, last + 1, &[(0, last), (1, 0), (1, last)]),
        &cfg,
        &BroCooConfig::default(),
    );
    let coo_cfg = BroCooConfig { interval_len: 2, warp_size: 2 };
    assert_eq!(BroCoo::<f64>::compress(&coo, &coo_cfg), bro_coo::<f64, u32>(&coo, &coo_cfg));
    assert_eq!(BroCoo::<f64, u64>::compress(&coo, &coo_cfg), bro_coo::<f64, u64>(&coo, &coo_cfg));
}

fn arb_coo() -> impl Strategy<Value = CooMatrix<f64>> {
    // Narrow and very wide column ranges; empty rows are common.
    (1usize..70, 0..2u8).prop_flat_map(|(rows, wide)| {
        let cols = if wide == 1 { 1usize..100_000 } else { 1usize..40 };
        cols.prop_flat_map(move |cols| {
            prop::collection::vec((0..rows, 0..cols), 0..400).prop_map(move |mut trips| {
                trips.sort_unstable();
                trips.dedup();
                matrix(rows, cols, &trips)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_encoders_match_the_oracle(
        coo in arb_coo(),
        h in 0usize..40,
        forced in 0u8..60,
        w_exp in 0u32..6,
        ilen in 1usize..70,
    ) {
        // h = 0 stands for the largest slice height; a forced width of 40
        // or more for none.
        let slice_height = if h == 0 { 1024 } else { h };
        let forced_width = (forced < 40).then_some(forced);
        let ell_cfg = BroEllConfig { slice_height, forced_width };
        let coo_cfg = BroCooConfig { interval_len: ilen, warp_size: 1 << w_exp };
        check::<u32>(&coo, &ell_cfg, &coo_cfg);
        check::<u64>(&coo, &ell_cfg, &coo_cfg);
    }
}
