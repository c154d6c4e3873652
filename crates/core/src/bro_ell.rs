//! The BRO-ELL format (Section 3.1 of the paper).
//!
//! Compression pipeline, per slice of `h` consecutive rows (one thread
//! block each), read straight from the row-sorted COO arrays:
//!
//! 1. delta-encode each row's column indices
//!    (`δ_{i,j} = c_{i,j} − c_{i,j−1}`, `c_{i,−1} = −1`; zero marks
//!    padding);
//! 2. record the slice length `l` (the longest row in the slice) in
//!    `num_col`;
//! 3. compute the per-column bit allocation
//!    `bit_alloc = [b_1, …, b_l]`, `b_j` = max bits over the slice's rows;
//! 4. pack each row's deltas at those widths through an accumulator and
//!    store every completed symbol in its multiplexed slot: symbol `c` of
//!    row `r` lands at `stream[c·h + r]`, so no per-row stream is built
//!    and nothing is interleaved afterwards;
//! 5. leave the rest of the row as it is: its padding columns (`δ = 0`)
//!    and the `b_p` bits that round it up to whole symbols are zero, and
//!    the stream starts zero-filled.
//!
//! Values are stored sliced column-major (`vals[c·h + r]` within a slice),
//! so a slice shorter than the global ELLPACK width `k` skips the padding
//! columns entirely — the same saving Sliced-ELLPACK gets, which the paper
//! inherits through `num_col`.

use std::ops::Range;

use bro_bitstream::{bits_for, BitReader, StridedWriter, Symbol};
use bro_matrix::{CooMatrix, Scalar};
use rayon::prelude::*;

use crate::analysis::SpaceSavings;

/// The largest slice height: one slice is one thread block, and no modeled
/// device runs more than 1024 threads per block.
pub const MAX_SLICE_HEIGHT: usize = 1024;

/// Compression parameters for BRO-ELL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroEllConfig {
    /// Slice height `h` — the thread block size, 1 to
    /// [`MAX_SLICE_HEIGHT`]. The paper (and cusp) use 256.
    pub slice_height: usize,
    /// Lower bound forced onto every column's bit allocation. The paper's
    /// Fig. 3 experiment "simulates different compression ratios" by
    /// varying "the number of bits allocated to each index value"; setting
    /// this reproduces that sweep. `None` (the default) packs minimally.
    pub forced_width: Option<u8>,
}

impl Default for BroEllConfig {
    fn default() -> Self {
        BroEllConfig { slice_height: 256, forced_width: None }
    }
}

/// One compressed slice of `h` (or fewer, for the last slice) rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BroEllSlice<T: Scalar, W: Symbol> {
    /// Rows in this slice (equals the configured height except possibly for
    /// the last slice).
    pub height: usize,
    /// Number of packed columns `l_i` — the longest row in the slice.
    pub num_cols: usize,
    /// Per-column bit widths `[b_1, …, b_l]`.
    pub bit_alloc: Vec<u8>,
    /// Padding bits `b_p` appended to every row stream.
    pub pad_bits: u32,
    /// Symbols per row stream.
    pub syms_per_row: usize,
    /// Multiplexed compressed stream: `stream[c · height + r]`.
    pub stream: Vec<W>,
    /// Slice values, column-major: `vals[c · height + r]`; padding slots
    /// hold zero.
    pub vals: Vec<T>,
}

impl<T: Scalar, W: Symbol> BroEllSlice<T, W> {
    /// Compressed bytes of this slice's index data, metadata included:
    /// stream symbols + one byte per `bit_alloc` entry + the `num_col`
    /// entry (4 bytes).
    pub fn index_bytes(&self) -> usize {
        self.stream.len() * (W::BITS as usize / 8) + self.bit_alloc.len() + 4
    }
}

/// A sparse matrix in BRO-ELL format.
#[derive(Debug, Clone, PartialEq)]
pub struct BroEll<T: Scalar, W: Symbol = u32> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// ELLPACK width of the uncompressed source (for the η baseline).
    ell_width: usize,
    slice_height: usize,
    slices: Vec<BroEllSlice<T, W>>,
}

impl<T: Scalar, W: Symbol> BroEll<T, W> {
    /// Compresses a COO matrix. Runs offline on the host, slices in
    /// parallel.
    pub fn from_coo(coo: &CooMatrix<T>, cfg: &BroEllConfig) -> Self {
        Self::encode(coo, &coo.row_offsets(), usize::MAX, cfg)
    }

    /// Compresses the first `cap` entries of every row of `coo`, whose
    /// [`CooMatrix::row_offsets`] are `offsets`. BRO-HYB's ELL part is
    /// `cap = k`; a whole matrix is `cap = usize::MAX`.
    pub(crate) fn encode(
        coo: &CooMatrix<T>,
        offsets: &[usize],
        cap: usize,
        cfg: &BroEllConfig,
    ) -> Self {
        assert!(
            (1..=MAX_SLICE_HEIGHT).contains(&cfg.slice_height),
            "slice height must be 1 to {MAX_SLICE_HEIGHT}, the thread-block limit"
        );
        let m = coo.rows();
        let h = cfg.slice_height;
        let len = |r: usize| (offsets[r + 1] - offsets[r]).min(cap);
        let slices: Vec<BroEllSlice<T, W>> = (0..m.div_ceil(h))
            .into_par_iter()
            .map(|s| {
                let rows = s * h..(s * h + h).min(m);
                Self::encode_slice(coo, offsets, rows, cap, cfg.forced_width)
            })
            .collect();
        BroEll {
            rows: m,
            cols: coo.cols(),
            nnz: (0..m).map(len).sum(),
            ell_width: (0..m).map(len).max().unwrap_or(0),
            slice_height: h,
            slices,
        }
    }

    /// Reassembles from previously validated parts (deserialization).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        nnz: usize,
        ell_width: usize,
        slice_height: usize,
        slices: Vec<BroEllSlice<T, W>>,
    ) -> Self {
        BroEll { rows, cols, nnz, ell_width, slice_height, slices }
    }

    fn encode_slice(
        coo: &CooMatrix<T>,
        offsets: &[usize],
        rows: Range<usize>,
        cap: usize,
        forced_width: Option<u8>,
    ) -> BroEllSlice<T, W> {
        let height = rows.len();
        let entries = |r: usize| offsets[r]..offsets[r + 1].min(offsets[r].saturating_add(cap));
        let (col_idx, values) = (coo.col_indices(), coo.values());
        // Row `r`'s deltas `c_j − c_{j−1}`, with `c_{−1} = −1`.
        let deltas = |r: usize| {
            let mut next = 0u64; // previous column + 1
            col_idx[entries(r)].iter().map(move |&c| {
                let d = c as u64 + 1 - next;
                next = c as u64 + 1;
                d
            })
        };

        // Pass 1: the slice length and the per-column bit allocation, the
        // widest delta of each column. Padding deltas are 0 and need no bits.
        let num_cols = rows.clone().map(|r| entries(r).len()).max().unwrap_or(0);
        let floor = forced_width.unwrap_or(0).min(W::BITS as u8);
        let mut bit_alloc = vec![floor; num_cols];
        for r in rows.clone() {
            for (b, d) in bit_alloc.iter_mut().zip(deltas(r)) {
                *b = (*b).max(bits_for(d) as u8);
            }
        }
        debug_assert!(
            bit_alloc.iter().all(|&b| (b as u32) <= W::BITS),
            "a delta cannot need more bits than the symbol width for u32 indices"
        );
        let row_bits: u32 = bit_alloc.iter().map(|&b| b as u32).sum();
        let syms_per_row = row_bits.div_ceil(W::BITS) as usize;
        let pad_bits = syms_per_row as u32 * W::BITS - row_bits;

        // Pass 2: each row's deltas go straight to their multiplexed slots,
        // symbol `c` of row `i` at `stream[c·height + i]`, and its values to
        // `vals[j·height + i]`. Padding stays zero.
        let mut stream = vec![W::ZERO; syms_per_row * height];
        let mut vals = vec![T::ZERO; num_cols * height];
        for (i, r) in rows.enumerate() {
            let mut out = StridedWriter::new(&mut stream, i, height);
            for (j, (d, e)) in deltas(r).zip(entries(r)).enumerate() {
                out.write(d, bit_alloc[j] as u32);
                vals[j * height + i] = values[e];
            }
            out.finish();
        }

        BroEllSlice { height, num_cols, bit_alloc, pad_bits, syms_per_row, stream, vals }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Configured slice height `h`.
    pub fn slice_height(&self) -> usize {
        self.slice_height
    }

    /// ELLPACK width `k` of the uncompressed source.
    pub fn ell_width(&self) -> usize {
        self.ell_width
    }

    /// The compressed slices.
    pub fn slices(&self) -> &[BroEllSlice<T, W>] {
        &self.slices
    }

    /// The `num_col` array of the paper.
    pub fn num_col(&self) -> Vec<u32> {
        self.slices.iter().map(|s| s.num_cols as u32).collect()
    }

    /// Index space savings versus the uncompressed ELLPACK index array
    /// (Table 3 of the paper).
    pub fn space_savings(&self) -> SpaceSavings {
        SpaceSavings {
            original_bytes: self.rows * self.ell_width * 4,
            compressed_bytes: self.slices.iter().map(|s| s.index_bytes()).sum(),
        }
    }

    /// Total bytes of the constant-memory metadata (`bit_alloc` + `num_col`).
    pub fn metadata_bytes(&self) -> usize {
        self.slices.iter().map(|s| s.bit_alloc.len() + 4).sum()
    }

    /// Host-side reference decoder: reconstructs the full matrix. The GPU
    /// kernel in `bro-kernels` is validated against this (and both against
    /// the original matrix).
    pub fn decompress(&self) -> CooMatrix<T> {
        let mut row_idx = Vec::with_capacity(self.nnz);
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for (s, slice) in self.slices.iter().enumerate() {
            let row0 = s * self.slice_height;
            for r in 0..slice.height {
                // Walk this row's symbols out of the multiplexed stream.
                let words: Vec<W> =
                    (0..slice.syms_per_row).map(|c| slice.stream[c * slice.height + r]).collect();
                let mut reader = BitReader::new(&words);
                let mut col: i64 = -1;
                for j in 0..slice.num_cols {
                    let d = reader.read(slice.bit_alloc[j] as u32);
                    if d == 0 {
                        continue; // padding slot
                    }
                    col += d as i64;
                    row_idx.push((row0 + r) as u32);
                    col_idx.push(col as u32);
                    vals.push(slice.vals[j * slice.height + r]);
                }
            }
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            5,
            &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
            &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_paper_example() {
        let coo = paper_matrix();
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 2, ..Default::default() });
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn figure_1_slice_structure() {
        // With h = 2 the paper's example splits into two slices; slice 0
        // holds rows 0..2 (lengths 2 and 5 -> l = 5), slice 1 rows 2..4
        // (lengths 3 and 2 -> l = 3).
        let bro: BroEll<f64> = BroEll::from_coo(
            &paper_matrix(),
            &BroEllConfig { slice_height: 2, ..Default::default() },
        );
        assert_eq!(bro.num_col(), vec![5, 3]);
        let s0 = &bro.slices()[0];
        // Delta rows: row0 = [1, 2, 0, 0, 0]; row1 = [1, 1, 1, 1, 1].
        // Max bits per column: [1, 2, 1, 1, 1].
        assert_eq!(s0.bit_alloc, vec![1, 2, 1, 1, 1]);
    }

    #[test]
    fn row_streams_are_symbol_aligned() {
        let bro: BroEll<f64> = BroEll::from_coo(
            &paper_matrix(),
            &BroEllConfig { slice_height: 2, ..Default::default() },
        );
        for s in bro.slices() {
            let row_bits: u32 = s.bit_alloc.iter().map(|&b| b as u32).sum();
            assert_eq!((row_bits + s.pad_bits) % 32, 0);
            assert_eq!(s.stream.len(), s.syms_per_row * s.height);
        }
    }

    #[test]
    fn space_savings_positive_for_compressible() {
        // 64 rows of 16 consecutive columns: deltas are tiny.
        let rows = 64;
        let mut r = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        for i in 0..rows {
            for j in 0..16 {
                r.push(i);
                c.push(i + j);
                v.push(1.0);
            }
        }
        let coo = CooMatrix::from_triplets(rows, rows + 16, &r, &c, &v).unwrap();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        let sav = bro.space_savings();
        assert!(sav.eta() > 0.7, "eta = {}", sav.eta());
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn partial_last_slice() {
        // 5 rows with h = 2: three slices, the last with a single row.
        let coo =
            CooMatrix::from_triplets(5, 6, &[0, 1, 2, 3, 4, 4], &[0, 1, 2, 3, 0, 5], &[1.0; 6])
                .unwrap();
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 2, ..Default::default() });
        assert_eq!(bro.slices().len(), 3);
        assert_eq!(bro.slices()[2].height, 1);
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn empty_rows_within_slice() {
        let coo = CooMatrix::from_triplets(4, 4, &[0, 3], &[1, 2], &[1.0, 2.0]).unwrap();
        let bro: BroEll<f64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 4, ..Default::default() });
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn u64_symbols_round_trip() {
        let coo = paper_matrix();
        let bro: BroEll<f64, u64> =
            BroEll::from_coo(&coo, &BroEllConfig { slice_height: 3, ..Default::default() });
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn wide_delta_matrix_round_trips() {
        // Columns spread over a wide range: first delta needs many bits.
        let coo = CooMatrix::from_triplets(
            3,
            1 << 20,
            &[0, 0, 1, 2, 2],
            &[0, (1 << 20) - 1, 1 << 19, 12345, 999_999],
            &[1.0; 5],
        )
        .unwrap();
        let bro: BroEll<f64> = BroEll::from_coo(&coo, &BroEllConfig::default());
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn metadata_counted_in_savings() {
        let bro: BroEll<f64> = BroEll::from_coo(
            &paper_matrix(),
            &BroEllConfig { slice_height: 2, ..Default::default() },
        );
        let sav = bro.space_savings();
        let stream_bytes: usize = bro.slices().iter().map(|s| s.stream.len() * 4).sum();
        assert!(sav.compressed_bytes > stream_bytes, "metadata must be included");
    }
}
