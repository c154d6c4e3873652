//! The BRO-ELL format (Section 3.1 of the paper).
//!
//! Compression pipeline, per slice of `h` consecutive rows (one thread
//! block each):
//!
//! 1. delta-encode each row of the ELLPACK column-index array
//!    (`δ_{i,j} = c_{i,j} − c_{i,j−1}`, zero marking padding);
//! 2. record the slice length `l` (the longest row in the slice) in
//!    `num_col`;
//! 3. compute the per-column bit allocation
//!    `bit_alloc = [b_1, …, b_l]`, `b_j` = max bits over the slice's rows;
//! 4. pack each row's deltas at those widths, pad with `b_p` bits so the
//!    symbol length divides the row stream;
//! 5. multiplex the row streams at symbol granularity: symbol `c` of row
//!    `r` lands at `stream[c·h + r]`.
//!
//! Values are stored sliced column-major (`vals[c·h + r]` within a slice),
//! so a slice shorter than the global ELLPACK width `k` skips the padding
//! columns entirely — the same saving Sliced-ELLPACK gets, which the paper
//! inherits through `num_col`.

use bro_bitstream::{bits_for, delta_encode_row, multiplex, BitReader, BitWriter, Symbol};
use bro_matrix::{CooMatrix, EllMatrix, Scalar};
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
    /// Compresses an ELLPACK matrix. Runs offline on the host, slices in
    /// parallel.
    pub fn compress(ell: &EllMatrix<T>, cfg: &BroEllConfig) -> Self {
        assert!(
            (1..=MAX_SLICE_HEIGHT).contains(&cfg.slice_height),
            "slice height must be 1 to {MAX_SLICE_HEIGHT}, the thread-block limit"
        );
        let m = ell.rows();
        let h = cfg.slice_height;
        let n_slices = m.div_ceil(h);
        let slices: Vec<BroEllSlice<T, W>> = (0..n_slices)
            .into_par_iter()
            .map(|s| Self::compress_slice(ell, s * h, (m - s * h).min(h), cfg.forced_width))
            .collect();
        BroEll {
            rows: m,
            cols: ell.cols(),
            nnz: ell.nnz(),
            ell_width: ell.width(),
            slice_height: h,
            slices,
        }
    }

    /// Convenience: compress straight from COO.
    pub fn from_coo(coo: &CooMatrix<T>, cfg: &BroEllConfig) -> Self {
        Self::compress(&EllMatrix::from_coo(coo), cfg)
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

    fn compress_slice(
        ell: &EllMatrix<T>,
        row0: usize,
        height: usize,
        forced_width: Option<u8>,
    ) -> BroEllSlice<T, W> {
        // Slice length: the longest row within the slice.
        let num_cols = (row0..row0 + height).map(|r| ell.row_len(r)).max().unwrap_or(0);

        // Delta-encode each row, padded to the slice length.
        let delta_rows: Vec<Vec<u64>> = (row0..row0 + height)
            .map(|r| {
                let cols = ell.row_cols(r);
                delta_encode_row(&cols, num_cols - cols.len())
                    .expect("ELLPACK rows have strictly increasing columns")
            })
            .collect();

        // Per-column bit allocation.
        let floor = forced_width.unwrap_or(0).min(W::BITS as u8);
        let mut bit_alloc = vec![floor; num_cols];
        for row in &delta_rows {
            for (j, &d) in row.iter().enumerate() {
                bit_alloc[j] = bit_alloc[j].max(bits_for(d) as u8);
            }
        }
        debug_assert!(
            bit_alloc.iter().all(|&b| (b as u32) <= W::BITS),
            "a delta cannot need more bits than the symbol width for u32 indices"
        );

        let row_bits: u32 = bit_alloc.iter().map(|&b| b as u32).sum();
        let pad_bits = (W::BITS - row_bits % W::BITS) % W::BITS;

        // Pack and multiplex.
        let bitstrings: Vec<_> = delta_rows
            .iter()
            .map(|row| {
                let mut w = BitWriter::<W>::new();
                for (j, &d) in row.iter().enumerate() {
                    w.write(d, bit_alloc[j] as u32);
                }
                let mut s = w.finish();
                // The writer already emitted the final partial symbol;
                // padding only rounds the bit length up to that boundary.
                s.pad_to_symbol();
                debug_assert_eq!(s.words.len() * W::BITS as usize, s.len_bits);
                s
            })
            .collect();
        let stream = multiplex(&bitstrings).expect("rows padded to equal symbol counts");
        let syms_per_row = stream.len().checked_div(height).unwrap_or(0);

        // Sliced column-major values.
        let mut vals = vec![T::ZERO; height * num_cols];
        for (i, r) in (row0..row0 + height).enumerate() {
            for j in 0..ell.row_len(r) {
                vals[j * height + i] = ell.val_at(r, j);
            }
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
        let bro: BroEll<f64, u64> = BroEll::compress(
            &EllMatrix::from_coo(&coo),
            &BroEllConfig { slice_height: 3, ..Default::default() },
        );
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
