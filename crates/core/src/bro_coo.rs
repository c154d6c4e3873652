//! The BRO-COO format (Section 3.2 of the paper).
//!
//! Only the **row-index** array of COO is compressed; column indices and
//! values remain in their natural layout. The entries are split into
//! intervals (one warp each). Within an interval the row indices — already
//! sorted ascending — are delta-encoded in entry order, and all deltas are
//! packed at a **single bit width** (the interval's `bit_alloc` entry).
//!
//! For coalesced access, lane `i` of the warp handles entries
//! `start + j·w + i` (`w` = warp size, `j` = step). Each lane's deltas go
//! through an accumulator straight into the multiplexed stream, symbol `c`
//! of the lane at `stream[c·w + lane]` as in BRO-ELL; lanes past the
//! interval's tail keep zero deltas, so every lane has the same symbol
//! count. Decoding needs a warp-level inclusive scan per step to turn
//! per-lane deltas back into absolute row indices, plus a carry across
//! steps — the "parallel scan primitive" whose cost the paper cites as the
//! reason BRO-COO gains less than BRO-ELL.

use bro_bitstream::{bits_for, BitReader, StridedWriter, Symbol};
use bro_matrix::{CooMatrix, Scalar};
use rayon::prelude::*;

use crate::analysis::SpaceSavings;

/// Compression parameters for BRO-COO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroCooConfig {
    /// Entries per interval; rounded up to a multiple of the warp size.
    /// Each interval is processed by one warp.
    pub interval_len: usize,
    /// Warp size `w` (32 on every CUDA device).
    pub warp_size: usize,
}

impl Default for BroCooConfig {
    fn default() -> Self {
        BroCooConfig { interval_len: 256, warp_size: 32 }
    }
}

/// One compressed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct BroCooInterval<W: Symbol> {
    /// Offset of the interval's first entry in the entry arrays.
    pub start: usize,
    /// Number of entries in the interval.
    pub len: usize,
    /// Row index of the entry *preceding* the interval (the delta base);
    /// equals the first entry's row for the first interval.
    pub base_row: u32,
    /// The single bit width used for every delta in the interval.
    pub bit_width: u8,
    /// Symbols per lane stream.
    pub syms_per_lane: usize,
    /// Multiplexed delta stream: `stream[c · w + lane]`.
    pub stream: Vec<W>,
}

impl<W: Symbol> BroCooInterval<W> {
    /// Compressed bytes of this interval's row-index data, metadata
    /// included (base row + start offset + width byte ≈ 9 bytes).
    pub fn index_bytes(&self) -> usize {
        self.stream.len() * (W::BITS as usize / 8) + 9
    }
}

/// A sparse matrix in BRO-COO format.
#[derive(Debug, Clone, PartialEq)]
pub struct BroCoo<T: Scalar, W: Symbol = u32> {
    rows: usize,
    cols: usize,
    warp_size: usize,
    intervals: Vec<BroCooInterval<W>>,
    /// Uncompressed column indices (COO order).
    col_idx: Vec<u32>,
    /// Uncompressed values (COO order).
    vals: Vec<T>,
}

impl<T: Scalar, W: Symbol> BroCoo<T, W> {
    /// Compresses a COO matrix. Intervals are compressed in parallel.
    pub fn compress(coo: &CooMatrix<T>, cfg: &BroCooConfig) -> Self {
        Self::encode(
            coo.rows(),
            coo.cols(),
            coo.row_indices(),
            coo.col_indices().to_vec(),
            coo.values().to_vec(),
            cfg,
        )
    }

    /// Compresses the entries `row_idx`, `col_idx`, `vals` of a
    /// `rows × cols` matrix, sorted row-major, keeping the column and value
    /// arrays it is given (BRO-HYB moves its COO tail in without a copy).
    pub(crate) fn encode(
        rows: usize,
        cols: usize,
        row_idx: &[u32],
        col_idx: Vec<u32>,
        vals: Vec<T>,
        cfg: &BroCooConfig,
    ) -> Self {
        assert!(cfg.warp_size > 0 && cfg.interval_len > 0);
        let w = cfg.warp_size;
        let ilen = cfg.interval_len.div_ceil(w) * w;
        let nnz = row_idx.len();
        let intervals: Vec<BroCooInterval<W>> = (0..nnz.div_ceil(ilen))
            .into_par_iter()
            .map(|iv| {
                let start = iv * ilen;
                Self::encode_interval(row_idx, start, (nnz - start).min(ilen), w)
            })
            .collect();
        BroCoo { rows, cols, warp_size: w, intervals, col_idx, vals }
    }

    /// Reassembles from previously validated parts (deserialization).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        warp_size: usize,
        intervals: Vec<BroCooInterval<W>>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        BroCoo { rows, cols, warp_size, intervals, col_idx, vals }
    }

    fn encode_interval(rows: &[u32], start: usize, len: usize, w: usize) -> BroCooInterval<W> {
        // Deltas in entry order; the first entry of the matrix has delta 0,
        // every other one is relative to the entry before it.
        let delta = |p: usize| (rows[start + p] - rows[(start + p).saturating_sub(1)]) as u64;
        let base_row = rows[start.saturating_sub(1)];
        let bit_width = (0..len).map(|p| bits_for(delta(p))).max().unwrap_or(0);

        // Lane i packs the deltas at positions i, i+w, i+2w, …
        let syms_per_lane = (len.div_ceil(w) * bit_width as usize).div_ceil(W::BITS as usize);
        let mut stream = vec![W::ZERO; syms_per_lane * w];
        for lane in 0..w.min(len) {
            let mut out = StridedWriter::new(&mut stream, lane, w);
            for p in (lane..len).step_by(w) {
                out.write(delta(p), bit_width);
            }
            out.finish();
        }
        BroCooInterval { start, len, base_row, bit_width: bit_width as u8, syms_per_lane, stream }
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
        self.vals.len()
    }

    /// Warp size used at compression time.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// The compressed intervals.
    pub fn intervals(&self) -> &[BroCooInterval<W>] {
        &self.intervals
    }

    /// Uncompressed column indices.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Uncompressed values.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// The per-interval `bit_alloc` array of the paper.
    pub fn bit_alloc(&self) -> Vec<u8> {
        self.intervals.iter().map(|iv| iv.bit_width).collect()
    }

    /// Row-index space savings versus the uncompressed `row_idx` array
    /// (4 bytes per entry).
    pub fn space_savings(&self) -> SpaceSavings {
        SpaceSavings {
            original_bytes: self.nnz() * 4,
            compressed_bytes: self.intervals.iter().map(|iv| iv.index_bytes()).sum(),
        }
    }

    /// Host-side reference decoder: reconstructs the row-index array.
    pub fn decompress_rows(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.nnz()];
        let w = self.warp_size;
        for iv in &self.intervals {
            // Demultiplex each lane and walk the deltas in entry order.
            let mut readers: Vec<BitReader<W>> = Vec::with_capacity(w);
            let mut lane_words: Vec<Vec<W>> = Vec::with_capacity(w);
            for lane in 0..w {
                lane_words.push(
                    (0..iv.syms_per_lane).map(|c| iv.stream[c * w + lane]).collect::<Vec<_>>(),
                );
            }
            for lane_word in &lane_words {
                readers.push(BitReader::new(lane_word));
            }
            let mut acc = iv.base_row as u64;
            let steps = iv.len.div_ceil(w);
            for j in 0..steps {
                for (lane, reader) in readers.iter_mut().enumerate() {
                    let p = j * w + lane;
                    let d = reader.read(iv.bit_width as u32);
                    if p < iv.len {
                        acc += d;
                        out[iv.start + p] = acc as u32;
                    }
                }
            }
        }
        out
    }

    /// Full reconstruction of the matrix.
    pub fn decompress(&self) -> CooMatrix<T> {
        let rows = self.decompress_rows();
        CooMatrix::from_sorted_parts(
            self.rows,
            self.cols,
            rows,
            self.col_idx.clone(),
            self.vals.clone(),
        )
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

    fn tiny_cfg(warp: usize, ilen: usize) -> BroCooConfig {
        BroCooConfig { interval_len: ilen, warp_size: warp }
    }

    #[test]
    fn round_trip_paper_example() {
        let coo = paper_matrix();
        // Tiny warps exercise multi-interval and tail paths.
        for (w, ilen) in [(2, 4), (4, 8), (32, 1024)] {
            let bro: BroCoo<f64> = BroCoo::compress(&coo, &tiny_cfg(w, ilen));
            assert_eq!(bro.decompress(), coo, "w={w} ilen={ilen}");
        }
    }

    #[test]
    fn single_bit_width_per_interval() {
        let coo = paper_matrix();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &tiny_cfg(2, 4));
        // Deltas within the matrix rows are all 0 or 1 -> width 1.
        for iv in bro.intervals() {
            assert!(iv.bit_width <= 1, "width {}", iv.bit_width);
        }
    }

    #[test]
    fn interval_partitioning() {
        let coo = paper_matrix();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &tiny_cfg(2, 4));
        assert_eq!(bro.intervals().len(), 3);
        let total: usize = bro.intervals().iter().map(|iv| iv.len).sum();
        assert_eq!(total, 12);
        // Intervals tile the entry range.
        for (i, iv) in bro.intervals().iter().enumerate() {
            assert_eq!(iv.start, i * 4);
        }
    }

    #[test]
    fn dense_single_row_compresses_to_zero_width() {
        // All entries in one row: all deltas 0, width 0 -> empty stream.
        let n = 64;
        let coo = CooMatrix::from_triplets(
            2,
            n,
            &vec![0usize; n],
            &(0..n).collect::<Vec<_>>(),
            &vec![1.0; n],
        )
        .unwrap();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &tiny_cfg(32, 64));
        assert_eq!(bro.intervals()[0].bit_width, 0);
        assert!(bro.intervals()[0].stream.is_empty());
        assert_eq!(bro.decompress(), coo);
        assert!(bro.space_savings().eta() > 0.9);
    }

    #[test]
    fn sparse_diagonal_needs_one_bit() {
        // One entry per row: deltas all 1.
        let n = 100;
        let idx: Vec<usize> = (0..n).collect();
        let coo = CooMatrix::from_triplets(n, n, &idx, &idx, &vec![1.0; n]).unwrap();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        assert_eq!(bro.intervals()[0].bit_width, 1);
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn rows_with_gaps_round_trip() {
        // Jumps of varying size between populated rows.
        let rows = [0usize, 0, 7, 7, 7, 100, 1000, 1000, 65535];
        let cols = [0usize, 5, 1, 2, 3, 0, 9, 10, 2];
        let coo = CooMatrix::from_triplets(65536, 16, &rows, &cols, &[1.0; 9]).unwrap();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &tiny_cfg(4, 4));
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn space_savings_reported() {
        let n = 10_000;
        let idx: Vec<usize> = (0..n).collect();
        let coo = CooMatrix::from_triplets(n, n, &idx, &idx, &vec![1.0; n]).unwrap();
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        // 1 bit per entry vs 32, minus per-lane symbol padding in each
        // 256-entry interval.
        assert!(bro.space_savings().eta() > 0.8, "eta = {}", bro.space_savings().eta());
    }

    #[test]
    fn u64_symbols() {
        let coo = paper_matrix();
        let bro: BroCoo<f64, u64> = BroCoo::compress(&coo, &tiny_cfg(4, 8));
        assert_eq!(bro.decompress(), coo);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::<f64>::zeros(5, 5);
        let bro: BroCoo<f64> = BroCoo::compress(&coo, &BroCooConfig::default());
        assert_eq!(bro.intervals().len(), 0);
        assert_eq!(bro.decompress(), coo);
    }
}
