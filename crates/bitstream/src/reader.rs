//! MSB-first variable-width bit stream consumption.
//!
//! [`BitReader`] mirrors the decoder of the paper's Algorithm 1 exactly: a
//! symbol buffer `sym` with `rb` remaining bits, refilled from the stream
//! whenever a requested width exceeds `rb`, extracting from the top of the
//! buffer and shifting left. The BRO SpMV kernels in `bro-kernels` run the
//! same state machine once per warp through [`WarpDecoder`](crate::WarpDecoder);
//! this host-side reader is the reference implementation used by tests and
//! offline tooling.

use crate::symbol::Symbol;

/// Reads variable-width values from an MSB-first symbol stream.
#[derive(Debug, Clone)]
pub struct BitReader<'a, W: Symbol> {
    words: &'a [W],
    /// Index of the next symbol to load.
    next: usize,
    /// Current symbol buffer; meaningful bits are the top `remaining`.
    sym: W,
    /// Bits remaining in `sym`.
    remaining: u32,
}

impl<'a, W: Symbol> BitReader<'a, W> {
    /// Creates a reader over a symbol stream.
    pub fn new(words: &'a [W]) -> Self {
        BitReader { words, next: 0, sym: W::ZERO, remaining: 0 }
    }

    /// Total bits consumed so far (including any skipped buffer refills).
    pub fn bits_consumed(&self) -> usize {
        self.next * W::BITS as usize - self.remaining as usize
    }

    /// Number of symbols loaded from the backing stream so far.
    pub fn symbols_loaded(&self) -> usize {
        self.next
    }

    /// Reads `width` bits, MSB-first. `width == 0` returns 0 without
    /// touching the stream.
    ///
    /// This is the two-branch decode of Algorithm 1: either the buffer holds
    /// enough bits (no memory access), or exactly one new symbol is loaded.
    ///
    /// # Panics
    ///
    /// Panics if `width > W::BITS` or the stream is exhausted.
    pub fn read(&mut self, width: u32) -> u64 {
        assert!(width <= W::BITS, "width {width} exceeds symbol width {}", W::BITS);
        if width == 0 {
            return 0;
        }
        if width <= self.remaining {
            // Branch 1 of Algorithm 1: decode entirely from the buffer.
            let decoded = self.sym.top_bits(width);
            self.sym = self.sym.shl(width);
            self.remaining -= width;
            decoded
        } else {
            // Branch 2: drain the buffer, then load the next symbol.
            let hi = self.sym.top_bits(self.remaining);
            let lo_bits = width - self.remaining;
            let next = *self
                .words
                .get(self.next)
                .unwrap_or_else(|| panic!("bit stream exhausted at symbol {}", self.next));
            self.next += 1;
            // `lo_bits` can be a full symbol width when the buffer was empty;
            // `hi` is 0 then, and `hi << 64` would overflow.
            let decoded = if lo_bits >= 64 {
                next.top_bits(lo_bits)
            } else {
                (hi << lo_bits) | next.top_bits(lo_bits)
            };
            self.sym = next.shl(lo_bits);
            self.remaining = W::BITS - lo_bits;
            decoded
        }
    }

    /// Discards bits until the reader is aligned at a symbol boundary.
    pub fn align_to_symbol(&mut self) {
        self.sym = W::ZERO;
        self.remaining = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::BitWriter;

    #[test]
    fn zero_width_reads_zero_without_consuming() {
        let words = [0xffff_ffffu32];
        let mut r = BitReader::new(&words);
        assert_eq!(r.read(0), 0);
        assert_eq!(r.bits_consumed(), 0);
        assert_eq!(r.read(4), 0xf);
    }

    #[test]
    fn reads_across_boundary() {
        // 30 zero bits then 4 one-bits spanning the boundary.
        let mut w = BitWriter::<u32>::new();
        w.write(0, 30);
        w.write(0b1111, 4);
        let s = w.finish();
        let mut r = BitReader::new(&s.words);
        assert_eq!(r.read(30), 0);
        assert_eq!(r.read(4), 0b1111);
        assert_eq!(r.bits_consumed(), 34);
        assert_eq!(r.symbols_loaded(), 2);
    }

    #[test]
    fn exact_symbol_reads() {
        let words = [0x0123_4567u32, 0x89ab_cdefu32];
        let mut r = BitReader::new(&words);
        assert_eq!(r.read(32), 0x0123_4567);
        assert_eq!(r.read(32), 0x89ab_cdef);
        assert_eq!(r.symbols_loaded(), 2);
    }

    #[test]
    fn symbols_loaded_tracks_refills_only() {
        let mut w = BitWriter::<u32>::new();
        for _ in 0..8 {
            w.write(0b101, 3);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s.words);
        for _ in 0..8 {
            assert_eq!(r.read(3), 0b101);
        }
        // 24 bits total: a single symbol suffices.
        assert_eq!(r.symbols_loaded(), 1);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhausted_stream_panics() {
        let words: [u32; 1] = [0];
        let mut r = BitReader::new(&words);
        r.read(32);
        r.read(1);
    }

    #[test]
    fn align_to_symbol_discards_partial() {
        let words = [0xffff_ffffu32, 0x8000_0000u32];
        let mut r = BitReader::new(&words);
        assert_eq!(r.read(3), 0b111);
        r.align_to_symbol();
        assert_eq!(r.read(1), 1); // MSB of the second symbol
    }

    #[test]
    fn u64_symbols_round_trip() {
        let mut w = BitWriter::<u64>::new();
        let vals = [(u64::MAX, 64u32), (1, 1), (0x7fff, 15)];
        for &(v, b) in &vals {
            w.write(v, b);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s.words);
        for &(v, b) in &vals {
            assert_eq!(r.read(b), v);
        }
    }
}
