//! MSB-first variable-width bit stream construction.

use crate::symbol::Symbol;

/// A finished bit stream: a sequence of symbols plus the exact bit length.
///
/// Produced by [`BitWriter::finish`]. `len_bits` may be smaller than
/// `words.len() * W::BITS`; the trailing bits of the last symbol are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitString<W: Symbol> {
    /// Packed symbols, MSB-first.
    pub words: Vec<W>,
    /// Number of meaningful bits.
    pub len_bits: usize,
}

impl<W: Symbol> BitString<W> {
    /// An empty bit string.
    pub fn empty() -> Self {
        BitString { words: Vec::new(), len_bits: 0 }
    }

    /// Number of whole symbols, counting a trailing partial symbol.
    pub fn symbol_count(&self) -> usize {
        self.words.len()
    }

    /// Pads the stream with zero bits so that `len_bits` becomes a multiple
    /// of the symbol width, and returns the number of padding bits added.
    ///
    /// This is the `b_p` padding of the paper: every row stream in a slice is
    /// padded so that `sym_len` divides its total bit length.
    pub fn pad_to_symbol(&mut self) -> u32 {
        let rem = (self.len_bits % W::BITS as usize) as u32;
        if rem == 0 {
            return 0;
        }
        let pad = W::BITS - rem;
        self.len_bits += pad as usize;
        pad
    }
}

/// Writes variable-width values into an MSB-first symbol stream.
///
/// The first value written occupies the most significant bits of the first
/// symbol, so that a decoder following Algorithm 1 of the paper — extract the
/// top `b` bits, shift the buffer left by `b` — recovers values in write
/// order.
///
/// ```
/// use bro_bitstream::{BitWriter, BitReader};
/// let mut w = BitWriter::<u32>::new();
/// w.write(5, 3);
/// w.write(1, 1);
/// w.write(200, 9);
/// let s = w.finish();
/// let mut r = BitReader::new(&s.words);
/// assert_eq!(r.read(3), 5);
/// assert_eq!(r.read(1), 1);
/// assert_eq!(r.read(9), 200);
/// ```
#[derive(Debug, Clone)]
pub struct BitWriter<W: Symbol> {
    words: Vec<W>,
    /// Bits already committed to `words` (always a multiple of W::BITS).
    committed_bits: usize,
    /// Accumulator holding up to W::BITS pending bits in its MSBs.
    acc: W,
    /// Number of pending bits in `acc`.
    acc_bits: u32,
}

impl<W: Symbol> Default for BitWriter<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Symbol> BitWriter<W> {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter { words: Vec::new(), committed_bits: 0, acc: W::ZERO, acc_bits: 0 }
    }

    /// Total number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.committed_bits + self.acc_bits as usize
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds the symbol width, or if `value` does not fit
    /// in `width` bits (a caller bug: the bit allocation must have been
    /// computed from these very values).
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= W::BITS, "width {width} exceeds symbol width {}", W::BITS);
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let free = W::BITS - self.acc_bits;
        if width <= free {
            let chunk = W::from_low_bits_of(value, width).shr(self.acc_bits);
            self.acc = self.acc.or(chunk);
            self.acc_bits += width;
            if self.acc_bits == W::BITS {
                self.flush_acc();
            }
        } else {
            // Split across the symbol boundary: high part fills the current
            // accumulator, low part starts the next.
            let hi = width - free;
            let hi_val = value >> hi;
            let chunk = W::from_low_bits_of(hi_val, free).shr(self.acc_bits);
            self.acc = self.acc.or(chunk);
            self.acc_bits = W::BITS;
            self.flush_acc();
            self.acc = W::from_low_bits_of(value, hi);
            self.acc_bits = hi;
        }
    }

    fn flush_acc(&mut self) {
        self.words.push(self.acc);
        self.committed_bits += W::BITS as usize;
        self.acc = W::ZERO;
        self.acc_bits = 0;
    }

    /// Finalizes the stream. The last partial symbol, if any, is emitted with
    /// zero-padding in its least significant bits, but `len_bits` records the
    /// exact number of meaningful bits.
    pub fn finish(mut self) -> BitString<W> {
        let len_bits = self.len_bits();
        if self.acc_bits > 0 {
            self.words.push(self.acc);
        }
        BitString { words: self.words, len_bits }
    }
}

/// Writes variable-width values MSB-first, like [`BitWriter`], but straight
/// into one lane of an already multiplexed stream: symbol `c` of the lane
/// lands at `out[first + c · stride]`.
///
/// This is how the BRO encoders avoid building one [`BitString`] per row and
/// interleaving them afterwards with [`multiplex`](crate::multiplex()): a
/// row's deltas pass through a 128-bit accumulator and each completed symbol
/// is stored in its final slot. `out` must be zero-initialised; the lane's
/// trailing padding bits are left as they are.
///
/// ```
/// use bro_bitstream::{BitReader, StridedWriter};
/// let mut stream = vec![0u32; 4]; // 2 lanes x 2 symbols
/// let mut w = StridedWriter::new(&mut stream, 1, 2);
/// w.write(5, 30);
/// w.write(3, 4); // crosses into the lane's second symbol
/// w.finish();
/// let lane: Vec<u32> = vec![stream[1], stream[3]];
/// let mut r = BitReader::new(&lane);
/// assert_eq!((r.read(30), r.read(4)), (5, 3));
/// ```
#[derive(Debug)]
pub struct StridedWriter<'a, W: Symbol> {
    out: &'a mut [W],
    /// Slot of the next symbol to complete.
    at: usize,
    stride: usize,
    /// Pending bits in the low `acc_bits` bits; older bits above them have
    /// already been stored.
    acc: u128,
    /// Number of pending bits, always below `W::BITS`.
    acc_bits: u32,
}

impl<'a, W: Symbol> StridedWriter<'a, W> {
    /// A writer for the lane whose first symbol is `out[first]`.
    pub fn new(out: &'a mut [W], first: usize, stride: usize) -> Self {
        StridedWriter { out, at: first, stride, acc: 0, acc_bits: 0 }
    }

    /// Appends `value` in `width` bits. Panics, like [`BitWriter::write`],
    /// unless `width ≤ W::BITS` and `value < 2^width`.
    #[inline]
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= W::BITS, "width {width} exceeds symbol width {}", W::BITS);
        assert!(width == 64 || value < (1u64 << width), "{value} needs more than {width} bits");
        // Fewer than W::BITS pending plus at most W::BITS new bits: at most
        // one symbol completes, and 128 bits hold both.
        self.acc = (self.acc << width) | value as u128;
        self.acc_bits += width;
        if self.acc_bits >= W::BITS {
            self.acc_bits -= W::BITS;
            self.out[self.at] = W::from_u64((self.acc >> self.acc_bits) as u64);
            self.at += self.stride;
        }
    }

    /// Stores the last partial symbol, its unused low bits zero.
    pub fn finish(self) {
        if self.acc_bits > 0 {
            self.out[self.at] = W::from_u64((self.acc << (W::BITS - self.acc_bits)) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::BitReader;

    #[test]
    fn empty_writer() {
        let s = BitWriter::<u32>::new().finish();
        assert_eq!(s.len_bits, 0);
        assert!(s.words.is_empty());
    }

    #[test]
    fn zero_width_writes_nothing() {
        let mut w = BitWriter::<u32>::new();
        w.write(0, 0);
        w.write(0, 0);
        assert_eq!(w.len_bits(), 0);
    }

    #[test]
    fn single_full_symbol() {
        let mut w = BitWriter::<u32>::new();
        w.write(0xdead_beef, 32);
        let s = w.finish();
        assert_eq!(s.words, vec![0xdead_beefu32]);
        assert_eq!(s.len_bits, 32);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::<u32>::new();
        w.write(0b101, 3);
        let s = w.finish();
        assert_eq!(s.words[0] >> 29, 0b101);
    }

    #[test]
    fn split_across_symbol_boundary() {
        let mut w = BitWriter::<u32>::new();
        w.write(0, 30);
        w.write(0b1111, 4); // 2 bits in word 0, 2 bits in word 1
        let s = w.finish();
        assert_eq!(s.words.len(), 2);
        assert_eq!(s.words[0] & 0b11, 0b11);
        assert_eq!(s.words[1] >> 30, 0b11);
        assert_eq!(s.len_bits, 34);
    }

    #[test]
    fn round_trip_mixed_widths_u32() {
        let items: Vec<(u64, u32)> =
            vec![(5, 3), (0, 1), (1023, 10), (1, 1), (0xffff_ffff, 32), (7, 5), (0, 2)];
        let mut w = BitWriter::<u32>::new();
        for &(v, b) in &items {
            w.write(v, b);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s.words);
        for &(v, b) in &items {
            assert_eq!(r.read(b), v);
        }
    }

    #[test]
    fn round_trip_mixed_widths_u64() {
        let items: Vec<(u64, u32)> = vec![(5, 3), (u64::MAX >> 1, 63), (0, 1), (12345, 20)];
        let mut w = BitWriter::<u64>::new();
        for &(v, b) in &items {
            w.write(v, b);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s.words);
        for &(v, b) in &items {
            assert_eq!(r.read(b), v);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_value_panics() {
        let mut w = BitWriter::<u32>::new();
        w.write(8, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds symbol width")]
    fn overwide_write_panics() {
        let mut w = BitWriter::<u32>::new();
        w.write(0, 33);
    }

    #[test]
    fn pad_to_symbol() {
        let mut w = BitWriter::<u32>::new();
        w.write(1, 5);
        let mut s = w.finish();
        let pad = s.pad_to_symbol();
        assert_eq!(pad, 27);
        assert_eq!(s.len_bits, 32);
        assert_eq!(s.pad_to_symbol(), 0); // already aligned
    }

    #[test]
    fn strided_writer_matches_bit_writer_then_multiplex() {
        // Three lanes of the same mixed widths, each interleaved at stride 3.
        let items: Vec<(u64, u32)> = vec![(5, 3), (0, 0), (0xffff_ffff, 32), (1, 1), (77, 7)];
        let lanes: Vec<BitString<u32>> = (0..3u64)
            .map(|lane| {
                let mut w = BitWriter::<u32>::new();
                for &(v, b) in &items {
                    w.write(v >> lane.min(b as u64), b);
                }
                let mut s = w.finish();
                s.pad_to_symbol();
                s
            })
            .collect();
        let want = crate::multiplex(&lanes).unwrap();
        let mut got = vec![0u32; want.len()];
        for lane in 0..3u64 {
            let mut w = StridedWriter::new(&mut got, lane as usize, 3);
            for &(v, b) in &items {
                w.write(v >> lane.min(b as u64), b);
            }
            w.finish();
        }
        assert_eq!(got, want);
    }

    #[test]
    fn strided_writer_u64_full_width() {
        let mut got = vec![0u64; 2];
        let mut w = StridedWriter::new(&mut got, 0, 1);
        w.write(1, 1);
        w.write(u64::MAX, 64);
        w.finish();
        assert_eq!(got, vec![u64::MAX >> 1 | 1 << 63, 1 << 63]);
    }
}
