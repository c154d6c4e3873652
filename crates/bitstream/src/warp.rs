//! Warp-wide decoding of a multiplexed stream.
//!
//! In a BRO slice (or BRO-COO interval) every lane of a warp consumes the
//! same bit width at each step, so the whole warp holds the same number of
//! buffered bits `rb` and loads stream symbol `c` at the same step. Algorithm
//! 1's refill test `b > rb` is therefore one decision per warp, and a refill
//! is one coalesced load of a stream row (`stream[c · stride + lane]` for
//! every lane). [`WarpDecoder`] keeps exactly that: one `rb` and one
//! next-symbol index for the warp, and one buffered symbol per lane.

use crate::symbol::Symbol;

/// Decoder state of one warp walking a multiplexed symbol stream.
///
/// Lane `l` reads its symbols from `stream[c · stride + lane0 + l]`, where
/// `stride` is the multiplexing height (slice height or warp size) and
/// `lane0` the warp's first lane within it. Each
/// [`decode`](WarpDecoder::decode) call takes the next `width` bits of every
/// lane, MSB-first, exactly as [`BitReader`](crate::BitReader) would on the
/// lane's own demultiplexed stream.
#[derive(Debug, Clone, Default)]
pub struct WarpDecoder<W: Symbol> {
    /// Per-lane symbol buffer; the meaningful bits are the top `rb`.
    syms: Vec<W>,
    /// Per-lane values of the last decode step.
    deltas: Vec<u64>,
    /// Bits still buffered, shared by every lane.
    rb: u32,
    /// Stream row the next refill loads, shared by every lane.
    next_sym: usize,
}

impl<W: Symbol> WarpDecoder<W> {
    /// A decoder with no lanes; call [`reset`](WarpDecoder::reset) before
    /// decoding.
    pub fn new() -> Self {
        WarpDecoder { syms: Vec::new(), deltas: Vec::new(), rb: 0, next_sym: 0 }
    }

    /// Restarts the decoder at stream row 0 with `lanes` lanes and empty
    /// buffers, reusing its allocations.
    pub fn reset(&mut self, lanes: usize) {
        self.syms.clear();
        self.syms.resize(lanes, W::ZERO);
        self.deltas.clear();
        self.deltas.resize(lanes, 0);
        self.rb = 0;
        self.next_sym = 0;
    }

    /// Stream rows loaded so far.
    pub fn symbols_loaded(&self) -> usize {
        self.next_sym
    }

    /// The values of the last [`decode`](WarpDecoder::decode) step, one per
    /// lane.
    pub fn deltas(&self) -> &[u64] {
        &self.deltas
    }

    /// Decodes the next `width` bits of every lane into
    /// [`deltas`](WarpDecoder::deltas). Returns the stream row the warp
    /// loaded when the step needed a refill, `None` when every lane decoded
    /// from its buffer (or `width` is 0, which reads nothing).
    ///
    /// # Panics
    ///
    /// Panics if `width > W::BITS`, or if a refill row lies past the end of
    /// `stream`.
    pub fn decode(
        &mut self,
        stream: &[W],
        stride: usize,
        lane0: usize,
        width: u32,
    ) -> Option<usize> {
        assert!(width <= W::BITS, "width {width} exceeds symbol width {}", W::BITS);
        if width == 0 {
            self.deltas.fill(0);
            return None;
        }
        if width <= self.rb {
            // Every lane decodes from its buffer; no lane touches memory.
            for (d, sym) in self.deltas.iter_mut().zip(self.syms.iter_mut()) {
                *d = sym.top_bits(width);
                *sym = sym.shl(width);
            }
            self.rb -= width;
            return None;
        }
        // One coalesced load of stream row `next_sym` for the whole warp.
        let row = self.next_sym;
        let start = row * stride + lane0;
        let loaded = &stream[start..start + self.syms.len()];
        let (rb, lo) = (self.rb, width - self.rb);
        let lanes = self.deltas.iter_mut().zip(self.syms.iter_mut()).zip(loaded);
        if rb == 0 {
            // `lo` may be a full 64-bit symbol, so there is no `hi << lo`.
            for ((d, sym), &next) in lanes {
                *d = next.top_bits(lo);
                *sym = next.shl(lo);
            }
        } else {
            for ((d, sym), &next) in lanes {
                *d = (sym.top_bits(rb) << lo) | next.top_bits(lo);
                *sym = next.shl(lo);
            }
        }
        self.rb = W::BITS - lo;
        self.next_sym += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplex::multiplex;
    use crate::writer::BitWriter;

    /// Two lanes writing the same width sequence, multiplexed at stride 2.
    fn two_lanes(widths: &[u32], values: [&[u64]; 2]) -> Vec<u32> {
        let rows: Vec<_> = values
            .iter()
            .map(|vals| {
                let mut w = BitWriter::<u32>::new();
                for (&v, &b) in vals.iter().zip(widths) {
                    w.write(v, b);
                }
                let mut s = w.finish();
                s.pad_to_symbol();
                s
            })
            .collect();
        multiplex(&rows).unwrap()
    }

    #[test]
    fn decodes_each_lane_and_reports_refills() {
        let widths = [3, 20, 12, 0, 32];
        let a = [5, 0xABCDE, 0x123, 0, 0xFFFF_FFFF];
        let b = [1, 7, 0xFFF, 0, 42];
        let stream = two_lanes(&widths, [&a, &b]);
        let mut dec = WarpDecoder::<u32>::new();
        dec.reset(2);
        let mut refills = Vec::new();
        for (c, &w) in widths.iter().enumerate() {
            refills.push(dec.decode(&stream, 2, 0, w));
            assert_eq!(dec.deltas(), &[a[c], b[c]], "column {c}");
        }
        // 3 + 20 fit the first symbol; 12 spills into the second, 0 reads
        // nothing and 32 spills into the third.
        assert_eq!(refills, vec![Some(0), None, Some(1), None, Some(2)]);
        assert_eq!(dec.symbols_loaded(), 3);
    }

    #[test]
    fn lane_offset_selects_the_warp() {
        let stream = two_lanes(&[8], [&[0x11], &[0x22]]);
        let mut dec = WarpDecoder::<u32>::new();
        dec.reset(1);
        assert_eq!(dec.decode(&stream, 2, 1, 8), Some(0));
        assert_eq!(dec.deltas(), &[0x22]);
    }
}
