//! The warp decoder against the per-lane decoder it replaced: the same
//! deltas on every lane and the same refill steps, for both symbol widths,
//! bit widths from 0 to `W::BITS`, warps that cover a slice partially, and
//! BRO-COO-shaped streams whose last step has a tail of padding lanes.

use bro_bitstream::{Symbol, WarpDecoder};
use proptest::prelude::*;

/// The per-lane `(sym, rb)` state machine of Algorithm 1 that the BRO
/// kernels ran for every simulated thread, reading the multiplexed stream
/// in place (symbol `c` of lane `r` lives at `stream[c · stride + r]`).
struct LaneDecoder<W: Symbol> {
    sym: W,
    rb: u32,
    next_sym: usize,
}

impl<W: Symbol> LaneDecoder<W> {
    fn new() -> Self {
        LaneDecoder { sym: W::ZERO, rb: 0, next_sym: 0 }
    }

    fn read(&mut self, stream: &[W], stride: usize, lane: usize, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        if width <= self.rb {
            let decoded = self.sym.top_bits(width);
            self.sym = self.sym.shl(width);
            self.rb -= width;
            decoded
        } else {
            let hi = self.sym.top_bits(self.rb);
            let lo_bits = width - self.rb;
            let next = stream[self.next_sym * stride + lane];
            self.next_sym += 1;
            let decoded = if lo_bits >= 64 {
                next.top_bits(lo_bits)
            } else {
                (hi << lo_bits) | next.top_bits(lo_bits)
            };
            self.sym = next.shl(lo_bits);
            self.rb = W::BITS - lo_bits;
            decoded
        }
    }
}

/// Decodes a stride-`stride` multiplexed stream warp by warp with both
/// decoders and compares every step. `steps` are the per-step widths.
fn compare<W: Symbol>(stream: &[W], stride: usize, warp: usize, steps: &[u32]) {
    let mut dec = WarpDecoder::<W>::new();
    for w0 in (0..stride).step_by(warp) {
        let lanes = (stride - w0).min(warp);
        dec.reset(lanes);
        let mut oracle: Vec<LaneDecoder<W>> = (0..lanes).map(|_| LaneDecoder::new()).collect();
        for (c, &width) in steps.iter().enumerate() {
            let expect_row = (width > oracle[0].rb).then_some(oracle[0].next_sym);
            assert_eq!(
                dec.decode(stream, stride, w0, width),
                expect_row,
                "refill at warp {w0}, step {c}"
            );
            for (l, lane) in oracle.iter_mut().enumerate() {
                let want = lane.read(stream, stride, w0 + l, width);
                assert_eq!(dec.deltas()[l], want, "warp {w0}, lane {l}, step {c}, width {width}");
            }
        }
        assert_eq!(dec.symbols_loaded(), oracle[0].next_sym);
    }
}

/// Widths mixing the edge values 0 and `bits` with arbitrary ones.
fn widths(bits: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        (0u32..4, 1..=bits).prop_map(move |(kind, w)| match kind {
            0 => 0,
            1 => bits,
            _ => w,
        }),
        1..40,
    )
}

/// A stream long enough for `steps` at `stride` lanes, from seeded words.
fn stream<W: Symbol>(seed: u64, stride: usize, steps: &[u32]) -> Vec<W> {
    let syms = steps.iter().map(|&w| w as usize).sum::<usize>().div_ceil(W::BITS as usize);
    let mut state = seed | 1;
    (0..syms * stride)
        .map(|_| {
            // xorshift64: arbitrary bit patterns in every symbol.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            W::from_u64(state)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn warp_decoder_matches_lane_decoders_u32(
        steps in widths(32), stride in 1usize..70, warp in 1usize..=33, seed in any::<u64>(),
    ) {
        compare::<u32>(&stream(seed, stride, &steps), stride, warp, &steps);
    }

    #[test]
    fn warp_decoder_matches_lane_decoders_u64(
        steps in widths(64), stride in 1usize..70, warp in 1usize..=33, seed in any::<u64>(),
    ) {
        compare::<u64>(&stream(seed, stride, &steps), stride, warp, &steps);
    }

    /// BRO-COO: one warp spans the whole stride and decodes one interval
    /// width at every step; the last step's lanes past `len` hold padding.
    #[test]
    fn warp_decoder_matches_on_interval_tails(
        len in 1usize..200, warp in 1usize..=32, width in 0u32..=32, seed in any::<u64>(),
    ) {
        let steps = vec![width; len.div_ceil(warp)];
        compare::<u32>(&stream(seed, warp, &steps), warp, warp, &steps);
        let steps64 = vec![width * 2; len.div_ceil(warp)];
        compare::<u64>(&stream(seed, warp, &steps64), warp, warp, &steps64);
    }
}
