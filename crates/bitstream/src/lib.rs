//! # bro-bitstream
//!
//! Bit-level primitives underlying the bit-representation-optimized (BRO)
//! sparse matrix formats of Tang et al. (SC '13):
//!
//! * [`bits_for`] — Γ(u), the number of bits required to represent an
//!   unsigned integer (Γ(0) = 0);
//! * [`BitWriter`] / [`BitReader`] — MSB-first variable-width bit streams
//!   over fixed-size symbols, matching the decode semantics of the paper's
//!   Algorithm 1 (`decoded = sym[0:b]`, `sym <<= b`);
//! * [`delta`] — delta coding for strictly monotone index sequences with the
//!   paper's "zero marks invalid" convention;
//! * [`multiplex()`] — interleaving of equal-length row streams at symbol
//!   granularity so that a warp of simulated GPU threads reads the compressed
//!   stream with perfectly coalesced accesses;
//! * [`WarpDecoder`] — Algorithm 1's decoder for a whole warp of such
//!   lanes, with one warp-uniform refill decision per step.
//!
//! The symbol width (`sym_len` in the paper, 32 or 64 bits) is a type
//! parameter: every stream is generic over a [`Symbol`] word type, with
//! implementations for `u32` and `u64`.

pub mod delta;
pub mod multiplex;
pub mod reader;
pub mod symbol;
pub mod warp;
pub mod width;
pub mod writer;

pub use delta::{delta_decode_row, delta_encode_row, DeltaError, INVALID_DELTA};
pub use multiplex::{demultiplex, multiplex, MultiplexError};
pub use reader::BitReader;
pub use symbol::Symbol;
pub use warp::WarpDecoder;
pub use width::{bits_for, max_bits};
pub use writer::{BitString, BitWriter, StridedWriter};
