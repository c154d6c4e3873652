//! # bro-core
//!
//! The paper's contribution: **bit-representation-optimized (BRO)** sparse
//! matrix formats and the **BRO-aware reordering** (BAR).
//!
//! * [`BroEll`] — BRO-ELL (Section 3.1): the ELLPACK column-index array is
//!   delta-encoded per row, split into slices of height `h` (one thread
//!   block each), bit-packed with a per-column bit allocation, and
//!   multiplexed at symbol granularity for coalesced access.
//! * [`BroCoo`] — BRO-COO (Section 3.2): the COO row-index array is split
//!   into warp-sized intervals, delta-encoded and packed at a single bit
//!   width per interval; decoding requires a warp scan.
//! * [`BroHyb`] — BRO-HYB (Section 3.3): Bell–Garland split into a BRO-ELL
//!   part and a BRO-COO part.
//! * [`reorder`] — BAR (Section 3.4, Eqn. 1 + Algorithm 2) plus the RCM and
//!   simplified-AMD baselines it is compared against.
//! * [`values`] — the paper's future-work extension: value-stream
//!   compression via a dictionary of repeated values.
//!
//! Compression runs offline on the host (this crate); decompression-during-
//! SpMV runs "on the GPU" — the kernels in `bro-kernels`, executing on the
//! simulator. This crate also carries host-side reference decoders used to
//! validate the kernels bit-for-bit.

pub mod analysis;
pub mod bro_coo;
pub mod bro_ell;
pub mod bro_ellr;
pub mod bro_hyb;
#[cfg(test)]
mod oracle;
pub mod reorder;
pub mod serialize;
pub mod values;
pub mod vlq_ell;

pub use analysis::{compression_ratio, DeltaHistogram, SpaceSavings};
pub use bro_coo::{BroCoo, BroCooConfig, BroCooInterval};
pub use bro_ell::{BroEll, BroEllConfig, BroEllSlice, MAX_SLICE_HEIGHT};
pub use bro_ellr::BroEllR;
pub use bro_hyb::{BroHyb, BroHybConfig};
pub use serialize::{read_bro_coo, read_bro_ell, write_bro_coo, write_bro_ell, SerializeError};
pub use values::{analyze_value_compression, CompressedValues};
pub use vlq_ell::VlqEll;
