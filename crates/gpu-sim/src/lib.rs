//! # bro-gpu-sim
//!
//! A SIMT GPU simulator standing in for the CUDA hardware used in the
//! paper's evaluation (Tesla C2070, GeForce GTX680, Tesla K20 — Table 1).
//!
//! The simulator executes kernels **functionally** — a kernel computes real
//! results on host memory — while every warp-level memory instruction and
//! arithmetic operation is reported to the simulator for accounting:
//!
//! * **global memory** accesses are grouped per warp instruction and
//!   coalesced into fixed-size memory transactions (128 B segments);
//! * **texture reads** (the `x` vector) go through a per-SM set-associative
//!   LRU cache; only misses generate DRAM traffic;
//! * **constant memory** reads (the `bit_alloc` arrays) are broadcast and
//!   assumed cached after first use;
//! * **arithmetic** is split into floating-point ops and integer/decode ops,
//!   charged against per-device throughputs.
//!
//! A roofline timing model converts the totals into an execution-time
//! estimate and a [`KernelReport`] (GFLOP/s, DRAM bytes, bandwidth
//! utilization, effective arithmetic intensity) — the quantities plotted in
//! every figure of the paper.
//!
//! Thread blocks are assigned round-robin to SMs; SMs execute in parallel on
//! host threads (rayon) while each SM processes its blocks sequentially
//! against its own texture cache, which keeps runs deterministic.

pub mod buffer;
pub mod cache;
pub mod chrome;
pub mod device;
pub mod exec;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod timing;
pub mod trace;

pub use buffer::{AddrSpace, BufferAddr, BASE_ADDR};
pub use cache::SetAssocCache;
pub use chrome::chrome_trace_json;
pub use device::DeviceProfile;
pub use exec::{BlockCtx, DeviceSim, DeviceSimBuilder};
pub use json::Json;
pub use metrics::{Metric, MetricsRegistry};
pub use stats::{LaunchStats, StatsSnapshot};
pub use timing::KernelReport;
pub use trace::{SpanId, SpanRecord, Tracer};
