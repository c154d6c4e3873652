//! End-to-end and per-layer benchmark of the BRO SpMV pipeline.
//!
//! Three closed-loop workloads drive the library through its public calls
//! only (`matrix::io`, `core::reorder::bar_order`, the kernel registry,
//! `KernelReport`, `solvers::cg`, `gpu_cluster::ClusterSpmv`). One caller
//! issues the next operation ("op") only after the previous one has
//! completed and been checked against the CPU reference. Layer spans are
//! recorded from this crate around each public call with
//! [`bro_gpu_sim::Tracer`]; see `README.md` for the metric definitions.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use bro_gpu_sim::{DeviceProfile, DeviceSim, SpanRecord, StatsSnapshot, Tracer};

pub mod cg_solve;
pub mod cluster_spmv;
pub mod paper_eval;

/// Suite matrix scale (`1.0` = paper size) every metric is defined at.
pub const SCALE: f64 = 0.1;

/// Inputs shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: XORed into each generator seed, and seeds `x` and the
    /// right-hand sides.
    pub seed: u64,
    /// Suite matrix scale. The benchmark always runs at [`SCALE`]; only the
    /// determinism test sets a smaller one, to keep its four rounds of
    /// `paper-eval` short.
    pub scale: f64,
    /// Scratch directory for the `.mtx` files written during set-up.
    pub work_dir: PathBuf,
}

/// Work done by the one-shot layers, for their throughput metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// `.mtx` bytes parsed by `matrix.io.read`.
    pub io_read_bytes: u64,
    /// Nonzeros encoded into BRO formats.
    pub build_nnz_bro: u64,
    /// Nonzeros encoded into uncompressed formats.
    pub build_nnz_baseline: u64,
}

/// Records layer spans (when tracing) and one-shot layer work.
pub struct Probe {
    tracer: Tracer,
    work: RefCell<Work>,
}

impl Probe {
    /// A probe whose spans cost one branch each.
    pub fn off() -> Self {
        Probe { tracer: Tracer::disabled(), work: RefCell::default() }
    }

    /// A probe recording every span.
    pub fn traced() -> Self {
        Probe { tracer: Tracer::enabled(), work: RefCell::default() }
    }

    /// The tracer spans are recorded into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs `f` inside a driver-lane span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.begin(0, name);
        let out = f();
        self.tracer.end(id);
        out
    }

    /// A simulated device whose launches nest under the open span.
    pub fn device(&self, profile: DeviceProfile) -> DeviceSim {
        DeviceSim::builder(profile).tracer(self.tracer.clone()).build()
    }

    /// Adds to the one-shot layer work.
    pub fn add_work(&self, f: impl FnOnce(&mut Work)) {
        f(&mut self.work.borrow_mut());
    }

    /// The one-shot layer work recorded so far.
    pub fn work(&self) -> Work {
        *self.work.borrow()
    }
}

/// Exact counts: simulated statistics, model outputs and iteration counts.
/// Host speed-ups must leave every field unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Simulated kernel launches.
    pub launches: u64,
    /// Warp-level global load and store instructions.
    pub mem_instrs: u64,
    /// Texture-path accesses.
    pub tex_accesses: u64,
    /// Texture-cache hits.
    pub tex_hits: u64,
    /// Modeled DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Sum of the BAR objective Φ over the reordered matrices.
    pub bar_cost: u64,
    /// CG iterations.
    pub cg_iters: u64,
    /// Halo-exchange bytes moved between simulated devices.
    pub halo_bytes: u64,
    /// Largest exchange time left exposed behind the local phase (µs).
    pub exposed_exchange_us: f64,
    /// Largest slowest-to-mean device busy-time ratio.
    pub load_imbalance: f64,
}

impl Counts {
    /// Adds one device's statistics.
    pub fn add_sim(&mut self, snap: &StatsSnapshot) {
        let s = &snap.stats;
        self.launches += snap.launches as u64;
        self.mem_instrs += s.global_load_instrs + s.global_store_instrs;
        self.tex_accesses += s.tex_accesses;
        self.tex_hits += s.tex_hits;
        self.dram_bytes += s.dram_bytes();
    }

    /// Folds another set of counts into this one.
    pub fn merge(&mut self, o: &Counts) {
        self.launches += o.launches;
        self.mem_instrs += o.mem_instrs;
        self.tex_accesses += o.tex_accesses;
        self.tex_hits += o.tex_hits;
        self.dram_bytes += o.dram_bytes;
        self.bar_cost += o.bar_cost;
        self.cg_iters += o.cg_iters;
        self.halo_bytes += o.halo_bytes;
        self.exposed_exchange_us = self.exposed_exchange_us.max(o.exposed_exchange_us);
        self.load_imbalance = self.load_imbalance.max(o.load_imbalance);
    }

    /// Texture-cache hit rate.
    pub fn tex_hit_rate(&self) -> f64 {
        if self.tex_accesses == 0 {
            0.0
        } else {
            self.tex_hits as f64 / self.tex_accesses as f64
        }
    }
}

/// A modeled BRO-over-baseline speedup for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Simulated device name.
    pub device: &'static str,
    /// The BRO format (its baseline is the same name without `bro-`).
    pub bro: &'static str,
    /// BRO GFLOP/s over baseline GFLOP/s.
    pub ratio: f64,
}

/// What a checked op contributes to the metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Nonzeros pushed through simulated SpMVs.
    pub sim_nnz: u64,
    /// Exact counts of the op.
    pub counts: Counts,
    /// Modeled GFLOP/s of each simulated product.
    pub gflops: Vec<f64>,
    /// Modeled BRO-over-baseline speedups.
    pub pairs: Vec<Pair>,
}

/// Modeled end-to-end metrics: deterministic simulator outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Geomean of the modeled GFLOP/s.
    pub gflops: f64,
    /// Geomean of BRO over uncompressed twin.
    pub speedup: f64,
    /// Index space savings η of the BRO builds (mean over builds).
    pub eta: f64,
    /// The speedups behind `speedup`, per device and format.
    pub pairs: Vec<Pair>,
}

impl Model {
    /// Aggregates the modeled outputs of a round of samples; η is left 0
    /// for the workload to fill in.
    pub fn from_samples(samples: &[Sample]) -> Model {
        let gflops: Vec<f64> = samples.iter().flat_map(|s| s.gflops.iter().copied()).collect();
        let pairs: Vec<Pair> = samples.iter().flat_map(|s| s.pairs.iter().cloned()).collect();
        let ratios: Vec<f64> = pairs.iter().map(|p| p.ratio).collect();
        Model { gflops: geomean(&gflops), speedup: geomean(&ratios), eta: 0.0, pairs }
    }

    /// Geomean speedup of one BRO format on one device.
    pub fn speedup_of(&self, device: &str, bro: &str) -> f64 {
        let r: Vec<f64> = self
            .pairs
            .iter()
            .filter(|p| p.device == device && p.bro == bro)
            .map(|p| p.ratio)
            .collect();
        geomean(&r)
    }
}

/// One closed-loop workload.
pub trait Workload: Sized {
    /// Outputs of one op, checked after its timer stops.
    type Out;

    /// Builds the inputs and everything ops reuse.
    fn setup(cfg: &Config, probe: &Probe) -> Result<Self, String>;

    /// Ops in one round; whole rounds keep the op mix fixed.
    fn ops_per_round(&self) -> usize;

    /// Runs op number `k`.
    fn op(&mut self, k: usize, probe: &Probe) -> Self::Out;

    /// Checks an op's outputs against the CPU reference.
    fn check(&mut self, out: Self::Out) -> Result<Sample, String>;

    /// The modeled end-to-end metrics, given the first round's samples.
    fn model(&mut self, round0: &[Sample]) -> Model;
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host latency of each op, in seconds (failed ops included).
    pub latencies_s: Vec<f64>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that panicked or failed their check.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Samples of the first round, in op order.
    pub round0: Vec<Sample>,
    /// Counts summed over every checked op.
    pub totals: Counts,
    /// Nonzeros pushed through simulated SpMVs by each op (0 for a failed
    /// op), aligned with `latencies_s`.
    pub op_nnz: Vec<u64>,
    /// Ops per round.
    pub per_round: usize,
    /// Peak resident set of each round, in MB.
    pub round_rss_mb: Vec<f64>,
}

impl Phase {
    /// Total host time inside ops.
    pub fn op_time_s(&self) -> f64 {
        self.latencies_s.iter().sum()
    }

    /// The op latencies, in ms, that the latency percentiles are taken over.
    ///
    /// A round that mixes different ops (`paper-eval`'s eight matrices)
    /// first reduces each op to its median over rounds: pooled, p50 would
    /// sit on the extremes of the two matrices either side of the middle.
    /// Otherwise these are the latencies of all ops.
    pub fn latency_samples_ms(&self) -> Vec<f64> {
        let ms: Vec<f64> = self.latencies_s.iter().map(|s| s * 1e3).collect();
        if self.per_round > 1 {
            self.per_op_medians(&ms)
        } else {
            ms
        }
    }

    /// Op latency percentile `p`, in ms, of [`Phase::latency_samples_ms`].
    pub fn op_percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.latency_samples_ms(), p)
    }

    /// Simulated Mnnz per host-second in ops. A mixed round takes the
    /// geomean over its ops of each op's median throughput, so every matrix
    /// weighs the same instead of the slowest one setting the figure;
    /// otherwise all nonzeros over all op time.
    pub fn mnnz_per_s(&self) -> f64 {
        if self.per_round > 1 {
            let rates: Vec<f64> = self
                .op_nnz
                .iter()
                .zip(&self.latencies_s)
                .map(|(&n, &s)| n as f64 / 1e6 / s)
                .collect();
            return geomean(&self.per_op_medians(&rates));
        }
        self.op_nnz.iter().sum::<u64>() as f64 / 1e6 / self.op_time_s()
    }

    /// The median over rounds of each op's value.
    fn per_op_medians(&self, per_op: &[f64]) -> Vec<f64> {
        (0..self.per_round)
            .map(|j| {
                let v: Vec<f64> = per_op.iter().skip(j).step_by(self.per_round).copied().collect();
                percentile(&v, 50.0)
            })
            .collect()
    }

    /// Counts of the first round.
    pub fn round0_counts(&self) -> Counts {
        let mut c = Counts::default();
        for s in &self.round0 {
            c.merge(&s.counts);
        }
        c
    }
}

/// Runs whole rounds of ops, closed loop, until the next round would end
/// after `budget_s`. At least one round always runs. Reference checks run
/// between ops and are excluded from op latency.
pub fn drive<W: Workload>(w: &mut W, budget_s: f64, probe: &Probe) -> Phase {
    let start = Instant::now();
    let per_round = w.ops_per_round();
    let mut phase = Phase { per_round, ..Phase::default() };
    let mut k = 0;
    loop {
        reset_peak_rss();
        let round_start = Instant::now();
        for _ in 0..per_round {
            let t = Instant::now();
            // A panic leaves the op's spans open; they are never recorded, and
            // later spans on the lane nest below them without breaking order.
            let out = guarded(|| probe.span("op", || w.op(k, probe)));
            phase.latencies_s.push(t.elapsed().as_secs_f64());
            phase.attempted += 1;
            let checked = match out {
                Ok(out) => probe.span("verify.check", || w.check(out)),
                Err(e) => Err(format!("op {k} {e}")),
            };
            match checked {
                Ok(sample) => {
                    phase.totals.merge(&sample.counts);
                    phase.op_nnz.push(sample.sim_nnz);
                    if k < per_round {
                        phase.round0.push(sample);
                    }
                }
                Err(e) => {
                    phase.op_nnz.push(0);
                    phase.failed += 1;
                    if phase.errors.len() < 5 {
                        phase.errors.push(e);
                    }
                }
            }
            k += 1;
        }
        let round_s = round_start.elapsed().as_secs_f64();
        phase.round_rss_mb.push(peak_rss_mb());
        if start.elapsed().as_secs_f64() + round_s > budget_s {
            return phase;
        }
    }
}

/// Runs `f`, turning a panic into an error. The simulator and
/// `ClusterSpmv::spmv` panic on a wrong product.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panicked: {msg}")
    })
}

/// Sets the worker-pool size for every data-parallel call in the process.
pub fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("the rayon shim never fails to set its global pool size");
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A reproducible vector of `n` values in `[0.5, 1.5)` (SplitMix64).
pub fn seeded_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Checks a simulated product against the CPU reference under the ULP- and
/// row-length-aware tolerance of `bro-verify`.
pub fn check_y(what: &str, got: &[f64], want: &[f64], row_terms: &[u32]) -> Result<(), String> {
    match bro_verify::compare(got, want, row_terms, &bro_verify::Tolerance::default()) {
        None => Ok(()),
        Some(m) => Err(format!("{what}: {m}")),
    }
}

/// Geometric mean; 0 for an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Percentile `p` in `[0, 100]` by linear interpolation between ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Per-name totals over wall-clock spans: calls, duration and self time
/// (duration minus the time its child spans cover), all in seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: usize,
    /// Summed duration.
    pub total_s: f64,
    /// Summed self time.
    pub self_s: f64,
}

/// Aggregates wall-clock spans by name.
pub fn span_totals(spans: &[SpanRecord]) -> std::collections::BTreeMap<String, SpanTotals> {
    let mut child_us = std::collections::HashMap::<u64, f64>::new();
    for s in spans.iter().filter(|s| !s.model_time) {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us;
        }
    }
    let mut out = std::collections::BTreeMap::<String, SpanTotals>::new();
    for s in spans.iter().filter(|s| !s.model_time) {
        let t = out.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.total_s += s.dur_us * 1e-6;
        t.self_s += (s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0) * 1e-6;
    }
    out
}

/// Restarts the process high-water mark from the current resident set
/// (Linux `clear_refs` mode 5). Best effort: elsewhere the mark keeps
/// covering the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Process high-water resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn seeded_vec_is_reproducible_and_bounded() {
        let a = seeded_vec(7, 100);
        assert_eq!(a, seeded_vec(7, 100));
        assert_ne!(a, seeded_vec(8, 100));
        assert!(a.iter().all(|&x| (0.5..1.5).contains(&x)));
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::enabled();
        let outer = t.begin(0, "outer");
        let inner = t.begin(0, "inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let totals = span_totals(&t.spans());
        let (o, i) = (&totals["outer"], &totals["inner"]);
        assert!((o.self_s - (o.total_s - i.total_s)).abs() < 1e-9);
        assert!(i.self_s > 0.001);
    }
}
