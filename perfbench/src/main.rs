//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! bro-perfbench --workload <paper-eval|cg-solve|cluster-spmv> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. The exit code is 0 only when every op passed
//! its reference check.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use bro_gpu_sim::{chrome_trace_json, SpanRecord};
use bro_perfbench::cg_solve::CgSolve;
use bro_perfbench::cluster_spmv::ClusterStep;
use bro_perfbench::paper_eval::{print_paper_reference, PaperEval};
use bro_perfbench::{
    drive, guarded, nproc, percentile, set_threads, span_totals, Config, Counts, Model, Phase,
    Probe, SpanTotals, Workload, SCALE,
};

const USAGE: &str = "usage: bro-perfbench --workload <paper-eval|cg-solve|cluster-spmv> \
                     --seed <n> --seconds <s> --trace <0|1>";
const WORKLOADS: [&str; 3] = ["paper-eval", "cg-solve", "cluster-spmv"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Worker threads of the untraced run. The rayon shim spawns OS threads for
/// every parallel call (BAR makes one per greedy step), so on a host whose
/// cores other work shares, `nproc` workers timed the scheduler more than
/// the program: 2-thread `paper-eval` runs spread by up to 2x. The traced
/// run still times every layer at `nproc` threads and at 1.
const UNTRACED_THREADS: usize = 1;
/// Ops kept in the exported Chrome trace. `validate_chrome_trace` takes
/// time quadratic in the document size, so the export covers the set-up
/// and the first ops only; the self-time table covers the whole phase.
const TRACE_OPS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value '{value}' for {flag}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace {
        None | Some(0) => false,
        Some(1) => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be given and positive")?,
        trace,
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                // A non-finite value marks the run incorrect; keep the line valid JSON.
                let v = if v.is_finite() { v.to_string() } else { "null".into() };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = Config {
        seed: args.seed,
        scale: SCALE,
        work_dir: root.join(".work").join(format!("{}-{}", args.workload, std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("error: creating {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "paper-eval" => run::<PaperEval>(&args, &cfg, root),
        "cg-solve" => run::<CgSolve>(&args, &cfg, root),
        _ => run::<ClusterStep>(&args, &cfg, root),
    };
    // Best effort: a leftover scratch directory is harmless and ignored.
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    match result {
        Ok(o) => {
            for (n, v, u) in &o.metrics.0 {
                println!("  {n:<34} {v:>16.6} {u}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.correct,
                o.attempted,
                o.failed,
                o.metrics.json()
            );
            if o.correct && o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run<W: Workload>(args: &Args, cfg: &Config, root: &Path) -> Result<Outcome, String> {
    if args.trace {
        traced::<W>(args, cfg, root)
    } else {
        untraced::<W>(args, cfg)
    }
}

/// Prints a phase's latency summary and failures; returns its p50 in ms.
fn summarize(label: &str, phase: &Phase) -> f64 {
    let ms = phase.latency_samples_ms();
    let (p50, p90) = (percentile(&ms, 50.0), percentile(&ms, 90.0));
    println!(
        "{label}: {} ops ({} failed, fail_ratio {:.4}), op p50 {p50:.3} ms, p90 {p90:.3} ms \
         over {} latency samples ({} beyond p90), {:.3} s in ops",
        phase.attempted,
        phase.failed,
        phase.failed as f64 / phase.attempted.max(1) as f64,
        ms.len(),
        ms.iter().filter(|&&m| m > p90).count(),
        phase.op_time_s()
    );
    for e in &phase.errors {
        eprintln!("{label}: FAILED: {e}");
    }
    p50
}

/// End-to-end metrics at [`UNTRACED_THREADS`], tracing off.
fn untraced<W: Workload>(args: &Args, cfg: &Config) -> Result<Outcome, String> {
    set_threads(UNTRACED_THREADS);
    let probe = Probe::off();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take()); // free the previous set-up before timing the next
        let t = Instant::now();
        w = Some(W::setup(cfg, &probe)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up ran");
    let phase = drive(&mut w, args.seconds, &probe);
    let (model, model_ok) = model_of(&mut w, &phase);
    println!(
        "workload {} seed {} scale {SCALE} threads {UNTRACED_THREADS}",
        args.workload, args.seed
    );
    summarize("timed phase", &phase);
    if args.workload == "paper-eval" {
        print_paper_reference(&model, SCALE);
    }
    let mut m = Metrics::default();
    m.push("setup_s", percentile(&setup_s, 50.0), "s");
    m.push("mnnz_per_s", phase.mnnz_per_s(), "Mnnz/s");
    m.push("op_p50_ms", phase.op_percentile_ms(50.0), "ms");
    m.push("op_p90_ms", phase.op_percentile_ms(90.0), "ms");
    m.push("peak_rss_mb", percentile(&phase.round_rss_mb, 50.0), "MB");
    m.push("model_gflops", model.gflops, "GFLOP/s");
    m.push("model_speedup", model.speedup, "x");
    m.push("model_eta", model.eta, "fraction");
    let correct = model_ok && phase.failed == 0 && m.0.iter().all(|(_, v, _)| v.is_finite());
    Ok(Outcome { correct, attempted: phase.attempted, failed: phase.failed, metrics: m })
}

/// The modeled metrics, or zeros and `false` when computing them panics.
fn model_of<W: Workload>(w: &mut W, phase: &Phase) -> (Model, bool) {
    match guarded(|| w.model(&phase.round0)) {
        Ok(model) => (model, true),
        Err(e) => {
            eprintln!("FAILED: modeled metrics {e}");
            (Model { gflops: 0.0, speedup: 0.0, eta: 0.0, pairs: Vec::new() }, false)
        }
    }
}

/// Per-layer metrics: an untraced phase for the overhead baseline, then a
/// traced phase at `nproc` threads and one at 1 thread (`.t1` metrics).
/// The exact counts and modeled metrics of the two traced phases must match.
fn traced<W: Workload>(args: &Args, cfg: &Config, root: &Path) -> Result<Outcome, String> {
    let budget = args.seconds / 3.0;
    set_threads(nproc());
    let off = Probe::off();
    let mut w = W::setup(cfg, &off)?;
    let base = drive(&mut w, budget, &off);
    drop(w);
    println!("workload {} seed {} scale {SCALE} (traced)", args.workload, args.seed);
    let base_p50 = summarize("untraced phase", &base);

    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    let mut fingerprints: Vec<(Counts, Model)> = Vec::new();
    let mut models_ok = true;
    for (threads, suffix) in [(nproc(), ""), (1, ".t1")] {
        set_threads(threads);
        let probe = Probe::traced();
        let mut w = probe.span("setup", || W::setup(cfg, &probe))?;
        let phase = drive(&mut w, budget, &probe);
        let (model, model_ok) = model_of(&mut w, &phase);
        attempted += phase.attempted;
        failed += phase.failed;
        models_ok &= model_ok;
        let p50 = summarize(&format!("traced phase, {threads} thread(s)"), &phase);
        let spans = probe.tracer().spans();
        layer_metrics(&mut m, suffix, &span_totals(&spans), &probe, &phase);
        if suffix.is_empty() {
            exact_metrics(&mut m, &phase.round0_counts());
            m.push("trace.overhead_pct", (p50 / base_p50 - 1.0) * 100.0, "%");
            print_self_times(&spans);
            let path = root.join("out").join(format!("{}-trace.json", args.workload));
            write_trace(&first_ops(&spans, TRACE_OPS), &path)?;
        }
        fingerprints.push((phase.round0_counts(), model));
    }
    set_threads(nproc());
    let deterministic = fingerprints[0] == fingerprints[1];
    if !deterministic {
        eprintln!(
            "FAILED: exact counts or modeled metrics differ between {} threads and 1 thread:\n  {:?}\n  {:?}",
            nproc(),
            fingerprints[0],
            fingerprints[1]
        );
    }
    let correct =
        models_ok && deterministic && failed == 0 && m.0.iter().all(|(_, v, _)| v.is_finite());
    Ok(Outcome { correct, attempted, failed, metrics: m })
}

/// Host-time layer metrics of one traced phase. Times are per call of the
/// public function the span wraps; rates divide work by the layer's time.
fn layer_metrics(
    m: &mut Metrics,
    sfx: &str,
    t: &std::collections::BTreeMap<String, SpanTotals>,
    probe: &Probe,
    phase: &Phase,
) {
    let get = |name: &str| t.get(name).cloned().unwrap_or_default();
    let per_call = |name: &str| {
        let s = get(name);
        if s.calls == 0 {
            0.0
        } else {
            s.total_s / s.calls as f64
        }
    };
    let rate = |amount: f64, secs: f64| if secs > 0.0 { amount / secs } else { 0.0 };
    let work = probe.work();
    m.push(format!("matrix.generate_s{sfx}"), per_call("matrix.generate"), "s");
    m.push(format!("matrix.io.read_s{sfx}"), per_call("matrix.io.read"), "s");
    let read = get("matrix.io.read").total_s;
    m.push(
        format!("matrix.io.read_mb_per_s{sfx}"),
        rate(work.io_read_bytes as f64 / 1e6, read),
        "MB/s",
    );
    m.push(format!("core.reorder.bar_s{sfx}"), per_call("core.reorder.bar"), "s");
    for (kind, nnz) in [("bro", work.build_nnz_bro), ("baseline", work.build_nnz_baseline)] {
        let span = format!("kernels.build.{kind}");
        m.push(format!("kernels.build_s.{kind}{sfx}"), per_call(&span), "s");
        let total = get(&span).total_s;
        m.push(
            format!("kernels.build_mnnz_per_s.{kind}{sfx}"),
            rate(nnz as f64 / 1e6, total),
            "Mnnz/s",
        );
    }
    let run = get("kernels.run").total_s;
    m.push(format!("kernels.run_s{sfx}"), per_call("kernels.run"), "s");
    m.push(
        format!("kernels.run_mnnz_per_s{sfx}"),
        rate(phase.op_nnz.iter().sum::<u64>() as f64 / 1e6, run),
        "Mnnz/s",
    );
    let sim = run + get("gpu_cluster.step").total_s;
    m.push(
        format!("gpu_sim.mem_instrs_per_s{sfx}"),
        rate(phase.totals.mem_instrs as f64, sim),
        "1/s",
    );
    m.push(
        format!("gpu_sim.tex_accesses_per_s{sfx}"),
        rate(phase.totals.tex_accesses as f64, sim),
        "1/s",
    );
    let (cg, operator) = (get("solvers.cg"), get("solvers.cg.operator"));
    let vector =
        if cg.calls == 0 { 0.0 } else { (cg.total_s - operator.total_s) / cg.calls as f64 };
    m.push(format!("solvers.cg.vector_s{sfx}"), vector, "s");
    m.push(format!("gpu_cluster.build_s{sfx}"), per_call("gpu_cluster.build"), "s");
    m.push(format!("gpu_cluster.step_s{sfx}"), per_call("gpu_cluster.step"), "s");
    m.push(format!("verify.check_s{sfx}"), per_call("verify.check"), "s");
}

/// Exact counts of the first round of ops.
fn exact_metrics(m: &mut Metrics, c: &Counts) {
    m.push("gpu_sim.launches", c.launches as f64, "count");
    m.push("gpu_sim.mem_instrs", c.mem_instrs as f64, "count");
    m.push("gpu_sim.tex_accesses", c.tex_accesses as f64, "count");
    m.push("gpu_sim.dram_bytes", c.dram_bytes as f64, "B");
    m.push("gpu_sim.tex_hit_rate", c.tex_hit_rate(), "fraction");
    m.push("core.reorder.bar_cost", c.bar_cost as f64, "count");
    m.push("solvers.cg.iters", c.cg_iters as f64, "count");
    m.push("gpu_cluster.halo_bytes", c.halo_bytes as f64, "B");
    m.push("gpu_cluster.exposed_exchange_us", c.exposed_exchange_us, "us");
    m.push("gpu_cluster.load_imbalance", c.load_imbalance, "ratio");
}

/// Prints self time per span name, largest first.
fn print_self_times(spans: &[SpanRecord]) {
    let totals = span_totals(spans);
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let all: f64 = rows.iter().map(|(_, t)| t.self_s).sum();
    println!("self time per span (traced phase, all lanes):");
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for (name, t) in rows {
        println!(
            "  {name:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            t.calls,
            t.total_s * 1e3,
            t.self_s * 1e3,
            100.0 * t.self_s / all.max(f64::MIN_POSITIVE)
        );
    }
}

/// The spans of the set-up and the first `n` ops: everything recorded
/// before op `n` began (span ids follow `begin` order).
fn first_ops(spans: &[SpanRecord], n: usize) -> Vec<SpanRecord> {
    let mut ops: Vec<u64> = spans.iter().filter(|s| s.name == "op").map(|s| s.id).collect();
    ops.sort_unstable();
    let cutoff = ops.get(n).copied().unwrap_or(u64::MAX);
    spans.iter().filter(|s| s.id < cutoff).cloned().collect()
}

/// Writes the spans as a Chrome trace after validating the export.
fn write_trace(spans: &[SpanRecord], path: &Path) -> Result<(), String> {
    let json = chrome_trace_json(spans);
    let events =
        bro_verify::validate_chrome_trace(&json).map_err(|e| format!("invalid trace: {e}"))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome trace: {} ({events} events)", path.display());
    Ok(())
}
