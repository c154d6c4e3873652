//! `bro-tool` — command-line front end for the library: inspect matrices,
//! compress them to `.bro` artifacts, run simulated SpMV, auto-select
//! formats, and solve linear systems.
//!
//! ```text
//! bro-tool info      <matrix>                    stats + compressibility
//! bro-tool compress  <matrix> <out.bro> [--coo]  write a BRO artifact
//! bro-tool spmv      <matrix> [--device D]       simulated BRO-ELL SpMV
//! bro-tool recommend <matrix> [--device D]       auto-select the format
//! bro-tool solve     <matrix> [--solver S]       solve A x = b (b = A·1)
//! bro-tool partition <matrix> [--devices N]      distributed SpMV on N ≤ 1024 GPUs
//! bro-tool suite                                 list the Table-2 suite
//! bro-tool verify    [--iters N] [--seed S]      correctness harness
//! bro-tool trace     <matrix> [--format F]       traced SpMV → Chrome JSON
//! ```
//!
//! `trace` runs one SpMV with launch-level telemetry enabled and writes a
//! Chrome trace-event file (`--out`, default `trace.json`; load it in
//! Perfetto or `chrome://tracing`). `--format` accepts any registry kernel
//! (`ell`, `bro-hyb`, `csr-vector`, …) or `cluster` for a distributed run
//! honoring `--devices`/`--link`/`--hetero`. The command prints the
//! aggregated metrics table, schema-validates the exported JSON, and
//! reconciles the per-span counter deltas against the device's lifetime
//! `LaunchStats` totals — exiting non-zero if a single byte or flop is
//! unaccounted for.
//!
//! `verify` runs the differential fuzzer (every format vs the CSR
//! reference), replays the regression corpus, checks the golden perf-model
//! snapshots, and asserts thread-count determinism (`--threads 1` vs N).
//! `--inject-fault <format>:<kind>` corrupts one format on purpose to
//! prove failures are caught and shrunk; `UPDATE_GOLDEN=1` refreshes the
//! snapshots. `--seed S` sets the fuzz base seed so CI campaigns replay
//! exactly; the seed of any failing case is part of the failure report.
//!
//! Every subcommand accepts `--threads N` to bound the rayon worker pool
//! (0 = all cores); `--threads 1` reproduces serial execution exactly.
//!
//! `<matrix>` is a `.mtx` MatrixMarket file or the name of a suite matrix
//! (generated at `--scale`, default 0.1). `D` ∈ {c2070, gtx680, k20}.

use bro_bench::cli::{die, die_usage, effective_threads, flag_value, install_threads, parse_flag};
use bro_spmv::core::{
    analyze_value_compression, write_bro_coo, write_bro_ell, BroCoo, BroCooConfig,
};
use bro_spmv::gpu_cluster::{ClusterConfig, ClusterFormat, ClusterSpmv, LinkProfile, MAX_DEVICES};
use bro_spmv::gpu_sim::{chrome_trace_json, KernelReport, MetricsRegistry, StatsSnapshot, Tracer};
use bro_spmv::kernels::recommend_format;
use bro_spmv::matrix::{io::read_matrix_market_file, suite};
use bro_spmv::prelude::*;
use bro_spmv::solvers::{bicgstab, gmres, BiCgStabOptions, GmresOptions, SolveStats};
use bro_spmv::verify::{self, FaultKind, FaultSpec, FuzzConfig};

struct Args {
    positional: Vec<String>,
    device: DeviceProfile,
    scale: f64,
    coo_format: bool,
    solver: String,
    devices: usize,
    link: LinkProfile,
    format: String,
    hetero: bool,
    iters: u64,
    seed: u64,
    threads: usize,
    inject_fault: Option<FaultSpec>,
    out_dir: std::path::PathBuf,
    out_set: bool,
}

/// The most positional arguments `cmd` takes.
fn max_positionals(cmd: &str) -> usize {
    match cmd {
        "compress" => 2,
        "suite" | "verify" => 0,
        _ => 1,
    }
}

/// Parses the arguments after the subcommand `cmd`. An unknown flag or a
/// positional argument past what `cmd` takes is an error; a malformed flag
/// value exits 2 at once.
fn parse_args(cmd: &str, raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        device: DeviceProfile::tesla_k20(),
        scale: 0.1,
        coo_format: false,
        solver: "cg".into(),
        devices: 4,
        link: LinkProfile::pcie_gen2(),
        format: "bro-hyb".into(),
        hetero: false,
        iters: 8,
        seed: 1,
        threads: 0,
        inject_fault: None,
        out_dir: "out".into(),
        out_set: false,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--device" => {
                a.device = match flag_value(&mut it, "--device").to_ascii_lowercase().as_str() {
                    "c2070" => DeviceProfile::tesla_c2070(),
                    "gtx680" => DeviceProfile::gtx680(),
                    "k20" => DeviceProfile::tesla_k20(),
                    other => die(&format!("unknown device '{other}' (c2070|gtx680|k20)")),
                };
            }
            "--scale" => {
                a.scale = parse_flag(&mut it, "--scale");
                if !(a.scale > 0.0 && a.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--coo" => a.coo_format = true,
            "--solver" => a.solver = flag_value(&mut it, "--solver").to_string(),
            "--devices" => {
                a.devices = parse_flag(&mut it, "--devices");
                if !(1..=MAX_DEVICES).contains(&a.devices) {
                    return Err(format!("--devices must be in 1..={MAX_DEVICES}"));
                }
            }
            "--link" => {
                let l = flag_value(&mut it, "--link");
                a.link = LinkProfile::by_name(l).unwrap_or_else(|| {
                    die(&format!("unknown link '{l}' (pcie-gen2|pcie-gen3|nvlink)"))
                });
            }
            // Stored raw: `partition` wants a ClusterFormat, `trace` any
            // `verify::kernels()` name — each subcommand resolves (and
            // rejects) itself.
            "--format" => a.format = flag_value(&mut it, "--format").to_ascii_lowercase(),
            "--hetero" => a.hetero = true,
            "--iters" => {
                a.iters = parse_flag(&mut it, "--iters");
                if a.iters == 0 {
                    die("--iters must be at least 1");
                }
            }
            "--seed" => a.seed = parse_flag(&mut it, "--seed"),
            "--threads" => a.threads = parse_flag(&mut it, "--threads"),
            "--inject-fault" => {
                let v = flag_value(&mut it, "--inject-fault");
                let Some((fmt, kind)) = v.split_once(':') else {
                    die(&format!("--inject-fault wants <format>:<kind>, got '{v}'"));
                };
                let format = verify::kernel(fmt)
                    .unwrap_or_else(|| die(&format!("unknown format '{fmt}'")))
                    .name();
                let kind = FaultKind::by_name(kind).unwrap_or_else(|| {
                    die(&format!("unknown fault '{kind}' (drop-last-entry|perturb-value)"))
                });
                a.inject_fault = Some(FaultSpec { format, kind });
            }
            "--out" => {
                a.out_dir = flag_value(&mut it, "--out").into();
                a.out_set = true;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            other => a.positional.push(other.to_string()),
        }
    }
    if let Some(extra) = a.positional.get(max_positionals(cmd)) {
        return Err(format!("unexpected argument '{extra}' for {cmd}"));
    }
    Ok(a)
}

fn load_matrix(name: &str, scale: f64) -> CooMatrix<f64> {
    if name.ends_with(".mtx") {
        read_matrix_market_file(name).unwrap_or_else(|e| die(&format!("reading {name}: {e}")))
    } else {
        suite::by_name(name)
            .unwrap_or_else(|| die(&format!("unknown matrix '{name}' (try `bro-tool suite`)")))
            .spec(scale)
            .generate()
    }
}

fn cmd_info(a: &Args) {
    let name = a.positional.first().unwrap_or_else(|| die("info needs a matrix"));
    let m = load_matrix(name, a.scale);
    let stats = m.stats();
    println!("{name}: {stats}");
    println!("  padding fraction (global ELLPACK): {:.1}%", stats.padding_fraction() * 100.0);
    let hyb_k = HybMatrix::<f64>::split_width(&m.row_lengths());
    println!("  HYB split width k = {hyb_k}");
    let bro: BroEll<f64> = BroEll::from_coo(&m, &BroEllConfig::default());
    println!("  BRO-ELL index savings: {}", bro.space_savings());
    let bc: BroCoo<f64> = BroCoo::compress(&m, &BroCooConfig::default());
    println!("  BRO-COO row-index savings: {}", bc.space_savings());
    println!("  value-dictionary savings: {}", analyze_value_compression(&m));
    println!("  delta profile: {}", bro_spmv::core::DeltaHistogram::from_matrix(&m));
}

fn cmd_compress(a: &Args) {
    let [name, out] = a.positional.as_slice() else {
        die("compress needs <matrix> <output.bro>");
    };
    let m = load_matrix(name, a.scale);
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(out).unwrap_or_else(|e| die(&format!("creating {out}: {e}"))),
    );
    if a.coo_format {
        let bro: BroCoo<f64> = BroCoo::compress(&m, &BroCooConfig::default());
        write_bro_coo(&bro, &mut file).unwrap_or_else(|e| die(&format!("writing: {e}")));
        println!("wrote BRO-COO artifact: {}", bro.space_savings());
    } else {
        let bro: BroEll<f64> = BroEll::from_coo(&m, &BroEllConfig::default());
        write_bro_ell(&bro, &mut file).unwrap_or_else(|e| die(&format!("writing: {e}")));
        println!("wrote BRO-ELL artifact: {}", bro.space_savings());
    }
}

fn cmd_spmv(a: &Args) {
    let name = a.positional.first().unwrap_or_else(|| die("spmv needs a matrix"));
    // A pre-compressed `.bro` artifact skips the compression step entirely.
    let bro: BroEll<f64> = if name.ends_with(".bro") {
        let mut file = std::io::BufReader::new(
            std::fs::File::open(name).unwrap_or_else(|e| die(&format!("opening {name}: {e}"))),
        );
        bro_spmv::core::read_bro_ell(&mut file)
            .unwrap_or_else(|e| die(&format!("reading artifact: {e}")))
    } else {
        BroEll::from_coo(&load_matrix(name, a.scale), &BroEllConfig::default())
    };
    let m = bro.decompress();
    // An artifact's column count is not backed by its payload: allocate x
    // fallibly rather than abort on an absurd header.
    let mut x: Vec<f64> = Vec::new();
    x.try_reserve_exact(m.cols())
        .unwrap_or_else(|e| die(&format!("x for {} columns: {e}", m.cols())));
    x.extend((0..m.cols()).map(|i| 1.0 + (i % 8) as f64 * 0.25));
    let reference = csr_spmv(&CsrMatrix::from_coo(&m), &x);
    let mut sim = DeviceSim::new(a.device.clone());
    let y = bro_ell_spmv(&mut sim, &bro, &x);
    let max_err = y.iter().zip(&reference).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
    let report = KernelReport::from_device(&sim, 2 * m.nnz() as u64, 8);
    println!("{report}");
    println!("verified against CPU reference (max |diff| = {max_err:.2e})");
}

fn cmd_recommend(a: &Args) {
    let name = a.positional.first().unwrap_or_else(|| die("recommend needs a matrix"));
    let m = load_matrix(name, a.scale);
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 8) as f64 * 0.25).collect();
    let report = recommend_format(&m, &x, &a.device);
    println!("best format on {}: {}", a.device.name, report.best);
    println!("{:<12} {:>10} {:>14}", "format", "GFLOP/s", "DRAM bytes");
    for c in &report.candidates {
        println!("{:<12} {:>10.2} {:>14}", c.format, c.gflops, c.dram_bytes);
    }
    for (f, why) in &report.skipped {
        println!("skipped {f}: {why}");
    }
}

fn cmd_solve(a: &Args) {
    let name = a.positional.first().unwrap_or_else(|| die("solve needs a matrix"));
    let m = load_matrix(name, a.scale);
    if m.rows() != m.cols() {
        die("solve needs a square matrix");
    }
    // Synthetic suite matrices carry random values; shift the diagonal to
    // strict dominance so the system is well-posed and every solver can
    // exercise its SpMV loop meaningfully. CG additionally needs symmetry.
    let m = if a.solver == "cg" { m.symmetrized() } else { m };
    let m = m.add_diagonal(1.0 + m.max_offdiag_row_sum());
    let csr = CsrMatrix::from_coo(&m);
    // Manufactured solution: x* = 1, b = A·1, so the error is checkable.
    let b = csr.spmv(&vec![1.0; m.cols()]).unwrap();
    let apply = |v: &[f64]| csr.par_spmv(v).unwrap();
    let t0 = std::time::Instant::now();
    let (x, stats): (Vec<f64>, SolveStats) = match a.solver.as_str() {
        "cg" => cg(apply, &b, &CgOptions { max_iters: 5000, tol: 1e-9 }),
        "bicgstab" => bicgstab(apply, &b, &BiCgStabOptions { max_iters: 5000, tol: 1e-9 }),
        "gmres" => gmres(apply, &b, &GmresOptions { restart: 40, max_iters: 5000, tol: 1e-9 }),
        other => die(&format!("unknown solver '{other}' (cg|bicgstab|gmres)")),
    };
    let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    println!(
        "{}: {} iterations, residual {:.2e}, converged = {}, max |x - 1| = {:.2e}, {:.2}s",
        a.solver,
        stats.iterations,
        stats.residual,
        stats.converged,
        err,
        t0.elapsed().as_secs_f64()
    );
    if !stats.converged {
        std::process::exit(1);
    }
}

/// Homogeneous clusters replicate `--device`; `--hetero` cycles the three
/// evaluation GPUs, exercising the bandwidth-weighted partitioner.
fn cluster_profiles(a: &Args) -> Vec<DeviceProfile> {
    if a.hetero {
        let pool = DeviceProfile::evaluation_set();
        (0..a.devices).map(|i| pool[i % pool.len()].clone()).collect()
    } else {
        vec![a.device.clone(); a.devices]
    }
}

fn cluster_format(a: &Args) -> ClusterFormat {
    ClusterFormat::by_name(&a.format).unwrap_or_else(|| {
        die(&format!("unknown cluster format '{}' (bro-hyb|hyb|bro-ell|ell|coo)", a.format))
    })
}

fn cmd_partition(a: &Args) {
    let name = a.positional.first().unwrap_or_else(|| die("partition needs a matrix"));
    let m = load_matrix(name, a.scale);
    let csr = CsrMatrix::from_coo(&m);
    let profiles = cluster_profiles(a);
    let format = cluster_format(a);
    let config = ClusterConfig { link: a.link.clone(), format };
    let cluster = ClusterSpmv::build(&csr, &profiles, config);

    println!(
        "{name}: {} rows, {} nnz, {} device(s), {} partitions, link {}",
        csr.rows(),
        csr.nnz(),
        a.devices,
        format,
        a.link
    );
    println!(
        "{:<5} {:<12} {:>9} {:>10} {:>10} {:>10}",
        "rank", "device", "rows", "nnz", "halo cols", "halo %nnz"
    );
    for p in cluster.partitions() {
        println!(
            "{:<5} {:<12} {:>9} {:>10} {:>10} {:>9.1}%",
            p.rank,
            profiles[p.rank].name,
            p.rows.len(),
            p.nnz(),
            p.halo_cols.len(),
            p.halo_fraction() * 100.0
        );
    }

    let x: Vec<f64> = (0..csr.cols()).map(|i| 1.0 + (i % 8) as f64 * 0.25).collect();
    let (_, report) = cluster.spmv(&x);
    println!();
    print!("{report}");
    println!(
        "exchange metadata: {} B raw u32 lists, {} B BRO-compressed ({:.1}x)",
        report.index_bytes_raw,
        report.index_bytes_bro,
        if report.index_bytes_bro > 0 {
            report.index_bytes_raw as f64 / report.index_bytes_bro as f64
        } else {
            1.0
        }
    );
    println!("verified against CPU CSR reference");
}

fn cmd_suite() {
    println!("{:<12} {:>4} {:>12} {:>12} {:>8} {:>8}", "name", "set", "rows", "nnz", "mu", "sigma");
    for e in suite::full_suite() {
        println!(
            "{:<12} {:>4} {:>12} {:>12} {:>8.1} {:>8.1}",
            e.name,
            match e.test_set {
                suite::TestSet::One => 1,
                suite::TestSet::Two => 2,
            },
            e.rows,
            e.nnz,
            e.mu,
            e.sigma
        );
    }
}

fn cmd_verify(a: &Args) {
    let t0 = std::time::Instant::now();
    println!("verify: {} worker thread(s)", effective_threads());

    // The gate runs all four checks; each is reported below in order.
    // 1. Differential fuzzing: every format vs the CSR reference. The base
    // seed is printed so any CI run can be replayed locally verbatim.
    let config =
        FuzzConfig { iters: a.iters, seed0: a.seed, fault: a.inject_fault, ..Default::default() };
    println!(
        "differential: {} formats x {} families x {} seeds (base seed {}){}",
        config.formats.len(),
        config.families.len(),
        config.iters,
        config.seed0,
        match a.inject_fault {
            Some(f) => format!(" (injecting {} into {})", f.kind.name(), f.format),
            None => String::new(),
        }
    );
    let report = verify::gate(&config, verify::update_requested());
    match &report.fuzz.failure {
        None => println!("differential: all {} cases passed", report.fuzz.cases_run),
        Some(failure) => {
            eprintln!("differential FAILURE after {} cases: {failure}", report.fuzz.cases_run);
            let path = a.out_dir.join("verify_failure.corpus");
            match failure.to_corpus().save(&path) {
                Ok(()) => eprintln!("shrunk reproducer written to {}", path.display()),
                Err(e) => eprintln!("could not write reproducer: {e}"),
            }
        }
    }

    // 2. Regression corpus replay.
    match &report.corpus {
        Ok(replay) => {
            for failure in &replay.failures {
                eprintln!("corpus FAILURE: {failure}");
            }
            println!("corpus: {} cases replayed, {} failed", replay.cases, replay.failures.len());
        }
        Err(e) => eprintln!("corpus: {e}"),
    }

    // 3. Golden perf-model conformance.
    match &report.golden {
        Ok(outcome) if outcome.updated => {
            println!(
                "golden: rewrote {} snapshot files in {}",
                outcome.files.len(),
                verify::golden_dir().display()
            );
        }
        Ok(outcome) if outcome.is_clean() => {
            println!("golden: {} snapshot files conformant", outcome.files.len());
        }
        Ok(outcome) => {
            eprintln!("golden: {} field diffs:", outcome.diffs.len());
            for d in &outcome.diffs {
                eprintln!("  {d}");
            }
            let path = a.out_dir.join("verify_golden.diff");
            let body = outcome.diffs.join("\n") + "\n";
            match std::fs::create_dir_all(&a.out_dir).and_then(|()| std::fs::write(&path, body)) {
                Ok(()) => eprintln!("stats diff written to {}", path.display()),
                Err(e) => eprintln!("could not write stats diff: {e}"),
            }
        }
        Err(e) => eprintln!("golden: io error: {e}"),
    }

    // 4. Thread-count determinism: parallel execution must be bit-identical
    // to serial. Always compares at least 1 vs 2 workers, even under
    // `--threads 1` — the sweep scopes its own pools.
    let det = &report.determinism;
    if det.is_clean() {
        println!(
            "determinism: {} comparisons identical across {:?} worker threads (seed {})",
            det.checks, det.thread_counts, a.seed
        );
    } else {
        eprintln!(
            "determinism: {} of {} comparisons diverged (seed {}):",
            det.mismatches.len(),
            det.checks,
            a.seed
        );
        for m in &det.mismatches {
            eprintln!("  {m}");
        }
    }

    println!("verify finished in {:.1}s", t0.elapsed().as_secs_f64());
    if !report.passed() {
        std::process::exit(1);
    }
}

/// Runs one SpMV with telemetry enabled, exports the Chrome trace, prints
/// the metrics table, and reconciles per-span counter deltas against the
/// simulator's lifetime totals. A reconciliation mismatch exits non-zero:
/// the trace must attribute every counted byte and flop to exactly one
/// root span.
fn cmd_trace(a: &Args) {
    let name = a.positional.first().unwrap_or_else(|| die("trace needs a matrix"));
    let kernel = verify::kernel(&a.format).unwrap_or_else(|| {
        let names: Vec<&str> = verify::kernels().iter().map(|k| k.name()).collect();
        die(&format!("unknown format '{}' ({})", a.format, names.join("|")))
    });
    let m = load_matrix(name, a.scale);
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 8) as f64 * 0.25).collect();
    let reference = csr_spmv(&CsrMatrix::from_coo(&m), &x);

    let tracer = Tracer::enabled();
    let t0 = std::time::Instant::now();
    // Lifetime totals are accumulated independently of the tracer, so the
    // reconciliation below compares two genuinely separate bookkeepers.
    let (y, totals) = if kernel.name() == "cluster" {
        let csr = CsrMatrix::from_coo(&m);
        let config = ClusterConfig { link: a.link.clone(), ..Default::default() };
        let cluster = ClusterSpmv::build(&csr, &cluster_profiles(a), config);
        let (y, report) = cluster.spmv_traced(&x, &tracer);
        let totals = StatsSnapshot::merged(report.devices.iter().map(|d| &d.snapshot));
        (y, totals)
    } else {
        let mut sim = DeviceSim::builder(a.device.clone()).tracer(tracer.clone()).build();
        let y = kernel.build_from_coo(&m).run(&mut sim, &x);
        (y, sim.lifetime_snapshot())
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let max_err = y.iter().zip(&reference).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);

    let spans = tracer.spans();
    assert_eq!(tracer.open_spans(), 0, "all spans closed after the run");
    println!(
        "{name}: format {}, {} span(s) in {:.1} ms (max |diff| vs CPU = {max_err:.2e})",
        kernel.name(),
        spans.len(),
        elapsed * 1e3
    );
    println!("{}", MetricsRegistry::from_spans(&spans));

    let json = chrome_trace_json(&spans);
    let events = verify::validate_chrome_trace(&json)
        .unwrap_or_else(|e| die(&format!("exported trace failed schema validation: {e}")));
    let out = if a.out_set { a.out_dir.clone() } else { "trace.json".into() };
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| die(&format!("creating {}: {e}", parent.display())));
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("writing {}: {e}", out.display())));
    println!("wrote {} ({} trace events)", out.display(), events);

    // Sum the counter deltas over root spans (nested spans re-count their
    // parents' work, so only roots partition the totals).
    let mut root_sum = StatsSnapshot::default();
    for s in spans.iter().filter(|s| s.is_root()) {
        if let Some(d) = &s.delta {
            root_sum.merge(d);
        }
    }
    if root_sum == totals {
        println!(
            "reconciliation: root-span deltas == lifetime totals \
             ({} B DRAM, {} flops, {} launch(es))",
            totals.stats.dram_bytes(),
            totals.stats.flops,
            totals.launches
        );
    } else {
        eprintln!("reconciliation FAILED:");
        eprintln!("  root-span delta sum: {:?}", root_sum);
        eprintln!("  lifetime totals:     {:?}", totals);
        std::process::exit(1);
    }
}

const USAGE: &str =
    "usage: bro-tool <info|compress|spmv|recommend|solve|partition|suite|verify|trace> …";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let args = parse_args(&cmd, &raw[1..]).unwrap_or_else(|e| die_usage(&e, USAGE));
    install_threads(args.threads);
    match cmd.as_str() {
        "info" => cmd_info(&args),
        "compress" => cmd_compress(&args),
        "spmv" => cmd_spmv(&args),
        "recommend" => cmd_recommend(&args),
        "solve" => cmd_solve(&args),
        "partition" => cmd_partition(&args),
        "suite" => cmd_suite(),
        "verify" => cmd_verify(&args),
        "trace" => cmd_trace(&args),
        "-h" | "--help" => eprintln!("{USAGE}"),
        other => die(&format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_defaults() {
        let a = parse_args("suite", &[]).unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.device.name, "Tesla K20");
        assert!(!a.coo_format);
        assert_eq!(a.solver, "cg");
        assert_eq!(a.devices, 4);
        assert_eq!(a.link.name, "PCIe-gen2");
        assert_eq!(a.format, "bro-hyb");
        assert!(!a.hetero);
        assert!(!a.out_set);
    }

    #[test]
    fn parse_args_cluster_flags() {
        let raw: Vec<String> =
            ["epb3", "--devices", "8", "--link", "nvlink", "--format", "ell", "--hetero"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse_args("partition", &raw).unwrap();
        assert_eq!(a.devices, 8);
        assert_eq!(a.link.name, "NVLink");
        assert_eq!(a.format, "ell");
        assert!(a.hetero);
    }

    #[test]
    fn parse_args_flags() {
        let raw: Vec<String> =
            ["m.mtx", "--device", "c2070", "--scale", "0.5", "--coo", "--solver", "gmres"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse_args("solve", &raw).unwrap();
        assert_eq!(a.positional, vec!["m.mtx"]);
        assert_eq!(a.device.name, "Tesla C2070");
        assert_eq!(a.scale, 0.5);
        assert!(a.coo_format);
        assert_eq!(a.solver, "gmres");
    }

    #[test]
    fn parse_args_verify_flags() {
        let raw: Vec<String> =
            ["--iters", "3", "--inject-fault", "bro-ell:drop-last-entry", "--out", "tmp"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse_args("verify", &raw).unwrap();
        assert_eq!(a.iters, 3);
        assert_eq!(a.seed, 1);
        assert_eq!(a.threads, 0);
        assert_eq!(
            a.inject_fault,
            Some(FaultSpec { format: "bro-ell", kind: FaultKind::DropLastEntry })
        );
        assert_eq!(a.out_dir, std::path::PathBuf::from("tmp"));
    }

    #[test]
    fn parse_args_seed_and_threads() {
        let raw: Vec<String> =
            ["--seed", "42", "--threads", "2"].iter().map(|s| s.to_string()).collect();
        let a = parse_args("verify", &raw).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_surplus_arguments() {
        let parse = |cmd: &str, raw: &[&str]| {
            parse_args(cmd, &raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse("suite", &["--bogus-flag"]).err().unwrap(), "unknown flag '--bogus-flag'");
        assert!(parse("info", &["epb3", "--scale", "0.01", "--nonsense"]).is_err());
        assert!(parse("info", &["epb3", "-x"]).is_err());
        assert_eq!(
            parse("info", &["epb3", "cant"]).err().unwrap(),
            "unexpected argument 'cant' for info"
        );
        assert!(parse("suite", &["epb3"]).is_err());
        assert!(parse("verify", &["update"]).is_err());
        assert!(parse("compress", &["epb3", "a.bro", "b.bro"]).is_err());
        assert_eq!(parse("compress", &["epb3", "a.bro", "--coo"]).unwrap().positional.len(), 2);
        assert!(parse("trace", &["epb3", "--format", "ell"]).is_ok());
    }

    #[test]
    fn parse_args_rejects_out_of_range_scale_and_devices() {
        let parse = |raw: &[&str]| {
            parse_args("partition", &raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        for scale in ["2", "0", "-0.5", "nan", "inf"] {
            let err = parse(&["epb3", "--scale", scale]).err();
            assert_eq!(err.as_deref(), Some("--scale must be in (0, 1]"), "--scale {scale}");
        }
        assert_eq!(parse(&["epb3", "--scale", "1"]).unwrap().scale, 1.0);
        for devices in ["0", "1025", "100000"] {
            assert!(parse(&["epb3", "--devices", devices]).is_err(), "--devices {devices}");
        }
        assert_eq!(parse(&["epb3", "--devices", "1024"]).unwrap().devices, MAX_DEVICES);
    }

    #[test]
    fn load_matrix_suite_name() {
        let m = load_matrix("epb3", 0.01);
        assert!(m.nnz() > 0);
    }
}
