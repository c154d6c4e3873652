//! `paper-eval`: the paper's evaluation pipeline, one matrix file per op.
//!
//! An op reads one `.mtx` file, BAR-reorders it, builds four formats,
//! simulates each on the C2070, GTX680 and K20 and runs the timing model.
//! The BRO formats are built on the BAR-reordered matrix, the uncompressed
//! baselines on the matrix as read.

use std::path::PathBuf;

use bro_core::reorder::{bar_order, BarConfig};
use bro_core::{BroCoo, BroCooConfig, BroEll, BroEllConfig, BroEllR, BroHyb, BroHybConfig};
use bro_gpu_sim::{DeviceProfile, KernelReport, StatsSnapshot};
use bro_kernels::registry;
use bro_matrix::{io, suite, CooMatrix, Permutation};

use crate::{check_y, mean, seeded_vec, Config, Counts, Model, Pair, Probe, Sample, Workload};

/// Test set 1 (regular rows) with its formats.
const SET1: [&str; 4] = ["cant", "qcd5_4", "mc2depi", "epb3"];
const SET1_FORMATS: [&str; 4] = ["ell", "ellr", "bro-ell", "bro-ellr"];
/// Test set 2 (irregular rows): ELL is excluded, as in the paper.
const SET2: [&str; 4] = ["scircuit", "twotone", "rail4284", "cop20k_A"];
const SET2_FORMATS: [&str; 4] = ["coo", "hyb", "bro-coo", "bro-hyb"];

struct Entry {
    name: &'static str,
    path: PathBuf,
    /// Size of the `.mtx` file.
    bytes: u64,
    formats: [&'static str; 4],
    x: Vec<f64>,
    /// `A·x` of the generated matrix.
    want: Vec<f64>,
    row_terms: Vec<u32>,
    /// The BAR-reordered matrix of the first round, for η.
    reordered: Option<CooMatrix<f64>>,
}

/// The `paper-eval` workload state.
pub struct PaperEval {
    entries: Vec<Entry>,
}

/// Outputs of one op: every simulated product and its report.
pub struct Out {
    entry: usize,
    perm: Permutation,
    bar_cost: u64,
    reordered: CooMatrix<f64>,
    runs: Vec<Run>,
}

struct Run {
    format: &'static str,
    device: &'static str,
    y: Vec<f64>,
    report: KernelReport,
    snap: StatsSnapshot,
}

impl Workload for PaperEval {
    type Out = Out;

    fn setup(cfg: &Config, probe: &Probe) -> Result<Self, String> {
        let sets =
            SET1.iter().map(|&n| (n, SET1_FORMATS)).chain(SET2.iter().map(|&n| (n, SET2_FORMATS)));
        let mut entries = Vec::new();
        for (i, (name, formats)) in sets.enumerate() {
            let mut spec =
                suite::by_name(name).ok_or(format!("no suite matrix {name}"))?.spec(cfg.scale);
            spec.seed ^= cfg.seed;
            let a: CooMatrix<f64> = probe.span("matrix.generate", || spec.generate());
            let path = cfg.work_dir.join(format!("{name}.mtx"));
            probe
                .span("matrix.io.write", || io::write_matrix_market_file(&a, &path))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            let x =
                seeded_vec(cfg.seed ^ (i as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407), a.cols());
            let want = a.spmv_reference(&x).map_err(|e| e.to_string())?;
            entries.push(Entry {
                name,
                path,
                bytes,
                formats,
                x,
                want,
                row_terms: a.row_lengths(),
                reordered: None,
            });
        }
        Ok(PaperEval { entries })
    }

    fn ops_per_round(&self) -> usize {
        self.entries.len()
    }

    fn op(&mut self, k: usize, probe: &Probe) -> Out {
        let i = k % self.entries.len();
        let e = &self.entries[i];
        let a: CooMatrix<f64> = probe
            .span("matrix.io.read", || io::read_matrix_market_file(&e.path))
            .unwrap_or_else(|err| panic!("reading {}: {err}", e.path.display()));
        probe.add_work(|w| w.io_read_bytes += e.bytes);
        let (perm, bar_cost, reordered) = probe.span("core.reorder.bar", || {
            let (perm, cost) = bar_order(&a, &BarConfig::default());
            let reordered = perm.apply_rows(&a);
            (perm, cost, reordered)
        });
        let flops = 2 * a.nnz() as u64;
        let mut runs = Vec::with_capacity(12);
        for format in e.formats {
            let kernel = registry::by_name(format).expect("registry lists every paper format");
            let bro = format.starts_with("bro-");
            let prepared = if bro {
                probe.add_work(|w| w.build_nnz_bro += a.nnz() as u64);
                probe.span("kernels.build.bro", || kernel.build_from_coo(&reordered))
            } else {
                probe.add_work(|w| w.build_nnz_baseline += a.nnz() as u64);
                probe.span("kernels.build.baseline", || kernel.build_from_coo(&a))
            };
            for profile in DeviceProfile::evaluation_set() {
                let mut sim = probe.device(profile);
                let y = probe.span("kernels.run", || prepared.run(&mut sim, &e.x));
                let report =
                    probe.span("gpu_sim.model", || KernelReport::from_device(&sim, flops, 8));
                let snap = sim.lifetime_snapshot();
                runs.push(Run { format, device: report.device, y, report, snap });
            }
        }
        Out { entry: i, perm, bar_cost, reordered, runs }
    }

    fn check(&mut self, out: Out) -> Result<Sample, String> {
        let e = &mut self.entries[out.entry];
        let want_p = out.perm.apply_vec(&e.want);
        let terms_p = out.perm.apply_vec(&e.row_terms);
        let mut sample = Sample {
            counts: Counts { bar_cost: out.bar_cost, ..Counts::default() },
            ..Sample::default()
        };
        for r in &out.runs {
            let bro = r.format.starts_with("bro-");
            let (want, terms) = if bro { (&want_p, &terms_p) } else { (&e.want, &e.row_terms) };
            check_y(&format!("{} {} on {}", e.name, r.format, r.device), &r.y, want, terms)?;
            sample.sim_nnz += out.reordered.nnz() as u64;
            sample.gflops.push(r.report.gflops);
            sample.counts.add_sim(&r.snap);
            if bro {
                let base = out
                    .runs
                    .iter()
                    .find(|b| b.device == r.device && b.format == &r.format[4..])
                    .expect("every BRO format has its uncompressed twin");
                sample.pairs.push(Pair {
                    device: r.device,
                    bro: r.format,
                    ratio: r.report.gflops / base.report.gflops,
                });
            }
        }
        e.reordered.get_or_insert(out.reordered);
        Ok(sample)
    }

    fn model(&mut self, round0: &[Sample]) -> Model {
        let mut etas = Vec::new();
        for e in &self.entries {
            let Some(a) = &e.reordered else { continue };
            for f in e.formats.iter().filter(|f| f.starts_with("bro-")) {
                let savings = match *f {
                    "bro-ell" => {
                        BroEll::<f64>::from_coo(a, &BroEllConfig::default()).space_savings()
                    }
                    "bro-ellr" => {
                        BroEllR::<f64>::from_coo(a, &BroEllConfig::default()).space_savings()
                    }
                    "bro-coo" => {
                        BroCoo::<f64>::compress(a, &BroCooConfig::default()).space_savings()
                    }
                    _ => BroHyb::<f64>::from_coo(a, &BroHybConfig::default()).space_savings(),
                };
                etas.push(savings.eta());
            }
        }
        Model { eta: mean(&etas), ..Model::from_samples(round0) }
    }
}

/// The paper's published average speedups per device (C2070, GTX680, K20):
/// Fig. 4 (BRO-ELL over ELL, test set 1) and Fig. 8 (BRO-HYB over HYB,
/// test set 2).
const PAPER_AVERAGES: [(&str, &str, [f64; 3]); 2] =
    [("Fig. 4", "bro-ell", [1.5, 1.6, 1.4]), ("Fig. 8", "bro-hyb", [1.6, 1.3, 1.4])];

/// Prints the modeled per-device speedups beside the paper's averages.
pub fn print_paper_reference(model: &Model, scale: f64) {
    println!("paper reference (suite scale {scale}; modeled vs published average speedup):");
    for (fig, bro, paper) in PAPER_AVERAGES {
        for (profile, want) in DeviceProfile::evaluation_set().iter().zip(paper) {
            let got = model.speedup_of(profile.name, bro);
            println!(
                "  {fig} {bro:<8} {:<12} model {got:.3}x  paper {want:.1}x  rel. error {:+.1}%",
                profile.name,
                (got / want - 1.0) * 100.0
            );
        }
    }
    println!(
        "  The simulator has not been validated against GPU hardware; \
         these rows are its only comparison with published measurements."
    );
}
