//! One module per table/figure of the paper (see DESIGN.md's experiment
//! index), plus the extension experiments. [`EXPERIMENTS`] lists them all;
//! the paper's pairwise format comparisons (Fig. 4, 7 and 8) are three
//! [`Comparison`]s (`fig4::FIG4`, `fig7::FIG7`, `fig8::FIG8`) run by
//! [`compare`].

pub mod ablate;
pub mod divergence;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod formats;
pub mod multirow_exp;
pub mod precision;
pub mod reorder_exp;
pub mod scaling;
pub mod solver_exp;
pub mod split_exp;
pub mod spmm_exp;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod values_exp;
pub mod verify_exp;

use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport};
use bro_kernels::{registry, PreparedSpmv};
use bro_matrix::suite::SuiteEntry;
use bro_matrix::CooMatrix;

use crate::context::ExpContext;
use crate::table::{f, TextTable};

/// One `repro` experiment: its command-line name, a one-line description
/// for `--help`, and its entry point.
pub struct Experiment {
    /// Command-line name, e.g. `"fig4"`.
    pub name: &'static str,
    /// One-line description shown by `repro --help`.
    pub about: &'static str,
    /// Runs the experiment, emitting its tables through the context.
    pub run: fn(&mut ExpContext),
}

const fn exp(name: &'static str, about: &'static str, run: fn(&mut ExpContext)) -> Experiment {
    Experiment { name, about, run }
}

/// Every experiment, in the order `repro all` runs them.
pub static EXPERIMENTS: [Experiment; 23] = [
    exp("verify", "correctness gate: fuzzing, corpus, goldens, determinism", verify_exp::run),
    exp("table1", "GPU specifications (Table 1)", table1::run),
    exp("table2", "benchmark matrix suite (Table 2)", table2::run),
    exp("fig3", "BRO-ELL GFLOP/s vs space savings sweep (Fig. 3)", fig3::run),
    exp("table3", "BRO-ELL space savings (Table 3)", table3::run),
    exp("fig4", "BRO-ELL vs ELLPACK / ELLPACK-R (Fig. 4)", fig4::run),
    exp("fig5", "effective arithmetic intensity (Fig. 5)", fig5::run),
    exp("fig6", "bandwidth utilization, first six matrices (Fig. 6)", fig6::run),
    exp("fig7", "BRO-COO vs COO (Fig. 7)", fig7::run),
    exp("table4", "BRO-HYB partitioning and savings (Table 4)", table4::run),
    exp("fig8", "BRO-HYB vs HYB (Fig. 8)", fig8::run),
    exp("fig9", "BAR vs RCM vs AMD reordering (Fig. 9 + averages, Table 5)", |c| {
        reorder_exp::run(c, false)
    }),
    exp("table5", "space savings after BAR (Table 5 only)", |c| reorder_exp::run(c, true)),
    exp("values", "extension: value-stream compression", values_exp::run),
    exp("multirow", "extension: multiple threads per row", multirow_exp::run),
    exp("ablate", "ablations: slice height, symbol length, interval length", ablate::run),
    exp("precision", "extension: f32 vs f64", precision::run),
    exp("formats", "extension: full format zoo + autotuner picks", formats::run),
    exp("spmm", "extension: block SpMV amortization sweep", spmm_exp::run),
    exp("split", "extension: BRO-HYB split-width sweep", split_exp::run),
    exp("divergence", "extension: BRO-ELL vs CPU-style varint scheme", divergence::run),
    exp("solver", "extension: solver economics (compression amortization)", solver_exp::run),
    exp("scaling", "extension: multi-GPU strong/weak scaling (distributed SpMV)", scaling::run),
];

/// Experiments `repro all` skips: `fig9`'s run already emits Table 5.
pub const NOT_IN_ALL: [&str; 1] = ["table5"];

/// Looks an experiment up by its command-line name.
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The experiments `repro all` runs, in order.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| !NOT_IN_ALL.contains(&e.name))
}

/// A pairwise format comparison over one matrix set: every listed registry
/// kernel runs on every device, and the last one (the BRO format) is
/// compared against each of the others.
pub struct Comparison {
    /// CSV id of the per-(matrix, device) table; the averages go to `<id>_avg`.
    pub id: &'static str,
    /// Title of the per-(matrix, device) table.
    pub title: &'static str,
    /// Title of the per-device averages table.
    pub avg_title: &'static str,
    /// The matrices compared (before the `--matrix` filter).
    pub set: fn() -> Vec<SuiteEntry>,
    /// Registry names: the baselines first, the BRO format last.
    pub kernels: &'static [&'static str],
    /// Matrix, device, one GFLOP/s column per kernel, one speedup column
    /// per baseline.
    pub header: &'static [&'static str],
    /// Device, one average speedup column per baseline.
    pub avg_header: &'static [&'static str],
}

/// Runs a [`Comparison`]: builds its kernels once per selected matrix, runs
/// each on every device, and emits the per-(matrix, device) table and the
/// per-device geometric-mean speedups.
pub fn compare(ctx: &mut ExpContext, c: &Comparison) {
    let baselines = c.kernels.len() - 1;
    let mut t = TextTable::new(c.header);
    // speedups[device][baseline]: one ratio per matrix.
    let mut speedups = vec![vec![Vec::new(); baselines]; ctx.devices.len()];
    for entry in ctx.select((c.set)()) {
        let a = ctx.matrix(entry.name);
        let (flops, cols) = (2 * a.nnz() as u64, a.cols());
        let prepared: Vec<PreparedSpmv> = c.kernels.iter().map(|k| build(k, a)).collect();
        let x = ctx.input_vector(cols);
        for (dev, speedups) in ctx.devices.iter().zip(&mut speedups) {
            let gflops: Vec<f64> = prepared
                .iter()
                .map(|p| run_kernel(dev, flops, 8, |s| p.run(s, &x)).gflops)
                .collect();
            let bro = gflops[baselines];
            let mut row = vec![entry.name.to_string(), dev.name.to_string()];
            row.extend(gflops.iter().map(|&g| f(g, 2)));
            for (ratios, &base) in speedups.iter_mut().zip(&gflops) {
                ratios.push(bro / base);
                row.push(f(bro / base, 2));
            }
            t.row(row);
        }
    }
    ctx.emit(c.id, c.title, &t);

    let mut avg = TextTable::new(c.avg_header);
    for (dev, speedups) in ctx.devices.iter().zip(&speedups) {
        let mut row = vec![dev.name.to_string()];
        row.extend(speedups.iter().map(|ratios| geomean(ratios, 2)));
        avg.row(row);
    }
    ctx.emit(&format!("{}_avg", c.id), c.avg_title, &avg);
}

/// Builds the registry kernel `name` (at its defaults) for `a`.
pub fn build(name: &str, a: &CooMatrix<f64>) -> PreparedSpmv {
    registry::by_name(name)
        .unwrap_or_else(|| panic!("no registry kernel '{name}'"))
        .build_from_coo(a)
}

/// Runs a kernel closure on a fresh device and reports it, crediting
/// `useful_flops` (2 × nnz for SpMV) at the given scalar width. The
/// kernel's result is dropped.
pub fn run_kernel<R>(
    profile: &DeviceProfile,
    useful_flops: u64,
    val_bytes: usize,
    f: impl FnOnce(&mut DeviceSim) -> R,
) -> KernelReport {
    let mut sim = DeviceSim::new(profile.clone());
    f(&mut sim);
    KernelReport::from_device(&sim, useful_flops, val_bytes)
}

/// Geometric mean of `values` at `prec` decimals (the paper aggregates its
/// "average speedup" claims across matrices), or `-` when the `--matrix`
/// filter left no matrix to average.
pub fn geomean(values: &[f64], prec: usize) -> String {
    if values.is_empty() {
        return "-".into();
    }
    f((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp(), prec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[2.0, 8.0], 2), "4.00");
        assert_eq!(geomean(&[], 2), "-");
        assert_eq!(geomean(&[3.0], 3), "3.000");
    }

    #[test]
    fn experiment_names_are_unique_and_resolve() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        for e in &EXPERIMENTS {
            assert!(std::ptr::eq(by_name(e.name).unwrap(), e), "{} resolves to itself", e.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment names are unique");
        assert!(by_name("all").is_none() && by_name("nosuch").is_none());
        assert!(NOT_IN_ALL.iter().all(|name| by_name(name).is_some()));
    }

    #[test]
    fn all_runs_every_experiment_once_in_order() {
        let names: Vec<&str> = all().map(|e| e.name).collect();
        let want = "verify table1 table2 fig3 table3 fig4 fig5 fig6 fig7 table4 fig8 fig9 values \
                    multirow ablate precision formats spmm split divergence solver scaling";
        assert_eq!(names, want.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn comparison_headers_match_their_kernels() {
        for c in [&fig4::FIG4, &fig7::FIG7, &fig8::FIG8] {
            let baselines = c.kernels.len() - 1;
            assert_eq!(c.header.len(), 2 + c.kernels.len() + baselines, "{}", c.id);
            assert_eq!(c.avg_header.len(), 1 + baselines, "{}", c.id);
            for k in c.kernels {
                assert!(registry::by_name(k).is_some(), "{}: {k}", c.id);
            }
        }
    }
}
