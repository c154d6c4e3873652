//! `repro` — regenerates every table and figure of the paper.
//!
//! `repro --help` lists the experiments (`bro_bench::experiments::EXPERIMENTS`)
//! and the options; `repro all` runs every experiment in that list's order.

use bro_bench::cli::{die, die_usage, effective_threads, flag_value, install_threads, parse_flag};
use bro_bench::context::check_matrix_filter;
use bro_bench::experiments::{self, EXPERIMENTS};
use bro_bench::ExpContext;

/// The `--help` text, listing every experiment of [`EXPERIMENTS`].
fn usage() -> String {
    let mut s = String::from(
        "usage: repro <experiment> [--scale F] [--out DIR] [--matrix NAME] [--threads N]\n\n\
         experiments:\n",
    );
    for e in &EXPERIMENTS {
        s += &format!("  {:<12}{}\n", e.name, e.about);
    }
    s + "  all         everything above, in this order (Table 5 with fig9)\n\n\
         options:\n\
         \x20 --scale F      matrix scale factor in (0, 1], default 0.1\n\
         \x20 --out DIR      also write each table as CSV into DIR\n\
         \x20 --matrix NAME  only run matrices whose name contains NAME\n\
         \x20 --threads N    bound the rayon worker pool (0 = all cores, 1 = serial)\n"
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut scale = 0.1f64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut matrix: Option<String> = None;
    let mut threads = 0usize;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = parse_flag(&mut it, "--scale");
                if !(scale > 0.0 && scale <= 1.0) {
                    die("--scale must be in (0, 1]");
                }
            }
            "--out" => {
                out = Some(flag_value(&mut it, "--out").into());
            }
            "--matrix" => {
                matrix = Some(flag_value(&mut it, "--matrix").to_string());
            }
            "--threads" => threads = parse_flag(&mut it, "--threads"),
            "-h" | "--help" => {
                print!("{}", usage());
                return;
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            other => die_usage(&format!("unknown argument '{other}'"), &usage()),
        }
    }
    let Some(exp) = experiment else {
        die_usage("an experiment name is required", &usage());
    };
    let run: Vec<_> = match experiments::by_name(&exp) {
        Some(e) => vec![e],
        None if exp == "all" => experiments::all().collect(),
        None => die_usage(&format!("unknown experiment '{exp}'"), &usage()),
    };
    if let Some(filter) = &matrix {
        check_matrix_filter(filter).unwrap_or_else(|e| die_usage(&e, &usage()));
    }

    install_threads(threads);
    let mut ctx = ExpContext::new(scale);
    ctx.out_dir = out;
    ctx.matrix_filter = matrix;
    eprintln!(
        "running '{exp}' at scale {scale} on {} worker thread(s) \
         (use --scale 1.0 for paper-size inputs)",
        effective_threads()
    );
    let t0 = std::time::Instant::now();
    for e in run {
        (e.run)(&mut ctx);
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
