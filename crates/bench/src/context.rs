//! Shared experiment context: scale, devices, matrix cache, output sink.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

use bro_gpu_sim::DeviceProfile;
use bro_matrix::{suite, CooMatrix};

use crate::table::TextTable;

/// Configuration and caches shared by all experiments.
pub struct ExpContext {
    /// Matrix scale factor in `(0, 1]`; 1.0 = paper-size inputs.
    pub scale: f64,
    /// The simulated devices (Table 1's three GPUs).
    pub devices: Vec<DeviceProfile>,
    /// Optional directory for CSV output.
    pub out_dir: Option<PathBuf>,
    /// Optional filter: only run matrices whose name contains this string.
    pub matrix_filter: Option<String>,
    cache: HashMap<String, CooMatrix<f64>>,
}

impl ExpContext {
    /// A context at the given scale.
    pub fn new(scale: f64) -> Self {
        ExpContext {
            scale,
            devices: DeviceProfile::evaluation_set(),
            out_dir: None,
            matrix_filter: None,
            cache: HashMap::new(),
        }
    }

    /// Fetches (generating and caching on first use) a suite matrix by name.
    pub fn matrix(&mut self, name: &str) -> &CooMatrix<f64> {
        if !self.cache.contains_key(name) {
            let entry =
                suite::by_name(name).unwrap_or_else(|| panic!("unknown suite matrix '{name}'"));
            let m = entry.spec(self.scale).generate::<f64>();
            self.cache.insert(name.to_string(), m);
        }
        &self.cache[name]
    }

    /// Whether a matrix passes the `--matrix` filter.
    pub fn selected(&self, name: &str) -> bool {
        self.matrix_filter.as_deref().is_none_or(|f| passes(f, name))
    }

    /// The matrices of `set` that pass the `--matrix` filter, in order.
    pub fn select<M: AsRef<str>>(&self, set: impl IntoIterator<Item = M>) -> Vec<M> {
        set.into_iter().filter(|m| self.selected(m.as_ref())).collect()
    }

    /// A deterministic x vector of the given length (values in ~[1, 3]).
    pub fn input_vector(&self, len: usize) -> Vec<f64> {
        (0..len).map(|i| 1.0 + ((i * 2654435761) % 1024) as f64 / 512.0).collect()
    }

    /// Prints a titled table to stdout and, when `--out` is set, writes it
    /// as `<id>.csv` (plus, for figures, a ready-to-run gnuplot script) in
    /// the output directory.
    pub fn emit(&self, id: &str, title: &str, table: &TextTable) {
        println!("\n== {title} ==");
        println!("{}", table.render());
        if let Some(dir) = &self.out_dir {
            std::fs::create_dir_all(dir).expect("create output directory");
            let path = dir.join(format!("{id}.csv"));
            let mut file = std::fs::File::create(&path).expect("create CSV");
            file.write_all(table.to_csv().as_bytes()).expect("write CSV");
            if id.starts_with("fig") && !id.contains("avg") && !id.contains("breakeven") {
                let gp = dir.join(format!("{id}.gnuplot"));
                std::fs::write(&gp, gnuplot_script(id, title)).expect("write gnuplot");
            }
            println!("(written to {})", path.display());
        }
    }
}

/// Whether `name` passes the `--matrix` filter `filter`: a case-insensitive
/// substring match.
fn passes(filter: &str, name: &str) -> bool {
    name.to_ascii_lowercase().contains(&filter.to_ascii_lowercase())
}

/// Checks a `--matrix` filter: at least one suite matrix must pass it, or
/// every experiment would print empty tables.
pub fn check_matrix_filter(filter: &str) -> Result<(), String> {
    if suite::full_suite().iter().any(|e| passes(filter, e.name)) {
        Ok(())
    } else {
        Err(format!("--matrix '{filter}' matches no suite matrix"))
    }
}

/// A generic grouped-bar gnuplot script over the emitted CSV: first column
/// is the category, the last numeric column the plotted value. Users with
/// gnuplot installed get figure images for free:
/// `gnuplot -e "outdir='out'" out/fig4.gnuplot`.
fn gnuplot_script(id: &str, title: &str) -> String {
    format!(
        "# Auto-generated by `repro`. Render with: gnuplot {id}.gnuplot\n\
         set datafile separator ','\n\
         set terminal pngcairo size 1100,500\n\
         set output '{id}.png'\n\
         set title \"{title}\"\n\
         set style data histograms\n\
         set style fill solid 0.8\n\
         set xtics rotate by -40 scale 0\n\
         set key autotitle columnhead\n\
         set grid ytics\n\
         plot '{id}.csv' using (column(-2)):xtic(1)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_cache_returns_same_instance() {
        let mut ctx = ExpContext::new(0.02);
        let a_nnz = ctx.matrix("epb3").nnz();
        let b_nnz = ctx.matrix("epb3").nnz();
        assert_eq!(a_nnz, b_nnz);
        assert_eq!(ctx.cache.len(), 1);
    }

    #[test]
    fn filter_matches_case_insensitively() {
        let mut ctx = ExpContext::new(0.05);
        ctx.matrix_filter = Some("QCD".into());
        assert!(ctx.selected("qcd5_4"));
        assert!(!ctx.selected("cant"));
    }

    #[test]
    fn matrix_filter_must_match_a_suite_matrix() {
        assert!(check_matrix_filter("QCD").is_ok());
        assert!(check_matrix_filter("epb3").is_ok());
        assert!(check_matrix_filter("").is_ok());
        let err = check_matrix_filter("zzz").unwrap_err();
        assert!(err.contains("'zzz'"), "{err}");
        assert!(check_matrix_filter("nosuch").is_err());
    }

    #[test]
    fn input_vector_deterministic_nonzero() {
        let ctx = ExpContext::new(0.1);
        let v = ctx.input_vector(100);
        assert_eq!(v, ctx.input_vector(100));
        assert!(v.iter().all(|&x| x >= 1.0));
    }

    #[test]
    #[should_panic(expected = "unknown suite matrix")]
    fn unknown_matrix_panics() {
        ExpContext::new(0.1).matrix("nope");
    }

    #[test]
    fn emit_writes_csv_and_gnuplot_for_figures() {
        let dir = std::env::temp_dir().join("bro_spmv_emit_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = ExpContext::new(0.1);
        ctx.out_dir = Some(dir.clone());
        let mut t = TextTable::new(&["m", "v"]);
        t.row(vec!["a".into(), "1.0".into()]);
        ctx.emit("fig_test", "test figure", &t);
        ctx.emit("table_test", "test table", &t);
        assert!(dir.join("fig_test.csv").exists());
        assert!(dir.join("fig_test.gnuplot").exists());
        assert!(dir.join("table_test.csv").exists());
        assert!(!dir.join("table_test.gnuplot").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gnuplot_script_mentions_files() {
        let s = gnuplot_script("fig4", "title");
        assert!(s.contains("fig4.csv"));
        assert!(s.contains("fig4.png"));
    }
}
