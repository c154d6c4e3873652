//! Golden-model conformance: snapshots of the simulator's performance
//! model, pinned as JSON files and diffed field-by-field.
//!
//! The simulator is deterministic, so every [`LaunchStats`] counter and
//! every [`KernelReport`] float is exactly reproducible. The suite runs a
//! fixed grid of (matrix, format) pairs on each simulated device, plus the
//! 3-device cluster, and compares against `tests/golden/*.json`. Any change
//! to coalescing, caching, or the roofline model shows up as a named-field
//! diff (`k20.json: entries[3].stats.global_read_txns: got 412, want 408`)
//! instead of a silent perf-model drift.
//!
//! Refresh intentionally with `UPDATE_GOLDEN=1` (the writer is byte-stable:
//! regenerating without a model change produces identical files). Override
//! the snapshot directory with `BRO_GOLDEN_DIR`.

use std::path::PathBuf;

use bro_gpu_sim::{DeviceProfile, DeviceSim, Json, KernelReport, LaunchStats};
use bro_kernels::registry;
use bro_matrix::CooMatrix;

use crate::generators::{input_vector, Family};

/// Where the golden files live: `$BRO_GOLDEN_DIR`, else `tests/golden` at
/// the repository root (resolved relative to this crate, so it works from
/// any working directory).
pub fn golden_dir() -> PathBuf {
    match std::env::var_os("BRO_GOLDEN_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")),
    }
}

/// Whether `UPDATE_GOLDEN=1` (or any non-empty, non-`0` value) is set.
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// Registry kernels left out of the per-device snapshots. Both are BRO-ELL
/// variants (`multirow` splits each row across threads, `spmm` runs a
/// one-column SpMM); the differential fuzzer checks their results, and
/// leaving them out keeps the snapshot files as they are.
pub const NOT_SNAPSHOTTED: [&str; 2] = ["multirow", "spmm"];

/// Short stable file-name key for a device profile.
pub fn device_key(profile: &DeviceProfile) -> &'static str {
    match profile.name {
        "Tesla C2070" => "c2070",
        "GTX680" => "gtx680",
        "Tesla K20" => "k20",
        other => panic!("no golden key for device '{other}'"),
    }
}

/// The fixed matrix grid under snapshot. Chosen to exercise distinct model
/// paths: regular stencil (coalesced ELL), power-law (HYB/COO tails and
/// low occupancy), dense-row outliers (worst-case ELL padding), and the
/// near-overflow delta family (widest BRO bit widths).
pub fn golden_matrices() -> Vec<(&'static str, CooMatrix<f64>, Vec<f64>)> {
    let mut out = Vec::new();
    let lap = bro_matrix::generate::laplacian_2d::<f64>(24);
    let families = [
        (Family::Banded, "banded-7"),
        (Family::PowerLaw, "powerlaw-7"),
        (Family::DenseRowOutliers, "dense-outliers-7"),
        (Family::NearOverflowDeltas, "near-overflow-7"),
    ];
    let x = input_vector(lap.cols(), 7);
    out.push(("laplacian-24", lap, x));
    for (family, name) in families {
        let m = family.generate(7);
        let x = input_vector(m.cols(), 7);
        out.push((name, m, x));
    }
    out
}

fn stats_json(stats: &LaunchStats) -> Json {
    Json::obj([
        ("global_load_instrs", Json::Int(stats.global_load_instrs as i128)),
        ("global_read_txns", Json::Int(stats.global_read_txns as i128)),
        ("global_read_bytes", Json::Int(stats.global_read_bytes as i128)),
        ("global_store_instrs", Json::Int(stats.global_store_instrs as i128)),
        ("global_write_txns", Json::Int(stats.global_write_txns as i128)),
        ("global_write_bytes", Json::Int(stats.global_write_bytes as i128)),
        ("atomic_txns", Json::Int(stats.atomic_txns as i128)),
        ("atomic_bytes", Json::Int(stats.atomic_bytes as i128)),
        ("tex_accesses", Json::Int(stats.tex_accesses as i128)),
        ("tex_hits", Json::Int(stats.tex_hits as i128)),
        ("tex_misses", Json::Int(stats.tex_misses as i128)),
        ("tex_fill_bytes", Json::Int(stats.tex_fill_bytes as i128)),
        ("const_bytes", Json::Int(stats.const_bytes as i128)),
        ("flops", Json::Int(stats.flops as i128)),
        ("int_ops", Json::Int(stats.int_ops as i128)),
        ("warp_ops", Json::Int(stats.warp_ops as i128)),
        ("warps_launched", Json::Int(stats.warps_launched as i128)),
        ("blocks_launched", Json::Int(stats.blocks_launched as i128)),
    ])
}

fn report_json(report: &KernelReport) -> Json {
    Json::obj([
        ("time_s", Json::Float(report.time_s)),
        ("useful_flops", Json::Int(report.useful_flops as i128)),
        ("gflops", Json::Float(report.gflops)),
        ("dram_bytes", Json::Int(report.dram_bytes as i128)),
        ("achieved_bw_gbs", Json::Float(report.achieved_bw_gbs)),
        ("bw_utilization", Json::Float(report.bw_utilization)),
        ("eai", Json::Float(report.eai)),
        ("mem_time_s", Json::Float(report.mem_time_s)),
        ("compute_time_s", Json::Float(report.compute_time_s)),
        ("occupancy", Json::Float(report.occupancy)),
    ])
}

/// Runs the full (matrix × format) grid on one device and returns the
/// snapshot document.
pub fn snapshot_device(profile: &DeviceProfile) -> Json {
    let mut entries = Vec::new();
    for (matrix_name, a, x) in golden_matrices() {
        for &kernel in registry::all().iter().filter(|k| !NOT_SNAPSHOTTED.contains(&k.name())) {
            let mut sim = DeviceSim::new(profile.clone());
            let _y = kernel.build_from_coo(&a).run(&mut sim, &x);
            let report = KernelReport::from_device(&sim, 2 * a.nnz() as u64, 8);
            entries.push(Json::obj([
                ("matrix", Json::Str(matrix_name.to_string())),
                ("format", Json::Str(kernel.name().to_string())),
                ("launches", Json::Int(sim.launches() as i128)),
                ("stats", stats_json(sim.stats())),
                ("report", report_json(&report)),
            ]));
        }
    }
    Json::obj([
        ("schema", Json::Str("bro-verify golden v1".into())),
        ("device", Json::Str(profile.name.to_string())),
        ("entries", Json::Arr(entries)),
    ])
}

/// Runs the 3-device distributed SpMV over the grid matrices and snapshots
/// the partition shapes, exchange volumes, and cluster timing.
pub fn snapshot_cluster() -> Json {
    use bro_gpu_cluster::{ClusterConfig, ClusterFormat, ClusterSpmv};
    use bro_matrix::CsrMatrix;

    let profiles = DeviceProfile::evaluation_set();
    let mut entries = Vec::new();
    for (matrix_name, a, x) in golden_matrices() {
        let csr = CsrMatrix::from_coo(&a);
        let cluster = ClusterSpmv::build(
            &csr,
            &profiles,
            ClusterConfig { format: ClusterFormat::BroHyb, ..Default::default() },
        );
        let (_y, report) = cluster.spmv(&x);
        let ranks = report
            .devices
            .iter()
            .map(|d| {
                Json::obj([
                    ("rank", Json::Int(d.rank as i128)),
                    ("device", Json::Str(d.device.to_string())),
                    ("rows", Json::Int(d.rows as i128)),
                    ("nnz", Json::Int(d.nnz as i128)),
                    ("remote_nnz", Json::Int(d.remote_nnz as i128)),
                    ("halo_cols", Json::Int(d.halo_cols as i128)),
                    ("send_bytes", Json::Int(d.send_bytes as i128)),
                    ("recv_bytes", Json::Int(d.recv_bytes as i128)),
                    ("stats", stats_json(&d.snapshot.stats)),
                ])
            })
            .collect();
        entries.push(Json::obj([
            ("matrix", Json::Str(matrix_name.to_string())),
            ("time_s", Json::Float(report.time_s)),
            ("gflops", Json::Float(report.gflops)),
            ("halo_cols", Json::Int(report.halo_cols as i128)),
            ("halo_fraction", Json::Float(report.halo_fraction)),
            ("exchange_bytes", Json::Int(report.exchange_bytes as i128)),
            ("index_bytes_raw", Json::Int(report.index_bytes_raw as i128)),
            ("index_bytes_bro", Json::Int(report.index_bytes_bro as i128)),
            ("overlap_efficiency", Json::Float(report.overlap_efficiency)),
            ("ranks", Json::Arr(ranks)),
        ]));
    }
    Json::obj([
        ("schema", Json::Str("bro-verify golden v1".into())),
        ("device", Json::Str("3-device cluster".into())),
        ("entries", Json::Arr(entries)),
    ])
}

/// Field-level structural diff between two JSON documents. Paths use
/// `key.sub[3].field` notation; stops after `limit` differences.
pub fn diff(got: &Json, want: &Json, limit: usize) -> Vec<String> {
    let mut out = Vec::new();
    diff_inner(got, want, String::new(), &mut out, limit);
    out
}

fn describe(v: &Json) -> String {
    match v {
        Json::Obj(p) => format!("object with {} keys", p.len()),
        Json::Arr(a) => format!("array of {}", a.len()),
        Json::Str(s) => format!("\"{s}\""),
        Json::Int(v) => v.to_string(),
        Json::Float(v) => v.to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".into(),
    }
}

fn diff_inner(got: &Json, want: &Json, path: String, out: &mut Vec<String>, limit: usize) {
    if out.len() >= limit {
        return;
    }
    let label = if path.is_empty() { "<root>" } else { &path };
    match (got, want) {
        (Json::Obj(g), Json::Obj(w)) => {
            for (k, wv) in w {
                match g.iter().find(|(gk, _)| gk == k) {
                    Some((_, gv)) => {
                        let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                        diff_inner(gv, wv, sub, out, limit);
                    }
                    None => out.push(format!("{label}: missing key '{k}'")),
                }
            }
            for (k, _) in g {
                if !w.iter().any(|(wk, _)| wk == k) {
                    out.push(format!("{label}: unexpected key '{k}'"));
                }
            }
        }
        (Json::Arr(g), Json::Arr(w)) => {
            if g.len() != w.len() {
                out.push(format!("{label}: array length {} vs {}", g.len(), w.len()));
                return;
            }
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                diff_inner(gv, wv, format!("{path}[{i}]"), out, limit);
            }
        }
        (g, w) if g == w => {}
        (g, w) => out.push(format!("{label}: got {}, want {}", describe(g), describe(w))),
    }
}

/// Result of one conformance pass.
#[derive(Debug, Default)]
pub struct GoldenOutcome {
    /// Files written (update mode) or checked (verify mode).
    pub files: Vec<String>,
    /// Human-readable field diffs; empty means conformant.
    pub diffs: Vec<String>,
    /// True when snapshots were rewritten instead of checked.
    pub updated: bool,
}

impl GoldenOutcome {
    /// Whether the pass found no divergence.
    pub fn is_clean(&self) -> bool {
        self.diffs.is_empty()
    }
}

/// Runs the conformance suite over all devices plus the cluster. With
/// `update` set, rewrites the snapshot files instead of comparing.
pub fn run(update: bool) -> std::io::Result<GoldenOutcome> {
    let dir = golden_dir();
    let mut outcome = GoldenOutcome { updated: update, ..Default::default() };
    let mut docs: Vec<(String, Json)> = DeviceProfile::evaluation_set()
        .iter()
        .map(|p| (format!("{}.json", device_key(p)), snapshot_device(p)))
        .collect();
    docs.push(("cluster.json".into(), snapshot_cluster()));

    for (file, doc) in docs {
        let path = dir.join(&file);
        if update {
            std::fs::create_dir_all(&dir)?;
            std::fs::write(&path, doc.to_pretty())?;
        } else {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    outcome.diffs.push(format!(
                        "{file}: golden snapshot missing (run with UPDATE_GOLDEN=1 to create)"
                    ));
                    outcome.files.push(file);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match Json::parse(&text) {
                Ok(want) => {
                    for d in diff(&doc, &want, 20) {
                        outcome.diffs.push(format!("{file}: {d}"));
                    }
                }
                Err(e) => outcome.diffs.push(format!("{file}: unparseable golden file: {e}")),
            }
        }
        outcome.files.push(file);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_keys_cover_the_evaluation_set() {
        let keys: Vec<_> = DeviceProfile::evaluation_set().iter().map(device_key).collect();
        assert_eq!(keys, ["c2070", "gtx680", "k20"]);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let p = DeviceProfile::gtx680();
        let a = snapshot_device(&p);
        let b = snapshot_device(&p);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let doc = snapshot_device(&DeviceProfile::tesla_c2070());
        let text = doc.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert!(diff(&doc, &back, 20).is_empty());
    }

    #[test]
    fn diff_pinpoints_a_changed_counter() {
        let doc = snapshot_device(&DeviceProfile::tesla_k20());
        let mut tampered = doc.clone();
        // Bump one stats counter deep in the tree.
        if let Json::Obj(pairs) = &mut tampered {
            let entries = pairs.iter_mut().find(|(k, _)| k == "entries").unwrap();
            if let Json::Arr(items) = &mut entries.1 {
                if let Json::Obj(entry) = &mut items[3] {
                    let stats = entry.iter_mut().find(|(k, _)| k == "stats").unwrap();
                    if let Json::Obj(fields) = &mut stats.1 {
                        let f = fields.iter_mut().find(|(k, _)| k == "global_read_txns").unwrap();
                        f.1 = Json::Int(f.1.as_int().unwrap() + 4);
                    }
                }
            }
        }
        let diffs = diff(&tampered, &doc, 20);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("entries[3].stats.global_read_txns"), "{}", diffs[0]);
    }

    #[test]
    fn cluster_snapshot_has_three_ranks() {
        let doc = snapshot_cluster();
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert!(!entries.is_empty());
        for e in entries {
            assert_eq!(e.get("ranks").unwrap().as_arr().unwrap().len(), 3);
        }
    }
}
