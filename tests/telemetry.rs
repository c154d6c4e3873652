//! Integration tests for the launch-level telemetry stack: span tracing,
//! counter-delta attribution, the metrics registry, and the Chrome trace
//! exporter, exercised through the public kernel registry.
//!
//! The load-bearing invariant throughout: summing the counter deltas of the
//! *root* spans reconciles exactly — not approximately — with the
//! simulator's independently accumulated lifetime `LaunchStats`, for every
//! registered format and for a distributed 4-GPU run. Nested spans re-count
//! their parents' work, so only roots partition the totals.

use bro_spmv::gpu_cluster::ClusterSpmv;
use bro_spmv::gpu_sim::{chrome_trace_json, MetricsRegistry, StatsSnapshot, Tracer};
use bro_spmv::kernels::registry;
use bro_spmv::matrix::scalar::assert_vec_approx_eq;
use bro_spmv::matrix::{generate::laplacian_2d, suite};
use bro_spmv::prelude::*;
use bro_spmv::verify::validate_chrome_trace;

fn test_matrix() -> CooMatrix<f64> {
    suite::by_name("epb3").unwrap().spec(0.02).generate()
}

fn input(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| 1.0 + ((i * 37) % 19) as f64 * 0.21).collect()
}

/// Sums the counter deltas over the trace's root spans.
fn root_delta_sum(tracer: &Tracer) -> StatsSnapshot {
    let mut sum = StatsSnapshot::default();
    for s in tracer.spans().iter().filter(|s| s.is_root()) {
        if let Some(d) = &s.delta {
            sum.merge(d);
        }
    }
    sum
}

/// Every single-device registry format: the root `spmv/<name>` span's delta
/// accounts for exactly the device's lifetime counters, and the exported
/// trace passes schema validation.
#[test]
fn every_registry_format_reconciles_spans_with_lifetime_totals() {
    let a = test_matrix();
    let x = input(a.cols());
    let reference = csr_spmv(&CsrMatrix::from_coo(&a), &x);

    // The cluster is covered by the 4-GPU test below.
    for &kernel in registry::all() {
        let fmt = kernel.name();
        let tracer = Tracer::enabled();
        let mut sim = DeviceSim::builder(DeviceProfile::tesla_k20()).tracer(tracer.clone()).build();
        let y = kernel.build_from_coo(&a).run(&mut sim, &x);
        assert_vec_approx_eq(&y, &reference, 1e-9);

        assert_eq!(tracer.open_spans(), 0, "{fmt}: span leaked");
        let sum = root_delta_sum(&tracer);
        assert_eq!(sum, sim.lifetime_snapshot(), "{fmt}: root deltas != lifetime totals");
        assert!(sum.launches > 0, "{fmt}: no launches attributed");

        let n = validate_chrome_trace(&chrome_trace_json(&tracer.spans()))
            .unwrap_or_else(|e| panic!("{fmt}: {e}"));
        assert!(n > 0, "{fmt}: empty trace");
    }
}

/// A 4-GPU distributed run: per-rank phase spans are the roots, and their
/// deltas reconcile with the merged per-device snapshots the cluster
/// report carries.
#[test]
fn four_gpu_cluster_run_reconciles_and_exports() {
    let a = CsrMatrix::from_coo(&test_matrix());
    let x = input(a.cols());
    let cluster = ClusterSpmv::homogeneous(&a, &DeviceProfile::tesla_k20(), 4);

    let tracer = Tracer::enabled();
    let (y, report) = cluster.spmv_traced(&x, &tracer);
    assert_vec_approx_eq(&y, &a.spmv(&x).unwrap(), 1e-9);
    assert_eq!(report.device_count(), 4);

    assert_eq!(tracer.open_spans(), 0);
    let totals = StatsSnapshot::merged(report.devices.iter().map(|d| &d.snapshot));
    assert_eq!(root_delta_sum(&tracer), totals);

    let spans = tracer.spans();
    // The overlap schedule is visible: one umbrella, per-rank wall phases on
    // lanes 1..=4, and model-time kernel/exchange lanes.
    assert_eq!(spans.iter().filter(|s| s.name == "cluster/spmv").count(), 1);
    assert_eq!(spans.iter().filter(|s| s.name == "local-phase").count(), 4);
    for rank in 0..4u32 {
        assert!(
            spans.iter().any(|s| s.lane == rank + 1 && s.name == "local-phase"),
            "rank {rank} has no wall lane"
        );
    }
    assert!(spans.iter().any(|s| s.model_time && s.name == "local-kernel"));
    assert!(spans.iter().any(|s| s.model_time && s.name == "halo-exchange"));
    for ex in spans.iter().filter(|s| s.name == "halo-exchange") {
        assert!(ex.lane >= Tracer::LINK_LANE_OFFSET, "exchange renders on a link lane");
    }

    let json = chrome_trace_json(&spans);
    assert!(validate_chrome_trace(&json).unwrap() > 0);
}

/// Span nesting is well-formed: every parent exists, shares the lane, and
/// (for wall spans) its interval contains the child's.
#[test]
fn traced_solve_produces_well_nested_spans() {
    let a = laplacian_2d::<f64>(16);
    let b = input(a.rows());
    let tracer = Tracer::enabled();
    let mut sim = DeviceSim::builder(DeviceProfile::tesla_k20()).tracer(tracer.clone()).build();
    let prepared = registry::by_name("bro-ell").unwrap().build_from_coo(&a);
    let opts = CgOptions { max_iters: 10, tol: 1e-300 };
    cg(|v| prepared.run(&mut sim, v), &b, &opts);

    let spans = tracer.spans();
    // Every operator application is one `spmv/bro-ell` root span, with the
    // kernel's launch spans nested below it.
    let roots = spans.iter().filter(|s| s.is_root());
    assert_eq!(roots.filter(|s| s.name == "spmv/bro-ell").count(), 10);
    assert!(spans.iter().any(|s| s.name == "bro-ell/slices" && s.parent.is_some()));
    for child in spans.iter().filter(|s| s.parent.is_some()) {
        let parent = spans
            .iter()
            .find(|p| Some(p.id) == child.parent)
            .unwrap_or_else(|| panic!("span '{}' has a dangling parent", child.name));
        assert_eq!(parent.lane, child.lane, "'{}' crosses lanes", child.name);
        assert!(parent.start_us <= child.start_us + 1e-6);
        assert!(
            parent.start_us + parent.dur_us >= child.start_us + child.dur_us - 1e-6,
            "'{}' outlives its parent '{}'",
            child.name,
            parent.name
        );
    }

    // The registry aggregates per-name; 10 iterations → count 10.
    let metrics = MetricsRegistry::from_spans(&spans);
    assert_eq!(metrics.get("spmv/bro-ell/dur_us").unwrap().count, 10);
}

/// With tracing disabled every result and every counter is bit-identical
/// to an untraced run — the telemetry layer is observation-only.
#[test]
fn disabled_tracing_changes_nothing() {
    let a = test_matrix();
    let x = input(a.cols());
    for &kernel in registry::all() {
        let fmt = kernel.name();
        let mut plain = DeviceSim::new(DeviceProfile::gtx680());
        let y_plain = kernel.build_from_coo(&a).run(&mut plain, &x);

        let tracer = Tracer::disabled();
        let mut gated = DeviceSim::builder(DeviceProfile::gtx680()).tracer(tracer.clone()).build();
        let y_gated = kernel.build_from_coo(&a).run(&mut gated, &x);

        assert_eq!(y_plain, y_gated, "{fmt}: results diverge");
        assert_eq!(plain.lifetime_snapshot(), gated.lifetime_snapshot(), "{fmt}: counters diverge");
        assert!(tracer.spans().is_empty());
    }
}
