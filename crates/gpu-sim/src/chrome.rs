//! Chrome trace-event JSON export.
//!
//! Serializes a span recording into the [trace-event format] understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `{"traceEvents": [...]}` object holding complete (`"ph": "X"`) events
//! with microsecond timestamps. Two processes separate the clocks:
//!
//! * **pid 0, "wall clock"** — host-measured spans; `tid` is the tracer
//!   lane (0 = driver, cluster devices rank + 1).
//! * **pid 1, "model time"** — perf-model (simulated-seconds) spans, e.g.
//!   the cluster's local / exchange / remote phases, where overlap between
//!   lanes is the point of the picture.
//!
//! Counter deltas ride along in each event's `args`, so clicking a slice in
//! the viewer shows its DRAM traffic and arithmetic totals.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use crate::json::{write_escaped, write_f64};
use crate::trace::SpanRecord;

const WALL_PID: u32 = 0;
const MODEL_PID: u32 = 1;

/// Serializes spans into a Chrome trace-event JSON document.
///
/// Metadata events (process/thread names) come first, then all complete
/// events sorted by timestamp — viewers do not require the ordering, but it
/// makes the output easy to validate and diff.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut events: Vec<String> = Vec::new();

    events.push(meta_event(WALL_PID, 0, "process_name", "wall clock"));
    if spans.iter().any(|s| s.model_time) {
        events.push(meta_event(MODEL_PID, 0, "process_name", "model time"));
    }
    let mut lanes: Vec<(u32, bool)> = spans.iter().map(|s| (s.lane, s.model_time)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for &(lane, model) in &lanes {
        let pid = if model { MODEL_PID } else { WALL_PID };
        let name = if lane == 0 {
            "driver".to_string()
        } else if lane < crate::trace::Tracer::LINK_LANE_OFFSET {
            format!("gpu {}", lane - 1)
        } else {
            format!("link {}", lane - crate::trace::Tracer::LINK_LANE_OFFSET - 1)
        };
        events.push(meta_event(pid, lane, "thread_name", &name));
    }

    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    for span in ordered {
        events.push(complete_event(span));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

fn meta_event(pid: u32, tid: u32, kind: &str, name: &str) -> String {
    let mut e = format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"name\":\"{kind}\",\"args\":{{\"name\":"
    );
    write_escaped(&mut e, name);
    e.push_str("}}");
    e
}

fn complete_event(span: &SpanRecord) -> String {
    let pid = if span.model_time { MODEL_PID } else { WALL_PID };
    let mut e = format!("{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":", span.lane);
    write_f64(&mut e, span.start_us);
    e.push_str(",\"dur\":");
    write_f64(&mut e, span.dur_us);
    e.push_str(",\"name\":");
    write_escaped(&mut e, &span.name);
    e.push_str(",\"args\":{");
    if let Some(delta) = &span.delta {
        let _ = write!(
            e,
            "\"dram_bytes\":{},\"global_read_bytes\":{},\"global_write_bytes\":{},\
             \"tex_fill_bytes\":{},\"flops\":{},\"int_ops\":{},\"warp_ops\":{},\
             \"launches\":{}",
            delta.stats.dram_bytes(),
            delta.stats.global_read_bytes,
            delta.stats.global_write_bytes,
            delta.stats.tex_fill_bytes,
            delta.stats.flops,
            delta.stats.int_ops,
            delta.stats.warp_ops,
            delta.launches
        );
    }
    e.push_str("}}");
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{LaunchStats, StatsSnapshot};
    use crate::trace::Tracer;

    fn sample_trace() -> Vec<SpanRecord> {
        let t = Tracer::enabled();
        let outer = t.begin(0, "spmv/ell");
        let inner = t.begin(0, "launch");
        t.end_with_stats(
            inner,
            &StatsSnapshot { stats: LaunchStats { flops: 7, ..Default::default() }, launches: 1 },
        );
        t.end(outer);
        t.record_model_span(1, "local-kernel", 0.0, 1.5e-3, None);
        t.spans()
    }

    #[test]
    fn export_contains_all_spans_and_metadata() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("spmv/ell"));
        assert!(json.contains("local-kernel"));
        assert!(json.contains("wall clock"));
        assert!(json.contains("model time"));
        assert!(json.contains("\"flops\":7"));
    }

    #[test]
    fn model_spans_use_their_own_process() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.contains("\"pid\":1"));
    }

    #[test]
    fn complete_events_are_ts_ordered() {
        let json = chrome_trace_json(&sample_trace());
        let mut last = f64::NEG_INFINITY;
        for line in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
            let ts: f64 =
                line.split("\"ts\":").nth(1).unwrap().split(',').next().unwrap().parse().unwrap();
            assert!(ts >= last, "timestamps must be non-decreasing");
            last = ts;
        }
        assert!(last > f64::NEG_INFINITY, "expected at least one complete event");
    }

    #[test]
    fn empty_recording_still_exports_valid_skeleton() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
