//! Named-counter aggregation across launches.
//!
//! A [`MetricsRegistry`] folds a span recording (or ad-hoc `record` calls)
//! into per-name summaries — count, sum, min, max — so a run's hot spots
//! are readable without opening the trace in a viewer. The registry is the
//! second exporter next to [`crate::chrome`]: same spans, table instead of
//! timeline.

use std::collections::BTreeMap;

use crate::trace::SpanRecord;

/// Summary of one named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Metric {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregates named counters. Names are free-form; the convention used by
/// [`from_spans`](MetricsRegistry::from_spans) is `<span name>/<counter>`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `name`.
    pub fn record(&mut self, name: &str, value: f64) {
        match self.metrics.get_mut(name) {
            Some(m) => m.observe(value),
            None => {
                self.metrics.insert(
                    name.to_string(),
                    Metric { count: 1, sum: value, min: value, max: value },
                );
            }
        }
    }

    /// Builds a registry from a span recording: every span contributes its
    /// duration, and spans carrying a counter delta additionally contribute
    /// the traffic/arithmetic totals. Model-time spans are aggregated under
    /// `model/<name>` to keep simulated and wall-clock durations apart.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut reg = MetricsRegistry::new();
        for span in spans {
            let key = |counter: &str| {
                if span.model_time {
                    format!("model/{}/{counter}", span.name)
                } else {
                    format!("{}/{counter}", span.name)
                }
            };
            reg.record(&key("dur_us"), span.dur_us);
            if let Some(delta) = &span.delta {
                reg.record(&key("dram_bytes"), delta.stats.dram_bytes() as f64);
                reg.record(&key("flops"), delta.stats.flops as f64);
                reg.record(&key("int_ops"), delta.stats.int_ops as f64);
                reg.record(&key("launches"), delta.launches as f64);
            }
        }
        reg
    }

    /// The aggregated metrics, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

impl std::fmt::Display for MetricsRegistry {
    /// Fixed-width table, one metric per row.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name_w = self.metrics.keys().map(String::len).max().unwrap_or(6).max("metric".len());
        writeln!(
            f,
            "{:<name_w$}  {:>8}  {:>14}  {:>14}  {:>14}  {:>14}",
            "metric", "count", "sum", "mean", "min", "max"
        )?;
        for (name, m) in &self.metrics {
            writeln!(
                f,
                "{:<name_w$}  {:>8}  {:>14.1}  {:>14.1}  {:>14.1}  {:>14.1}",
                name,
                m.count,
                m.sum,
                m.mean(),
                m.min,
                m.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{LaunchStats, StatsSnapshot};
    use crate::trace::Tracer;

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut r = MetricsRegistry::new();
        r.record("a", 3.0);
        r.record("a", 1.0);
        r.record("a", 2.0);
        let m = r.get("a").unwrap();
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 6.0);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 3.0);
        assert_eq!(m.mean(), 2.0);
    }

    #[test]
    fn from_spans_aggregates_repeated_names() {
        let t = Tracer::enabled();
        for _ in 0..3 {
            let s = t.begin(0, "k");
            t.end(s);
        }
        t.record_model_span(1, "k", 0.0, 2.0e-6, None);
        let reg = MetricsRegistry::from_spans(&t.spans());
        // Three wall-clock spans fold into one metric; the model-time span
        // lands under its own prefix.
        assert_eq!(reg.get("k/dur_us").unwrap().count, 3);
        assert_eq!(reg.get("model/k/dur_us").unwrap().count, 1);
    }

    #[test]
    fn display_renders_table() {
        let mut r = MetricsRegistry::new();
        r.record("spmv/dur_us", 12.0);
        let text = r.to_string();
        assert!(text.contains("metric"));
        assert!(text.contains("spmv/dur_us"));
    }

    #[test]
    fn delta_spans_contribute_counters() {
        let t = Tracer::enabled();
        let s = t.begin(0, "k");
        t.end_with_stats(
            s,
            &StatsSnapshot {
                stats: LaunchStats { flops: 42, global_read_bytes: 128, ..Default::default() },
                launches: 2,
            },
        );
        let reg = MetricsRegistry::from_spans(&t.spans());
        assert_eq!(reg.get("k/flops").unwrap().sum, 42.0);
        assert_eq!(reg.get("k/dram_bytes").unwrap().sum, 128.0);
        assert_eq!(reg.get("k/launches").unwrap().sum, 2.0);
        assert_eq!(reg.get("k/dur_us").unwrap().count, 1);
    }
}
