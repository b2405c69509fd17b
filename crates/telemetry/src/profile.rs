//! The exported telemetry profile: a stable, ordered snapshot of one
//! registry.
//!
//! The JSON layout is versioned by [`SCHEMA_VERSION`]; any change to
//! field names, row ordering, or the canonical histogram specs in
//! [`crate::registry::HistogramSpec`] requires a bump. Row order is the
//! registry's `BTreeMap` key order, so two identical runs serialize to
//! byte-identical JSON.

use crate::event::TimedEvent;
use crate::registry::{MetricKey, Registry, Sink};
use plugvolt_des::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the profile JSON layout. Bump on any breaking change.
///
/// v2 added `spans_dropped` (span capture-buffer overflow accounting,
/// see [`crate::span::Tracer::dropped`]); v3 removed the string-trace
/// drop counter along with the string trace buffers it counted.
pub const SCHEMA_VERSION: u32 = 3;

/// One exported counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRow {
    /// Emitting component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Logical core, or `None` for package-wide counters.
    pub core: Option<u32>,
    /// Accumulated count.
    pub value: u64,
}

/// One exported gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeRow {
    /// Emitting component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Logical core, or `None` for package-wide gauges.
    pub core: Option<u32>,
    /// Last value written.
    pub value: f64,
}

/// One exported fixed-bin histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramRow {
    /// Emitting component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Logical core, or `None` for package-wide histograms.
    pub core: Option<u32>,
    /// Lower bound of the covered range.
    pub lo: f64,
    /// Upper bound of the covered range.
    pub hi: f64,
    /// Per-bin observation counts (out-of-range clamps to the edges).
    pub bins: Vec<u64>,
}

impl HistogramRow {
    /// Total observations across all bins.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// One exported streaming summary (flattened Welford moments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Emitting component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Logical core; `None` rows are all-core rollups produced with
    /// `Summary::merge`.
    pub core: Option<u32>,
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty).
    pub std_dev: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl SummaryRow {
    fn from_summary(key: &MetricKey, s: &Summary) -> Self {
        SummaryRow {
            component: key.component.to_string(),
            name: key.name.to_string(),
            core: key.core,
            count: s.count(),
            mean: s.mean(),
            std_dev: s.std_dev(),
            min: s.min().unwrap_or(0.0),
            max: s.max().unwrap_or(0.0),
        }
    }
}

/// A stable snapshot of one [`Registry`], ready for JSON or table
/// export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryProfile {
    /// Layout version; see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The experiment (or tool) that produced the profile.
    pub experiment: String,
    /// Counters, ordered by `(component, name, core)`.
    pub counters: Vec<CounterRow>,
    /// Gauges, ordered by `(component, name, core)`.
    pub gauges: Vec<GaugeRow>,
    /// Histograms, ordered by `(component, name, core)`.
    pub histograms: Vec<HistogramRow>,
    /// Summaries, ordered by `(component, name, core)`; per-core rows
    /// are accompanied by an all-core rollup with `core: null`.
    pub summaries: Vec<SummaryRow>,
    /// Retained event timeline, oldest first.
    pub events: Vec<TimedEvent>,
    /// Events evicted from the bounded timeline.
    pub events_dropped: u64,
    /// Span records dropped by the tracer's bounded capture buffer
    /// (schema v2; zero when profiling a bare [`Registry`], which has
    /// no tracer — [`Sink::profile`] fills it in).
    pub spans_dropped: u64,
}

impl TelemetryProfile {
    /// Snapshots `registry` under the experiment name `experiment`.
    ///
    /// Per-core summaries additionally produce an all-core rollup row
    /// (`core: null`) combined with [`Summary::merge`], so aggregate
    /// latency statistics are available without re-streaming samples.
    #[must_use]
    pub fn from_registry(registry: &Registry, experiment: &str) -> Self {
        let counters = registry
            .counters()
            .map(|(k, v)| CounterRow {
                component: k.component.to_string(),
                name: k.name.to_string(),
                core: k.core,
                value: v,
            })
            .collect();
        let gauges = registry
            .gauges()
            .map(|(k, v)| GaugeRow {
                component: k.component.to_string(),
                name: k.name.to_string(),
                core: k.core,
                value: v,
            })
            .collect();
        let histograms = registry
            .histograms()
            .map(|(k, h)| HistogramRow {
                component: k.component.to_string(),
                name: k.name.to_string(),
                core: k.core,
                lo: h.bin_range(0).0,
                hi: h.bin_range(h.bins().len() - 1).1,
                bins: h.bins().to_vec(),
            })
            .collect();

        // Per-core summaries roll up into a core-less aggregate via
        // Summary::merge, unless the instrumentation already recorded
        // a package-wide row under the same (component, name).
        let mut rows: BTreeMap<MetricKey, SummaryRow> = BTreeMap::new();
        let mut rollups: BTreeMap<MetricKey, Summary> = BTreeMap::new();
        for (key, s) in registry.summaries() {
            rows.insert(key.clone(), SummaryRow::from_summary(key, s));
            if key.core.is_some() {
                rollups
                    .entry(MetricKey::global(key.component.clone(), key.name.clone()))
                    .or_insert_with(Summary::new)
                    .merge(s);
            }
        }
        for (key, merged) in &rollups {
            if !rows.contains_key(key) {
                rows.insert(key.clone(), SummaryRow::from_summary(key, merged));
            }
        }

        TelemetryProfile {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            counters,
            gauges,
            histograms,
            summaries: rows.into_values().collect(),
            events: registry.events().cloned().collect(),
            events_dropped: registry.events_dropped(),
            spans_dropped: 0,
        }
    }

    /// Serializes to pretty, deterministic JSON (field order is struct
    /// declaration order; row order is registry key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serialization is infallible")
    }

    /// Sum of a counter across all cores (plus any package-wide row).
    #[must_use]
    pub fn counter_total(&self, component: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|r| r.component == component && r.name == name)
            .map(|r| r.value)
            .sum()
    }

    /// The histogram row for `(component, name)` with `core: null`.
    #[must_use]
    pub fn histogram(&self, component: &str, name: &str) -> Option<&HistogramRow> {
        self.histograms
            .iter()
            .find(|r| r.component == component && r.name == name && r.core.is_none())
    }

    /// The value of a package-wide gauge, if present.
    #[must_use]
    pub fn gauge(&self, component: &str, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|r| r.component == component && r.name == name && r.core.is_none())
            .map(|r| r.value)
    }

    /// Renders the human-readable table export.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry profile: {} (schema v{})",
            self.experiment, self.schema_version
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for r in &self.counters {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>6} {:>12}",
                    format!("{}/{}", r.component, r.name),
                    core_label(r.core),
                    r.value
                );
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\ngauges:");
            for r in &self.gauges {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>6} {:>12.3}",
                    format!("{}/{}", r.component, r.name),
                    core_label(r.core),
                    r.value
                );
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for r in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>6} n={} range=[{}, {}] bins={:?}",
                    format!("{}/{}", r.component, r.name),
                    core_label(r.core),
                    r.total(),
                    r.lo,
                    r.hi,
                    r.bins
                );
            }
        }
        if !self.summaries.is_empty() {
            let _ = writeln!(out, "\nsummaries:");
            for r in &self.summaries {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>6} n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
                    format!("{}/{}", r.component, r.name),
                    core_label(r.core),
                    r.count,
                    r.mean,
                    r.std_dev,
                    r.min,
                    r.max
                );
            }
        }
        let _ = writeln!(
            out,
            "\nevents: {} retained, {} dropped; spans dropped: {}",
            self.events.len(),
            self.events_dropped,
            self.spans_dropped
        );
        for e in &self.events {
            let _ = writeln!(out, "  [{}] {}", e.at, e.event);
        }
        out
    }
}

fn core_label(core: Option<u32>) -> String {
    match core {
        Some(c) => format!("core{c}"),
        None => "-".to_string(),
    }
}

impl Sink {
    /// Snapshots the shared registry into a [`TelemetryProfile`],
    /// folding in the sink tracer's span-drop accounting.
    #[must_use]
    pub fn profile(&self, experiment: &str) -> TelemetryProfile {
        let mut p = self.with(|r| TelemetryProfile::from_registry(r, experiment));
        p.spans_dropped = self.tracer().dropped();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use crate::registry::HistogramSpec;
    use plugvolt_des::time::SimTime;

    #[test]
    fn per_core_summaries_roll_up_with_merge() {
        let mut r = Registry::new();
        r.record_summary(
            MetricKey::per_core("poll", "detection_latency_us", 0),
            100.0,
        );
        r.record_summary(
            MetricKey::per_core("poll", "detection_latency_us", 0),
            200.0,
        );
        r.record_summary(
            MetricKey::per_core("poll", "detection_latency_us", 3),
            300.0,
        );
        let p = TelemetryProfile::from_registry(&r, "unit");
        // Rollup (core: None) sorts before the per-core rows.
        assert_eq!(p.summaries.len(), 3);
        let rollup = &p.summaries[0];
        assert_eq!(rollup.core, None);
        assert_eq!(rollup.count, 3);
        assert!((rollup.mean - 200.0).abs() < 1e-9);
        assert_eq!(rollup.min, 100.0);
        assert_eq!(rollup.max, 300.0);
    }

    #[test]
    fn json_is_deterministic_across_identical_registries() {
        let build = || {
            let mut r = Registry::new();
            r.incr(MetricKey::per_core("msr", "rdmsr", 1));
            r.incr(MetricKey::per_core("msr", "wrmsr", 0));
            r.observe(
                MetricKey::global("poll", "detection_latency_us"),
                HistogramSpec::DETECTION_LATENCY_US,
                210.0,
            );
            r.set_gauge(
                MetricKey::global("deploy/polling-module", "exposure_ns"),
                5.0,
            );
            TelemetryProfile::from_registry(&r, "unit").to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn convenience_accessors() {
        let mut r = Registry::new();
        r.add(MetricKey::per_core("msr", "rdmsr", 0), 5);
        r.add(MetricKey::per_core("msr", "rdmsr", 1), 7);
        r.observe(
            MetricKey::global("deploy", "exposure_window_us"),
            HistogramSpec::EXPOSURE_WINDOW_US,
            0.0,
        );
        let p = TelemetryProfile::from_registry(&r, "unit");
        assert_eq!(p.counter_total("msr", "rdmsr"), 12);
        let h = p
            .histogram("deploy", "exposure_window_us")
            .expect("present");
        assert_eq!(h.total(), 1);
        assert_eq!(p.gauge("deploy", "missing"), None);
    }

    #[test]
    fn table_render_mentions_drop_accounting() {
        let mut r = Registry::with_event_capacity(1);
        for core in 0..4 {
            r.emit(SimTime::ZERO, TelemetryEvent::Crash { core });
        }
        let p = TelemetryProfile::from_registry(&r, "unit");
        let table = p.render_table();
        assert!(table.contains("events: 1 retained, 3 dropped; spans dropped: 0"));
        assert!(table.starts_with("telemetry profile: unit (schema v3)"));
    }

    #[test]
    fn sink_profile_surfaces_span_drops() {
        let sink = Sink::new();
        sink.tracer().set_enabled(true);
        sink.tracer().enable_capture(1);
        sink.tracer().record_span("unit/a", 1);
        sink.tracer().record_span("unit/b", 1);
        let p = sink.profile("unit");
        assert_eq!(p.spans_dropped, 1);
        assert!(p.render_table().contains("spans dropped: 1"));
    }

    #[test]
    fn profile_round_trips_through_json() {
        let mut r = Registry::new();
        r.incr(MetricKey::global("cpu", "crashes"));
        r.record_summary(MetricKey::per_core("poll", "detection_latency_us", 0), 50.0);
        let p = TelemetryProfile::from_registry(&r, "roundtrip");
        let back: TelemetryProfile =
            serde_json::from_str(&p.to_json()).expect("profile parses back");
        assert_eq!(back, p);
    }
}
