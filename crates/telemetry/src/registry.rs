//! The ordered metric registry and its shared handle.
//!
//! Metrics are keyed by `(component, name, core)` in a [`BTreeMap`] so
//! iteration — and therefore every exported artifact — is
//! deterministic, which keeps `plugvolt-lint`'s
//! `no-unordered-iteration` guarantee intact end to end.

use crate::event::{TelemetryEvent, TimedEvent};
use crate::span::Tracer;
use plugvolt_des::stats::{Histogram, Summary};
use plugvolt_des::time::SimTime;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Default bound on the retained event timeline.
pub const DEFAULT_EVENT_CAPACITY: usize = 8_192;

/// Identifies one metric: the emitting component, the metric name, and
/// an optional logical core (``None`` for package-wide metrics).
///
/// Ordering is derived, so `BTreeMap<MetricKey, _>` iterates
/// component-major, then name, then core — the order every exporter
/// emits.
///
/// The string fields are `Cow<'static, str>` so the common case — a
/// key built from string literals on a recording path — never
/// allocates; dynamic names (e.g. per-deployment gauges) pay for an
/// owned `String` only at construction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Emitting component (`"msr"`, `"cpu"`, `"kernel"`, `"poll"`, …).
    pub component: Cow<'static, str>,
    /// Metric name within the component.
    pub name: Cow<'static, str>,
    /// Logical core, or `None` for package-wide metrics.
    pub core: Option<u32>,
}

impl MetricKey {
    /// A package-wide metric key.
    #[must_use]
    pub fn global(
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Self {
        MetricKey {
            component: component.into(),
            name: name.into(),
            core: None,
        }
    }

    /// A per-core metric key.
    #[must_use]
    pub fn per_core(
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
        core: u32,
    ) -> Self {
        MetricKey {
            component: component.into(),
            name: name.into(),
            core: Some(core),
        }
    }
}

/// Bucket layout for a fixed-bin histogram metric.
///
/// Kept separate from the observation call so every site recording the
/// same metric agrees on the layout (the first observation wins; later
/// specs are ignored). The canonical specs below are part of the
/// telemetry schema — changing them requires a `schema_version` bump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Lower bound of the covered range.
    pub lo: f64,
    /// Upper bound of the covered range.
    pub hi: f64,
    /// Number of equal-width bins.
    pub bins: usize,
}

impl HistogramSpec {
    /// Detection latency (unsafe-state entry → classification), µs.
    pub const DETECTION_LATENCY_US: HistogramSpec = HistogramSpec {
        lo: 0.0,
        hi: 400.0,
        bins: 20,
    };
    /// Restore landing (unsafe-state entry → rail settled safe), µs.
    pub const RESTORE_LANDING_US: HistogramSpec = HistogramSpec {
        lo: 0.0,
        hi: 1_600.0,
        bins: 20,
    };
    /// Exposure window of one deployment level, µs.
    pub const EXPOSURE_WINDOW_US: HistogramSpec = HistogramSpec {
        lo: 0.0,
        hi: 2_000.0,
        bins: 20,
    };
    /// Cost of one polling-module timer iteration, µs.
    pub const POLL_ITERATION_US: HistogramSpec = HistogramSpec {
        lo: 0.0,
        hi: 20.0,
        bins: 20,
    };
}

/// The telemetry store: ordered counters, gauges, histograms and
/// per-core summaries, plus a bounded event timeline.
///
/// All recording methods are cost-free on the simulation clock — the
/// registry never charges stolen time or schedules events, so an
/// instrumented run is cycle-identical to an uninstrumented one.
#[derive(Debug)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
    summaries: BTreeMap<MetricKey, Summary>,
    events: VecDeque<TimedEvent>,
    event_capacity: usize,
    events_dropped: u64,
}

impl Default for Registry {
    /// Same as [`Registry::new`]: the default event capacity, not a
    /// zero-capacity (drop-everything) buffer.
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry with the default event capacity.
    #[must_use]
    pub fn new() -> Self {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an empty registry retaining at most `capacity` events
    /// (older events are dropped and counted).
    #[must_use]
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            summaries: BTreeMap::new(),
            events: VecDeque::new(),
            event_capacity: capacity,
            events_dropped: 0,
        }
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, key: MetricKey, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, key: MetricKey, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Records `value` into the histogram at `key`, creating it with
    /// `spec` on first use.
    pub fn observe(&mut self, key: MetricKey, spec: HistogramSpec, value: f64) {
        self.histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(spec.lo, spec.hi, spec.bins))
            .record(value);
    }

    /// Moves the counts batched in `batch` into the histogram at `key`
    /// (created with `spec` on first use) and empties `batch`. An empty
    /// batch creates nothing, exactly as if no value had been observed.
    ///
    /// # Panics
    ///
    /// Panics if `batch`'s layout differs from the registered one.
    pub fn drain_histogram(&mut self, key: MetricKey, spec: HistogramSpec, batch: &mut Histogram) {
        if batch.total() == 0 {
            return;
        }
        batch.drain_into(
            self.histograms
                .entry(key)
                .or_insert_with(|| Histogram::new(spec.lo, spec.hi, spec.bins)),
        );
    }

    /// Records `value` into the streaming summary at `key`.
    pub fn record_summary(&mut self, key: MetricKey, value: f64) {
        // `Summary::new()`, not `::default()`: the latter zeroes the
        // min/max sentinels instead of using ±infinity.
        self.summaries
            .entry(key)
            .or_insert_with(Summary::new)
            .record(value);
    }

    /// Merges a finished [`Summary`] into the summary at `key` without
    /// re-streaming the raw samples (Welford combine).
    pub fn merge_summary(&mut self, key: MetricKey, other: &Summary) {
        self.summaries
            .entry(key)
            .or_insert_with(Summary::new)
            .merge(other);
    }

    /// Appends an event to the timeline, evicting (and counting) the
    /// oldest one when the buffer is full.
    pub fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        self.emit_with(at, || event);
    }

    /// [`emit`](Self::emit) for an event built by `build`, which runs
    /// only when the timeline keeps events: a zero-capacity registry
    /// counts the drop and builds nothing.
    pub fn emit_with(&mut self, at: SimTime, build: impl FnOnce() -> TelemetryEvent) {
        if self.event_capacity == 0 {
            self.events_dropped += 1;
            return;
        }
        if self.events.len() == self.event_capacity {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events.push_back(TimedEvent { at, event: build() });
    }

    /// Current value of a counter (0 if never written).
    #[must_use]
    pub fn counter(&self, key: &MetricKey) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    #[must_use]
    pub fn gauge(&self, key: &MetricKey) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// The histogram at `key`, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, key: &MetricKey) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// The summary at `key`, if any observation was recorded.
    #[must_use]
    pub fn summary(&self, key: &MetricKey) -> Option<&Summary> {
        self.summaries.get(key)
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// Summaries in key order.
    pub fn summaries(&self) -> impl Iterator<Item = (&MetricKey, &Summary)> {
        self.summaries.iter()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Events evicted from the bounded timeline.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }
}

/// A cheaply cloneable, shared handle to one [`Registry`].
///
/// The simulation is single-threaded, so the handle is an
/// `Rc<RefCell<…>>`: the CPU package, the kernel, and the polling
/// module all hold clones of the same sink, and recording needs only
/// `&self` (the CPU's `rdmsr` path is immutable).
#[derive(Debug, Clone, Default)]
pub struct Sink {
    inner: Rc<RefCell<Registry>>,
    /// The span tracer shared by every clone of this sink. A fresh
    /// sink's tracer starts disabled.
    tracer: Tracer,
}

impl Sink {
    /// Creates a sink over a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        Sink::default()
    }

    /// Creates a sink retaining at most `capacity` events.
    #[must_use]
    pub fn with_event_capacity(capacity: usize) -> Self {
        Sink {
            inner: Rc::new(RefCell::new(Registry::with_event_capacity(capacity))),
            tracer: Tracer::default(),
        }
    }

    /// The span tracer shared by every clone of this sink.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Increments a counter by one.
    pub fn incr(&self, key: MetricKey) {
        self.inner.borrow_mut().incr(key);
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, key: MetricKey, delta: u64) {
        self.inner.borrow_mut().add(key, delta);
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, key: MetricKey, value: f64) {
        self.inner.borrow_mut().set_gauge(key, value);
    }

    /// Records `value` into the histogram at `key` (see
    /// [`Registry::observe`]).
    pub fn observe(&self, key: MetricKey, spec: HistogramSpec, value: f64) {
        self.inner.borrow_mut().observe(key, spec, value);
    }

    /// Moves a batched histogram into the one at `key` (see
    /// [`Registry::drain_histogram`]).
    pub fn drain_histogram(&self, key: MetricKey, spec: HistogramSpec, batch: &mut Histogram) {
        self.inner.borrow_mut().drain_histogram(key, spec, batch);
    }

    /// Records `value` into the streaming summary at `key`.
    pub fn record_summary(&self, key: MetricKey, value: f64) {
        self.inner.borrow_mut().record_summary(key, value);
    }

    /// Merges a finished summary into the summary at `key`.
    pub fn merge_summary(&self, key: MetricKey, other: &Summary) {
        self.inner.borrow_mut().merge_summary(key, other);
    }

    /// Appends an event to the timeline.
    pub fn emit(&self, at: SimTime, event: TelemetryEvent) {
        self.inner.borrow_mut().emit(at, event);
    }

    /// Appends the event `build` returns, building it only when the
    /// timeline keeps events (see [`Registry::emit_with`]). `build`
    /// must not call back into this sink.
    pub fn emit_with(&self, at: SimTime, build: impl FnOnce() -> TelemetryEvent) {
        self.inner.borrow_mut().emit_with(at, build);
    }

    /// Runs `f` with shared access to the underlying registry.
    ///
    /// Do not call other `Sink` methods from inside `f` — the registry
    /// is borrowed for the duration of the call.
    pub fn with<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        f(&self.inner.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sink_retains_events() {
        // Regression: a derived `Registry::default()` once produced a
        // zero-capacity buffer that silently dropped every event.
        let sink = Sink::new();
        sink.emit(SimTime::ZERO, TelemetryEvent::Crash { core: 0 });
        sink.with(|r| {
            assert_eq!(r.events().count(), 1);
            assert_eq!(r.events_dropped(), 0);
        });
    }

    #[test]
    fn counters_accumulate_and_iterate_in_order() {
        let mut r = Registry::new();
        r.incr(MetricKey::per_core("msr", "rdmsr", 1));
        r.incr(MetricKey::per_core("msr", "rdmsr", 0));
        r.add(MetricKey::per_core("msr", "rdmsr", 0), 2);
        r.incr(MetricKey::global("cpu", "crashes"));
        let keys: Vec<(String, Option<u32>, u64)> = r
            .counters()
            .map(|(k, v)| (format!("{}/{}", k.component, k.name), k.core, v))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("cpu/crashes".into(), None, 1),
                ("msr/rdmsr".into(), Some(0), 3),
                ("msr/rdmsr".into(), Some(1), 1),
            ]
        );
    }

    #[test]
    fn histogram_created_from_spec_on_first_observe() {
        let mut r = Registry::new();
        let key = MetricKey::global("poll", "detection_latency_us");
        r.observe(key.clone(), HistogramSpec::DETECTION_LATENCY_US, 210.0);
        r.observe(key.clone(), HistogramSpec::DETECTION_LATENCY_US, 9_999.0);
        let h = r.histogram(&key).expect("histogram exists after observe");
        assert_eq!(h.total(), 2);
        assert_eq!(h.bins().len(), 20);
        // The out-of-range observation clamps into the last bin.
        assert_eq!(h.bins()[19], 1);
    }

    #[test]
    fn drained_batch_equals_direct_observations() {
        let key = MetricKey::global("kernel", "timer_iteration_us");
        let spec = HistogramSpec::POLL_ITERATION_US;
        let (mut direct, mut batched) = (Registry::new(), Registry::new());
        let mut batch = Histogram::new(spec.lo, spec.hi, spec.bins);
        batched.drain_histogram(key.clone(), spec, &mut batch);
        assert!(
            batched.histogram(&key).is_none(),
            "empty batch creates no row"
        );
        for v in [0.4, 0.4, 3.2, 25.0] {
            direct.observe(key.clone(), spec, v);
            batch.record(v);
        }
        batched.drain_histogram(key.clone(), spec, &mut batch);
        batched.drain_histogram(key.clone(), spec, &mut batch);
        assert_eq!(batched.histogram(&key), direct.histogram(&key));
    }

    #[test]
    fn event_timeline_bounds_and_counts_drops() {
        let mut r = Registry::with_event_capacity(2);
        for core in 0..4 {
            r.emit(
                SimTime::from_picos(u64::from(core)),
                TelemetryEvent::Crash { core },
            );
        }
        assert_eq!(r.events_dropped(), 2);
        let kept: Vec<u64> = r.events().map(|e| e.at.as_picos()).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn emit_with_builds_only_for_a_kept_timeline() {
        let event = |core| TelemetryEvent::Crash { core };
        let built = std::cell::Cell::new(0);
        let build = |core| {
            built.set(built.get() + 1);
            event(core)
        };
        let (with, plain) = (Sink::with_event_capacity(0), Sink::with_event_capacity(0));
        for core in 0..3 {
            with.emit_with(SimTime::from_picos(u64::from(core)), || build(core));
            plain.emit(SimTime::from_picos(u64::from(core)), event(core));
        }
        assert_eq!(built.get(), 0, "a zero-capacity sink never builds");
        assert_eq!(with.with(Registry::events_dropped), 3);
        assert_eq!(plain.with(Registry::events_dropped), 3);
        assert_eq!(with.with(|r| r.events().count()), 0);

        let (with, plain) = (Sink::with_event_capacity(2), Sink::with_event_capacity(2));
        for core in 0..3 {
            with.emit_with(SimTime::from_picos(u64::from(core)), || build(core));
            plain.emit(SimTime::from_picos(u64::from(core)), event(core));
        }
        assert_eq!(built.get(), 3);
        let kept = |s: &Sink| s.with(|r| r.events().cloned().collect::<Vec<_>>());
        assert_eq!(kept(&with), kept(&plain));
        assert_eq!(with.with(Registry::events_dropped), 1);
        assert_eq!(plain.with(Registry::events_dropped), 1);
    }

    #[test]
    fn summaries_merge_without_restreaming() {
        let mut r = Registry::new();
        let mut per_core = Summary::new();
        per_core.record(10.0);
        per_core.record(20.0);
        let key = MetricKey::global("poll", "detection_latency_us");
        r.merge_summary(key.clone(), &per_core);
        r.record_summary(key.clone(), 30.0);
        let s = r.summary(&key).expect("summary exists");
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn sink_is_shared_across_clones() {
        let sink = Sink::new();
        let other = sink.clone();
        other.incr(MetricKey::global("kernel", "steals"));
        sink.incr(MetricKey::global("kernel", "steals"));
        assert_eq!(
            sink.with(|r| r.counter(&MetricKey::global("kernel", "steals"))),
            2
        );
    }
}
