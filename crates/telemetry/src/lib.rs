//! `plugvolt-telemetry` — deterministic, sim-time-stamped observability
//! for the Plug Your Volt reproduction.
//!
//! The paper's headline quantities — the 0.28 % polling overhead
//! (Table 2) and the exposure window that shrinks to zero across the
//! kernel-module → microcode → MSR-clamp deployment levels (Sec. 5) —
//! were previously recomputed ad hoc inside each `repro` experiment,
//! with a per-component string `TraceBuffer` as the only instrument.
//! This crate replaces that with three layers:
//!
//! 1. **Typed events** ([`event::TelemetryEvent`]): MSR traffic,
//!    OC-mailbox commands, VR slews, P-state changes, faults, crashes,
//!    and the countermeasure's detection/restore pair, each stamped
//!    with the DES clock ([`plugvolt_des::time::SimTime`]).
//! 2. **An ordered metric registry** ([`registry::Registry`]):
//!    counters, gauges, fixed-bucket histograms and per-core streaming
//!    summaries keyed by `(component, name, core)` in `BTreeMap`s, so
//!    every export iterates in one deterministic order and
//!    `plugvolt-lint`'s `no-unordered-iteration` guarantee extends to
//!    telemetry artifacts. The shared handle ([`registry::Sink`]) is an
//!    `Rc<RefCell<…>>` clone held by the CPU package, the kernel, and
//!    the countermeasure modules.
//! 3. **Exporters**: ordered JSON with a pinned `schema_version`
//!    ([`profile::TelemetryProfile`]), a human-readable table, and a
//!    VCD waveform channel ([`export::events_to_vcd`]) reusing
//!    `plugvolt_des::vcd`.
//! 4. **A span tracer and self-profiler** ([`span::Tracer`]): a
//!    hierarchical `SpanGuard` API with dual accounting — a
//!    deterministic sim-time channel (golden-eligible, byte-identical
//!    across worker counts) and a separate, explicitly non-golden
//!    wall-clock channel — aggregated into a pinned-schema
//!    [`span::SpanProfile`], exported as Chrome trace-event JSON or
//!    collapsed-stack flamegraph text ([`chrome`]), and streamed as
//!    periodic JSONL snapshot frames ([`stream`]).
//!
//! Recording is free on the simulation clock: no sink method charges
//! stolen time or schedules events, so an instrumented run is
//! cycle-identical to an uninstrumented one (the kernel tests pin this
//! by asserting exact stolen-time totals).

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod export;
pub mod keys;
pub mod profile;
pub mod registry;
pub mod span;
pub mod stream;

pub use chrome::{chrome_trace_json, flamegraph_collapsed};
pub use event::{TelemetryEvent, TimedEvent};
pub use export::events_to_vcd;
pub use keys::{KeyDecl, KeyKind, KeyScope, SpanDecl, REGISTERED_KEYS, REGISTERED_SPANS};
pub use profile::{TelemetryProfile, SCHEMA_VERSION};
pub use registry::{HistogramSpec, MetricKey, Registry, Sink};
pub use span::{
    set_span_tracing_default, span_tracing_default, SpanEvent, SpanGuard, SpanProfile,
    SpanProfileRow, SpanRow, SpanSnapshot, Tracer, SPAN_SCHEMA_VERSION,
};
pub use stream::{CounterDelta, StreamCursor, StreamFrame, STREAM_SCHEMA_VERSION};
