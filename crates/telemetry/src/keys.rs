//! The telemetry key registry — the single declaration point for every
//! metric key the cpu/kernel/core crates emit.
//!
//! The exported telemetry profile is a pinned artifact
//! (`schema_version = 1`, see [`crate::profile`]): downstream notebooks
//! and the repro comparisons key into it by `(component, name)` string
//! pairs. A typo'd or ad-hoc key silently forks the schema — the
//! emission succeeds, the consumer reads a missing entry, and the
//! Table 2 overhead numbers drift without any test failing. So every
//! key is declared here exactly once, and `plugvolt-lint`'s
//! `telemetry-key-registry` rule cross-checks the two directions
//! textually: a `MetricKey::global`/`MetricKey::per_core` emission in
//! cpu/kernel/core whose pair is missing below is an error, and an
//! entry below that nothing emits is a stale-registry error.
//!
//! Keep entries sorted by `(component, name)`; the unit test pins that
//! plus uniqueness.
//!
//! Span labels (see [`crate::span::Tracer`]) are part of the same
//! statically checked observability surface: every label a
//! cpu/kernel/core `span(…)`/`record_span(…)` site uses must appear in
//! [`REGISTERED_SPANS`], cross-checked by the same lint rule. Labels
//! are `component/what` paths; keep the list sorted.

/// How a registered metric aggregates observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// Monotonic count or accumulated total (`incr`/`add`).
    Counter,
    /// Fixed-bucket histogram (`observe` with a [`crate::HistogramSpec`]).
    Histogram,
}

/// Which core dimension(s) a key is emitted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyScope {
    /// Package-wide only (`MetricKey::global`).
    Global,
    /// Per-core only (`MetricKey::per_core`).
    PerCore,
    /// Emitted both package-wide and per-core.
    Both,
}

/// One registered metric key.
#[derive(Debug, Clone, Copy)]
pub struct KeyDecl {
    /// Emitting component (`"msr"`, `"cpu"`, `"kernel"`, `"poll"`, …).
    pub component: &'static str,
    /// Metric name within the component.
    pub name: &'static str,
    /// Aggregation kind.
    pub kind: KeyKind,
    /// Core dimension(s).
    pub scope: KeyScope,
    /// What the metric measures, for the export table.
    pub doc: &'static str,
}

const fn key(
    component: &'static str,
    name: &'static str,
    kind: KeyKind,
    scope: KeyScope,
    doc: &'static str,
) -> KeyDecl {
    KeyDecl {
        component,
        name,
        kind,
        scope,
        doc,
    }
}

/// Every metric key the cpu/kernel/core crates emit, sorted by
/// `(component, name)`.
pub const REGISTERED_KEYS: &[KeyDecl] = &[
    key(
        "cpu",
        "crashes",
        KeyKind::Counter,
        KeyScope::Global,
        "undervolt-induced crashes: slack fell past the fault band into the crash region",
    ),
    key(
        "cpu",
        "faults",
        KeyKind::Counter,
        KeyScope::PerCore,
        "faulted imul iterations observed per core during characterization",
    ),
    key(
        "kernel",
        "stolen_ps",
        KeyKind::Counter,
        KeyScope::PerCore,
        "simulated time the kernel module steals from each core (Table 2 overhead numerator)",
    ),
    key(
        "kernel",
        "timer_iteration_us",
        KeyKind::Histogram,
        KeyScope::Global,
        "simulated core time one module timer firing steals, summed over cores",
    ),
    key(
        "msr",
        "access_cost_ps",
        KeyKind::Counter,
        KeyScope::PerCore,
        "accumulated simulated cost of MSR accesses, per core",
    ),
    key(
        "msr",
        "rdmsr",
        KeyKind::Counter,
        KeyScope::PerCore,
        "rdmsr instructions retired per core",
    ),
    key(
        "msr",
        "wrmsr",
        KeyKind::Counter,
        KeyScope::PerCore,
        "wrmsr instructions retired per core",
    ),
    key(
        "msr",
        "wrmsr_ignored",
        KeyKind::Counter,
        KeyScope::Global,
        "wrmsr writes dropped by the Sec. 5 MSR clamp (deployment level 3)",
    ),
    key(
        "poll",
        "detection_latency_us",
        KeyKind::Histogram,
        KeyScope::Both,
        "undervolt onset to countermeasure detection, the exposure-window opening edge",
    ),
    key(
        "poll",
        "fallback_failed",
        KeyKind::Counter,
        KeyScope::PerCore,
        "frequency-fallback (IA32_PERF_CTL) writes of the poller that returned an error",
    ),
    key(
        "poll",
        "restore_failed",
        KeyKind::Counter,
        KeyScope::PerCore,
        "poller restore writes that were ignored or returned an error",
    ),
    key(
        "poll",
        "restore_landing_us",
        KeyKind::Histogram,
        KeyScope::Global,
        "detection to voltage-restore landing, the exposure-window closing edge",
    ),
    key(
        "slack-table",
        "fallbacks",
        KeyKind::Counter,
        KeyScope::Global,
        "slack lookups that missed the precomputed table and took the analytic path",
    ),
    key(
        "slack-table",
        "hits",
        KeyKind::Counter,
        KeyScope::Global,
        "slack lookups served from the precomputed table",
    ),
];

/// One registered span label.
#[derive(Debug, Clone, Copy)]
pub struct SpanDecl {
    /// The `component/what` label passed to `Tracer::span` /
    /// `Tracer::record_span`.
    pub label: &'static str,
    /// What the span covers, for docs and table footers.
    pub doc: &'static str,
}

const fn span(label: &'static str, doc: &'static str) -> SpanDecl {
    SpanDecl { label, doc }
}

/// Every span label the cpu/kernel/core crates emit, sorted by label.
pub const REGISTERED_SPANS: &[SpanDecl] = &[
    span(
        "characterize/execute",
        "faulted-imul execution window of one grid point (run_imul_loop plus its advance)",
    ),
    span(
        "characterize/offset-write",
        "voltage-plane offset write opening one grid point, including mailbox latency",
    ),
    span(
        "characterize/point",
        "one (frequency, offset) grid point of the characterization sweep, end to end",
    ),
    span(
        "characterize/settle",
        "VR settle window between the offset write and the measured execution",
    ),
    span(
        "kernel/timer",
        "one kernel timer firing dispatched by Machine::advance_to",
    ),
    span(
        "msr/access",
        "explicitly charged MSR access cost (rdmsr/wrmsr, IPI and local), point-recorded",
    ),
    span(
        "poll/iteration",
        "one countermeasure poll iteration across all watched cores",
    ),
    span(
        "poll/overhead",
        "fixed per-iteration timer overhead charged before the MSR sweep, point-recorded",
    ),
    span(
        "queue/schedule",
        "timer-queue push churn (arm_timer), point-recorded with zero sim cost",
    ),
    span(
        "telemetry/flush",
        "end-of-run publish of batched hot counters and drop totals, point-recorded",
    ),
    span(
        "vr/retarget",
        "VR rail slew retarget churn, point-recorded with zero sim cost",
    ),
];

/// Whether `label` is a declared span label.
#[must_use]
pub fn is_registered_span(label: &str) -> bool {
    lookup_span(label).is_some()
}

/// The declaration for span `label`, if registered.
#[must_use]
pub fn lookup_span(label: &str) -> Option<&'static SpanDecl> {
    REGISTERED_SPANS.iter().find(|s| s.label == label)
}

/// The declaration for `(component, name)`, if registered.
#[must_use]
pub fn lookup(component: &str, name: &str) -> Option<&'static KeyDecl> {
    REGISTERED_KEYS
        .iter()
        .find(|k| k.component == component && k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        let pairs: Vec<(&str, &str)> = REGISTERED_KEYS
            .iter()
            .map(|k| (k.component, k.name))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted, "registry must be sorted and duplicate-free");
    }

    #[test]
    fn lookup_finds_declared_keys() {
        assert!(lookup("msr", "wrmsr").is_some());
        assert!(lookup("msr", "wrmsr_typo").is_none());
        let decl = lookup("poll", "detection_latency_us").expect("declared");
        assert_eq!(decl.scope, KeyScope::Both);
        assert_eq!(decl.kind, KeyKind::Histogram);
        assert!(REGISTERED_KEYS.iter().all(|k| !k.doc.is_empty()));
    }

    #[test]
    fn spans_sorted_unique_and_documented() {
        let labels: Vec<&str> = REGISTERED_SPANS.iter().map(|s| s.label).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(labels, sorted, "span registry must be sorted and unique");
        assert!(REGISTERED_SPANS.iter().all(|s| !s.doc.is_empty()));
        assert!(
            REGISTERED_SPANS.iter().all(|s| s.label.contains('/')),
            "span labels are component/what paths"
        );
    }

    #[test]
    fn span_lookup_finds_declared_labels() {
        assert!(is_registered_span("kernel/timer"));
        assert!(!is_registered_span("kernel/timer_typo"));
        assert!(lookup_span("msr/access").is_some());
    }
}
