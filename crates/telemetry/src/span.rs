//! Hierarchical span tracer and self-profiler with **dual accounting**.
//!
//! Every span carries two clocks:
//!
//! * **Sim time** (picoseconds of [`plugvolt_des::time::SimTime`]): the
//!   deterministic channel. A span's sim total is the simulated-clock
//!   delta between enter and exit plus any explicitly attributed sim
//!   cost ([`Tracer::record_span`]) inside its subtree. Because every
//!   input is derived from the DES clock, aggregates are byte-identical
//!   across runs *and across worker counts* (a traced sweep records its
//!   columns in frequency order into one sink; soak merges campaign
//!   tracers in judge order via [`Tracer::absorb`]) — this channel is eligible
//!   for golden pinning and feeds the [`SpanProfile`], the Chrome trace
//!   export and the streaming frames.
//! * **Wall time** (host nanoseconds): the profiling channel. It exists
//!   to answer "where does the *host* CPU go" for the bench attribution
//!   table and is explicitly **non-golden**: it never appears in
//!   [`SpanProfile`] serialization, Chrome traces, or stream frames —
//!   only in [`Tracer::rows`] for live table rendering.
//!
//! Recording is cost-free on the simulation clock, like the metric
//! registry: opening a span never charges stolen time, so an
//! instrumented run is cycle-identical to an uninstrumented one (the
//! kernel tests pin exact stolen-time totals with tracing on the
//! default path).
//!
//! Span labels are part of the observability schema: every label passed
//! to [`Tracer::span`]/[`Tracer::record_span`] from the cpu/kernel/core
//! crates must be declared in [`crate::keys::REGISTERED_SPANS`], both
//! directions checked by `plugvolt-lint`'s `telemetry-key-registry`
//! rule.
//!
//! Hot-path discipline mirrors the hot counters: a disabled tracer
//! costs one `Cell` load per site (no allocation, no `Instant` read, no
//! `RefCell` borrow). The enabled-path overhead is measured by
//! perfbench's `trace.overhead_ratio` and `trace.empty_span_ns` rows, and
//! `crates/bench/tests/telemetry_profile.rs::traced_sweep_records_its_column_machines`
//! checks that a traced sweep's records equal the untraced ones.

use plugvolt_des::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Version of the [`SpanProfile`] JSON layout (and the span rows
/// embedded in stream frames). Bump on any breaking change.
pub const SPAN_SCHEMA_VERSION: u32 = 1;

/// One node of the aggregate span tree: a `(parent, label)` pair with
/// dual-accounted totals.
#[derive(Debug)]
struct SpanNode {
    label: &'static str,
    /// Child node indices, in first-open order.
    children: Vec<usize>,
    /// Completed enters (guards dropped plus point records).
    count: u64,
    /// Sim-clock total: enter→exit delta plus attributed sim cost in
    /// the subtree.
    total_ps: u64,
    /// Sim-clock total minus completed labelled children's totals.
    self_ps: u64,
    /// Host-clock total (non-golden channel; guards only).
    wall_total_ns: u64,
    /// Host-clock self time (non-golden channel; guards only).
    wall_self_ns: u64,
}

impl SpanNode {
    fn new(label: &'static str) -> Self {
        SpanNode {
            label,
            children: Vec::new(),
            count: 0,
            total_ps: 0,
            self_ps: 0,
            wall_total_ns: 0,
            wall_self_ns: 0,
        }
    }
}

/// Bookkeeping for one open [`SpanGuard`] on the stack.
#[derive(Debug)]
struct ActiveSpan {
    node: usize,
    enter_sim_ps: u64,
    /// Sim cost attributed inside this span's subtree so far.
    charged_ps: u64,
    /// Sim totals of completed labelled children (for self time).
    child_total_ps: u64,
    /// Wall totals of completed child guards (for wall self time).
    child_wall_ns: u64,
    wall_enter: Instant,
}

/// One captured span occurrence on the deterministic sim timeline —
/// the raw material of the Chrome trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Registered span label.
    pub label: &'static str,
    /// Stack depth at emission (0 = top level), for trace readability.
    pub depth: u32,
    /// Sim time at span enter, picoseconds.
    pub start_ps: u64,
    /// Sim-clock duration (enter→exit delta; point records use their
    /// attributed cost).
    pub dur_ps: u64,
}

#[derive(Debug)]
struct TracerInner {
    enabled: Cell<bool>,
    sim_now_ps: Cell<u64>,
    nodes: RefCell<Vec<SpanNode>>,
    stack: RefCell<Vec<ActiveSpan>>,
    capture: RefCell<Vec<SpanEvent>>,
    /// 0 = capture off.
    capture_capacity: Cell<usize>,
    /// Span records lost to capture-buffer overflow; surfaced as
    /// `spans_dropped` in profiles.
    dropped: Cell<u64>,
}

/// What the sim channel of a [`Tracer`] recorded over one stretch of
/// calls: [`Tracer::mark`] takes the totals at its start,
/// [`Tracer::delta_since`] turns them into the growth since, and
/// [`Tracer::repeat`] records that growth again. Reusable: marking
/// again refills the same storage.
#[derive(Debug, Default)]
pub struct SpanMark {
    /// `(count, total_ps, self_ps)` of every node: at the mark, then
    /// their growth.
    nodes: Vec<(u64, u64, u64)>,
    /// The innermost open span's node and `(charged_ps,
    /// child_total_ps)`: at the mark, then their growth.
    top: Option<(usize, u64, u64)>,
    /// Whether the tracer was recording at the mark.
    enabled: bool,
}

/// A cheaply cloneable handle to one span tree. Every clone of a
/// [`crate::Sink`] shares one tracer, exactly like the metric registry.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Default for Tracer {
    /// A fresh, disabled tracer; see [`Tracer::set_enabled`].
    fn default() -> Self {
        Tracer {
            inner: Rc::new(TracerInner {
                enabled: Cell::new(false),
                sim_now_ps: Cell::new(0),
                nodes: RefCell::new(vec![SpanNode::new("")]),
                stack: RefCell::new(Vec::new()),
                capture: RefCell::new(Vec::new()),
                capture_capacity: Cell::new(0),
                dropped: Cell::new(0),
            }),
        }
    }
}

impl Tracer {
    /// A fresh, empty, disabled tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Turns recording on or off for this tracer (all sink clones).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// Whether this tracer records spans.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Advances the tracer's view of the simulated clock. Called by the
    /// machine wherever `now` moves; a plain `Cell` store, cheap enough
    /// for every timer firing.
    #[inline]
    pub fn set_sim_now(&self, now: SimTime) {
        self.inner.sim_now_ps.set(now.as_picos());
    }

    /// Opens a hierarchical span. Sim total is the simulated-clock
    /// delta until the guard drops, plus any cost attributed inside;
    /// wall total is the host-clock delta (non-golden channel).
    ///
    /// A disabled tracer inlines to one `Cell` load and an inert guard;
    /// only recording calls out of line.
    #[inline]
    #[must_use]
    pub fn span(&self, label: &'static str) -> SpanGuard {
        if !self.inner.enabled.get() {
            return SpanGuard { tracer: None };
        }
        self.enter(label)
    }

    /// The recording body of [`Tracer::span`].
    #[inline(never)]
    fn enter(&self, label: &'static str) -> SpanGuard {
        let mut stack = self.inner.stack.borrow_mut();
        let parent = stack.last().map_or(0, |a| a.node);
        let node = self.child_node(parent, label);
        stack.push(ActiveSpan {
            node,
            enter_sim_ps: self.inner.sim_now_ps.get(),
            charged_ps: 0,
            child_total_ps: 0,
            child_wall_ns: 0,
            wall_enter: Instant::now(),
        });
        drop(stack);
        SpanGuard {
            tracer: Some(self.clone()),
        }
    }

    /// Point-records one occurrence of `label` under the currently open
    /// span, attributing `sim_ps` of simulated cost to it. This is the
    /// batched hot-path form: no guard, no `Instant` read, and the
    /// attributed cost propagates into every enclosing span's total
    /// (the wall channel is untouched). Used for costs the sim clock
    /// never "passes through" — explicitly charged MSR access flows,
    /// slew retargets, timer-queue churn.
    #[inline]
    pub fn record_span(&self, label: &'static str, sim_ps: u64) {
        if self.inner.enabled.get() {
            self.record_point(label, sim_ps);
        }
    }

    /// The recording body of [`Tracer::record_span`].
    #[inline(never)]
    fn record_point(&self, label: &'static str, sim_ps: u64) {
        let (depth, parent) = {
            let mut stack = self.inner.stack.borrow_mut();
            let depth = stack.len() as u32;
            let parent = match stack.last_mut() {
                Some(top) => {
                    top.charged_ps += sim_ps;
                    top.child_total_ps += sim_ps;
                    top.node
                }
                None => 0,
            };
            (depth, parent)
        };
        let node = self.child_node(parent, label);
        {
            let mut nodes = self.inner.nodes.borrow_mut();
            let n = &mut nodes[node];
            n.count += 1;
            n.total_ps += sim_ps;
            n.self_ps += sim_ps;
        }
        self.capture_event(label, depth, self.inner.sim_now_ps.get(), sim_ps);
    }

    /// Records the sim channel's totals into `mark` (nothing while the
    /// tracer is disabled).
    pub fn mark(&self, mark: &mut SpanMark) {
        mark.enabled = self.is_enabled();
        if !mark.enabled {
            return;
        }
        let nodes = self.inner.nodes.borrow();
        mark.nodes.clear();
        mark.nodes
            .extend(nodes.iter().map(|n| (n.count, n.total_ps, n.self_ps)));
        mark.top = self
            .inner
            .stack
            .borrow()
            .last()
            .map(|a| (a.node, a.charged_ps, a.child_total_ps));
    }

    /// Turns `mark` into what the sim channel recorded since it: every
    /// node's growth in count and sim totals, and what the innermost
    /// open span was charged. The stretch must close every span it
    /// opens and leave the sim clock where it found it, as one timer
    /// firing does.
    pub fn delta_since(&self, mark: &mut SpanMark) {
        if !mark.enabled {
            return;
        }
        let nodes = self.inner.nodes.borrow();
        mark.nodes.resize(nodes.len(), (0, 0, 0));
        for (m, n) in mark.nodes.iter_mut().zip(nodes.iter()) {
            *m = (n.count - m.0, n.total_ps - m.1, n.self_ps - m.2);
        }
        if let (Some((_, charged_ps, child_total_ps)), Some(top)) =
            (&mut mark.top, self.inner.stack.borrow().last())
        {
            *charged_ps = top.charged_ps - *charged_ps;
            *child_total_ps = top.child_total_ps - *child_total_ps;
        }
    }

    /// Whether [`repeat`](Self::repeat) can record `delta` as the same
    /// calls made again now: the tracer records exactly when it did
    /// during the stretch, inside the same innermost open span, and
    /// captures nothing (a caller that needs every occurrence captured
    /// with its own timestamp must make the calls; see
    /// [`Tracer::is_capturing`]).
    #[must_use]
    pub fn can_repeat(&self, delta: &SpanMark) -> bool {
        if self.is_enabled() != delta.enabled {
            return false;
        }
        !delta.enabled
            || (!self.is_capturing()
                && self.inner.stack.borrow().last().map(|a| a.node) == delta.top.map(|t| t.0))
    }

    /// Records `times` more repetitions of `delta` (see
    /// [`delta_since`](Self::delta_since)), as if the same calls had
    /// been made again that often inside the innermost open span. The
    /// wall channel is left alone: a repetition that never ran took no
    /// host time.
    pub fn repeat(&self, delta: &SpanMark, times: u64) {
        if !self.is_enabled() || times == 0 {
            return;
        }
        let mut nodes = self.inner.nodes.borrow_mut();
        for (n, &(count, total_ps, self_ps)) in nodes.iter_mut().zip(&delta.nodes) {
            n.count += count * times;
            n.total_ps += total_ps * times;
            n.self_ps += self_ps * times;
        }
        if let (Some((_, charged_ps, child_total_ps)), Some(top)) =
            (delta.top, self.inner.stack.borrow_mut().last_mut())
        {
            top.charged_ps += charged_ps * times;
            top.child_total_ps += child_total_ps * times;
        }
    }

    /// Whether this tracer records each span occurrence into its capture
    /// buffer (see [`Tracer::enable_capture`]).
    #[must_use]
    pub fn is_capturing(&self) -> bool {
        self.is_enabled() && self.inner.capture_capacity.get() > 0
    }

    /// Turns the bounded capture buffer on (`capacity > 0`) or off.
    /// Captured [`SpanEvent`]s feed the Chrome trace export; overflow
    /// increments [`Tracer::dropped`] instead of growing without bound.
    pub fn enable_capture(&self, capacity: usize) {
        self.inner.capture_capacity.set(capacity);
    }

    /// A copy of the captured span events, in completion order.
    #[must_use]
    pub fn capture(&self) -> Vec<SpanEvent> {
        self.inner.capture.borrow().clone()
    }

    /// Span records lost to capture-buffer overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Flattened aggregate rows in depth-first tree order, both
    /// accounting channels included. The `path` joins labels from the
    /// outermost enclosing span with `';'` (collapsed-stack style).
    #[must_use]
    pub fn rows(&self) -> Vec<SpanRow> {
        let nodes = self.inner.nodes.borrow();
        let mut out = Vec::new();
        let mut pending: Vec<(usize, String)> = nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| (c, String::new()))
            .collect();
        while let Some((idx, prefix)) = pending.pop() {
            let n = &nodes[idx];
            let path = if prefix.is_empty() {
                n.label.to_string()
            } else {
                format!("{prefix};{}", n.label)
            };
            out.push(SpanRow {
                path: path.clone(),
                label: n.label,
                count: n.count,
                total_ps: n.total_ps,
                self_ps: n.self_ps,
                wall_total_ns: n.wall_total_ns,
                wall_self_ns: n.wall_self_ns,
            });
            for &c in n.children.iter().rev() {
                pending.push((c, path.clone()));
            }
        }
        out
    }

    /// A plain-data, `Send` snapshot of the aggregate tree, for
    /// carrying span totals from one tracer into another.
    #[must_use]
    pub fn snapshot(&self) -> SpanSnapshot {
        let nodes = self.inner.nodes.borrow();
        let mut rows = Vec::new();
        let mut pending: Vec<(usize, Vec<&'static str>)> = nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| (c, Vec::new()))
            .collect();
        while let Some((idx, prefix)) = pending.pop() {
            let n = &nodes[idx];
            let mut path = prefix.clone();
            path.push(n.label);
            rows.push(SnapshotRow {
                path: path.clone(),
                count: n.count,
                total_ps: n.total_ps,
                self_ps: n.self_ps,
                wall_total_ns: n.wall_total_ns,
                wall_self_ns: n.wall_self_ns,
            });
            for &c in n.children.iter().rev() {
                pending.push((c, path.clone()));
            }
        }
        SpanSnapshot {
            rows,
            dropped: self.inner.dropped.get(),
        }
    }

    /// Merges a snapshot into this tracer's aggregate tree. Callers
    /// must absorb snapshots in a deterministic order (soak merges its
    /// campaign tracers in judge order) so first-seen node creation —
    /// and therefore nothing observable, since profiles sort by path —
    /// is reproducible.
    pub fn absorb(&self, snap: &SpanSnapshot) {
        for row in &snap.rows {
            let mut node = 0;
            for label in &row.path {
                node = self.child_node(node, label);
            }
            let mut nodes = self.inner.nodes.borrow_mut();
            let n = &mut nodes[node];
            n.count += row.count;
            n.total_ps += row.total_ps;
            n.self_ps += row.self_ps;
            n.wall_total_ns += row.wall_total_ns;
            n.wall_self_ns += row.wall_self_ns;
        }
        self.inner
            .dropped
            .set(self.inner.dropped.get() + snap.dropped);
    }

    /// Interns the child of `parent` labelled `label`.
    fn child_node(&self, parent: usize, label: &'static str) -> usize {
        let mut nodes = self.inner.nodes.borrow_mut();
        if let Some(&c) = nodes[parent]
            .children
            .iter()
            .find(|&&c| nodes[c].label == label)
        {
            return c;
        }
        let idx = nodes.len();
        nodes.push(SpanNode::new(label));
        nodes[parent].children.push(idx);
        idx
    }

    fn capture_event(&self, label: &'static str, depth: u32, start_ps: u64, dur_ps: u64) {
        let cap = self.inner.capture_capacity.get();
        if cap == 0 {
            return;
        }
        let mut buf = self.inner.capture.borrow_mut();
        if buf.len() >= cap {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
        } else {
            buf.push(SpanEvent {
                label,
                depth,
                start_ps,
                dur_ps,
            });
        }
    }

    /// Closes the guard opened by [`Tracer::span`].
    #[inline(never)]
    fn exit(&self) {
        let Some(top) = self.inner.stack.borrow_mut().pop() else {
            return;
        };
        let sim_delta = self.inner.sim_now_ps.get().saturating_sub(top.enter_sim_ps);
        let total_ps = sim_delta + top.charged_ps;
        let self_ps = total_ps.saturating_sub(top.child_total_ps);
        let wall_ns = u64::try_from(top.wall_enter.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let wall_self_ns = wall_ns.saturating_sub(top.child_wall_ns);
        let depth = {
            let mut stack = self.inner.stack.borrow_mut();
            if let Some(parent) = stack.last_mut() {
                parent.charged_ps += top.charged_ps;
                parent.child_total_ps += total_ps;
                parent.child_wall_ns += wall_ns;
            }
            stack.len() as u32
        };
        let label = {
            let mut nodes = self.inner.nodes.borrow_mut();
            let n = &mut nodes[top.node];
            n.count += 1;
            n.total_ps += total_ps;
            n.self_ps += self_ps;
            n.wall_total_ns += wall_ns;
            n.wall_self_ns += wall_self_ns;
            n.label
        };
        self.capture_event(label, depth, top.enter_sim_ps, sim_delta);
    }
}

/// RAII guard for one open span; closes it on drop. Inert (a single
/// `Option` check) when the tracer was disabled at open time.
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Option<Tracer>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            t.exit();
        }
    }
}

/// One flattened aggregate row, **both** accounting channels (the wall
/// fields never reach serialized artifacts — see [`SpanProfile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `';'`-joined label path from the outermost enclosing span.
    pub path: String,
    /// This row's own label (last path segment).
    pub label: &'static str,
    /// Completed occurrences.
    pub count: u64,
    /// Deterministic sim-clock total, picoseconds.
    pub total_ps: u64,
    /// Sim total minus labelled children's totals, picoseconds.
    pub self_ps: u64,
    /// Host-clock total, nanoseconds (non-golden).
    pub wall_total_ns: u64,
    /// Host-clock self time, nanoseconds (non-golden).
    pub wall_self_ns: u64,
}

/// Plain-data row of a [`SpanSnapshot`].
#[derive(Debug, Clone)]
struct SnapshotRow {
    path: Vec<&'static str>,
    count: u64,
    total_ps: u64,
    self_ps: u64,
    wall_total_ns: u64,
    wall_self_ns: u64,
}

/// A `Send` carrier of one tracer's aggregates, produced by
/// [`Tracer::snapshot`] and merged into another tracer with
/// [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    rows: Vec<SnapshotRow>,
    dropped: u64,
}

impl SpanSnapshot {
    /// Whether the snapshot carries no spans at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.dropped == 0
    }
}

/// One serialized span aggregate: sim channel only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanProfileRow {
    /// `';'`-joined label path (collapsed-stack style); parent→child
    /// edges are recoverable from path prefixes.
    pub path: String,
    /// Last path segment.
    pub label: String,
    /// Completed occurrences.
    pub count: u64,
    /// Deterministic sim-clock total, picoseconds.
    pub total_ps: u64,
    /// Sim total minus labelled children's totals, picoseconds.
    pub self_ps: u64,
}

/// The pinned-schema span aggregate export. Only the deterministic
/// sim-time channel is serialized — the wall-clock channel is excluded
/// by construction, so this artifact is eligible for golden pinning
/// and byte-identical across worker counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanProfile {
    /// Layout version; see [`SPAN_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The experiment (or tool) that produced the profile.
    pub experiment: String,
    /// Aggregate rows sorted by `path`.
    pub spans: Vec<SpanProfileRow>,
    /// Span records lost to capture-buffer overflow.
    pub spans_dropped: u64,
}

impl SpanProfile {
    /// Snapshots `tracer` under the experiment name `experiment`,
    /// dropping the wall-clock channel and sorting rows by path.
    #[must_use]
    pub fn from_tracer(tracer: &Tracer, experiment: &str) -> Self {
        let mut spans: Vec<SpanProfileRow> = tracer
            .rows()
            .into_iter()
            .map(|r| SpanProfileRow {
                path: r.path,
                label: r.label.to_string(),
                count: r.count,
                total_ps: r.total_ps,
                self_ps: r.self_ps,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        SpanProfile {
            schema_version: SPAN_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            spans,
            spans_dropped: tracer.dropped(),
        }
    }

    /// Serializes to pretty, deterministic JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("span profile serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_des::time::SimDuration;

    fn enabled_tracer() -> Tracer {
        let t = Tracer::new();
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(!t.is_enabled(), "fresh tracers start disabled");
        {
            let _g = t.span("outer");
            t.record_span("inner", 5);
        }
        assert!(t.rows().is_empty());
    }

    #[test]
    fn sim_deltas_and_charges_aggregate_hierarchically() {
        let t = enabled_tracer();
        t.set_sim_now(SimTime::ZERO);
        {
            let _outer = t.span("outer");
            t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(100));
            {
                let _inner = t.span("inner");
                t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(160));
                t.record_span("leaf", 7);
            }
            t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(200));
        }
        let rows = t.rows();
        let get = |path: &str| rows.iter().find(|r| r.path == path).expect("row exists");
        let outer = get("outer");
        // 200 ps of sim delta plus the 7 ps attributed in the subtree.
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ps, 207);
        // Self excludes the completed child (60 + 7 = 67).
        assert_eq!(outer.self_ps, 140);
        let inner = get("outer;inner");
        assert_eq!(inner.total_ps, 67);
        assert_eq!(inner.self_ps, 60);
        let leaf = get("outer;inner;leaf");
        assert_eq!(leaf.count, 1);
        assert_eq!(leaf.total_ps, 7);
        assert_eq!(leaf.self_ps, 7);
    }

    #[test]
    fn snapshot_absorb_matches_direct_recording() {
        let shard = enabled_tracer();
        shard.set_sim_now(SimTime::ZERO);
        {
            let _g = shard.span("work");
            shard.set_sim_now(SimTime::ZERO + SimDuration::from_picos(50));
            shard.record_span("sub", 3);
        }
        let parent = enabled_tracer();
        parent.absorb(&shard.snapshot());
        parent.absorb(&shard.snapshot());
        let rows = parent.rows();
        let work = rows.iter().find(|r| r.path == "work").expect("absorbed");
        assert_eq!(work.count, 2);
        assert_eq!(work.total_ps, 106);
        let sub = rows.iter().find(|r| r.path == "work;sub").expect("child");
        assert_eq!(sub.total_ps, 6);
    }

    /// One timer firing's worth of spans at an unmoved clock, inside an
    /// open outer span.
    fn tick(t: &Tracer) {
        let _timer = t.span("timer");
        {
            let _poll = t.span("poll");
            t.record_span("access", 11);
            t.record_span("access", 11);
        }
        t.record_span("schedule", 0);
    }

    #[test]
    fn repeating_a_delta_equals_making_the_calls_again() {
        let run = |repeat: bool| {
            let t = enabled_tracer();
            t.set_sim_now(SimTime::ZERO);
            {
                let _outer = t.span("outer");
                tick(&t); // the first firing builds the nodes
                let mut mark = SpanMark::default();
                t.mark(&mut mark);
                tick(&t);
                t.delta_since(&mut mark);
                // Spans recorded after the stretch are not repeated.
                t.record_span("between", 5);
                if repeat {
                    assert!(t.can_repeat(&mark));
                    t.repeat(&mark, 4);
                } else {
                    (0..4).for_each(|_| tick(&t));
                }
                t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(1_000));
            }
            SpanProfile::from_tracer(&t, "unit")
        };
        let repeated = run(true);
        assert_eq!(repeated, run(false));
        let outer = repeated.spans.iter().find(|r| r.path == "outer");
        // 1 000 ps of clock, 6 firings × 22 ps charged, 5 ps between.
        assert_eq!(outer.map(|r| r.total_ps), Some(1_137));
    }

    #[test]
    fn a_delta_repeats_only_where_it_was_taken() {
        let t = enabled_tracer();
        let mut mark = SpanMark::default();
        {
            let _outer = t.span("outer");
            t.mark(&mut mark);
            tick(&t);
            t.delta_since(&mut mark);
            assert!(t.can_repeat(&mark));
        }
        // Outside the span it was taken in, or with recording toggled
        // or captured, the same calls would land elsewhere.
        assert!(!t.can_repeat(&mark));
        let other = t.span("other");
        assert!(!t.can_repeat(&mark));
        drop(other);
        let _outer = t.span("outer");
        assert!(t.can_repeat(&mark));
        t.enable_capture(4);
        assert!(!t.can_repeat(&mark));
        t.set_enabled(false);
        assert!(!t.can_repeat(&mark));
    }

    #[test]
    fn a_disabled_tracer_repeats_nothing() {
        let t = Tracer::new();
        let mut mark = SpanMark::default();
        t.mark(&mut mark);
        tick(&t);
        t.delta_since(&mut mark);
        assert!(t.can_repeat(&mark));
        t.repeat(&mark, 9);
        assert!(t.rows().is_empty());
        assert!(!t.is_capturing());
        t.set_enabled(true);
        assert!(!t.can_repeat(&mark));
        t.enable_capture(4);
        assert!(t.is_capturing());
    }

    #[test]
    fn capture_buffer_bounds_and_counts_drops() {
        let t = enabled_tracer();
        t.enable_capture(2);
        for _ in 0..5 {
            t.record_span("hot", 1);
        }
        assert_eq!(t.capture().len(), 2);
        assert_eq!(t.dropped(), 3);
        let profile = SpanProfile::from_tracer(&t, "unit");
        assert_eq!(profile.spans_dropped, 3);
        // The aggregate channel keeps counting past the capture bound.
        assert_eq!(profile.spans[0].count, 5);
    }

    #[test]
    fn profile_serialization_excludes_the_wall_channel() {
        let t = enabled_tracer();
        {
            let _g = t.span("outer");
            t.record_span("leaf", 9);
        }
        let rows = t.rows();
        assert!(rows.iter().any(|r| r.wall_total_ns > 0 || r.count > 0));
        let json = SpanProfile::from_tracer(&t, "unit").to_json();
        assert!(
            !json.contains("wall"),
            "wall-clock channel must never be serialized: {json}"
        );
    }

    #[test]
    fn profile_rows_sort_by_path_and_round_trip() {
        let t = enabled_tracer();
        t.record_span("zeta", 1);
        t.record_span("alpha", 2);
        let p = SpanProfile::from_tracer(&t, "unit");
        assert_eq!(p.spans[0].path, "alpha");
        assert_eq!(p.spans[1].path, "zeta");
        let back: SpanProfile = serde_json::from_str(&p.to_json()).expect("parses back");
        assert_eq!(back, p);
    }
}
