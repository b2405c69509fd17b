//! The hot-path attribution run behind `plugvolt-cli bench`.
//!
//! DESIGN.md §5d argues the characterization sweep is *DVFS-machinery
//! bound*: the simulated time goes into offset writes, VR settling and
//! MSR bookkeeping rather than the faulted-execution windows the sweep
//! nominally exists to measure (the slack tables make the slack math
//! cheap, but the machinery, not the slack math, dominates). This
//! module turns that argument into a measured table: it re-runs the
//! characterize-grid workload with the span tracer enabled and prints
//! per-subsystem attribution — the (non-golden) host-clock channel
//! first, then the deterministic sim-clock totals — plus
//! a registry footer tying the spans back to the hot counters
//! (slack-table hits vs analytic fallbacks, MSR retirement counts).
//!
//! The pass runs [`crate::scenario::Scenario::characterize`] — the one
//! sweep engine — on a single worker with a traced sink attached, so
//! every column machine records into that sink and spans, registry
//! counters and the optional Chrome-trace event capture all describe
//! the *same* simulation. Each column machine's sim clock starts at
//! zero, so captured events of successive columns share a time origin.

use crate::scenario::Scenario;
use crate::text::TextTable;
use plugvolt::characterize::{CharacterizeError, SweepConfig};
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::SimDuration;
use plugvolt_telemetry::{Sink, SpanEvent, SpanProfile, SpanRow};

/// Capture-buffer capacity for `--trace-out` runs: large enough for the
/// full paper-resolution grid (a few spans per grid point), small
/// enough to bound memory; overflow is counted, not fatal.
pub const TRACE_CAPTURE_CAPACITY: usize = 1 << 20;

/// Span labels attributed to the DVFS machinery itself (the §5d
/// numerator): voltage-plane writes, VR settling and retargeting, MSR
/// bookkeeping and timer-queue churn.
pub const DVFS_MACHINERY_SPANS: [&str; 5] = [
    "characterize/offset-write",
    "characterize/settle",
    "msr/access",
    "queue/schedule",
    "vr/retarget",
];

/// What [`run_attribution`] should run.
#[derive(Debug, Clone)]
pub struct AttrOptions {
    /// CPU model to sweep.
    pub model: CpuModel,
    /// Coarse grid (CI smoke) instead of the paper-resolution grid.
    pub smoke: bool,
    /// Also capture per-span events for the Chrome-trace exporter
    /// (costs one `Vec` push per span enter/exit).
    pub capture_events: bool,
}

impl Default for AttrOptions {
    fn default() -> Self {
        AttrOptions {
            model: CpuModel::CometLake,
            smoke: false,
            capture_events: false,
        }
    }
}

/// The result of one attribution pass: span aggregates on both clock
/// channels, the grid-run statistics, and the registry counters that
/// anchor the footer.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Model swept.
    pub model: CpuModel,
    /// Grid points visited.
    pub grid_points: u64,
    /// Crash/reset cycles incurred.
    pub crashes: u32,
    /// Simulated time of the whole sweep.
    pub sim: SimDuration,
    /// Aggregate span rows, both accounting channels, unsorted.
    pub rows: Vec<SpanRow>,
    /// The serializable sim-channel aggregate (golden-eligible).
    pub profile: SpanProfile,
    /// Slack lookups served from the precomputed table.
    pub slack_hits: u64,
    /// Slack lookups that fell back to the analytic path.
    pub slack_fallbacks: u64,
    /// rdmsr instructions retired (all cores).
    pub rdmsr: u64,
    /// wrmsr instructions retired (all cores).
    pub wrmsr: u64,
    /// Captured span events (empty unless requested).
    pub events: Vec<SpanEvent>,
    /// Span events lost to capture-buffer overflow.
    pub events_dropped: u64,
}

/// Runs the traced characterize-grid pass described in the module docs.
///
/// # Errors
///
/// Propagates sweep-configuration or machine errors from the engine.
pub fn run_attribution(opts: &AttrOptions) -> Result<Attribution, CharacterizeError> {
    let cfg = if opts.smoke {
        SweepConfig::coarse()
    } else {
        SweepConfig::default()
    };
    let sink = Sink::new();
    sink.tracer().set_enabled(true);
    if opts.capture_events {
        sink.tracer().enable_capture(TRACE_CAPTURE_CAPACITY);
    }
    let run = Scenario::new()
        .with_telemetry(sink.clone())
        .characterize(opts.model, &cfg, 1)?;
    let telemetry = sink.profile("bench-attr");
    Ok(Attribution {
        model: opts.model,
        grid_points: run.records.len() as u64,
        crashes: run.crashes,
        sim: run.duration,
        rows: sink.tracer().rows(),
        profile: SpanProfile::from_tracer(sink.tracer(), "bench-attr"),
        slack_hits: telemetry.counter_total("slack-table", "hits"),
        slack_fallbacks: telemetry.counter_total("slack-table", "fallbacks"),
        rdmsr: telemetry.counter_total("msr", "rdmsr"),
        wrmsr: telemetry.counter_total("msr", "wrmsr"),
        events: sink.tracer().capture(),
        events_dropped: sink.tracer().dropped(),
    })
}

/// Sums `self_ps` across every row whose label is in `labels` (a label
/// can appear on several paths; all of them count).
fn self_ps_by_labels(rows: &[SpanRow], labels: &[&str]) -> u64 {
    rows.iter()
        .filter(|r| labels.contains(&r.label))
        .map(|r| r.self_ps)
        .sum()
}

/// Renders the attribution table plus registry footer as plain text.
///
/// The wall column leads and orders the rows (descending host self
/// time): it is what the run cost this host, and it is explicitly
/// non-golden. The sim columns follow; the percentage column is each
/// row's share of all sim self-time, so it sums to ~100%, and like the
/// footer's DVFS share it describes the modelled bench, not a host cost.
#[must_use]
pub fn render_attribution(a: &Attribution) -> String {
    use std::fmt::Write as _;
    let mut rows = a.rows.clone();
    rows.sort_by(|x, y| {
        y.wall_self_ns
            .cmp(&x.wall_self_ns)
            .then(x.path.cmp(&y.path))
    });
    let total_self: u64 = rows.iter().map(|r| r.self_ps).sum();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "hot-path attribution: characterize-grid on {} ({} grid points, {} crashes, {} simulated)",
        a.model, a.grid_points, a.crashes, a.sim
    );
    let mut t = TextTable::new([
        "span",
        "wall self (ms)",
        "count",
        "sim total (ms)",
        "sim self (ms)",
        "sim self %",
    ]);
    for r in &rows {
        let pct = if total_self == 0 {
            0.0
        } else {
            r.self_ps as f64 * 100.0 / total_self as f64
        };
        t.row([
            r.path.clone(),
            format!("{:.3}", r.wall_self_ns as f64 / 1e6),
            r.count.to_string(),
            format!("{:.3}", r.total_ps as f64 / 1e9),
            format!("{:.3}", r.self_ps as f64 / 1e9),
            format!("{pct:.1}"),
        ]);
    }
    out.push_str(&t.render());

    let machinery = self_ps_by_labels(&rows, &DVFS_MACHINERY_SPANS);
    let execute = self_ps_by_labels(&rows, &["characterize/execute"]);
    let share = |ps: u64| {
        if total_self == 0 {
            0.0
        } else {
            ps as f64 * 100.0 / total_self as f64
        }
    };
    let _ = writeln!(
        out,
        "DVFS machinery (offset writes, settle, MSR, VR/queue churn): {:.1}% of sim self-time; \
         faulted execution windows: {:.1}% (sim-time shares of the modelled bench, not host \
         cost; host cost is the wall column)",
        share(machinery),
        share(execute)
    );
    let _ = writeln!(
        out,
        "slack-table: {} hits, {} fallbacks; msr: {} rdmsr, {} wrmsr; spans dropped: {}",
        a.slack_hits, a.slack_fallbacks, a.rdmsr, a.wrmsr, a.events_dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_attribution_covers_the_sweep_phases() {
        let attr = run_attribution(&AttrOptions {
            smoke: true,
            capture_events: true,
            ..AttrOptions::default()
        })
        .expect("coarse attribution pass completes");
        assert!(attr.grid_points > 0);
        let paths: Vec<&str> = attr.rows.iter().map(|r| r.path.as_str()).collect();
        for label in [
            "characterize/point",
            "characterize/point;characterize/offset-write",
            "characterize/point;characterize/settle",
            "characterize/point;characterize/execute",
        ] {
            assert!(paths.contains(&label), "missing span path {label}");
        }
        // The sweep advances through VR settling and MSR writes, so the
        // machinery share must be non-zero — and every captured event
        // must carry a registered label.
        assert!(self_ps_by_labels(&attr.rows, &DVFS_MACHINERY_SPANS) > 0);
        assert!(!attr.events.is_empty());
        assert!(attr
            .events
            .iter()
            .all(|e| plugvolt_telemetry::keys::is_registered_span(e.label)));
        assert!(attr.wrmsr > 0, "offset writes retire wrmsr instructions");
    }

    #[test]
    fn rendered_table_carries_attribution_and_footer() {
        let attr = run_attribution(&AttrOptions {
            smoke: true,
            ..AttrOptions::default()
        })
        .expect("coarse attribution pass completes");
        let text = render_attribution(&attr);
        assert!(text.contains("hot-path attribution"));
        // The wall channel leads: it is the first numeric column.
        let header = text.lines().nth(1).expect("table header");
        let at = |column: &str| header.find(column).expect("header column");
        assert!(at("span") < at("wall self (ms)") && at("wall self (ms)") < at("count"));
        assert!(at("count") < at("sim total (ms)") && at("sim self (ms)") < at("sim self %"));
        assert!(text.contains("characterize/point"));
        assert!(text.contains("DVFS machinery"));
        assert!(text.contains("sim-time shares of the modelled bench, not host cost"));
        assert!(text.contains("slack-table:"));
        // The sim channel of the table must be reproducible run-to-run
        // (the wall column is not, so compare the profile, not the
        // rendered text).
        let again = run_attribution(&AttrOptions {
            smoke: true,
            ..AttrOptions::default()
        })
        .expect("repeat pass completes");
        assert_eq!(attr.profile.to_json(), again.profile.to_json());
    }
}
