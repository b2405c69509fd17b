//! Metric assembly and the result line.

use crate::stats::{ratio, valid_name, valid_unit};
use crate::tracer::{Count, Label, Tracer};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The per-layer metrics that are not a span's `.calls`/`.ns`/`.share`.
#[must_use]
pub fn fixed_layer_metrics() -> [(&'static str, &'static str); 10] {
    [
        ("cpu.slack_hit_ratio", "ratio"),
        ("cpu.mailbox_ignored_ratio", "ratio"),
        ("core.poll.ticks", "1/op"),
        ("core.poll.observations", "1/op"),
        ("core.poll.ns_per_tick", "ns"),
        ("core.poll.detections", "1/op"),
        ("core.poll.restores", "1/op"),
        ("core.exposure.worst_dwell_us", "us"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.empty_span_ns", "ns"),
    ]
}

/// What the traced run measured besides the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracedRun {
    /// Traced ops completed.
    pub ops: u64,
    /// Σ wall time of the untraced library calls, ns.
    pub untraced_ns: u64,
    /// Σ wall time of the traced rebuilds, ns.
    pub traced_ns: u64,
    /// Spans opened inside the traced rebuilds.
    pub op_spans: u64,
}

/// Every per-layer metric of a traced run. Layers a workload never
/// reaches report zero calls and zero time.
#[must_use]
pub fn layer_metrics(tr: &Tracer, run: &TracedRun) -> Vec<Metric> {
    let ops = run.ops.max(1) as f64;
    let cost = tr.cost();
    let op_ns = (run.traced_ns as f64 - run.op_spans as f64 * cost.full_ns).max(1.0);
    let mut out = Vec::with_capacity(Label::REPORTED.len() * 3 + 10);
    for label in Label::REPORTED {
        let f = tr.layer(label);
        let per_call = ratio(f.self_ns, f.calls as f64);
        if label.is_setup() {
            out.push(Metric::new(
                format!("{}.calls", label.name()),
                f.calls as f64,
                "count",
            ));
            out.push(Metric::new(format!("{}.ns", label.name()), per_call, "ns"));
        } else {
            out.push(Metric::new(
                format!("{}.calls", label.name()),
                f.calls as f64 / ops,
                "1/op",
            ));
            out.push(Metric::new(format!("{}.ns", label.name()), per_call, "ns"));
            out.push(Metric::new(
                format!("{}.share", label.name()),
                f.self_ns / op_ns,
                "ratio",
            ));
        }
    }
    let c = |k: Count| tr.count(k) as f64;
    let polled = tr.layer(Label::KernelRunWorkloadPolled).self_ns;
    let unpolled = tr.layer(Label::KernelRunWorkloadUnpolled).self_ns;
    let values = [
        ratio(
            c(Count::SlackHits),
            c(Count::SlackHits) + c(Count::SlackFallbacks),
        ),
        ratio(c(Count::MailboxIgnored), c(Count::MailboxAttempts)),
        c(Count::PollTicks) / ops,
        c(Count::PollObservations) / ops,
        ratio((polled - unpolled).max(0.0), c(Count::PollTicks)),
        c(Count::PollDetections) / ops,
        c(Count::PollRestores) / ops,
        tr.worst_dwell_us() as f64,
        ratio(run.traced_ns as f64, run.untraced_ns as f64),
        cost.full_ns,
    ];
    for ((name, unit), value) in fixed_layer_metrics().into_iter().zip(values) {
        out.push(Metric::new(name, value, unit));
    }
    out
}

/// The result object, one line of JSON: `correct`, `attempted`,
/// `failed` and the metrics with their units.
///
/// # Errors
///
/// A metric with an invalid name or unit, or a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!("invalid metric {:?} [{}]", m.name, m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("latency_ms", 1.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        )
        .expect("valid metrics");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("parses");
        assert!(!line.contains('\n'), "{parsed:?}");
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        assert!(result_line(true, 1, 0, &[Metric::new("a b", 1.0, "ms")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "ms")]).is_err());
    }

    #[test]
    fn untraced_layers_report_zero() {
        let tr = Tracer::new(true);
        let m = layer_metrics(&tr, &TracedRun::default());
        assert_eq!(m.len(), 2 * 2 + 28 * 3 + 10);
        assert!(m
            .iter()
            .all(|x| x.value == 0.0 || x.name == "trace.empty_span_ns"));
    }
}
