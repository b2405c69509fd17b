//! Integration tests for the span tracer's observability surface:
//! worker-count invariance of the sim-time channel, pinned exporter
//! schemas (Chrome trace JSON, streaming JSONL frames), and the
//! guarantee that none of the opt-in tracing flags can reach the
//! golden-results pipeline.

use plugvolt::characterize::SweepConfig;
use plugvolt_bench::scenario::Scenario;
use plugvolt_bench::soak::{run_soak, SoakConfig};
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_telemetry::{chrome_trace_json, Sink, SpanProfile, StreamCursor, StreamFrame, Tracer};

/// One traced coarse sweep on a fresh sink; returns the sink.
fn traced_characterize(workers: usize) -> Sink {
    let sink = Sink::new();
    sink.tracer().set_enabled(true);
    let scn = Scenario::new().with_telemetry(sink.clone());
    let run = scn
        .characterize(CpuModel::CometLake, &SweepConfig::coarse(), workers)
        .expect("sweep completes");
    assert!(!run.records.is_empty());
    sink
}

#[test]
fn span_profile_is_byte_identical_across_worker_counts() {
    let single = traced_characterize(1);
    let sharded = traced_characterize(4);
    let a = SpanProfile::from_tracer(single.tracer(), "workers");
    let b = SpanProfile::from_tracer(sharded.tracer(), "workers");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "sim-time span channel must not depend on the worker count"
    );
    assert!(!a.spans.is_empty(), "the sweep must produce span rows");

    // The streamed frame built from the same sinks is likewise
    // worker-count invariant (same spans, same serialization).
    let frame_a = StreamCursor::new(1).flush(&single, SimTime::ZERO);
    let frame_b = StreamCursor::new(1).flush(&sharded, SimTime::ZERO);
    assert_eq!(frame_a.to_jsonl(), frame_b.to_jsonl());
}

/// A tracer with one fixed parent/child shape, used by both snapshot
/// tests so the pinned bytes share a single source of truth.
fn pinned_tracer() -> Tracer {
    let t = Tracer::new();
    t.set_enabled(true);
    t.enable_capture(8);
    t.set_sim_now(SimTime::ZERO);
    {
        let _point = t.span("characterize/point");
        t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(2_000_000));
        t.record_span("msr/access", 500_000);
    }
    t
}

#[test]
fn chrome_trace_schema_snapshot() {
    let text = chrome_trace_json(&pinned_tracer().capture(), "pinned");
    // Full-byte snapshot of the Trace Event Format export. A diff here
    // is a schema break for every saved Perfetto workflow — bump
    // SPAN_SCHEMA_VERSION and update deliberately.
    let expected = concat!(
        "{\"traceEvents\":[",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,",
        "\"args\":{\"name\":\"pinned\"}},",
        "{\"name\":\"msr/access\",\"cat\":\"sim\",\"ph\":\"X\",",
        "\"ts\":2.0,\"dur\":0.5,\"pid\":1,\"tid\":1,\"args\":{\"depth\":1}},",
        "{\"name\":\"characterize/point\",\"cat\":\"sim\",\"ph\":\"X\",",
        "\"ts\":0.0,\"dur\":2.0,\"pid\":1,\"tid\":1,\"args\":{\"depth\":0}}",
        "],\"displayTimeUnit\":\"ms\",",
        "\"otherData\":{\"clock\":\"sim\",\"schema_version\":1}}",
    );
    assert_eq!(text, expected);
}

#[test]
fn stream_frame_schema_snapshot() {
    let sink = Sink::new();
    // Splice the pinned spans into a sink-owned tracer via a snapshot
    // merge, then add one counter so the frame exercises both arrays.
    sink.tracer().set_enabled(true);
    sink.tracer().absorb(&pinned_tracer().snapshot());
    sink.add(plugvolt_telemetry::MetricKey::global("unit", "ticks"), 3);
    let frame = StreamCursor::new(1).flush(&sink, SimTime::ZERO + SimDuration::from_millis(7));
    let line = frame.to_jsonl();
    let expected = concat!(
        "{\"schema_version\":1,\"seq\":0,\"sim_ms\":7,",
        "\"counters\":[{\"component\":\"unit\",\"name\":\"ticks\",\"core\":null,\"delta\":3}],",
        "\"spans\":[",
        "{\"path\":\"characterize/point\",\"label\":\"characterize/point\",",
        "\"count\":1,\"total_ps\":2500000,\"self_ps\":2000000},",
        "{\"path\":\"characterize/point;msr/access\",\"label\":\"msr/access\",",
        "\"count\":1,\"total_ps\":500000,\"self_ps\":500000}",
        "],\"spans_dropped\":0}",
    );
    assert_eq!(line, expected);
    let back: StreamFrame = serde_json::from_str(&line).expect("round trip");
    assert_eq!(back, frame);
}

#[test]
fn exporters_carry_no_wall_clock_channel() {
    let t = pinned_tracer();
    let trace = chrome_trace_json(&t.capture(), "pinned");
    assert!(!trace.contains("wall"), "wall channel leaked: {trace}");
    let profile = SpanProfile::from_tracer(&t, "pinned");
    assert!(
        !profile.to_json().contains("wall_ns"),
        "golden-eligible span profile must stay sim-only"
    );
}

/// A small streamed soak against a scenario sink whose tracer is on
/// or off; returns the sink and the number of frames streamed.
fn streamed_soak(tracing: bool) -> (Sink, u64) {
    let sink = Sink::new();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("soak-tracing-{tracing}.frames.jsonl"));
    let scn = Scenario::new()
        .with_telemetry(sink.clone())
        .with_stream(&path)
        .expect("stream file opens");
    // The stream turns the sink's tracer on; the untraced run turns it
    // back off.
    sink.tracer().set_enabled(tracing);
    let cfg = SoakConfig {
        campaigns: 3,
        workers: 1,
        self_test: false,
        ..SoakConfig::smoke()
    };
    run_soak(&scn, &cfg, None).expect("soak completes");
    let frames = scn.finish_stream().expect("stream written");
    let lines = std::fs::read_to_string(&path)
        .expect("stream file")
        .lines()
        .count();
    assert_eq!(lines as u64, frames, "one line per frame");
    (sink, frames)
}

#[test]
fn streamed_soak_campaign_machines_inherit_scenario_tracing() {
    let (traced, frames) = streamed_soak(true);
    assert_eq!(
        frames,
        3 + 1,
        "one frame per campaign plus the closing flush"
    );
    assert!(
        traced
            .tracer()
            .rows()
            .iter()
            .any(|r| r.label == "poll/iteration"),
        "campaign machines must feed poll spans into an enabled scenario tracer"
    );

    let (untraced, _) = streamed_soak(false);
    assert!(
        untraced.tracer().snapshot().is_empty(),
        "a disabled scenario tracer must stay empty"
    );
}

#[test]
fn golden_pipeline_never_enables_opt_in_tracing() {
    // The golden gate hashes results/ byte-for-byte; the tracing and
    // streaming surfaces are opt-in precisely so they cannot perturb
    // those artifacts. Pin that the script never opts in.
    let script = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/golden.sh"))
        .expect("golden.sh exists");
    for flag in ["--attr", "--trace-out", "--flame-out", "--stream"] {
        assert!(
            !script.contains(flag),
            "golden.sh must not pass {flag}: the wall-clock channel and \
             opt-in trace exports are excluded from golden hashing"
        );
    }
}
