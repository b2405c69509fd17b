//! Pins the telemetry-profile JSON schema. `repro --telemetry` writes
//! this shape to disk and `plugvolt-cli telemetry` parses it back; if
//! the shape must change, bump [`plugvolt_telemetry::SCHEMA_VERSION`]
//! and update this snapshot deliberately.

use plugvolt_des::time::SimTime;
use plugvolt_telemetry::{
    HistogramSpec, MetricKey, Sink, TelemetryEvent, TelemetryProfile, SCHEMA_VERSION,
};

fn sample_sink() -> Sink {
    let sink = Sink::new();
    sink.incr(MetricKey::per_core("msr", "rdmsr", 0));
    sink.incr(MetricKey::per_core("msr", "rdmsr", 0));
    sink.incr(MetricKey::per_core("msr", "wrmsr", 1));
    sink.set_gauge(MetricKey::global("deploy/microcode", "exposure_ns"), 0.0);
    sink.observe(
        MetricKey::global("poll", "detection_latency_us"),
        HistogramSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 2,
        },
        3.0,
    );
    sink.record_summary(MetricKey::per_core("poll", "detection_latency_us", 0), 3.0);
    sink.emit(
        SimTime::from_picos(1_000),
        TelemetryEvent::Detection {
            core: 0,
            freq_mhz: 4_900,
            offset_mv: -250,
        },
    );
    sink
}

#[test]
fn profile_json_matches_snapshot() {
    let profile = sample_sink().profile("snapshot");
    let expected = r#"{
  "schema_version": 3,
  "experiment": "snapshot",
  "counters": [
    {
      "component": "msr",
      "name": "rdmsr",
      "core": 0,
      "value": 2
    },
    {
      "component": "msr",
      "name": "wrmsr",
      "core": 1,
      "value": 1
    }
  ],
  "gauges": [
    {
      "component": "deploy/microcode",
      "name": "exposure_ns",
      "core": null,
      "value": 0.0
    }
  ],
  "histograms": [
    {
      "component": "poll",
      "name": "detection_latency_us",
      "core": null,
      "lo": 0.0,
      "hi": 10.0,
      "bins": [
        1,
        0
      ]
    }
  ],
  "summaries": [
    {
      "component": "poll",
      "name": "detection_latency_us",
      "core": null,
      "count": 1,
      "mean": 3.0,
      "std_dev": 0.0,
      "min": 3.0,
      "max": 3.0
    },
    {
      "component": "poll",
      "name": "detection_latency_us",
      "core": 0,
      "count": 1,
      "mean": 3.0,
      "std_dev": 0.0,
      "min": 3.0,
      "max": 3.0
    }
  ],
  "events": [
    {
      "at": 1000,
      "event": {
        "Detection": {
          "core": 0,
          "freq_mhz": 4900,
          "offset_mv": -250
        }
      }
    }
  ],
  "events_dropped": 0,
  "spans_dropped": 0
}"#;
    assert_eq!(profile.to_json(), expected);
}

#[test]
fn schema_version_is_the_first_field() {
    // Consumers sniff the version before parsing the rest; keep it at
    // the top of the document.
    let json = sample_sink().profile("snapshot").to_json();
    let first = json
        .lines()
        .nth(1)
        .expect("profile JSON has at least two lines");
    assert_eq!(
        first.trim(),
        format!("\"schema_version\": {SCHEMA_VERSION},")
    );
}

#[test]
fn profile_round_trips_through_serde() {
    let profile = sample_sink().profile("snapshot");
    let parsed: TelemetryProfile =
        serde_json::from_str(&profile.to_json()).expect("profile JSON parses back");
    assert_eq!(parsed.to_json(), profile.to_json());
}
