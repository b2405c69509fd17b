//! `repro`'s telemetry outputs on a characterization figure. With
//! `--stream` every frequency column boots its own machine, so the
//! writer must re-base each column onto one monotone stream clock; with
//! `--telemetry` the profile keeps every event the sweep emits.

use plugvolt::characterize::sweep_frequencies;
use plugvolt_bench::experiments::figure_sweep_config;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::model::CpuModel;
use plugvolt_telemetry::registry::DEFAULT_EVENT_CAPACITY;
use plugvolt_telemetry::{StreamFrame, TelemetryProfile};
use std::process::Command;

#[test]
fn streamed_figure_frames_are_contiguous_and_monotone() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig2.frames.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--stream")
        .arg(&path)
        .arg("fig2")
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("stream file written");
    let frames: Vec<StreamFrame> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line is a frame"))
        .collect();
    assert!(frames.len() >= 2, "{} frames", frames.len());
    assert_eq!(frames[0].seq, 0);
    for (i, pair) in frames.windows(2).enumerate() {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "seq gap after frame {i}");
        assert!(
            pair[1].sim_ms >= pair[0].sim_ms,
            "sim_ms went back after frame {i}: {} -> {}",
            pair[0].sim_ms,
            pair[1].sim_ms
        );
    }

    // Every column outlasts the 1 ms frame interval, so a re-based
    // clock yields one frame per column plus the closing flush, and the
    // flush lands at the sweep's summed column time.
    let model = CpuModel::SkyLake;
    let cfg = figure_sweep_config(false);
    let columns = sweep_frequencies(&model.spec(), &cfg).len();
    assert_eq!(frames.len(), columns + 1, "one frame per column");
    let run = Scenario::new()
        .characterize(model, &cfg, 1)
        .expect("sweep completes");
    let last = frames.last().expect("frames");
    assert_eq!(last.sim_ms, run.duration.as_picos() / 1_000_000_000);
}

#[test]
fn telemetry_profile_keeps_every_event() {
    // fig2 emits more events than a default sink retains, so a bounded
    // profile would report drops and lose the sweep's start.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig2.profile.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--telemetry")
        .arg(&path)
        .arg("fig2")
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains(", 0 dropped)"), "stderr: {stderr}");
    let profile: TelemetryProfile =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("profile written"))
            .expect("profile parses");
    assert_eq!(profile.events_dropped, 0);
    assert!(
        profile.events.len() > DEFAULT_EVENT_CAPACITY,
        "{} events retained",
        profile.events.len()
    );
}
