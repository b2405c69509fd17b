//! `repro --stream` on a characterization figure: every frequency
//! column boots its own machine, so the writer must re-base each column
//! onto one monotone stream clock.

use plugvolt::characterize::sweep_frequencies;
use plugvolt_bench::experiments::figure_sweep_config;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::model::CpuModel;
use plugvolt_telemetry::StreamFrame;
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
