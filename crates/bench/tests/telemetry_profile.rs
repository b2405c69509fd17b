//! End-to-end telemetry acceptance: the profile a `repro … --telemetry`
//! run would write is deterministic, and the §5 deployment levels show
//! the expected exposure windows.

use plugvolt_bench::experiments::{defense_matrix, deployment_levels};
use plugvolt_bench::scenario::{quick_map, Scenario};
use plugvolt_cpu::model::CpuModel;
use plugvolt_telemetry::{MetricKey, Sink, TelemetryEvent, TelemetryProfile};
use plugvolt_workloads::overhead::{run_table2_with, OverheadConfig};

fn levels_profile() -> plugvolt_telemetry::TelemetryProfile {
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let sink = Sink::new();
    let scn = Scenario::new().with_telemetry(sink.clone());
    // A worker count > 1 still runs sequentially here: the telemetry
    // sink forces the serial path (and the profile stays identical).
    deployment_levels(&scn, model, &map, 4).expect("levels complete");
    sink.profile("levels")
}

#[test]
fn levels_profile_is_byte_identical_across_runs() {
    let a = levels_profile().to_json();
    let b = levels_profile().to_json();
    assert_eq!(a, b, "telemetry profile must be deterministic");
}

#[test]
fn exposure_is_zero_for_hardware_levels_and_polling() {
    let profile = levels_profile();
    for label in ["microcode", "hardware-msr", "polling-module"] {
        let key = format!("deploy/{label}");
        let gauge = profile
            .gauge(&key, "exposure_ns")
            .unwrap_or_else(|| panic!("exposure gauge for {label} present"));
        assert_eq!(gauge, 0.0, "{label} must leave no exposure window");
    }
    // The undefended machine, by contrast, is exposed for milliseconds.
    let none = profile
        .gauge("deploy/none", "exposure_ns")
        .expect("exposure gauge for none present");
    assert!(none > 1e6, "undefended exposure = {none} ns");
}

#[test]
fn levels_profile_contains_msr_and_latency_metrics() {
    let profile = levels_profile();
    assert!(profile.counter_total("msr", "rdmsr") > 0);
    assert!(profile.counter_total("msr", "wrmsr") > 0);
    let latency = profile
        .histogram("poll", "detection_latency_us")
        .expect("detection latency histogram present");
    assert!(latency.total() >= 1);
    let exposure = profile
        .histogram("deploy", "exposure_window_us")
        .expect("exposure histogram present");
    assert_eq!(exposure.total(), 5, "one exposure sample per deployment");
    // The polling deployment detected and restored at least once.
    let detections: Vec<_> = profile
        .events
        .iter()
        .filter(|e| e.event.kind() == "detection")
        .collect();
    assert!(!detections.is_empty());
    // Per-core summaries rolled up into a global row (Summary::merge).
    assert!(profile
        .summaries
        .iter()
        .any(|s| s.component == "poll" && s.name == "detection_latency_us" && s.core.is_none()));
    let _ = MetricKey::global("poll", "detection_latency_us");
}

#[test]
fn traced_sweep_records_its_column_machines() {
    use plugvolt::characterize::SweepConfig;
    let model = CpuModel::CometLake;
    let cfg = SweepConfig::coarse();
    let sink = Sink::new();
    let traced = Scenario::new()
        .with_telemetry(sink.clone())
        .characterize(model, &cfg, 2)
        .expect("traced sweep completes");
    let profile = sink.profile("sweep");
    assert!(
        profile.counter_total("msr", "wrmsr") > 0,
        "column machines' offset writes must reach the sink"
    );
    assert!(
        profile.counter_total("slack-table", "hits") > 0,
        "column machines' slack-table lookups must reach the sink"
    );
    let plain = Scenario::new()
        .characterize(model, &cfg, 2)
        .expect("sink-free sweep completes");
    assert_eq!(traced, plain, "a sink must not change the sweep");
}

/// FNV-1a over a profile's JSON with the one wall-clock field
/// (`SlackTableBuilt::build_ns`) zeroed: a hash of the sim channel.
fn sim_channel_hash(mut profile: TelemetryProfile) -> u64 {
    for e in &mut profile.events {
        if let TelemetryEvent::SlackTableBuilt { build_ns, .. } = &mut e.event {
            *build_ns = 0;
        }
    }
    profile
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn table2_profile_sim_channel_is_pinned() {
    let sink = Sink::new();
    let cfg = OverheadConfig {
        work_divisor: 200,
        ..OverheadConfig::default()
    };
    run_table2_with(&cfg, Some(&sink)).expect("table2 completes");
    let hash = sim_channel_hash(sink.profile("table2"));
    assert_eq!(
        hash, 0xd9ca_ea30_8583_f2d2,
        "table2 profile hash {hash:#018x}"
    );
}

#[test]
fn levels_profile_sim_channel_is_pinned() {
    let hash = sim_channel_hash(levels_profile());
    assert_eq!(
        hash, 0xe6ab_3ac3_2da3_03c3,
        "levels profile hash {hash:#018x}"
    );
}

#[test]
fn defense_profile_sim_channel_is_pinned() {
    // Unlike table2 and levels, the defense matrix boots machines that
    // never publish (the benign-DVFS checks): their timer firings reach
    // the sink only when they drop.
    let model = CpuModel::CometLake;
    let sink = Sink::new();
    let scn = Scenario::new().with_telemetry(sink.clone());
    defense_matrix(&scn, model, &quick_map(model), 1).expect("matrix completes");
    let hash = sim_channel_hash(sink.profile("defense"));
    assert_eq!(
        hash, 0x4df6_3f16_9448_6f7c,
        "defense profile hash {hash:#018x}"
    );
}
