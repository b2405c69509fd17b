//! End-to-end integration: the paper's whole pipeline across crates —
//! characterize (S1) → deploy (S2) → attack → verify prevention and
//! availability, on every CPU generation.

use plugvolt::prelude::*;
use plugvolt_attacks::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

fn coarse_map(model: CpuModel) -> CharacterizationMap {
    Scenario::with_seed(2024)
        .characterize(model, &SweepConfig::coarse(), 2)
        .expect("sweep completes")
        .map
}

#[test]
fn full_pipeline_blocks_plundervolt_on_every_generation() {
    for model in CpuModel::ALL {
        let map = coarse_map(model);
        let mut machine = Scenario::with_seed(7).machine(model);
        let deployed = deploy(
            &mut machine,
            &map,
            Deployment::PollingModule(PollConfig::default()),
        )
        .expect("deploys");

        let fast = machine.cpu().spec().freq_table.max();
        let cfg = PlundervoltConfig {
            target_freq: fast,
            ..PlundervoltConfig::default()
        };
        let report = run_rsa_attack(&mut machine, &cfg, 1).expect("campaign runs");
        assert!(!report.success, "{model}: attack succeeded: {report:?}");
        assert_eq!(report.faulty_events, 0, "{model}: faults leaked through");
        let stats = deployed.poll_stats.expect("stats");
        assert!(
            stats.borrow().detections > 0,
            "{model}: module never detected the attack"
        );
    }
}

#[test]
fn undefended_machines_fall_on_every_generation() {
    for model in CpuModel::ALL {
        let mut machine = Scenario::with_seed(7).machine(model);
        let fast = machine.cpu().spec().freq_table.max();
        let cfg = PlundervoltConfig {
            target_freq: fast,
            ..PlundervoltConfig::default()
        };
        let report = run_rsa_attack(&mut machine, &cfg, 1).expect("campaign runs");
        assert!(
            report.success,
            "{model}: baseline attack failed: {report:?}"
        );
    }
}

#[test]
fn empirical_map_agrees_with_attack_reality() {
    // Whatever the sweep calls unsafe must actually be attackable, and
    // whatever it calls safe (with margin) must not fault.
    let model = CpuModel::CometLake;
    let map = coarse_map(model);
    let mut machine = Scenario::with_seed(99).machine(model);
    let mut cpupower = CpuPower::new(&machine);
    let f = FreqMhz(4_400);
    cpupower
        .frequency_set(&mut machine, CoreId(0), f)
        .expect("pins");
    let band = map.governing_band(f).expect("characterized");
    let onset = band.fault_onset_mv.expect("faults within sweep at 4.4 GHz");

    // 30 mV above the onset: clean.
    let dev = MsrDev::open(&machine, CoreId(0)).expect("opens");
    let safe_req = OcRequest::write_offset(onset + 30, Plane::Core).encode();
    dev.write(&mut machine, Msr::OC_MAILBOX, safe_req)
        .expect("writes");
    machine.advance(SimDuration::from_millis(2));
    let now = machine.now();
    let faults = machine
        .cpu_mut()
        .run_imul_loop(now, CoreId(0), 1_000_000)
        .expect("runs");
    assert_eq!(faults, 0, "safe-side check at {} mV", onset + 30);

    // 10 mV below the onset: faulty (or crashed).
    let unsafe_req = OcRequest::write_offset(onset - 10, Plane::Core).encode();
    dev.write(&mut machine, Msr::OC_MAILBOX, unsafe_req)
        .expect("writes");
    machine.advance(SimDuration::from_millis(2));
    let now = machine.now();
    if let Ok(faults) = machine.cpu_mut().run_imul_loop(now, CoreId(0), 1_000_000) {
        // (an Err means the machine crashed, which is also "not safe")
        assert!(faults > 0, "unsafe-side check at {} mV", onset - 10);
    }
}

#[test]
fn maximal_safe_state_is_globally_safe() {
    let model = CpuModel::SkyLake;
    let map = coarse_map(model);
    let mss = map.maximal_safe_offset_mv(5).expect("certifiable");
    let mut machine = Scenario::with_seed(31).machine(model);
    let mut cpupower = CpuPower::new(&machine);
    let dev = MsrDev::open(&machine, CoreId(0)).expect("opens");
    // Hold the maximal safe offset at every 4th table frequency: never a fault.
    let freqs: Vec<FreqMhz> = machine.cpu().spec().freq_table.iter().step_by(4).collect();
    for f in freqs {
        cpupower
            .frequency_set(&mut machine, CoreId(0), f)
            .expect("pins");
        let req = OcRequest::write_offset(mss, Plane::Core).encode();
        dev.write(&mut machine, Msr::OC_MAILBOX, req)
            .expect("writes");
        machine.advance(SimDuration::from_millis(2));
        let now = machine.now();
        let faults = machine
            .cpu_mut()
            .run_imul_loop(now, CoreId(0), 1_000_000)
            .unwrap_or_else(|_| panic!("crashed at {f} under maximal safe state"));
        assert_eq!(faults, 0, "faults at {f} under maximal safe state {mss} mV");
    }
}

#[test]
fn microcode_and_hardware_levels_block_without_polling_cost() {
    let model = CpuModel::KabyLakeR;
    let map = coarse_map(model);
    for deployment in [
        Deployment::Microcode {
            revision: 0xf5,
            margin_mv: 5,
        },
        Deployment::HardwareMsr { margin_mv: 5 },
    ] {
        let mut machine = Scenario::with_seed(17).machine(model);
        deploy(&mut machine, &map, deployment.clone()).expect("deploys");
        let fast = machine.cpu().spec().freq_table.max();
        let cfg = PlundervoltConfig {
            target_freq: fast,
            ..PlundervoltConfig::default()
        };
        let report = run_rsa_attack(&mut machine, &cfg, 1).expect("runs");
        assert!(!report.success, "{}", deployment.label());
        // No kernel module loaded: zero stolen time.
        assert_eq!(
            machine.stolen_time(CoreId(0)),
            SimDuration::ZERO,
            "{} stole CPU time",
            deployment.label()
        );
    }
}

#[test]
fn characterization_map_survives_serialization_into_deployment() {
    // The S1 artifact travels as JSON (vendor → admin → kernel module).
    let map = coarse_map(CpuModel::CometLake);
    let json = serde_json::to_string(&map).expect("serializes");
    let loaded: CharacterizationMap = serde_json::from_str(&json).expect("parses");
    assert_eq!(loaded, map);
    let mut machine = Scenario::with_seed(3).machine(CpuModel::CometLake);
    let deployed = deploy(
        &mut machine,
        &loaded,
        Deployment::PollingModule(PollConfig::default()),
    )
    .expect("deploys from the deserialized artifact");
    assert!(machine.is_module_loaded(MODULE_NAME));
    drop(deployed);
}
