//! Integration: the §4.3 claim ("completely prevents DVFS faults") as a
//! machine-checked matrix — every published attack family against every
//! deployment level, plus the availability distinction versus Intel's
//! access-control fix.

use plugvolt::prelude::*;
use plugvolt_attacks::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

fn protective_deployments() -> Vec<Deployment> {
    vec![
        Deployment::OcmDisable,
        Deployment::PollingModule(PollConfig::default()),
        Deployment::Microcode {
            revision: 0xf5,
            margin_mv: 5,
        },
        Deployment::HardwareMsr { margin_mv: 5 },
    ]
}

#[test]
fn every_deployment_blocks_plundervolt_rsa() {
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    for deployment in protective_deployments() {
        let mut machine = Scenario::with_seed(42).machine(model);
        deploy(&mut machine, &map, deployment.clone()).expect("deploys");
        let report = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1).expect("runs");
        assert!(!report.success, "{} failed to block", deployment.label());
        assert_eq!(report.faulty_events, 0, "{}", deployment.label());
    }
}

#[test]
fn every_deployment_blocks_plundervolt_aes() {
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    let cfg = PlundervoltConfig {
        victims_per_step: 100,
        ..PlundervoltConfig::default()
    };
    for deployment in protective_deployments() {
        let mut machine = Scenario::with_seed(43).machine(model);
        deploy(&mut machine, &map, deployment.clone()).expect("deploys");
        let report = run_aes_attack(&mut machine, &cfg, 2).expect("runs");
        assert!(!report.success, "{} failed to block", deployment.label());
    }
}

#[test]
fn every_deployment_blocks_voltjockey() {
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    for deployment in protective_deployments() {
        let mut machine = Scenario::with_seed(44).machine(model);
        deploy(&mut machine, &map, deployment.clone()).expect("deploys");
        let report =
            run_voltjockey_attack(&mut machine, &VoltJockeyConfig::default(), 3).expect("runs");
        assert!(!report.success, "{} failed to block", deployment.label());
        assert_eq!(report.faulty_events, 0, "{}", deployment.label());
    }
}

#[test]
fn every_deployment_blocks_v0ltpwn() {
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    for deployment in protective_deployments() {
        let mut machine = Scenario::with_seed(45).machine(model);
        deploy(&mut machine, &map, deployment.clone()).expect("deploys");
        let out = run_v0ltpwn_attack(&mut machine, &V0ltpwnConfig::default()).expect("runs");
        assert!(
            !out.report.success,
            "{} failed to block",
            deployment.label()
        );
        // The whole rate curve must be flat zero.
        assert!(
            out.curve.iter().all(|p| p.violations == 0),
            "{}: {:?}",
            deployment.label(),
            out.curve
        );
    }
}

#[test]
fn every_deployment_blocks_frequency_side_clkscrew() {
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    let cfg = ClkscrewConfig {
        benign_offset_mv: -170,
        ..ClkscrewConfig::default()
    };
    for deployment in protective_deployments() {
        let mut machine = Scenario::with_seed(46).machine(model);
        deploy(&mut machine, &map, deployment.clone()).expect("deploys");
        let report = run_clkscrew_attack(&mut machine, &cfg).expect("runs");
        assert!(!report.success, "{} failed to block", deployment.label());
    }
}

#[test]
fn only_the_papers_levels_preserve_benign_undervolting() {
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    let benign = |deployment: Deployment| -> i32 {
        let mut machine = Scenario::with_seed(47).machine(model);
        deploy(&mut machine, &map, deployment).expect("deploys");
        let dev = MsrDev::open(&machine, CoreId(0)).expect("opens");
        let req = OcRequest::write_offset(-40, Plane::Core).encode();
        let _ = dev
            .write(&mut machine, Msr::OC_MAILBOX, req)
            .expect("writes");
        machine.advance(SimDuration::from_millis(5));
        machine.cpu().core_offset_mv()
    };
    assert_eq!(
        benign(Deployment::OcmDisable),
        0,
        "Intel fix denies benign DVFS"
    );
    for deployment in [
        Deployment::PollingModule(PollConfig::default()),
        Deployment::Microcode {
            revision: 0xf5,
            margin_mv: 5,
        },
        Deployment::HardwareMsr { margin_mv: 5 },
    ] {
        let label = deployment.label();
        let applied = benign(deployment);
        assert!(
            (-40..=-39).contains(&applied),
            "{label} altered the benign offset: {applied}"
        );
    }
}

#[test]
fn adversarial_module_unload_is_attestation_visible() {
    // §4.1: the adversary may rmmod the countermeasure, but the verifier
    // sees it missing from the report and refuses the enclave.
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    let mut machine = Scenario::with_seed(48).machine(model);
    deploy(
        &mut machine,
        &map,
        Deployment::PollingModule(PollConfig::default()),
    )
    .expect("deploys");
    assert!(AttestationReport::collect(&machine).acceptable_to_plugvolt_verifier(MODULE_NAME));

    machine.unload_module(MODULE_NAME).expect("adversary rmmod");
    let report = AttestationReport::collect(&machine);
    assert!(
        !report.acceptable_to_plugvolt_verifier(MODULE_NAME),
        "verifier must notice the unload"
    );
    // And the machine is indeed attackable again.
    let attack = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1).expect("runs");
    assert!(attack.success, "attack should work after rmmod");
}

#[test]
fn repeated_attack_rewrites_never_outrun_the_poller() {
    // An adversary re-issuing the unsafe write faster than the polling
    // period still never gets the rail to move: every accepted write
    // restarts the mailbox latency window and the poller clears it again.
    let model = CpuModel::CometLake;
    let map = plugvolt_bench::scenario::quick_map(model);
    let mut machine = Scenario::with_seed(49).machine(model);
    deploy(
        &mut machine,
        &map,
        Deployment::PollingModule(PollConfig::default()),
    )
    .expect("deploys");
    let mut cpupower = CpuPower::new(&machine);
    let fast = machine.cpu().spec().freq_table.max();
    cpupower
        .frequency_set(&mut machine, CoreId(0), fast)
        .expect("pins");
    machine.advance(SimDuration::from_millis(1));
    let nominal = machine.cpu().spec().nominal_voltage_mv(fast);

    let _ = nominal;
    let dev = MsrDev::open(&machine, CoreId(0)).expect("opens");
    let req = OcRequest::write_offset(-250, Plane::Core).encode();
    // The defense's contract is "never in an unsafe state", not "never
    // undervolted": the module's frequency fallback may leave the deep
    // offset standing at a frequency where it is genuinely safe (that is
    // the availability feature). Check the contract directly: at every
    // sample the *effective* (frequency, undervolt) pair must classify
    // safe, and the victim must never fault or crash.
    let mut total_faults = 0u64;
    for i in 0..200 {
        let _ = dev
            .write(&mut machine, Msr::OC_MAILBOX, req)
            .expect("writes");
        machine.advance(SimDuration::from_micros(90)); // faster than the 200 µs poll
        let f_now = machine.cpu().core_freq(CoreId(0)).expect("alive");
        let nominal_now = machine.cpu().spec().nominal_voltage_mv(f_now);
        let effective = (nominal_now - machine.cpu().core_voltage_mv(machine.now())).ceil() as i32;
        if effective > 2 {
            assert_eq!(
                map.classify(f_now, -effective),
                plugvolt::state::StateClass::Safe,
                "unsafe effective state ({f_now}, -{effective} mV) at sample {i}"
            );
        }
        // The victim hammers imuls right through the campaign.
        if i % 10 == 0 {
            let now = machine.now();
            total_faults += machine
                .cpu_mut()
                .run_imul_loop(now, CoreId(0), 100_000)
                .expect("machine must not crash under the defense");
        }
    }
    machine.advance(SimDuration::from_millis(2));
    assert_eq!(total_faults, 0, "victim faulted during the hammering");
}

#[test]
fn plundervolt_campaigns_end_when_every_retry_crashes() {
    // Below the crash threshold each retry of the same offset crashes
    // again. These machines reach such an offset before a fault lands;
    // the campaign must give up the descent instead of retrying forever.
    let cases = [
        (6_423_466_917_704_494_557, CpuModel::CometLake, false),
        (14_612_821_414_161_633_896, CpuModel::SkyLake, true),
    ];
    for (seed, model, aes) in cases {
        let mut machine = Scenario::with_seed(seed).machine_for(model, "defense-matrix/attack0");
        let cfg = PlundervoltConfig::default();
        let report = if aes {
            run_aes_attack(&mut machine, &cfg, 1)
        } else {
            run_rsa_attack(&mut machine, &cfg, 1)
        }
        .expect("runs");
        assert_eq!(report.crashes, MAX_CRASHES_PER_OFFSET, "{}", report.attack);
        assert!(!report.success, "{}", report.attack);
        assert!(
            !machine.cpu().is_crashed(),
            "{} left the machine crashed",
            report.attack
        );
    }
}
