//! The paper's availability argument, from a laptop power-user's seat.
//!
//! A battery-conscious user undervolts by −80 mV (a classic laptop
//! tweak worth real watts) while an SGX workload runs. Under Intel's
//! CVE-2019-11157 fix the undervolt is denied outright; under the
//! paper's countermeasure it keeps working — and a later attack attempt
//! is still stopped. Attestation tells the story to the remote verifier.
//!
//! Run with: `cargo run --release --example benign_undervolting`

use plugvolt::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

const BENIGN_OFFSET_MV: i32 = -80;

fn try_user_undervolt(machine: &mut Machine) -> Result<i32, MachineError> {
    let dev = MsrDev::open(machine, CoreId(0))?;
    let req = OcRequest::write_offset(BENIGN_OFFSET_MV, Plane::Core).encode();
    let _ = dev.write(machine, Msr::OC_MAILBOX, req)?;
    machine.advance(SimDuration::from_millis(5));
    Ok(machine.cpu().core_offset_mv())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = CpuModel::KabyLakeR; // the paper's laptop part
    let scn = Scenario::with_seed(7);
    let map = scn.quick_map(model);

    for (label, deployment) in [
        (
            "Intel access-control fix (OCM disable)",
            Deployment::OcmDisable,
        ),
        (
            "Plug-Your-Volt polling module",
            Deployment::PollingModule(PollConfig::default()),
        ),
    ] {
        println!("== {label} ==");
        let mut machine = scn.machine(model);
        let deployed = deploy(&mut machine, &map, deployment)?;

        // The user applies the power-saving undervolt.
        let applied = try_user_undervolt(&mut machine)?;
        println!("  user requests {BENIGN_OFFSET_MV} mV → applied offset: {applied} mV");

        // The remote verifier inspects the attestation report.
        let report = AttestationReport::collect(&machine);
        println!(
            "  attestation: OCM disabled = {}, modules = {:?}",
            report.ocm_disabled, report.loaded_modules
        );
        println!(
            "  paper verifier accepts: {} | Intel verifier accepts: {}",
            report.acceptable_to_plugvolt_verifier(MODULE_NAME),
            report.acceptable_to_intel_verifier()
        );

        // Sanity: the machine computes correctly under the user setting.
        let now = machine.now();
        let faults = machine.cpu_mut().run_imul_loop(now, CoreId(0), 1_000_000)?;
        println!("  1M imuls under the user setting: {faults} faults");

        // Later, malware escalates to a deep undervolt at high frequency.
        let mut cpupower = CpuPower::new(&machine);
        cpupower.frequency_set(&mut machine, CoreId(0), FreqMhz(3_400))?;
        let dev = MsrDev::open(&machine, CoreId(0))?;
        let attack = OcRequest::write_offset(-260, Plane::Core).encode();
        let _ = dev.write(&mut machine, Msr::OC_MAILBOX, attack)?;
        machine.advance(SimDuration::from_millis(5));
        let now = machine.now();
        let attack_faults = machine.cpu_mut().run_imul_loop(now, CoreId(0), 1_000_000)?;
        println!(
            "  malware writes −260 mV @ 3.4 GHz → offset now {} mV, victim faults: {}",
            machine.cpu().core_offset_mv(),
            attack_faults
        );
        assert_eq!(attack_faults, 0, "{label} must stop the attack");
        if let Some(stats) = &deployed.poll_stats {
            let s = stats.borrow();
            println!(
                "  module: {} detections, {} restores",
                s.detections, s.restores
            );
        }
        println!();
    }

    println!("both configurations stop the attack; only the paper's keeps");
    println!("the user's {BENIGN_OFFSET_MV} mV power saving alive.");
    Ok(())
}
