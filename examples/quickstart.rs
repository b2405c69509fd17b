//! Quickstart: the paper's full pipeline in one sitting.
//!
//! 1. Boot a simulated Comet Lake.
//! 2. Characterize its safe/unsafe states (S1, Algorithms 1–2).
//! 3. Deploy the polling countermeasure kernel module (S2, Algorithm 3).
//! 4. Mount a Plundervolt-style undervolt and watch it get neutralized.
//!
//! Run with: `cargo run --release --example quickstart`

use plugvolt::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot through a scenario session: one root seed from which
    //    every machine and stream of this run derives.
    let scn = Scenario::with_seed(42);
    let mut machine = scn.machine(CpuModel::CometLake);
    let spec = machine.cpu().spec().clone();
    println!(
        "booted {} ({} cores, microcode {:#x})",
        spec.name, spec.cores, spec.microcode
    );

    // 2. Characterize (coarse grid for the quickstart; the repro binary
    //    runs the paper's full 1 mV × 0.1 GHz sweep).
    println!("\ncharacterizing safe/unsafe states…");
    let run = scn.characterize(CpuModel::CometLake, &SweepConfig::coarse(), 1)?;
    println!(
        "  {} grid points, {} crashes, {} simulated",
        run.records.len(),
        run.crashes,
        run.duration
    );
    for (f, band) in run.map.iter().filter(|(f, _)| f.mhz() % 1_000 == 0) {
        println!(
            "  {f}: first faults at {} mV, crash at {} mV",
            band.fault_onset_mv.map_or("—".into(), |o| o.to_string()),
            band.crash_mv.map_or("—".into(), |c| c.to_string()),
        );
    }
    let mss = run.map.maximal_safe_offset_mv(5).expect("characterized");
    println!("  maximal safe state (5 mV margin): {mss} mV");

    // 3. Deploy the polling countermeasure.
    let deployed = deploy(
        &mut machine,
        &run.map,
        Deployment::PollingModule(PollConfig::default()),
    )?;
    println!("\ndeployed '{MODULE_NAME}' (200 µs polling)");
    let report = AttestationReport::collect(&machine);
    println!(
        "  attestation: module visible = {}, OCM still enabled = {}",
        report.acceptable_to_plugvolt_verifier(MODULE_NAME),
        !report.ocm_disabled
    );

    // 4. Attack: pin fast, undervolt deep, wait, then watch.
    let mut cpupower = CpuPower::new(&machine);
    cpupower.frequency_set(&mut machine, CoreId(0), spec.freq_table.max())?;
    machine.advance(SimDuration::from_millis(1)); // rail settles at the new P-state
    let dev = MsrDev::open(&machine, CoreId(0))?;
    let attack = OcRequest::write_offset(-250, Plane::Core).encode();
    println!(
        "\nadversary writes −250 mV to MSR 0x150 at {}…",
        spec.freq_table.max()
    );
    dev.write(&mut machine, Msr::OC_MAILBOX, attack)?;

    let nominal = spec.nominal_voltage_mv(spec.freq_table.max());
    let mut min_v = f64::INFINITY;
    for _ in 0..500 {
        machine.advance(SimDuration::from_micros(10));
        min_v = min_v.min(machine.cpu().core_voltage_mv(machine.now()));
    }
    let stats = deployed.poll_stats.expect("polling stats");
    let stats = stats.borrow();
    println!(
        "  module detections: {}, restores: {}",
        stats.detections, stats.restores
    );
    println!(
        "  offset now: {} mV; rail never dipped below {:.1} mV (nominal {:.1})",
        machine.cpu().core_offset_mv(),
        min_v,
        nominal
    );

    // Victim integrity check.
    let now = machine.now();
    let faults = machine.cpu_mut().run_imul_loop(now, CoreId(0), 1_000_000)?;
    println!("  victim ran 1M imuls: {faults} faults");
    assert_eq!(faults, 0, "countermeasure must keep the victim fault-free");
    println!("\nattack neutralized; benign DVFS remains available.");
    Ok(())
}
