//! A laptop battery-saver daemon's afternoon, in simulation.
//!
//! Combines the whole power-management surface the paper wants to keep
//! available: C-states when idle, frequency scaling under partial load,
//! a benign undervolt on top — all while the Plug-Your-Volt polling
//! module guards the machine. RAPL-style energy accounting shows what
//! each measure is worth.
//!
//! Run with: `cargo run --release --example battery_saver`

use plugvolt::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

fn measure_window(machine: &mut Machine, window: SimDuration) -> f64 {
    let t0 = machine.now();
    let e0 = machine.cpu().package_energy_j(t0);
    machine.advance(window);
    let t1 = machine.now();
    machine.cpu().package_energy_j(t1) - e0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = CpuModel::KabyLakeR;
    let scn = Scenario::with_seed(99);
    let map = scn.quick_map(model);
    let window = SimDuration::from_millis(400);

    let mut machine = scn.machine(model);
    deploy(
        &mut machine,
        &map,
        Deployment::PollingModule(PollConfig::default()),
    )?;
    let mut cpupower = CpuPower::new(&machine);
    let mut cpuidle = CpuIdle::new(&machine);
    machine.advance(SimDuration::from_millis(2));

    println!("phase 1: flat out — all 4 cores at f_max, nominal voltage");
    cpupower.frequency_set_all(&mut machine, FreqMhz(3_400))?;
    machine.advance(SimDuration::from_millis(2));
    let e_burst = measure_window(&mut machine, window);
    println!(
        "  {:.2} J over {window} ({:.2} W)",
        e_burst,
        e_burst / window.as_secs_f64()
    );

    println!("\nphase 2: background load — 1.4 GHz on all cores");
    cpupower.frequency_set_all(&mut machine, FreqMhz(1_400))?;
    machine.advance(SimDuration::from_millis(2));
    let e_low = measure_window(&mut machine, window);
    println!(
        "  {:.2} J ({:.2} W) — frequency scaling saved {:.0}%",
        e_low,
        e_low / window.as_secs_f64(),
        (1.0 - e_low / e_burst) * 100.0
    );

    println!("\nphase 3: + benign undervolt (maximal safe state)");
    let mss = map.maximal_safe_offset_mv(10).expect("certifiable");
    let dev = MsrDev::open(&machine, CoreId(0))?;
    let req = OcRequest::write_offset(mss, Plane::Core).encode();
    dev.write(&mut machine, Msr::OC_MAILBOX, req)?;
    machine.advance(SimDuration::from_millis(3));
    let e_uv = measure_window(&mut machine, window);
    println!(
        "  {:.2} J ({:.2} W) at {mss} mV — undervolt saved another {:.0}%",
        e_uv,
        e_uv / window.as_secs_f64(),
        (1.0 - e_uv / e_low) * 100.0
    );
    assert_eq!(
        machine.cpu().core_offset_mv(),
        mss,
        "guard left the benign offset alone"
    );

    println!("\nphase 4: lid closed — three cores to C6");
    for c in 1..4 {
        cpuidle.enter(&mut machine, CoreId(c), CState::C6)?;
    }
    machine.advance(SimDuration::from_millis(3));
    let e_idle = measure_window(&mut machine, window);
    println!(
        "  {:.2} J ({:.2} W) — idling saved another {:.0}%",
        e_idle,
        e_idle / window.as_secs_f64(),
        (1.0 - e_idle / e_uv) * 100.0
    );

    println!("\nphase 5: malware strikes anyway (−260 mV at 3.4 GHz)");
    cpupower.frequency_set(&mut machine, CoreId(0), FreqMhz(3_400))?;
    let attack = OcRequest::write_offset(-260, Plane::Core).encode();
    dev.write(&mut machine, Msr::OC_MAILBOX, attack)?;
    machine.advance(SimDuration::from_millis(5));
    let now = machine.now();
    let faults = machine.cpu_mut().run_imul_loop(now, CoreId(0), 1_000_000)?;
    println!(
        "  offset now {} mV, victim faults: {faults}",
        machine.cpu().core_offset_mv()
    );
    assert_eq!(faults, 0, "the module must still protect");

    println!("\nfull power management remained available; the attack did not.");
    Ok(())
}
