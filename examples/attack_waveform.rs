//! Dump an attack/defense timeline as a VCD waveform.
//!
//! Records the core rail, the requested offset, the core frequency and
//! the characterized state classification while a Plundervolt write is
//! detected and neutralized — then writes an IEEE-1364 VCD you can open
//! in GTKWave (or any EDA waveform viewer) to *see* the countermeasure
//! win the race.
//!
//! Run with: `cargo run --release --example attack_waveform`

use plugvolt::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_des::vcd::{SignalKind, Value, VcdRecorder};
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = CpuModel::CometLake;
    let scn = Scenario::with_seed(7);
    let map = scn.quick_map(model);

    let mut vcd = VcdRecorder::new("plugvolt");
    let sig_rail = vcd.declare("core_rail_mv", SignalKind::Real);
    let sig_offset = vcd.declare("requested_offset_mv", SignalKind::Real);
    let sig_ratio = vcd.declare("core0_freq_ratio", SignalKind::Bus(8));
    let sig_unsafe = vcd.declare("state_unsafe", SignalKind::Wire);
    let sig_restores = vcd.declare("module_restores", SignalKind::Bus(16));

    for (label, defended) in [("undefended", false), ("defended", true)] {
        let mut machine = scn.machine(model);
        let stats = if defended {
            deploy(
                &mut machine,
                &map,
                Deployment::PollingModule(PollConfig::default()),
            )?
            .poll_stats
        } else {
            None
        };
        let mut cpupower = CpuPower::new(&machine);
        cpupower.frequency_set_all(&mut machine, FreqMhz(4_900))?;
        machine.advance(SimDuration::from_millis(1));

        // One sampler closure, reused across the timeline.
        let sample = |machine: &Machine, vcd: &mut VcdRecorder, base: u64| {
            let t = plugvolt_des::time::SimTime::from_picos(base + machine.now().as_picos());
            let f = machine.cpu().core_freq(CoreId(0)).expect("alive");
            let offset = machine.cpu().core_offset_mv();
            vcd.record(
                t,
                sig_rail,
                Value::Real(machine.cpu().core_voltage_mv(machine.now())),
            );
            vcd.record(t, sig_offset, Value::Real(f64::from(offset)));
            vcd.record(t, sig_ratio, Value::Bits(u64::from(f.mhz() / 100)));
            let unsafe_now = map.classify(f, offset) != StateClass::Safe;
            vcd.record(t, sig_unsafe, Value::Bits(u64::from(unsafe_now)));
            let restores = stats.as_ref().map_or(0, |s| s.borrow().restores);
            vcd.record(t, sig_restores, Value::Bits(restores));
        };

        // Timeline: 0.5 ms quiet, attack write, 4 ms observed.
        let base = if defended { 10_000_000_000 } else { 0 }; // 10 ms apart
        for _ in 0..50 {
            machine.advance(SimDuration::from_micros(10));
            sample(&machine, &mut vcd, base);
        }
        let dev = MsrDev::open(&machine, CoreId(0))?;
        let attack = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut machine, Msr::OC_MAILBOX, attack)?;
        for _ in 0..400 {
            machine.advance(SimDuration::from_micros(10));
            sample(&machine, &mut vcd, base);
        }
        println!(
            "{label}: final offset {} mV, min-rail sampled in VCD",
            machine.cpu().core_offset_mv()
        );
    }

    let out = std::env::temp_dir().join("plugvolt-attack.vcd");
    std::fs::write(&out, vcd.render())?;
    println!(
        "\nwrote {} ({} value changes) — open with `gtkwave {}`",
        out.display(),
        vcd.change_count(),
        out.display()
    );
    println!("the undefended window (0–5 ms) shows the rail sagging 250 mV;");
    println!("the defended window (10–15 ms) shows the offset cleared within");
    println!("one 200 µs poll and the rail never moving.");
    Ok(())
}
