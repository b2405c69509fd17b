//! Characterize all three evaluated CPU generations (Figures 2–4) and
//! persist the maps as JSON artifacts — the S1 step a vendor or admin
//! would run once per SKU before deploying the countermeasure.
//!
//! Uses the scenario's sweep engine: each frequency column runs on its
//! own machine booted from a derived, labelled seed, spread over the
//! worker pool, so the result is byte-identical whatever the worker
//! count.
//!
//! Run with: `cargo run --release --example characterize_generations`

use plugvolt::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::temp_dir().join("plugvolt-maps");
    std::fs::create_dir_all(&out_dir)?;

    let scn = Scenario::with_seed(2024);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    for model in CpuModel::ALL {
        let spec = model.spec();
        println!(
            "== {} ({}, microcode {:#x}) ==",
            spec.codename, spec.name, spec.microcode
        );
        let cfg = SweepConfig {
            offset_step_mv: 2,
            freq_step_mhz: 200,
            ..SweepConfig::default()
        };
        let run = scn.characterize(model, &cfg, workers)?;

        println!("  freq      onset(mV)  crash(mV)");
        for (f, band) in run.map.iter() {
            println!(
                "  {:<8}  {:>9}  {:>9}",
                f.to_string(),
                band.fault_onset_mv.map_or("-".into(), |o| o.to_string()),
                band.crash_mv.map_or("-".into(), |c| c.to_string()),
            );
        }
        let mss = MaximalSafeState::from_map(&run.map, 5);
        match &mss {
            Some(m) => println!(
                "  maximal safe state: {} mV (margin {} mV)",
                m.offset_mv, m.margin_mv
            ),
            None => println!("  maximal safe state: not certifiable"),
        }

        // Persist the artifact the kernel module would consume.
        let path = out_dir.join(format!(
            "{}.json",
            spec.codename.replace(' ', "-").to_lowercase()
        ));
        std::fs::write(&path, serde_json::to_string_pretty(&run.map)?)?;
        // Round-trip check: the countermeasure loads exactly what S1 wrote.
        let loaded: CharacterizationMap = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
        assert_eq!(loaded, run.map);
        println!("  map persisted to {}\n", path.display());
    }
    println!("artifacts in {}", out_dir.display());
    Ok(())
}
