//! Plundervolt end to end: extract an RSA private key from an
//! *undefended* machine via DVFS faults + the Bellcore gcd, then show
//! the identical campaign failing against every countermeasure level.
//!
//! Run with: `cargo run --release --example plundervolt_key_extraction`

use plugvolt::prelude::*;
use plugvolt_attacks::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = CpuModel::CometLake;
    let scn = Scenario::with_seed(42);
    let map = scn.quick_map(model);

    println!("== phase 1: undefended machine ==");
    let mut machine = scn.machine(model);
    let report = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?;
    println!(
        "  attack '{}': success={} after {} offset steps, {} faulty signatures, {} crashes",
        report.attack, report.success, report.attempts, report.faulty_events, report.crashes
    );
    if let Some(extracted) = &report.extracted {
        println!("  EXTRACTED: {extracted}");
    }
    assert!(report.success, "the undefended baseline must fall");

    println!("\n== phase 2: the same campaign against each deployment ==");
    for deployment in [
        Deployment::PollingModule(PollConfig::default()),
        Deployment::Microcode {
            revision: 0xf5,
            margin_mv: 5,
        },
        Deployment::HardwareMsr { margin_mv: 5 },
        Deployment::OcmDisable,
    ] {
        let mut machine = scn.machine(model);
        let deployed = deploy(&mut machine, &map, deployment.clone())?;
        let report = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?;
        let detections = deployed
            .poll_stats
            .as_ref()
            .map_or(0, |s| s.borrow().detections);
        println!(
            "  {:>14}: success={} faulty={} detections={} benign-DVFS-kept={}",
            deployment.label(),
            report.success,
            report.faulty_events,
            detections,
            deployment.preserves_benign_dvfs()
        );
        assert!(
            !report.success,
            "{} must block the attack",
            deployment.label()
        );
    }

    println!("\nall countermeasure levels neutralize Plundervolt; only the");
    println!("paper's levels keep DVFS available to benign software.");
    Ok(())
}
