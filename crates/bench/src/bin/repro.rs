//! Regenerates every table and figure of *Plug Your Volt* (DAC 2024).
//!
//! ```text
//! repro [--full] <experiment>
//!
//! experiments:
//!   table1    MSR 0x150 bit layout (paper Table 1)
//!   fig1      Eq. 1 terms vs undervolt (paper Figure 1 timing intuition)
//!   fig2      Sky Lake safe/unsafe characterization (paper Figure 2)
//!   fig3      Kaby Lake R characterization (paper Figure 3)
//!   fig4      Comet Lake characterization (paper Figure 4)
//!   table2    SPEC2017-like polling overhead (paper Table 2)
//!   defense   attack × deployment matrix (§4.3 complete prevention)
//!   levels    kernel module vs microcode vs MSR clamp turnaround (§5)
//!   stepping  single/zero-stepping vs deflection vs polling (§4.1)
//!   interval  polling-period ablation: overhead vs turnaround
//!   planes    voltage-plane ablation: core-only vs plane-aware polling
//!   energy    energy cost of denying benign undervolting (RAPL)
//!   units     die-to-die variation: per-unit vs per-generation bounds
//!   attest    attestation policies (§4.1)
//!   all       everything above
//!
//! --full uses the paper's full sweep resolution (slower).
//! --json emits machine-readable JSON to stdout instead of tables
//!        (figures/defense/levels/stepping/interval/planes/energy/units).
//! --telemetry <path> writes a deterministic telemetry profile (JSON)
//!        covering the run: MSR traffic, detection latency, exposure
//!        windows (table2/defense/levels/interval). The profile keeps
//!        every event the run emits.
//! --stream <path> writes pinned-schema JSONL telemetry snapshot
//!        frames (registry counter deltas plus span aggregates) while
//!        any characterization sweep runs: fig2-4 and units; every
//!        column is re-based onto one monotone stream clock, at most
//!        one frame per simulated millisecond.
//!
//! A flag given twice, an unknown flag and a second experiment are
//! refused (exit 2), naming the token.
//! ```

use plugvolt_bench::cli::{check_flags, positionals, value_of, CliError};
use plugvolt_bench::experiments;
use plugvolt_bench::scenario::{quick_map, Scenario};
use plugvolt_bench::text::TextTable;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_msr::oc_mailbox::{encode_offset_request, OcRequest, Plane};
use plugvolt_telemetry::Sink;
use plugvolt_workloads::overhead::{run_table2_with, OverheadConfig};
use std::process::ExitCode;

/// Every experiment name `repro` accepts.
const EXPERIMENTS: &str =
    "table1 fig1 fig2 fig3 fig4 table2 defense levels stepping interval planes energy units attest all";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, telemetry_path, stream_path) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: repro [--full] [--json] [--telemetry <path>] [--stream <path>] <{}>",
                EXPERIMENTS.replace(' ', "|")
            );
            return ExitCode::from(2);
        }
    };
    let full = args.iter().any(|a| a == "--full");
    let out = Out {
        json: args.iter().any(|a| a == "--json"),
    };
    let mut scn = Scenario::new();
    if telemetry_path.is_some() {
        // A profile keeps the whole timeline (a paper-resolution fig4
        // emits about 80k events), so no event is evicted.
        scn = scn.with_telemetry(Sink::with_event_capacity(usize::MAX));
    }
    if let Some(path) = &stream_path {
        scn = match scn.with_stream(path) {
            Ok(scn) => scn,
            Err(source) => {
                let path = path.clone();
                eprintln!("{}", CliError::StreamIo { path, source });
                return ExitCode::from(1);
            }
        };
    }
    let run = |name: &str| cmd == "all" || cmd == name;

    if run("table1") {
        table1(out);
    }
    if run("fig1") {
        fig1(out);
    }
    for (name, model) in [
        ("fig2", CpuModel::SkyLake),
        ("fig3", CpuModel::KabyLakeR),
        ("fig4", CpuModel::CometLake),
    ] {
        if run(name) {
            figure(out, &scn, name, model, full);
        }
    }
    if run("table2") {
        table2(out, &scn, full);
    }
    if run("defense") {
        defense(out, &scn);
    }
    if run("levels") {
        levels(out, &scn);
    }
    if run("stepping") {
        stepping(out, &scn);
    }
    if run("interval") {
        interval(out, &scn);
    }
    if run("planes") {
        planes(out, &scn);
    }
    if run("energy") {
        energy(out, &scn);
    }
    if run("units") {
        units(out, &scn);
    }
    if run("attest") {
        attest(out, &scn);
    }
    if let Some(path) = stream_path {
        match scn.finish_stream() {
            Ok(frames) => eprintln!("{frames} telemetry frames streamed to {path}"),
            Err(source) => {
                eprintln!("{}", CliError::StreamIo { path, source });
                return ExitCode::from(1);
            }
        }
    }
    if let (Some(path), Some(sink)) = (telemetry_path, scn.telemetry()) {
        let profile = sink.profile(&cmd);
        if let Err(e) = std::fs::write(&path, profile.to_json() + "\n") {
            eprintln!("failed to write telemetry profile to {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!(
            "telemetry profile written to {path} ({} events retained, {} dropped)",
            profile.events.len(),
            profile.events_dropped
        );
    }
    ExitCode::SUCCESS
}

/// The experiment and the `--telemetry` and `--stream` paths, or the
/// first argument error.
fn parse_args(
    args: &[String],
) -> Result<(String, Option<String>, Option<String>), Box<dyn std::error::Error>> {
    check_flags("repro", "--full --json --telemetry --stream", args)?;
    let telemetry = value_of(args, "--telemetry")?;
    let stream = value_of(args, "--stream")?;
    match positionals(args, &["--telemetry", "--stream"])[..] {
        [cmd] if EXPERIMENTS.split_whitespace().any(|e| e == cmd) => {
            Ok((cmd.to_owned(), telemetry, stream))
        }
        [cmd] => Err(format!("unknown experiment '{cmd}'").into()),
        [] => Err("no experiment given".into()),
        [_, extra, ..] => Err(CliError::UnexpectedArgument {
            token: extra.to_owned(),
        }
        .into()),
    }
}

/// Worker count for the parallel experiment matrices. The merged
/// results are byte-identical for any worker count (pinned by
/// `tests/determinism.rs`), so using every available core is safe.
fn matrix_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// How the experiment printers print: a title line and tables, or
/// (`--json`) one JSON object per experiment.
#[derive(Clone, Copy)]
struct Out {
    json: bool,
}

impl Out {
    /// In JSON mode, print the serialized payload and skip the table.
    fn emit_json<T: serde::Serialize>(self, name: &str, payload: &T) -> bool {
        if self.json {
            println!(
                "{}",
                serde_json::json!({ "experiment": name, "data": payload })
            );
        }
        self.json
    }

    fn banner(self, title: &str) {
        if !self.json {
            println!("\n=== {title} ===\n");
        }
    }
}

fn table1(out: Out) {
    out.banner("Table 1: MSR 0x150 (overclocking mailbox) bit layout");
    let mut t = TextTable::new(["bits", "function", "explanation"]);
    t.row(["0-20", "-", "reserved"]);
    t.row([
        "21-31",
        "offset",
        "voltage offset vs base voltage, 1/1024 V units, 11-bit two's complement",
    ]);
    t.row(["32", "write-enable", "1 = apply offset, 0 = read request"]);
    t.row(["33-39", "-", "reserved (command byte 0x11 spans 32-39)"]);
    t.row([
        "40-42",
        "plane select",
        "0=core 1=gpu 2=cache 3=uncore 4=analog-io",
    ]);
    t.row(["43-62", "-", "reserved"]);
    t.row(["63", "run/busy", "must be 1 for the write to be accepted"]);
    print!("{}", t.render());

    println!("\nAlgorithm 1 encodings (offset_voltage):");
    let mut t = TextTable::new(["offset (mV)", "plane", "raw value", "decodes back to"]);
    for (off, plane) in [(-50, Plane::Core), (-150, Plane::Core), (-250, Plane::Gpu)] {
        let raw = encode_offset_request(off, plane.index());
        let back = OcRequest::decode(raw).expect("well-formed");
        t.row([
            off.to_string(),
            plane.to_string(),
            format!("{raw:#018x}"),
            format!("{} mV on {}", back.offset_mv(), back.plane()),
        ]);
    }
    print!("{}", t.render());
}

fn fig1(out: Out) {
    out.banner("Figure 1: Eq. 1 interplay under undervolting (Sky Lake @ 3.6 GHz)");
    let series = experiments::fig1_series(CpuModel::SkyLake, FreqMhz(3_600), 260);
    let mut t = TextTable::new([
        "offset (mV)",
        "T_src+T_prop (ps)",
        "T_clk-T_setup-T_eps (ps)",
        "slack (ps)",
        "state",
    ]);
    for p in series.iter().step_by(4) {
        t.row([
            p.offset_mv.to_string(),
            format!("{:.1}", p.path_ps),
            format!("{:.1}", p.available_ps),
            format!("{:+.1}", p.slack_ps),
            p.state.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn figure(out: Out, scn: &Scenario, name: &str, model: CpuModel, full: bool) {
    let spec = model.spec();
    out.banner(&format!(
        "{}: safe/unsafe characterization of {} ({}, microcode {:#x})",
        name.to_uppercase(),
        spec.codename,
        spec.name,
        spec.microcode
    ));
    let cfg = experiments::figure_sweep_config(full);
    let run = scn
        .characterize(model, &cfg, matrix_workers())
        .expect("sweep completes");
    if out.emit_json(name, &run.map) {
        return;
    }
    let mut t = TextTable::new([
        "frequency",
        "nominal (mV)",
        "first faults at (mV)",
        "crash at (mV)",
        "unsafe band width (mV)",
    ]);
    for (f, band) in run.map.iter() {
        let width = match (band.fault_onset_mv, band.crash_mv) {
            (Some(o), Some(c)) => (o - c).to_string(),
            _ => "-".to_owned(),
        };
        t.row([
            f.to_string(),
            format!("{:.0}", spec.nominal_voltage_mv(f)),
            band.fault_onset_mv
                .map_or("none in sweep".into(), |o| o.to_string()),
            band.crash_mv
                .map_or("none in sweep".into(), |c| c.to_string()),
            width,
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nsweep: {} grid points, {} crashes/resets, {} simulated",
        run.records.len(),
        run.crashes,
        run.duration
    );
    if let Some(mss) = run.map.maximal_safe_offset_mv(0) {
        println!("maximal safe state: {mss} mV (deepest offset safe at every frequency)");
    }
}

fn table2(out: Out, scn: &Scenario, full: bool) {
    out.banner("Table 2: polling-countermeasure overhead on SPEC2017-like suite (Comet Lake)");
    let cfg = OverheadConfig {
        work_divisor: if full { 1 } else { 20 },
        ..OverheadConfig::default()
    };
    let table = run_table2_with(&cfg, scn.telemetry()).expect("harness completes");
    if out.emit_json("table2", &table) {
        return;
    }
    let mut t = TextTable::new([
        "benchmark",
        "base w/o poll",
        "base w/ poll",
        "slowdown %",
        "peak w/o poll",
        "peak w/ poll",
        "slowdown %",
    ]);
    for r in &table.rows {
        t.row([
            r.name.clone(),
            format!("{:.2}", r.base_without),
            format!("{:.2}", r.base_with),
            format!("{:+.2}%", r.base_slowdown_pct),
            format!("{:.2}", r.peak_without),
            format!("{:.2}", r.peak_with),
            format!("{:+.2}%", r.peak_slowdown_pct),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nmean slowdown: base {:+.3}%, peak {:+.3}%, mean |slowdown| {:.3}% (paper: 0.28%)",
        table.mean_base_slowdown_pct, table.mean_peak_slowdown_pct, table.mean_abs_slowdown_pct
    );
    if !full {
        println!("(scaled run: pass --full for reference-length workloads)");
    }
}

fn defense(out: Out, scn: &Scenario) {
    out.banner("Defense matrix (§4.3): every attack vs every deployment (Comet Lake)");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let cells =
        experiments::defense_matrix(scn, model, &map, matrix_workers()).expect("matrix completes");
    if out.emit_json("defense", &cells) {
        return;
    }
    let mut t = TextTable::new([
        "deployment",
        "attack",
        "exploit succeeded",
        "faulty events",
        "detections",
        "benign DVFS kept",
    ]);
    for c in &cells {
        t.row([
            c.deployment.clone(),
            c.attack.clone(),
            if c.success { "YES (broken)" } else { "no" }.to_owned(),
            c.faulty_events.to_string(),
            c.detections.to_string(),
            if c.benign_dvfs_preserved { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print!("{}", t.render());
}

fn levels(out: Out, scn: &Scenario) {
    out.banner("Deployment levels (§5): turnaround / exposure under a -250 mV attack write");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::deployment_levels(scn, model, &map, matrix_workers())
        .expect("levels complete");
    if out.emit_json("levels", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "deployment",
        "neutralize latency",
        "max effective undervolt (mV)",
        "ever in unsafe state",
        "victim faults in 5 ms",
    ]);
    for r in &rows {
        t.row([
            r.deployment.clone(),
            r.neutralize_latency
                .map_or("never".into(), |d| d.to_string()),
            format!("{:.1}", r.max_effective_undervolt_mv),
            r.ever_unsafe.to_string(),
            r.victim_faults.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn stepping(out: Out, scn: &Scenario) {
    out.banner("Threat model (§4.1): stepping adversaries vs deflection vs polling");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::stepping_experiment(scn, model, &map).expect("experiment completes");
    if out.emit_json("stepping", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "defense",
        "adversary stepping",
        "exploit succeeded",
        "trap fired",
    ]);
    for r in &rows {
        t.row([
            r.defense.clone(),
            r.stepping.clone(),
            if r.exploit_succeeded {
                "YES (broken)"
            } else {
                "no"
            }
            .to_owned(),
            r.trap_fired.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn interval(out: Out, scn: &Scenario) {
    out.banner("Ablation: polling period vs overhead vs turnaround (Comet Lake @ f_max)");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows =
        experiments::interval_sweep(scn, model, &map, matrix_workers()).expect("sweep completes");
    if out.emit_json("interval", &rows) {
        return;
    }
    let mut t = TextTable::new(["period", "overhead %", "detect latency", "rail ever moved"]);
    for r in &rows {
        t.row([
            r.period.to_string(),
            format!("{:.3}", r.overhead_pct),
            r.detect_latency.map_or("-".into(), |d| d.to_string()),
            r.rail_moved.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\n(the VR command latency is 800us: any period comfortably below it");
    println!(" neutralizes the write before the rail moves at all)");
}

fn planes(out: Out, scn: &Scenario) {
    out.banner("Ablation: voltage planes watched by the polling module (Comet Lake)");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::plane_ablation(scn, model, &map).expect("ablation completes");
    if out.emit_json("planes", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "planes polled",
        "idle overhead %",
        "core-plane attack",
        "cache-plane attack",
    ]);
    for r in &rows {
        t.row([
            r.planes.clone(),
            format!("{:.3}", r.overhead_pct),
            if r.core_attack_succeeded {
                "BROKEN"
            } else {
                "blocked"
            }
            .to_owned(),
            if r.cache_attack_succeeded {
                "BROKEN"
            } else {
                "blocked"
            }
            .to_owned(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "
(Algorithm 3 as written reads the mailbox response register once per"
    );
    println!(" core; explicit per-plane read commands close the cache plane at the");
    println!(" cost of two extra MSR accesses per plane per core per tick)");
}

fn energy(out: Out, scn: &Scenario) {
    out.banner("Energy: what denying benign undervolting costs (Comet Lake, RAPL)");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::energy_ablation(scn, model, &map).expect("ablation completes");
    if out.emit_json("energy", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "configuration",
        "avg power (W)",
        "energy/500ms (J)",
        "savings",
    ]);
    for r in &rows {
        t.row([
            r.config.clone(),
            format!("{:.2}", r.avg_power_w),
            format!("{:.3}", r.joules),
            format!("{:.1}%", r.savings_pct),
        ]);
    }
    print!("{}", t.render());
    println!(
        "
(the paper's countermeasure keeps this saving available while SGX"
    );
    println!(" runs; Intel's access-control fix forfeits it)");
}

fn units(out: Out, scn: &Scenario) {
    out.banner("Die-to-die variation: per-unit vs per-generation safe bounds (Comet Lake)");
    let study =
        experiments::unit_variation_study(scn, CpuModel::CometLake, 8).expect("study completes");
    if out.emit_json("units", &study) {
        return;
    }
    let mut t = TextTable::new(["unit", "own maximal safe state (mV)", "onset @ f_max (mV)"]);
    for r in &study.rows {
        t.row([
            r.unit.to_string(),
            r.own_mss_mv.to_string(),
            r.onset_at_fmax_mv.map_or("-".into(), |o| o.to_string()),
        ]);
    }
    print!("{}", t.render());
    println!(
        "
generation-wide bound (worst unit): {} mV",
        study.generation_mss_mv
    );
    println!(
        "mean benign headroom forfeited vs per-unit maps: {:.1} mV",
        study.mean_headroom_lost_mv
    );
    println!(
        "generation map protects every unit: {}",
        study.generation_map_protects_all
    );
    println!(
        "
(the Sec. 5 hardware deployments must fuse the generation bound;"
    );
    println!(" the kernel-module level can use each unit's own map)");
}

fn attest(out: Out, scn: &Scenario) {
    out.banner("Attestation policies (§4.1)");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::attestation_matrix(scn, model, &map).expect("matrix completes");
    if out.emit_json("attest", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "configuration",
        "paper verifier accepts",
        "Intel verifier accepts",
        "benign DVFS works",
    ]);
    for r in &rows {
        t.row([
            r.config.clone(),
            r.plugvolt_ok.to_string(),
            r.intel_ok.to_string(),
            r.benign_dvfs.to_string(),
        ]);
    }
    print!("{}", t.render());
}
