//! `plugvolt-cli` — operator-style front end to the reproduction.
//!
//! Mirrors the workflow a vendor/admin would run on real hardware:
//!
//! ```text
//! plugvolt-cli characterize --model comet-lake --out map.json [--coarse] [--workers N]
//! plugvolt-cli inspect      --map map.json
//! plugvolt-cli maximal      --map map.json [--margin 5]
//! plugvolt-cli attack       --model comet-lake [--map map.json --deploy polling|microcode|hardware|ocm-disable]
//! plugvolt-cli energy       --model comet-lake --map map.json
//! plugvolt-cli telemetry    --profile profile.json [--vcd out.vcd]
//! plugvolt-cli bench        [--smoke] [--model M]
//!                           [--trace-out trace.json] [--flame-out stacks.txt]
//! plugvolt-cli soak         [--smoke] [--seed N] [--campaigns N] [--workers N]
//!                           [--model M] [--corpus DIR] [--out report.json]
//!                           [--stream frames.jsonl] [--no-self-test]
//! plugvolt-cli soak         --record fixture.trace.jsonl [--seed N] [--model M]
//! plugvolt-cli soak         --backend replay --trace fixture.trace.jsonl
//! plugvolt-cli soak         --backend host [--reads N] [--period-us N]
//! ```
//!
//! `bench` runs one traced characterize-grid pass: a per-subsystem
//! hot-path attribution table (the DESIGN.md §5e evidence), an optional
//! Chrome trace-event JSON export (`--trace-out`, loadable in Perfetto
//! or `chrome://tracing`) and an optional collapsed-stack flamegraph
//! (`--flame-out`).
//! `soak --stream` writes one pinned-schema JSONL telemetry frame per
//! campaign (registry counter deltas plus span aggregates; the stream
//! clock advances one simulated millisecond per campaign) and forces
//! the sequential campaign path.
//!
//! `soak` has four modes, each accepting only the flags listed for it
//! above (any other flag is refused, naming it). `sim` (the default, or
//! `--backend sim`) runs the campaigns on simulated machines; `--record`
//! records the deterministic fixture campaign on a machine with a tape
//! attached and writes the pinned-schema JSONL MSR transcript
//! (`plugvolt_hal::trace`); `--backend replay --trace FILE` records the
//! transcript's campaign again, compares it with the tape and gates on
//! tape-clean + oracle-pass + sim-differential byte identity;
//! `--backend host` runs the *read-only* Linux host probe
//! (`plugvolt_hal::host`: `/dev/cpu/*/msr` + sysfs cpufreq) and reports
//! polling overhead and worst-case detection latency — it has no write
//! path.
//!
//! The characterization artifact is plain JSON — the same bytes the
//! kernel module consumes — so the stages can run on different machines,
//! exactly like the paper's S1 (vendor/admin) → S2 (deployment) split.
//!
//! Source hygiene is a separate binary: `plugvolt-lint` (in
//! `plugvolt-analysis`) gates the workspace for determinism and
//! MSR-write discipline; run it as
//! `cargo run -p plugvolt-analysis --bin plugvolt-lint -- --workspace`.

use plugvolt::characterize::SweepConfig;
use plugvolt::charmap::CharacterizationMap;
use plugvolt::deploy::{deploy, Deployment};
use plugvolt::maximal::MaximalSafeState;
use plugvolt::poll::PollConfig;
use plugvolt_attacks::plundervolt::{run_rsa_attack, PlundervoltConfig};
use plugvolt_bench::attr::{render_attribution, run_attribution, AttrOptions};
use plugvolt_bench::cli::{check_flags, parsed, positionals, value_of, CliError};
use plugvolt_bench::experiments::energy_ablation;
use plugvolt_bench::scenario::Scenario;
use plugvolt_bench::text::TextTable;
use plugvolt_cpu::model::CpuModel;
use plugvolt_telemetry::{
    chrome_trace_json, events_to_vcd, flamegraph_collapsed, TelemetryProfile, SCHEMA_VERSION,
};
use std::process::ExitCode;

/// The subcommands, the flags each accepts that take a value, and the
/// ones that do not.
const SUBCOMMAND_FLAGS: &[(&str, &str, &str)] = &[
    ("characterize", "--model --out --seed --workers", "--coarse"),
    ("inspect", "--map", ""),
    ("maximal", "--map --margin", ""),
    ("attack", "--model --map --deploy", ""),
    ("energy", "--model --map", ""),
    ("telemetry", "--profile --vcd", ""),
    ("bench", "--model --trace-out --flame-out", "--smoke"),
    (
        "soak",
        "--seed --campaigns --workers --model --corpus --out --stream --record --backend \
         --trace --reads --period-us",
        "--smoke --no-self-test",
    ),
];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plugvolt-cli: {e}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let flag = |name: &str| args.iter().any(|a| a == name);
    if let Some(&(cmd, values, switches)) = SUBCOMMAND_FLAGS.iter().find(|(c, ..)| *c == cmd) {
        check_flags(cmd, &format!("{values} {switches}"), &args)?;
        let values: Vec<&str> = values.split_whitespace().collect();
        // The first positional is the subcommand itself.
        if let [_, extra, ..] = positionals(&args, &values)[..] {
            let token = extra.to_owned();
            return Err(CliError::UnexpectedArgument { token }.into());
        }
    }

    match cmd {
        "characterize" => {
            let model = parse_model(&value_of(&args, "--model")?.ok_or("--model required")?)?;
            let out = value_of(&args, "--out")?.ok_or("--out required")?;
            let seed = parsed(&args, "--seed", parse_seed)?.unwrap_or(2024);
            let cfg = if flag("--coarse") {
                SweepConfig::coarse()
            } else {
                SweepConfig::default()
            };
            let workers = parsed(&args, "--workers", str::parse::<usize>)?.unwrap_or(1);
            let scn = Scenario::with_seed(seed);
            eprintln!(
                "sweeping {model} ({} resolution, {workers} worker{})…",
                if flag("--coarse") { "coarse" } else { "paper" },
                if workers == 1 { "" } else { "s" }
            );
            let run = scn.characterize(model, &cfg, workers)?;
            std::fs::write(&out, serde_json::to_string_pretty(&run.map)?)?;
            eprintln!(
                "{} grid points, {} crashes, {} simulated → {out}",
                run.records.len(),
                run.crashes,
                run.duration
            );
            Ok(())
        }
        "inspect" => {
            let map = load_map(&value_of(&args, "--map")?.ok_or("--map required")?)?;
            println!(
                "characterization of {} (microcode {:#x}), sweep floor {} mV",
                map.cpu_name(),
                map.microcode(),
                map.sweep_floor_mv()
            );
            let mut t = TextTable::new(["frequency", "fault onset (mV)", "crash (mV)"]);
            for (f, band) in map.iter() {
                t.row([
                    f.to_string(),
                    band.fault_onset_mv.map_or("-".into(), |o| o.to_string()),
                    band.crash_mv.map_or("-".into(), |c| c.to_string()),
                ]);
            }
            print!("{}", t.render());
            Ok(())
        }
        "maximal" => {
            let map = load_map(&value_of(&args, "--map")?.ok_or("--map required")?)?;
            let margin = parsed(&args, "--margin", parse_margin)?.unwrap_or(5);
            match MaximalSafeState::from_map(&map, margin) {
                Some(mss) => {
                    println!(
                        "maximal safe state of {}: {} mV (margin {} mV)",
                        mss.cpu_name, mss.offset_mv, mss.margin_mv
                    );
                    println!("microcode bound / MSR clamp value: {} mV", mss.offset_mv);
                    Ok(())
                }
                None => Err("map certifies nothing (empty?)".into()),
            }
        }
        "attack" => {
            let model = parse_model(&value_of(&args, "--model")?.ok_or("--model required")?)?;
            let scn = Scenario::with_seed(42);
            let mut machine = scn.machine(model);
            let deployment = match value_of(&args, "--deploy")?.as_deref() {
                None => Deployment::None,
                Some("polling") => Deployment::PollingModule(PollConfig::default()),
                Some("microcode") => Deployment::Microcode {
                    revision: 0xf5,
                    margin_mv: 5,
                },
                Some("hardware") => Deployment::HardwareMsr { margin_mv: 5 },
                Some("ocm-disable") => Deployment::OcmDisable,
                Some(other) => return Err(format!("unknown deployment '{other}'").into()),
            };
            if !matches!(deployment, Deployment::None) {
                let map =
                    load_map(&value_of(&args, "--map")?.ok_or("--map required with --deploy")?)?;
                deploy(&mut machine, &map, deployment.clone())?;
                eprintln!("deployed {}", deployment.label());
            }
            let report = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?;
            println!("{}", serde_json::to_string_pretty(&report)?);
            if report.success {
                eprintln!("RESULT: machine compromised");
            } else {
                eprintln!("RESULT: attack defeated");
            }
            Ok(())
        }
        "energy" => {
            let model = parse_model(&value_of(&args, "--model")?.ok_or("--model required")?)?;
            let map = load_map(&value_of(&args, "--map")?.ok_or("--map required")?)?;
            let rows = energy_ablation(&Scenario::new(), model, &map)?;
            println!("{}", serde_json::to_string_pretty(&rows)?);
            Ok(())
        }
        "bench" => attr_command(&args, flag("--smoke")),
        "soak" => {
            type Mode = fn(&[String]) -> Result<(), Box<dyn std::error::Error>>;
            // Each mode accepts only the flags it reads: any other is
            // refused, naming it, instead of being silently dropped.
            let (mode, accepted, command): (&'static str, &str, Mode) =
                match (value_of(&args, "--backend")?.as_deref(), flag("--record")) {
                    (None | Some("sim"), false) => (
                        "soak",
                        "--seed --campaigns --workers --model --corpus --out --stream \
                         --backend --smoke --no-self-test",
                        soak_command,
                    ),
                    (None | Some("sim"), true) => {
                        ("soak --record", "--record --seed --model", record_command)
                    }
                    (Some("replay"), _) => {
                        ("soak --backend replay", "--backend --trace", replay_command)
                    }
                    (Some("host"), _) => (
                        "soak --backend host",
                        "--backend --reads --period-us",
                        host_command,
                    ),
                    (Some(other), _) => {
                        return Err(
                            format!("unknown backend '{other}' (sim | replay | host)").into()
                        )
                    }
                };
            check_flags(mode, accepted, &args)?;
            command(&args)
        }
        "telemetry" => {
            let path = value_of(&args, "--profile")?.ok_or("--profile required")?;
            let profile: TelemetryProfile = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
            if profile.schema_version != SCHEMA_VERSION {
                eprintln!(
                    "warning: profile schema v{} (this build renders v{SCHEMA_VERSION})",
                    profile.schema_version
                );
            }
            print!("{}", profile.render_table());
            if let Some(vcd_path) = value_of(&args, "--vcd")? {
                std::fs::write(&vcd_path, events_to_vcd(&profile.events))?;
                eprintln!(
                    "{} events rendered to waveform {vcd_path}",
                    profile.events.len()
                );
            }
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: plugvolt-cli <subcommand> [options]\n\
                 \n\
                 \x20 characterize --model M --out map.json [--coarse] [--workers N] [--seed N]\n\
                 \x20 inspect      --map map.json\n\
                 \x20 maximal      --map map.json [--margin MV]\n\
                 \x20 attack       --model M [--map map.json --deploy polling|microcode|hardware|ocm-disable]\n\
                 \x20 energy       --model M --map map.json\n\
                 \x20 telemetry    --profile profile.json [--vcd out.vcd]\n\
                 \x20 bench        [--smoke] [--model M] [--trace-out trace.json] [--flame-out stacks.txt]\n\
                 \x20 soak         [--smoke] [--seed N] [--campaigns N] [--workers N] [--model M]\n\
                 \x20              [--corpus DIR] [--out report.json] [--stream frames.jsonl] [--no-self-test]\n\
                 \x20 soak         --record fixture.trace.jsonl [--seed N] [--model M]\n\
                 \x20 soak         --backend replay --trace fixture.trace.jsonl\n\
                 \x20 soak         --backend host [--reads N] [--period-us N]\n\
                 \n\
                 `bench` prints the per-subsystem hot-path attribution table;\n\
                 `--trace-out` exports a Chrome trace-event JSON (load in Perfetto);\n\
                 `soak --stream` writes one pinned-schema telemetry frame per campaign;\n\
                 `soak --record` records the fixture campaign's MSR transcript,\n\
                 `soak --backend replay --trace` records it again and compares, and\n\
                 `soak --backend host` runs the read-only Linux MSR/cpufreq probe.\n\
                 \n\
                 lint the workspace sources (determinism & MSR-safety gate):\n\
                 \x20 cargo run -p plugvolt-analysis --bin plugvolt-lint -- --workspace"
            );
            Err("missing or unknown subcommand".into())
        }
    }
}

/// The `bench` subcommand: one traced characterize-grid pass,
/// rendered as the per-subsystem attribution table, with optional
/// Chrome-trace and collapsed-stack flamegraph exports.
fn attr_command(args: &[String], smoke: bool) -> Result<(), Box<dyn std::error::Error>> {
    let trace_out = value_of(args, "--trace-out")?;
    let flame_out = value_of(args, "--flame-out")?;
    let model = match value_of(args, "--model")? {
        Some(m) => parse_model(&m)?,
        None => CpuModel::CometLake,
    };
    eprintln!(
        "tracing a {} characterize-grid pass on {model}…",
        if smoke {
            "coarse (smoke)"
        } else {
            "paper-resolution"
        }
    );
    let attr = run_attribution(&AttrOptions {
        model,
        smoke,
        capture_events: trace_out.is_some(),
    })?;
    print!("{}", render_attribution(&attr));
    if let Some(path) = trace_out {
        let process = format!("plugvolt characterize-grid ({})", attr.model);
        std::fs::write(&path, chrome_trace_json(&attr.events, &process))?;
        eprintln!(
            "{} span events exported to {path} (load in Perfetto or chrome://tracing)",
            attr.events.len()
        );
    }
    if let Some(path) = flame_out {
        std::fs::write(&path, flamegraph_collapsed(&attr.rows))?;
        eprintln!("collapsed stacks written to {path} (feed to flamegraph.pl)");
    }
    Ok(())
}

/// The banner echoes seeds in hex; accept them back in either radix so
/// a printed seed is always pasteable.
fn parse_seed(s: &str) -> Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    }
}

/// `soak` on the simulator: randomized attack campaigns against all
/// four deployment levels, judged by the soak oracles, after replaying
/// any `--corpus` reproducers.
fn soak_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let mut cfg = if flag("--smoke") {
        plugvolt_bench::soak::SoakConfig::smoke()
    } else {
        plugvolt_bench::soak::SoakConfig::default()
    };
    if let Some(n) = parsed(args, "--campaigns", str::parse::<u32>)? {
        cfg.campaigns = n;
    }
    if let Some(n) = parsed(args, "--workers", str::parse::<usize>)? {
        cfg.workers = n;
    }
    if let Some(m) = value_of(args, "--model")? {
        cfg.model = parse_model(&m)?;
    }
    if flag("--no-self-test") {
        cfg.self_test = false;
    }
    let seed = parsed(args, "--seed", parse_seed)?.unwrap_or(plugvolt_bench::scenario::SEED);
    let corpus = value_of(args, "--corpus")?;
    let mut scn = Scenario::with_seed(seed);
    let stream_path = value_of(args, "--stream")?;
    let stream_io = |path: &String, source| CliError::StreamIo {
        path: path.clone(),
        source,
    };
    if let Some(path) = &stream_path {
        scn = scn.with_stream(path).map_err(|e| stream_io(path, e))?;
    }
    eprintln!(
        "soaking {} with {} campaigns × 4 deployment levels (seed {seed:#x})…",
        cfg.model, cfg.campaigns
    );
    let corpus_dir = corpus.as_deref().map(std::path::Path::new);
    let report = plugvolt_bench::soak::run_soak(&scn, &cfg, corpus_dir)?;
    if let Some(path) = &stream_path {
        let frames = scn.finish_stream().map_err(|e| stream_io(path, e))?;
        eprintln!("{frames} telemetry frames streamed to {path}");
    }
    let json = report.to_json();
    match value_of(args, "--out")? {
        Some(path) => {
            std::fs::write(&path, &json)?;
            eprintln!("report written to {path}");
        }
        None => print!("{json}"),
    }
    eprintln!(
        "{} corpus case{} replayed, {} violation{}",
        report.corpus_replayed,
        if report.corpus_replayed == 1 { "" } else { "s" },
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
    );
    for v in &report.violations {
        eprintln!(
            "  campaign {} ({}): {} — shrunk {} -> {} events{}",
            v.campaign,
            v.family,
            v.violation,
            v.original_events,
            v.reproducer.len(),
            v.corpus_file
                .as_deref()
                .map_or(String::new(), |f| format!(" ({f})")),
        );
    }
    for cf in &report.corpus_failures {
        eprintln!("  corpus {}: {}", cf.file, cf.detail);
    }
    if let Some(st) = &report.self_test {
        if st.caught {
            eprintln!(
                "self-test: weakened poller (skips 1 poll in {}) caught, \
                 reproducer shrunk to {} events in {} evals",
                st.skip_every, st.shrunk_events, st.shrink_evals
            );
        } else {
            eprintln!(
                "self-test: oracle MISSED the weakened poller after {} campaigns",
                st.attempts
            );
        }
    }
    if report.passed() {
        eprintln!("RESULT: all oracles held");
        Ok(())
    } else {
        Err("soak oracle violation (see report)".into())
    }
}

/// `soak --record FILE`: records the deterministic fixture campaign
/// (all four deployment levels) onto one MSR transcript and writes the
/// pinned-schema JSONL to `FILE`. Refuses to write a fixture whose
/// campaign violates an oracle.
fn record_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = value_of(args, "--record")?.ok_or(CliError::MissingValue { flag: "--record" })?;
    let seed = parsed(args, "--seed", parse_seed)?.unwrap_or(plugvolt_bench::scenario::SEED);
    let model = match value_of(args, "--model")? {
        Some(m) => parse_model(&m)?,
        None => CpuModel::CometLake,
    };
    let scn = Scenario::with_seed(seed);
    eprintln!(
        "recording the {} fixture campaign on {model} (seed {seed:#x})…",
        plugvolt_bench::trace::FIXTURE_LABEL
    );
    let fixture = plugvolt_bench::trace::record_fixture(&scn, model)?;
    std::fs::write(&path, &fixture.jsonl)?;
    eprintln!(
        "{} transcript lines ({} levels) written to {path}",
        fixture.jsonl.lines().count(),
        fixture.captures.len()
    );
    Ok(())
}

/// `soak --backend replay --trace FILE`: records a transcript's
/// campaign again and gates on tape-clean sections, the soak oracles,
/// and byte-identical telemetry vs a plain sim run.
fn replay_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = value_of(args, "--trace")?.ok_or(CliError::RequiresFlag {
        flag: "--backend replay",
        requires: "--trace FILE",
    })?;
    let jsonl = std::fs::read_to_string(&path)?;
    let report = plugvolt_bench::trace::replay_trace(&jsonl)?;
    print!("{}", report.render_text());
    if report.passed() {
        Ok(())
    } else {
        Err(format!("replay gate failed for {path} (see verdict above)").into())
    }
}

/// `soak --backend host`: runs the read-only Linux host probe
/// (`/dev/cpu/*/msr` + sysfs cpufreq) and reports per-core read
/// latency plus the worst-case detection latency a software poller at
/// `--period-us` would see. Never writes an MSR; degrades gracefully
/// without root (unreadable cores are reported, not fatal).
#[cfg(target_os = "linux")]
fn host_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let reads = parsed(args, "--reads", str::parse::<u32>)?.unwrap_or(64);
    let period_us = parsed(args, "--period-us", parse_period_us)?.unwrap_or(100.0);
    let report = plugvolt_hal::host::probe_poll_overhead(reads);
    print!("{}", report.render_text(period_us));
    Ok(())
}

/// Stub on non-Linux targets (the host probe is Linux-only).
#[cfg(not(target_os = "linux"))]
fn host_command(_args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    Err("--backend host requires Linux (/dev/cpu/*/msr + sysfs cpufreq)".into())
}

/// A safety margin is a distance above the characterized onset, so a
/// negative one is refused rather than silently read as zero.
fn parse_margin(s: &str) -> Result<i32, String> {
    match s.parse::<i32>() {
        Ok(mv) if mv >= 0 => Ok(mv),
        Ok(_) => Err("a margin is a non-negative mV distance".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// A poll period is a span of time, so a NaN, infinite, zero or
/// negative one is refused rather than printed as a latency.
#[cfg(target_os = "linux")]
fn parse_period_us(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(us) if us.is_finite() && us > 0.0 => Ok(us),
        Ok(_) => Err("a poll period is a finite, positive number of us".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn parse_model(s: &str) -> Result<CpuModel, String> {
    match s.to_ascii_lowercase().replace('_', "-").as_str() {
        "sky-lake" | "skylake" => Ok(CpuModel::SkyLake),
        "kaby-lake-r" | "kabylaker" | "kabylake-r" => Ok(CpuModel::KabyLakeR),
        "comet-lake" | "cometlake" => Ok(CpuModel::CometLake),
        other => Err(format!(
            "unknown model '{other}' (sky-lake | kaby-lake-r | comet-lake)"
        )),
    }
}

fn load_map(path: &str) -> Result<CharacterizationMap, Box<dyn std::error::Error>> {
    let map: CharacterizationMap = serde_json::from_str(&std::fs::read_to_string(path)?)?;
    map.validate()?;
    Ok(map)
}
