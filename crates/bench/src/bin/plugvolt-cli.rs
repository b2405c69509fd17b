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
//! clock is the campaign index, one campaign per simulated
//! millisecond) and forces the sequential campaign path.
//!
//! The `--backend` flag selects the HAL backend behind the machine
//! seam (`plugvolt_hal`): `sim` (default) runs the in-memory register
//! file; `--record` records the deterministic fixture campaign to a
//! pinned-schema JSONL MSR transcript; `--backend replay --trace FILE`
//! re-executes a transcript on the replay backend and gates on
//! tape-clean + oracle-pass + sim-differential byte identity;
//! `--backend host` probes the *read-only* Linux host backend
//! (`/dev/cpu/*/msr` + sysfs cpufreq) and reports polling overhead and
//! worst-case detection latency — it never writes an MSR.
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
use plugvolt::deploy::Deployment;
use plugvolt::maximal::MaximalSafeState;
use plugvolt::poll::PollConfig;
use plugvolt_attacks::plundervolt::{run_rsa_attack, PlundervoltConfig};
use plugvolt_bench::attr::{render_attribution, run_attribution, AttrOptions};
use plugvolt_bench::experiments::energy_ablation;
use plugvolt_bench::scenario::Scenario;
use plugvolt_bench::text::TextTable;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_telemetry::{
    chrome_trace_json, events_to_vcd, flamegraph_collapsed, Sink, StreamCursor, TelemetryProfile,
    SCHEMA_VERSION,
};
use std::fmt;
use std::io::Write as _;
use std::process::ExitCode;

/// Typed errors for CLI flags — structured variants instead of ad-hoc
/// `format!` strings, so callers and tests can match on the failure.
#[derive(Debug)]
enum CliError {
    /// A value-taking flag was passed without its value.
    MissingValue {
        /// The flag in question.
        flag: &'static str,
    },
    /// A flag only meaningful in combination was passed alone.
    RequiresFlag {
        /// The flag in question.
        flag: &'static str,
        /// The flag it requires.
        requires: &'static str,
    },
    /// Stream-file I/O failed.
    StreamIo {
        /// Stream destination path.
        path: String,
        /// Underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => {
                write!(
                    f,
                    "{flag} requires a value (none given, or the next token is a flag)"
                )
            }
            CliError::RequiresFlag { flag, requires } => {
                write!(f, "{flag} only makes sense together with {requires}")
            }
            CliError::StreamIo { path, source } => {
                write!(f, "cannot write telemetry stream to {path}: {source}")
            }
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::StreamIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The value of a value-taking flag, or a typed [`CliError`] when the
/// flag is present but the value token is missing or looks like
/// another flag.
fn value_of(args: &[String], flag: &'static str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(CliError::MissingValue { flag }),
        },
    }
}

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

    match cmd {
        "characterize" => {
            let model = parse_model(&value_of(&args, "--model")?.ok_or("--model required")?)?;
            let out = value_of(&args, "--out")?.ok_or("--out required")?;
            let seed = value_of(&args, "--seed")?.map_or(Ok(2024), |s| s.parse::<u64>())?;
            let cfg = if flag("--coarse") {
                SweepConfig::coarse()
            } else {
                SweepConfig::default()
            };
            let workers = value_of(&args, "--workers")?.map_or(Ok(1), |s| s.parse::<usize>())?;
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
            let margin = value_of(&args, "--margin")?.map_or(Ok(5), |s| s.parse::<i32>())?;
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
                scn.deploy(&mut machine, &map, deployment.clone())?;
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
            match value_of(&args, "--backend")?.as_deref() {
                None | Some("sim") => {}
                Some("replay") => return replay_command(&args),
                Some("host") => return host_command(&args),
                Some(other) => {
                    return Err(format!("unknown backend '{other}' (sim | replay | host)").into())
                }
            }
            if let Some(path) = value_of(&args, "--record")? {
                return record_command(&args, &path);
            }
            if args.iter().any(|a| a == "--trace") {
                return Err(CliError::RequiresFlag {
                    flag: "--trace",
                    requires: "--backend replay",
                }
                .into());
            }
            let mut cfg = if flag("--smoke") {
                plugvolt_bench::soak::SoakConfig::smoke()
            } else {
                plugvolt_bench::soak::SoakConfig::default()
            };
            if let Some(n) = value_of(&args, "--campaigns")? {
                cfg.campaigns = n.parse::<u32>()?;
            }
            if let Some(n) = value_of(&args, "--workers")? {
                cfg.workers = n.parse::<usize>()?;
            }
            if let Some(m) = value_of(&args, "--model")? {
                cfg.model = parse_model(&m)?;
            }
            if flag("--no-self-test") {
                cfg.self_test = false;
            }
            let seed = value_of(&args, "--seed")?
                .map_or(Ok(plugvolt_bench::scenario::SEED), |s| parse_seed(&s))?;
            let corpus = value_of(&args, "--corpus")?;
            let stream_path = value_of(&args, "--stream")?;
            let mut scn = Scenario::with_seed(seed);
            let stream_sink = stream_path.as_ref().map(|_| Sink::new());
            if let Some(sink) = &stream_sink {
                scn = scn.with_telemetry(sink.clone());
            }
            eprintln!(
                "soaking {} with {} campaigns × 4 deployment levels (seed {seed:#x})…",
                cfg.model, cfg.campaigns
            );
            let corpus_dir = corpus.as_deref().map(std::path::Path::new);
            let report = match (&stream_path, &stream_sink) {
                (Some(path), Some(sink)) => {
                    let stream_io = |e: std::io::Error| CliError::StreamIo {
                        path: path.clone(),
                        source: e,
                    };
                    let mut file = std::fs::File::create(path).map_err(stream_io)?;
                    // One campaign advances the stream clock by one
                    // simulated millisecond; the stream sink's tracer is
                    // enabled so campaign machines (which inherit it)
                    // feed the frames' span aggregates.
                    let mut cursor = StreamCursor::new(1);
                    let mut frames = 0u64;
                    let mut io_error: Option<std::io::Error> = None;
                    sink.tracer().set_enabled(true);
                    let report = plugvolt_bench::soak::run_soak_streaming(
                        &scn,
                        &cfg,
                        corpus_dir,
                        Some(&mut |campaigns: u32| {
                            let now =
                                SimTime::ZERO + SimDuration::from_millis(u64::from(campaigns));
                            if let Some(frame) = cursor.poll(sink, now) {
                                frames += 1;
                                if let Err(e) = writeln!(file, "{}", frame.to_jsonl()) {
                                    io_error.get_or_insert(e);
                                }
                            }
                        }),
                    )?;
                    if let Some(e) = io_error {
                        return Err(stream_io(e).into());
                    }
                    let end = SimTime::ZERO + SimDuration::from_millis(u64::from(cfg.campaigns));
                    let frame = cursor.flush(sink, end);
                    writeln!(file, "{}", frame.to_jsonl()).map_err(stream_io)?;
                    frames += 1;
                    eprintln!("{frames} telemetry frames streamed to {path}");
                    report
                }
                _ => plugvolt_bench::soak::run_soak(&scn, &cfg, corpus_dir)?,
            };
            let json = report.to_json();
            match value_of(&args, "--out")? {
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
                 `soak --stream` appends one pinned-schema telemetry frame per campaign;\n\
                 `soak --record` records the fixture campaign's MSR transcript,\n\
                 `soak --backend replay --trace` re-runs it with differential checks, and\n\
                 `soak --backend host` probes the read-only Linux MSR/cpufreq backend.\n\
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

/// `soak --record FILE`: records the deterministic fixture campaign
/// (all four deployment levels) onto one MSR transcript and writes the
/// pinned-schema JSONL to `FILE`. Refuses to write a fixture whose
/// campaign violates an oracle.
fn record_command(args: &[String], path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let seed = match value_of(args, "--seed")? {
        Some(s) => parse_seed(&s)?,
        None => plugvolt_bench::scenario::SEED,
    };
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
    std::fs::write(path, &fixture.jsonl)?;
    eprintln!(
        "{} transcript lines ({} levels) written to {path}",
        fixture.jsonl.lines().count(),
        fixture.captures.len()
    );
    Ok(())
}

/// `soak --backend replay --trace FILE`: re-executes a recorded MSR
/// transcript on the replay backend and gates on tape-clean sections,
/// the soak oracles, and byte-identical telemetry vs a plain sim run.
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

/// `soak --backend host`: probes the read-only Linux host backend
/// (`/dev/cpu/*/msr` + sysfs cpufreq) and reports per-core read
/// latency plus the worst-case detection latency a software poller at
/// `--period-us` would see. Never writes an MSR; degrades gracefully
/// without root (unreadable cores are reported, not fatal).
#[cfg(target_os = "linux")]
fn host_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let reads = match value_of(args, "--reads")? {
        Some(n) => n.parse::<u32>()?,
        None => 64,
    };
    let period_us = match value_of(args, "--period-us")? {
        Some(n) => n.parse::<f64>()?,
        None => 100.0,
    };
    let report = plugvolt_hal::host::probe_poll_overhead(reads);
    print!("{}", report.render_text(period_us));
    Ok(())
}

/// Stub on non-Linux targets (the host backend is Linux-only).
#[cfg(not(target_os = "linux"))]
fn host_command(_args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    Err("--backend host requires Linux (/dev/cpu/*/msr + sysfs cpufreq)".into())
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
