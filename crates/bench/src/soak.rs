//! `plugvolt-fuzz`: the deterministic differential soak fuzzer behind
//! `plugvolt-cli soak`.
//!
//! The fixed experiment scenarios exercise hand-picked attack
//! schedules; published attacks (V0LTpwn in particular) show faults
//! cluster at adversarially-timed parameter edges those scenarios
//! never hit. This module closes the gap: it draws randomized
//! [`CampaignSchedule`]s from labelled [`Scenario`] seed streams, runs
//! each campaign *differentially* across four deployment levels
//! (`none`, `polling-module`, `microcode`, `hardware-msr`) and judges
//! three oracle invariants per campaign:
//!
//! 1. **zero-faults** — the synchronous clamp deployments (microcode,
//!    hardware MSR) admit no faults and no crashes, ever;
//! 2. **exposure** — the polling deployment's unsafe windows stay
//!    inside the characterized [`ExposureBound`]: configured-state
//!    dwell and telemetry detection latency within one period, rail
//!    overhang within the VR constants;
//! 3. **stream-equivalence** — the `none` and `polling` runs are
//!    RNG-stream-equivalent (identical per-step faults, offsets,
//!    frequencies and rng probes) up to the first intervention.
//!
//! A violation is delta-debugged ([`CampaignSchedule`]'s shrink hooks:
//! drop events, halve ramps, widen intervals) to a minimal reproducer
//! and serialized as a pinned-schema [`CorpusCase`] under
//! `results/fuzz-corpus/`; future runs replay the corpus first. The
//! self-test mode injects a deliberately weakened polling module (skip
//! every Nth poll) and asserts the exposure oracle catches and shrinks
//! it — exercising the gate itself on every CI run.
//!
//! Every verdict is a pure function of the scenario root seed, the
//! schedule and the weakening parameter: all machines boot from one
//! fixed label, so replay, shrinking and worker-count changes can
//! never flip an outcome (`soak` output is pinned byte-identical
//! across worker counts by `tests/determinism.rs`).

use crate::scenario::{run_cells, Scenario};
use plugvolt::charmap::CharacterizationMap;
use plugvolt::deploy::{deploy, Deployment};
use plugvolt::exposure::{ExposureAccountant, ExposureBound};
use plugvolt::poll::{PollConfig, PollStats, PollingModule};
use plugvolt::state::StateClass;
use plugvolt_attacks::campaign::is_crash;
use plugvolt_attacks::schedule::{AttackFamily, CampaignSchedule, ScheduleAction};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::{CpuModel, CpuSpec};
use plugvolt_cpu::package::PackageError;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_hal::trace::TraceRecorder;
use plugvolt_kernel::cpupower::CpuPower;
use plugvolt_kernel::machine::{KernelModule, Machine, MachineError, ModuleCtx};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_telemetry::{MetricKey, Sink, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Pinned schema version of [`CorpusCase`] files; bump on any breaking
/// change to the serialized shape.
pub const CORPUS_SCHEMA_VERSION: u32 = 1;

/// Sampling interval of the exposure watcher.
const SAMPLE: SimDuration = SimDuration::from_micros(10);

/// Events one level-run's telemetry ring holds. A polling run that
/// emits more is refused ([`SoakError::EventRingOverflow`]): oracle 3
/// reads its first detection back from the ring.
const EVENT_CAPACITY: usize = 1 << 16;

/// Machine-boot label every soak evaluation uses. One fixed label (not
/// per-campaign) keeps a schedule's verdict a pure function of the
/// root seed and the schedule, so shrink steps and corpus replay see
/// exactly the run that produced the violation.
const MACHINE_LABEL: &str = "soak/machine";

/// Soak-run parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// CPU model campaigns run against.
    pub model: CpuModel,
    /// Randomized campaigns to generate and run.
    pub campaigns: u32,
    /// Worker threads (output is worker-count independent).
    pub workers: usize,
    /// Whether to run the weakened-polling self-test.
    pub self_test: bool,
    /// Self-test weakening: the injected module skips every Nth poll.
    pub weaken_skip_every: u32,
    /// Shrink budget: maximum oracle evaluations per violation.
    pub shrink_budget: u32,
}

impl SoakConfig {
    /// The small fixed budget `ci.sh` runs on every commit.
    #[must_use]
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            model: CpuModel::CometLake,
            campaigns: 10,
            workers: 2,
            self_test: true,
            weaken_skip_every: 2,
            shrink_budget: 200,
        }
    }
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            campaigns: 40,
            ..SoakConfig::smoke()
        }
    }
}

/// A judged oracle invariant violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// Oracle 1: a synchronous clamp deployment admitted faults.
    ZeroFaults {
        /// Offending deployment label.
        deployment: String,
        /// Faulty computations observed.
        faults: u64,
        /// Machine crashes observed.
        crashes: u32,
    },
    /// Oracle 2: the polling deployment exceeded its exposure bound.
    Exposure {
        /// Which bounded quantity was exceeded.
        quantity: ExposureQuantity,
        /// Observed worst case, µs.
        observed_us: u64,
        /// Characterized bound, µs.
        allowed_us: u64,
    },
    /// Oracle 3: `none` and `polling` diverged before any intervention.
    StreamDivergence {
        /// First differing schedule step.
        step: usize,
    },
}

/// The bounded quantities of the exposure oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExposureQuantity {
    /// Unsafe configured-state dwell (write → restore write).
    ConfigDwell,
    /// Rail overhang past a safe configuration (VR latency + slew).
    RailOverhang,
    /// `poll/detection_latency_us` telemetry summary maximum.
    DetectionLatency,
}

impl Violation {
    /// Oracle index (matches [`TelemetryEvent::SoakOracle`]).
    #[must_use]
    pub fn oracle_index(&self) -> u8 {
        match self {
            Violation::ZeroFaults { .. } => 0,
            Violation::Exposure { .. } => 1,
            Violation::StreamDivergence { .. } => 2,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ZeroFaults {
                deployment,
                faults,
                crashes,
            } => write!(
                f,
                "zero-faults: {deployment} admitted {faults} faults, {crashes} crashes"
            ),
            Violation::Exposure {
                quantity,
                observed_us,
                allowed_us,
            } => write!(
                f,
                "exposure: {quantity:?} {observed_us} µs exceeds bound {allowed_us} µs"
            ),
            Violation::StreamDivergence { step } => {
                write!(f, "stream-divergence at schedule step {step}")
            }
        }
    }
}

/// A minimal reproducer: the pinned-schema JSON shape written under
/// `results/fuzz-corpus/` and replayed first by every future run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusCase {
    /// Schema version ([`CORPUS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Root seed of the run that recorded the case (provenance).
    pub seed: u64,
    /// CPU model the case reproduces on.
    pub model: CpuModel,
    /// Weakened-polling context (`Some(n)` = the self-test injection
    /// that skips every nth poll), or `None` for a genuine finding.
    pub weaken_skip_every: Option<u32>,
    /// Replay expectation: weakened (self-test) cases must still
    /// violate — pinning the oracle's sensitivity — while genuine
    /// findings must stop violating once fixed.
    pub expect_violation: bool,
    /// The violation observed when the case was recorded.
    pub violation: Violation,
    /// The shrunk schedule.
    pub schedule: CampaignSchedule,
}

/// One shrunk violation in a [`SoakReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShrunkViolation {
    /// Campaign index the violation surfaced in.
    pub campaign: u32,
    /// Attack family of the generating schedule.
    pub family: AttackFamily,
    /// The (re-judged) violation on the shrunk schedule.
    pub violation: Violation,
    /// Events in the original schedule.
    pub original_events: usize,
    /// Oracle evaluations the shrink spent.
    pub shrink_evals: u32,
    /// The minimal reproducer.
    pub reproducer: CampaignSchedule,
    /// Corpus file the reproducer was serialized to, if a corpus
    /// directory was given.
    pub corpus_file: Option<String>,
}

/// Outcome of the weakened-polling self-test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelfTestReport {
    /// The injected weakening (skip every Nth poll).
    pub skip_every: u32,
    /// Whether the oracle caught the weakening.
    pub caught: bool,
    /// Generated campaigns tried before one violated.
    pub attempts: u32,
    /// Events in the violating campaign before shrinking.
    pub original_events: usize,
    /// Events in the shrunk reproducer.
    pub shrunk_events: usize,
    /// Oracle evaluations the shrink spent.
    pub shrink_evals: u32,
    /// The violation the shrunk reproducer still triggers.
    pub violation: Option<Violation>,
    /// The minimal reproducer.
    pub reproducer: Option<CampaignSchedule>,
}

/// One corpus-replay mismatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusFailure {
    /// Corpus file name.
    pub file: String,
    /// What went wrong.
    pub detail: String,
}

/// The soak run's result: byte-deterministic for a fixed seed (worker
/// count never appears in it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakReport {
    /// Report schema version (shares [`CORPUS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario root seed.
    pub seed: u64,
    /// Model campaigns ran against.
    pub model: CpuModel,
    /// Randomized campaigns run.
    pub campaigns: u32,
    /// Campaign × deployment cells executed.
    pub cells: u32,
    /// Corpus cases replayed before fuzzing.
    pub corpus_replayed: u32,
    /// Replay mismatches (expected-pass case violated, or
    /// expected-violate case passed).
    pub corpus_failures: Vec<CorpusFailure>,
    /// Shrunk violations from the randomized campaigns.
    pub violations: Vec<ShrunkViolation>,
    /// Self-test outcome, when enabled.
    pub self_test: Option<SelfTestReport>,
}

impl SoakReport {
    /// Whether the run holds the gate: no genuine violations, no
    /// corpus drift, and (when enabled) the self-test caught its
    /// injected weakening.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.corpus_failures.is_empty()
            && self.self_test.as_ref().is_none_or(|s| s.caught)
    }

    /// Stable pretty JSON (the CLI's output format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }
}

/// Soak-engine errors (machine faults are bugs here, not campaign
/// outcomes — campaigns absorb crashes internally).
#[derive(Debug)]
pub enum SoakError {
    /// A simulated-machine operation failed outside a campaign crash.
    Machine(MachineError),
    /// Corpus directory I/O failed.
    Io(std::io::Error),
    /// The polling run emitted more events than its telemetry ring
    /// holds, so the first detection the stream-equivalence oracle cuts
    /// at may have been evicted.
    EventRingOverflow {
        /// Events the ring evicted.
        dropped: u64,
    },
}

impl fmt::Display for SoakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakError::Machine(e) => write!(f, "machine error: {e}"),
            SoakError::Io(e) => write!(f, "corpus i/o error: {e}"),
            SoakError::EventRingOverflow { dropped } => write!(
                f,
                "polling run overflowed its event ring ({dropped} events evicted); \
                 its first detection is unknown"
            ),
        }
    }
}

impl std::error::Error for SoakError {}

impl From<MachineError> for SoakError {
    fn from(e: MachineError) -> Self {
        SoakError::Machine(e)
    }
}

impl From<std::io::Error> for SoakError {
    fn from(e: std::io::Error) -> Self {
        SoakError::Io(e)
    }
}

/// The four deployment levels every campaign runs against, in judge
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    None,
    Polling,
    Microcode,
    Hardware,
}

pub(crate) const LEVELS: [Level; 4] = [
    Level::None,
    Level::Polling,
    Level::Microcode,
    Level::Hardware,
];

impl Level {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Level::None => "none",
            Level::Polling => "polling-module",
            Level::Microcode => "microcode",
            Level::Hardware => "hardware-msr",
        }
    }
}

/// Per-step outcome used by the stream-equivalence oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepRecord {
    at_us: u64,
    faults: u64,
    crashed: bool,
    offset_mv: i32,
    freq_mhz: u32,
    rng_probe: u64,
}

/// One campaign × deployment execution.
#[derive(Debug, Clone)]
pub(crate) struct RunRecord {
    level: Level,
    steps: Vec<StepRecord>,
    faults: u64,
    crashes: u32,
    first_detection: Option<SimTime>,
    detect_latency_max_us: Option<f64>,
    accountant: ExposureAccountant,
    bound: Option<ExposureBound>,
    /// Rendered telemetry profile, captured only on runs that asked
    /// for it (the differential record-vs-sim gate).
    pub(crate) profile_json: Option<String>,
    /// Final poll statistics of the polling level, same capture gate.
    pub(crate) poll_stats: Option<PollStats>,
}

/// A deliberately weakened polling module: delegates to the real
/// Algorithm-3 poller but silently skips every `skip_every`th tick
/// (still re-arming the timer). The self-test injects this and demands
/// the exposure oracle notices the doubled worst-case latency.
struct WeakenedPolling {
    inner: PollingModule,
    period: SimDuration,
    skip_every: u32,
    ticks: u32,
}

impl KernelModule for WeakenedPolling {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.inner.init(ctx)
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.ticks += 1;
        if self.skip_every > 1 && self.ticks % self.skip_every == 0 {
            return Some(self.period);
        }
        self.inner.on_timer(ctx)
    }

    fn exit(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.inner.exit(ctx);
    }
}

/// The polling configuration a campaign's `polling-module` level uses:
/// the schedule's fuzzed period, plane-aware (the single-read
/// Algorithm-3 mode is evadable by dual-plane campaigns — that
/// evasion is already documented by the plane ablation, so the soak
/// gate holds the *hardened* configuration to its bound).
fn poll_config_for(schedule: &CampaignSchedule) -> PollConfig {
    PollConfig {
        period: SimDuration::from_micros(schedule.poll_period_us),
        planes: vec![Plane::Core, Plane::Cache],
        ..PollConfig::default()
    }
}

/// Executes `schedule` on a freshly booted machine under one
/// deployment level, sampling exposure throughout.
fn run_level(
    scn: &Scenario,
    model: CpuModel,
    map: &Arc<CharacterizationMap>,
    schedule: &CampaignSchedule,
    level: Level,
    weaken: Option<u32>,
) -> Result<RunRecord, SoakError> {
    run_level_mode(scn, model, map, schedule, level, weaken, None, false).map(|(run, _)| run)
}

/// [`run_level`] with optional recording and profile/poll-stats
/// capture. With `rec`, the machine's backend appends every MSR access
/// to that transcript. The machine seed is the same either way (both
/// constructors derive it from [`MACHINE_LABEL`]), so recorded and
/// plain runs execute bit-identically — which is what the differential
/// record-vs-sim gate asserts. Returns the record together with the
/// module timer firings the machine actually ran
/// ([`Machine::timer_firings`]): a recorded run fires every tick, a
/// plain one folds quiet ticks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_level_mode(
    scn: &Scenario,
    model: CpuModel,
    map: &Arc<CharacterizationMap>,
    schedule: &CampaignSchedule,
    level: Level,
    weaken: Option<u32>,
    rec: Option<&TraceRecorder>,
    capture: bool,
) -> Result<(RunRecord, u64), SoakError> {
    let mut machine = match rec {
        None => scn.machine_for(model, MACHINE_LABEL),
        Some(rec) => scn.machine_recording(model, MACHINE_LABEL, rec),
    };
    let sink = Sink::with_event_capacity(EVENT_CAPACITY);
    // Campaign machines trace spans exactly when the scenario sink does
    // (e.g. under `plugvolt-cli soak --stream`); the aggregates merge
    // back into it below.
    sink.tracer()
        .set_enabled(scn.telemetry().is_some_and(|s| s.tracer().is_enabled()));
    machine.set_telemetry(sink.clone());
    let mut stats_handle = None;
    let bound = match level {
        Level::None => None,
        Level::Polling => {
            let cfg = poll_config_for(schedule);
            let bound = ExposureBound::for_polling(&cfg);
            let (module, stats) = PollingModule::new(Arc::clone(map), cfg.clone());
            stats_handle = Some(stats);
            match weaken {
                Some(n) if n > 1 => machine.load_module(Box::new(WeakenedPolling {
                    inner: module,
                    period: cfg.period,
                    skip_every: n,
                    ticks: 0,
                }))?,
                _ => machine.load_module(Box::new(module))?,
            }
            Some(bound)
        }
        Level::Microcode => {
            deploy(
                &mut machine,
                map,
                Deployment::Microcode {
                    revision: 0xf5,
                    margin_mv: 5,
                },
            )?;
            Some(ExposureBound {
                detection: SimDuration::ZERO,
                recovery: SimDuration::ZERO,
            })
        }
        Level::Hardware => {
            deploy(&mut machine, map, Deployment::HardwareMsr { margin_mv: 5 })?;
            Some(ExposureBound {
                detection: SimDuration::ZERO,
                recovery: SimDuration::ZERO,
            })
        }
    };

    let dev = MsrDev::open(&machine, CoreId(0))?;
    let mut cpupower = CpuPower::new(&machine);
    let mut acct = ExposureAccountant::new();
    let mut steps = Vec::with_capacity(schedule.events.len());
    let mut faults = 0u64;
    let mut crashes = 0u32;
    let t0 = machine.now();

    for ev in &schedule.events {
        let target = t0 + SimDuration::from_micros(ev.at_us);
        advance_sampling(&mut machine, map, &mut acct, target);
        let mut step_faults = 0u64;
        let mut crashed = false;
        match ev.action {
            ScheduleAction::OffsetWrite { plane, offset_mv } => {
                let req = OcRequest::write_offset(offset_mv, plane.plane()).encode();
                match dev.write(&mut machine, Msr::OC_MAILBOX, req) {
                    Ok(_) => {}
                    Err(e) if is_crash(&e) => crashed = true,
                    Err(e) => return Err(e.into()),
                }
            }
            ScheduleAction::SetFrequency { mhz } => {
                match cpupower.frequency_set(&mut machine, CoreId(0), FreqMhz(mhz)) {
                    Ok(_) => {}
                    Err(e) if is_crash(&e) => crashed = true,
                    Err(e) => return Err(e.into()),
                }
            }
            ScheduleAction::VictimBurst { class, ops } => {
                let now = machine.now();
                match machine
                    .cpu_mut()
                    .run_batch(now, CoreId(0), class.instr_class(), ops)
                {
                    Ok(f) => step_faults = f,
                    Err(PackageError::Crashed) => crashed = true,
                    Err(e) => return Err(MachineError::Package(e).into()),
                }
            }
        }
        if crashed {
            crashes += 1;
            let now = machine.now();
            machine.cpu_mut().reset(now);
        }
        faults += step_faults;
        sample(&mut machine, map, &mut acct);
        let freq_mhz = machine
            .cpu()
            .core_freq(CoreId(0))
            .map_or(0, |f: FreqMhz| f.mhz());
        steps.push(StepRecord {
            at_us: ev.at_us,
            faults: step_faults,
            crashed,
            offset_mv: machine.cpu().core_offset_mv(),
            freq_mhz,
            rng_probe: machine.rng().next_u64(),
        });
    }

    // Tail: give the countermeasure two periods plus the VR constants
    // to finish any in-flight restore before judging exposure.
    let tail = SimDuration::from_micros(2 * schedule.poll_period_us)
        + plugvolt_cpu::package::MAILBOX_SETTLE
        + SimDuration::from_millis(1);
    let end = machine.now() + tail;
    advance_sampling(&mut machine, map, &mut acct, end);
    acct.finish(machine.now());

    let dropped = sink.with(|reg| reg.events_dropped());
    if level == Level::Polling && dropped > 0 {
        return Err(SoakError::EventRingOverflow { dropped });
    }
    let first_detection = sink.with(|reg| {
        reg.events()
            .find(|e| matches!(e.event, TelemetryEvent::Detection { .. }))
            .map(|e| e.at)
    });
    let detect_latency_max_us = sink.with(|reg| {
        let cores = machine.cpu().core_count();
        (0..cores)
            .filter_map(|c| {
                reg.summary(&MetricKey::per_core(
                    "poll",
                    "detection_latency_us",
                    c as u32,
                ))
                .and_then(plugvolt_des::stats::Summary::max)
            })
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    });

    // A scenario sink watches campaign machines too: the local sink's
    // span aggregates (non-empty only when the scenario sink's tracer
    // is enabled) merge into the scenario tracer in judge order —
    // deterministic, because an attached sink forces the sequential
    // campaign path.
    if let Some(scn_sink) = scn.telemetry() {
        let spans = sink.tracer().snapshot();
        if !spans.is_empty() {
            scn_sink.tracer().absorb(&spans);
        }
    }

    let (profile_json, poll_stats) = if capture {
        machine.publish_telemetry();
        let profile = sink.profile(level.label()).to_json();
        let stats = stats_handle.as_ref().map(|h| h.borrow().clone());
        (Some(profile), stats)
    } else {
        (None, None)
    };

    let run = RunRecord {
        level,
        steps,
        faults,
        crashes,
        first_detection,
        detect_latency_max_us,
        accountant: acct,
        bound,
        profile_json,
        poll_stats,
    };
    Ok((run, machine.timer_firings()))
}

/// Advances the machine to `until`, recording rail/config exposure
/// samples on the [`SAMPLE`] grid (`start + k·SAMPLE`, then `until`).
///
/// What [`sample`] reads (core frequency, core-offset register, core
/// rail) changes only when a module timer changes the package or the
/// core VR moves the rail, so in between every grid sample repeats the
/// one before.
/// [`ExposureAccountant::record`] telescopes over such a run (unsafe
/// time sums consecutive deltas; episodes and dwells open at its first
/// sample and close at the first differing one), so after each sample
/// the loop jumps to the run's last grid instant ([`quiet_end`]) and
/// samples once there, bit-identical to sampling every step.
fn advance_sampling(
    machine: &mut Machine,
    map: &CharacterizationMap,
    acct: &mut ExposureAccountant,
    until: SimTime,
) {
    while machine.now() < until {
        let left = until.saturating_duration_since(machine.now());
        machine.advance(left.min(SAMPLE));
        sample(machine, map, acct);
        let last = quiet_end(machine, until);
        if last > machine.now() {
            machine.advance_to(last);
            sample(machine, map, acct);
        }
    }
}

/// The last sample instant, up to `until`, whose sample must equal the
/// one just taken: the last grid instant `now + k·SAMPLE` before a
/// module timer can change the package ([`Machine::next_change_at`]:
/// quiet poll ticks the machine folds change nothing) or before the
/// core rail leaves its hold, or `until` itself if neither comes first.
fn quiet_end(machine: &Machine, until: SimTime) -> SimTime {
    let now = machine.now();
    let rail_moves = machine
        .cpu()
        .core_rail_holds_until(now)
        .map(|t| t + SimDuration::from_picos(1));
    match machine.next_change_at().into_iter().chain(rail_moves).min() {
        Some(quiet) if quiet <= until => {
            let steps = (quiet - now).as_picos().saturating_sub(1) / SAMPLE.as_picos();
            now + SimDuration::from_picos(steps * SAMPLE.as_picos())
        }
        _ => until,
    }
}

/// Takes one exposure sample: classifies the analog rail and the
/// configured offset register at the instantaneous frequency.
fn sample(machine: &mut Machine, map: &CharacterizationMap, acct: &mut ExposureAccountant) {
    let now = machine.now();
    let cpu = machine.cpu();
    let Ok(f) = cpu.core_freq(CoreId(0)) else {
        return;
    };
    let effective = cpu.spec().nominal_voltage_mv(f) - cpu.core_voltage_mv(now);
    #[allow(clippy::cast_possible_truncation)]
    let rail_unsafe =
        effective > 2.0 && map.classify(f, -(effective.ceil() as i32)) != StateClass::Safe;
    let config_unsafe = map.classify(f, cpu.core_offset_mv()) != StateClass::Safe;
    acct.record(now, rail_unsafe, config_unsafe);
}

/// Runs one campaign across all four levels and judges the oracles.
/// Returns the first violation, if any.
fn judge_campaign(
    scn: &Scenario,
    model: CpuModel,
    map: &Arc<CharacterizationMap>,
    schedule: &CampaignSchedule,
    weaken: Option<u32>,
) -> Result<Option<Violation>, SoakError> {
    let mut runs = Vec::with_capacity(LEVELS.len());
    for level in LEVELS {
        runs.push(run_level(scn, model, map, schedule, level, weaken)?);
    }
    Ok(judge(&runs))
}

/// The three oracles, in severity order.
pub(crate) fn judge(runs: &[RunRecord]) -> Option<Violation> {
    // Oracle 1: the synchronous clamps admit nothing, ever.
    for run in runs {
        if matches!(run.level, Level::Microcode | Level::Hardware)
            && (run.faults > 0 || run.crashes > 0)
        {
            return Some(Violation::ZeroFaults {
                deployment: run.level.label().to_owned(),
                faults: run.faults,
                crashes: run.crashes,
            });
        }
    }
    // Oracle 2: polling exposure within the characterized bound.
    let polling = runs.iter().find(|r| r.level == Level::Polling)?;
    if let Some(bound) = &polling.bound {
        let us = |d: SimDuration| (d.as_picos() / 1_000_000) as u64;
        if let Some((observed, allowed)) = polling.accountant.violates(bound) {
            let quantity = if observed == polling.accountant.worst_config_dwell() {
                ExposureQuantity::ConfigDwell
            } else {
                ExposureQuantity::RailOverhang
            };
            return Some(Violation::Exposure {
                quantity,
                observed_us: us(observed),
                allowed_us: us(allowed),
            });
        }
        let allowed_us = bound.detection.as_picos() as f64 / 1e6;
        if let Some(latency) = polling.detect_latency_max_us {
            if latency > allowed_us {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                return Some(Violation::Exposure {
                    quantity: ExposureQuantity::DetectionLatency,
                    observed_us: latency.ceil() as u64,
                    allowed_us: allowed_us.ceil() as u64,
                });
            }
        }
    }
    // Oracle 3: none vs polling stream-equivalent up to the first
    // intervention.
    let none = runs.iter().find(|r| r.level == Level::None)?;
    let cutoff = polling.first_detection;
    for (i, (a, b)) in none.steps.iter().zip(&polling.steps).enumerate() {
        if let Some(cut) = cutoff {
            let at = SimTime::ZERO + SimDuration::from_micros(a.at_us);
            if at >= cut {
                break;
            }
        }
        if a != b {
            return Some(Violation::StreamDivergence { step: i });
        }
    }
    None
}

/// Delta-debugs `schedule` to a minimal schedule that still violates:
/// greedy event drops to a fixpoint, then ramp halving, then interval
/// widening. Deterministic; spends at most `budget` oracle
/// evaluations. Returns the shrunk schedule, its violation, and the
/// evaluations spent.
fn shrink(
    scn: &Scenario,
    model: CpuModel,
    map: &Arc<CharacterizationMap>,
    schedule: &CampaignSchedule,
    initial: Violation,
    weaken: Option<u32>,
    budget: u32,
) -> Result<(CampaignSchedule, Violation, u32), SoakError> {
    let mut cur = schedule.clone();
    let mut cur_v = initial;
    let mut evals = 0u32;
    let try_step =
        |cand: &CampaignSchedule, evals: &mut u32| -> Result<Option<Violation>, SoakError> {
            *evals += 1;
            judge_campaign(scn, model, map, cand, weaken)
        };
    // Pass 1: drop events until no single drop preserves the violation.
    'drops: while evals < budget {
        for i in 0..cur.len() {
            if evals >= budget {
                break 'drops;
            }
            let cand = cur.without_event(i);
            if let Some(v) = try_step(&cand, &mut evals)? {
                cur = cand;
                cur_v = v;
                continue 'drops;
            }
        }
        break;
    }
    // Pass 2: halve ramps while the violation survives.
    let base_mhz = model.spec().freq_table.min().mhz();
    for _ in 0..4 {
        if evals >= budget {
            break;
        }
        let cand = cur.with_halved_ramps(base_mhz);
        if cand == cur {
            break;
        }
        match try_step(&cand, &mut evals)? {
            Some(v) => {
                cur = cand;
                cur_v = v;
            }
            None => break,
        }
    }
    // Pass 3: widen event intervals onto a coarse grid.
    if evals < budget {
        let cand = cur.with_widened_intervals(500);
        if cand != cur {
            if let Some(v) = try_step(&cand, &mut evals)? {
                cur = cand;
                cur_v = v;
            }
        }
    }
    Ok((cur, cur_v, evals))
}

/// FNV-1a over the canonical JSON: the stable corpus filename digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The corpus filename for a case.
#[must_use]
pub fn corpus_file_name(case: &CorpusCase) -> String {
    let canonical = serde_json::to_string(case).expect("case serializes");
    format!(
        "{}-{:016x}.json",
        case.schedule.family.label(),
        fnv1a(canonical.as_bytes())
    )
}

/// Replays every corpus case (sorted by filename) and checks its
/// recorded expectation still holds.
fn replay_corpus(
    scn: &Scenario,
    model: CpuModel,
    map: &Arc<CharacterizationMap>,
    dir: &Path,
) -> Result<(u32, Vec<CorpusFailure>), SoakError> {
    let mut files: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        // No corpus yet: nothing to replay.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    files.sort();
    let mut failures = Vec::new();
    let mut replayed = 0u32;
    for path in files {
        let name = path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let fail = |detail: String| CorpusFailure {
            file: name.clone(),
            detail,
        };
        let text = std::fs::read_to_string(&path)?;
        let case: CorpusCase = match serde_json::from_str(&text) {
            Ok(c) => c,
            Err(e) => {
                failures.push(fail(format!("unparseable case: {e}")));
                continue;
            }
        };
        if case.schema_version != CORPUS_SCHEMA_VERSION {
            failures.push(fail(format!(
                "schema v{} (this build replays v{CORPUS_SCHEMA_VERSION})",
                case.schema_version
            )));
            continue;
        }
        replayed += 1;
        let got = judge_campaign(scn, model, map, &case.schedule, case.weaken_skip_every)?;
        match (case.expect_violation, got) {
            (true, None) => failures.push(fail(
                "expected the oracle to still catch this weakened reproducer; it passed".into(),
            )),
            (false, Some(v)) => failures.push(fail(format!(
                "previously fixed reproducer violates again: {v}"
            ))),
            _ => {}
        }
    }
    Ok((replayed, failures))
}

/// Campaign `i` of a soak on `scn`: the attack families in turn, each
/// schedule drawn from its own labelled stream.
fn campaign_schedule(scn: &Scenario, spec: &CpuSpec, i: u32) -> CampaignSchedule {
    let family = AttackFamily::ALL[i as usize % AttackFamily::ALL.len()];
    let mut rng = scn.rng(&format!("soak/campaign{i}/schedule"));
    CampaignSchedule::generate(family, spec, &mut rng)
}

/// Runs the full soak: corpus replay, randomized differential
/// campaigns (parallel, worker-count independent), the self-test, and
/// corpus serialization of anything shrunk.
///
/// A telemetry sink on `scn` receives per-campaign
/// [`TelemetryEvent::SoakCampaign`]/[`TelemetryEvent::SoakOracle`]
/// events and campaign progress counters (`soak/campaigns`,
/// `soak/cells`, `soak/violations`), and forces the sequential path
/// (the sink is single-threaded). A stream on `scn`
/// ([`Scenario::with_stream`]) advances one simulated millisecond per
/// campaign.
///
/// # Errors
///
/// Machine errors outside campaign crashes, and corpus I/O errors.
pub fn run_soak(
    scn: &Scenario,
    cfg: &SoakConfig,
    corpus_dir: Option<&Path>,
) -> Result<SoakReport, SoakError> {
    let map = scn.quick_map(cfg.model);
    let spec = cfg.model.spec();

    // Stage 1: replay the pinned corpus first.
    let (corpus_replayed, corpus_failures) = match corpus_dir {
        Some(dir) => replay_corpus(scn, cfg.model, &map, dir)?,
        None => (0, Vec::new()),
    };

    // Stage 2: generate this run's campaigns from labelled streams
    // (generation stays on the caller thread: schedules must not
    // depend on worker claiming order).
    let schedules: Vec<CampaignSchedule> = (0..cfg.campaigns)
        .map(|i| campaign_schedule(scn, &spec, i))
        .collect();

    // Stage 3: run them differentially, shrink any violation.
    let campaign = |scn: &Scenario, i: usize| -> Result<Option<ShrunkViolation>, SoakError> {
        let schedule = &schedules[i];
        if let Some(sink) = scn.telemetry() {
            let at = SimTime::ZERO + SimDuration::from_micros(i as u64);
            sink.emit(
                at,
                TelemetryEvent::SoakCampaign {
                    campaign: i as u64,
                    family: AttackFamily::ALL
                        .iter()
                        .position(|f| *f == schedule.family)
                        .unwrap_or(0) as u8,
                    events: schedule.len() as u32,
                },
            );
        }
        let violation = judge_campaign(scn, cfg.model, &map, schedule, None)?;
        if let Some(sink) = scn.telemetry() {
            let at = SimTime::ZERO + SimDuration::from_micros(i as u64);
            let (oracle, ok) = violation
                .as_ref()
                .map_or((0, true), |v| (v.oracle_index(), false));
            sink.emit(
                at,
                TelemetryEvent::SoakOracle {
                    campaign: i as u64,
                    oracle,
                    ok,
                },
            );
            sink.add(MetricKey::global("soak", "campaigns"), 1);
            sink.add(MetricKey::global("soak", "cells"), LEVELS.len() as u64);
            if violation.is_some() {
                sink.add(MetricKey::global("soak", "violations"), 1);
            }
        }
        let Some(v) = violation else { return Ok(None) };
        let (reproducer, violation, shrink_evals) =
            shrink(scn, cfg.model, &map, schedule, v, None, cfg.shrink_budget)?;
        Ok(Some(ShrunkViolation {
            campaign: i as u32,
            family: schedule.family,
            violation,
            original_events: schedule.len(),
            shrink_evals,
            reproducer,
            corpus_file: None,
        }))
    };
    let outcomes = run_cells(scn, cfg.workers, schedules.len(), |scn, i| {
        let outcome = campaign(scn, i)?;
        scn.advance_stream(SimDuration::from_millis(1));
        Ok::<_, SoakError>(outcome)
    })?;
    let mut violations: Vec<ShrunkViolation> = outcomes.into_iter().flatten().collect();

    // Stage 4: the self-test — inject the weakened poller and demand
    // the exposure oracle catches and shrinks it.
    let self_test = if cfg.self_test {
        Some(run_self_test(scn, cfg, &map)?)
    } else {
        None
    };

    // Stage 5: serialize reproducers into the corpus.
    if let Some(dir) = corpus_dir {
        let mut cases: Vec<(Option<usize>, CorpusCase)> = Vec::new();
        for (vi, v) in violations.iter().enumerate() {
            cases.push((
                Some(vi),
                CorpusCase {
                    schema_version: CORPUS_SCHEMA_VERSION,
                    seed: scn.root_seed(),
                    model: cfg.model,
                    weaken_skip_every: None,
                    expect_violation: false,
                    violation: v.violation.clone(),
                    schedule: v.reproducer.clone(),
                },
            ));
        }
        if let Some(st) = &self_test {
            if let (true, Some(repro), Some(v)) = (st.caught, &st.reproducer, &st.violation) {
                cases.push((
                    None,
                    CorpusCase {
                        schema_version: CORPUS_SCHEMA_VERSION,
                        seed: scn.root_seed(),
                        model: cfg.model,
                        weaken_skip_every: Some(st.skip_every),
                        expect_violation: true,
                        violation: v.clone(),
                        schedule: repro.clone(),
                    },
                ));
            }
        }
        if !cases.is_empty() {
            std::fs::create_dir_all(dir)?;
            for (vi, case) in cases {
                let name = corpus_file_name(&case);
                let path = dir.join(&name);
                if !path.exists() {
                    let mut json = serde_json::to_string_pretty(&case).expect("case serializes");
                    json.push('\n');
                    std::fs::write(&path, json)?;
                }
                if let Some(vi) = vi {
                    violations[vi].corpus_file = Some(name);
                }
            }
        }
    }

    Ok(SoakReport {
        schema_version: CORPUS_SCHEMA_VERSION,
        seed: scn.root_seed(),
        model: cfg.model,
        campaigns: cfg.campaigns,
        cells: cfg.campaigns * LEVELS.len() as u32,
        corpus_replayed,
        corpus_failures,
        violations,
        self_test,
    })
}

/// Self-test poll period: slow enough that a skipped tick pushes the
/// worst-case latency far past the bound's slop.
const SELF_TEST_PERIOD_US: u64 = 400;

/// Generates campaigns until one violates under the weakened poller,
/// then shrinks it.
fn run_self_test(
    scn: &Scenario,
    cfg: &SoakConfig,
    map: &Arc<CharacterizationMap>,
) -> Result<SelfTestReport, SoakError> {
    let spec = cfg.model.spec();
    let weaken = Some(cfg.weaken_skip_every);
    let mut attempts = 0u32;
    for k in 0..8u32 {
        let family = AttackFamily::ALL[k as usize % AttackFamily::ALL.len()];
        let mut rng = scn.rng(&format!("soak/self-test/{k}"));
        let mut schedule = CampaignSchedule::generate(family, &spec, &mut rng);
        schedule.poll_period_us = SELF_TEST_PERIOD_US;
        attempts += 1;
        if let Some(v) = judge_campaign(scn, cfg.model, map, &schedule, weaken)? {
            let (reproducer, violation, shrink_evals) =
                shrink(scn, cfg.model, map, &schedule, v, weaken, cfg.shrink_budget)?;
            return Ok(SelfTestReport {
                skip_every: cfg.weaken_skip_every,
                caught: true,
                attempts,
                original_events: schedule.len(),
                shrunk_events: reproducer.len(),
                shrink_evals,
                violation: Some(violation),
                reproducer: Some(reproducer),
            });
        }
    }
    Ok(SelfTestReport {
        skip_every: cfg.weaken_skip_every,
        caught: false,
        attempts,
        original_events: 0,
        shrunk_events: 0,
        shrink_evals: 0,
        violation: None,
        reproducer: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(campaigns: u32, self_test: bool) -> SoakConfig {
        SoakConfig {
            model: CpuModel::CometLake,
            campaigns,
            workers: 1,
            self_test,
            weaken_skip_every: 2,
            shrink_budget: 200,
        }
    }

    #[test]
    fn sound_deployments_hold_all_oracles() {
        let scn = Scenario::new();
        let report = run_soak(&scn, &quick_cfg(5, false), None).expect("runs");
        assert!(
            report.violations.is_empty(),
            "unexpected violations: {:?}",
            report.violations
        );
        assert!(report.passed());
        assert_eq!(report.cells, 20);
    }

    #[test]
    fn self_test_catches_and_shrinks_the_weakened_poller() {
        let scn = Scenario::new();
        let report = run_soak(&scn, &quick_cfg(0, true), None).expect("runs");
        let st = report.self_test.as_ref().expect("self-test ran");
        assert!(st.caught, "oracle missed the weakened poller");
        assert!(
            st.shrunk_events <= 8,
            "reproducer has {} events (> 8): {:?}",
            st.shrunk_events,
            st.reproducer
        );
        assert!(st.shrunk_events >= 1);
        assert!(
            matches!(st.violation, Some(Violation::Exposure { .. })),
            "expected an exposure violation, got {:?}",
            st.violation
        );
        // A weakened-poller reproducer must *pass* when the real,
        // unweakened module runs.
        let repro = st.reproducer.clone().expect("reproducer");
        let map = scn.quick_map(CpuModel::CometLake);
        let healthy =
            judge_campaign(&scn, CpuModel::CometLake, &map, &repro, None).expect("judges");
        assert!(healthy.is_none(), "healthy poller violates: {healthy:?}");
    }

    #[test]
    fn corpus_roundtrip_and_replay() {
        let scn = Scenario::new();
        let dir = std::env::temp_dir().join(format!(
            "plugvolt-soak-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_soak(&scn, &quick_cfg(0, true), Some(&dir)).expect("runs");
        assert!(report.passed());
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus dir exists")
            .filter_map(Result::ok)
            .collect();
        assert_eq!(files.len(), 1, "one self-test reproducer serialized");
        // Second run replays the corpus and the expectation holds.
        let again = run_soak(&scn, &quick_cfg(0, false), Some(&dir)).expect("runs");
        assert_eq!(again.corpus_replayed, 1);
        assert!(
            again.corpus_failures.is_empty(),
            "{:?}",
            again.corpus_failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every level-run's record over 3 seeds × 10 campaigns (odd ones at
    /// the self-test period) × 4 levels, polling both healthy and
    /// skipping every 3rd poll; recorded with the per-step sampler.
    #[test]
    fn run_records_are_pinned() {
        let model = CpuModel::CometLake;
        let spec = model.spec();
        let mut text = String::new();
        for seed in 0..3u64 {
            let scn = Scenario::with_seed(seed);
            let map = scn.quick_map(model);
            for c in 0..10usize {
                let family = AttackFamily::ALL[c % AttackFamily::ALL.len()];
                let mut rng = scn.rng(&format!("soak/pin/{c}"));
                let mut schedule = CampaignSchedule::generate(family, &spec, &mut rng);
                if c % 2 == 1 {
                    schedule.poll_period_us = SELF_TEST_PERIOD_US;
                }
                for (level, weaken) in [
                    (Level::None, None),
                    (Level::Polling, None),
                    (Level::Polling, Some(3)),
                    (Level::Microcode, None),
                    (Level::Hardware, None),
                ] {
                    let run = run_level(&scn, model, &map, &schedule, level, weaken).expect("runs");
                    text.push_str(&format!("{run:?}\n"));
                }
            }
        }
        assert_eq!(
            fnv1a(text.as_bytes()),
            0x2cc4_9aa4_d6ed_20d6,
            "run records drifted"
        );
    }

    /// Folding quiet poll ticks is invisible in a campaign's record: at
    /// the default campaign count on two seeds, every polling level-run
    /// equals the one of a twin whose poller fires every tick (a
    /// weakened poller that never skips never reports a quiet tick),
    /// telemetry profile and poll statistics included.
    #[test]
    fn folded_polling_runs_equal_firing_every_tick() {
        let model = CpuModel::CometLake;
        let spec = model.spec();
        let (mut folded_firings, mut every_firings) = (0, 0);
        for seed in [1, 2] {
            let scn = Scenario::with_seed(seed);
            let map = scn.quick_map(model);
            for i in 0..SoakConfig::default().campaigns {
                let schedule = campaign_schedule(&scn, &spec, i);
                let run = |weaken| {
                    run_level_mode(
                        &scn,
                        model,
                        &map,
                        &schedule,
                        Level::Polling,
                        weaken,
                        None,
                        true,
                    )
                    .expect("runs")
                };
                let (folded, firings) = run(None);
                let (every, every_tick) = run(Some(u32::MAX));
                assert_eq!(
                    format!("{folded:?}"),
                    format!("{every:?}"),
                    "seed {seed}, campaign {i}"
                );
                let ticks = every.poll_stats.as_ref().map(|s| s.ticks);
                assert_eq!(Some(every_tick), ticks, "the twin fires every tick");
                folded_firings += firings;
                every_firings += every_tick;
            }
        }
        assert!(
            folded_firings < every_firings,
            "the fold ran {folded_firings} of {every_firings} ticks"
        );
    }

    #[test]
    fn a_wrapped_event_ring_is_an_error_not_a_verdict() {
        use plugvolt_attacks::schedule::{PlaneSel, ScheduleEvent};
        // Each accepted mailbox write emits an `OcMailbox` and two
        // `VrSlew` events, so this overflows the ring many times over.
        let events = (0..=EVENT_CAPACITY as u64)
            .map(|i| ScheduleEvent {
                at_us: i,
                action: ScheduleAction::OffsetWrite {
                    plane: PlaneSel::Core,
                    offset_mv: if i % 2 == 0 { -20 } else { 0 },
                },
            })
            .collect();
        let schedule = CampaignSchedule {
            family: AttackFamily::ALL[0],
            poll_period_us: SELF_TEST_PERIOD_US,
            events,
        };
        let scn = Scenario::new();
        let model = CpuModel::CometLake;
        let map = scn.quick_map(model);
        // Only the polling run's ring feeds an oracle; the others may wrap.
        assert!(run_level(&scn, model, &map, &schedule, Level::None, None).is_ok());
        let got = run_level(&scn, model, &map, &schedule, Level::Polling, None);
        assert!(
            matches!(got, Err(SoakError::EventRingOverflow { dropped }) if dropped > 0),
            "{got:?}"
        );
    }

    #[test]
    fn report_json_is_stable() {
        let scn = Scenario::new();
        let a = run_soak(&scn, &quick_cfg(3, false), None).expect("runs");
        let b = run_soak(&scn, &quick_cfg(3, false), None).expect("runs");
        assert_eq!(a.to_json(), b.to_json());
    }
}
