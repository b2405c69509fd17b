//! The MSR-transcript gate: record a soak campaign's MSR traffic to a
//! pinned-schema JSONL fixture, and check a committed fixture by
//! recording its campaign again.
//!
//! [`record_fixture`] runs one deterministic campaign (drawn from the
//! scenario's `trace/fixture/schedule` stream) across all four
//! deployment levels on a machine with a tape attached, one transcript
//! section per level, and returns the JSONL plus the captured telemetry
//! profile and poll stats of each level.
//!
//! [`replay_trace`] is self-contained: it reads the model and root
//! seed from the transcript header, records the same campaign again,
//! and compares each section of the new transcript with the committed
//! one, position by position. The gate then holds three things at
//! once:
//!
//! 1. **tape-clean** — every section matches with zero divergences, no
//!    overrun and no leftover tape;
//! 2. **oracle-pass** — the re-recorded runs still hold all three soak
//!    oracles (zero-faults, exposure, stream-equivalence);
//! 3. **sim-differential** — a plain sim run of the same campaign
//!    produces byte-identical telemetry profiles and poll stats.
//!
//! `ci.sh` replays the committed fixture under `results/traces/` on
//! every commit; `tests/determinism.rs` pins the record→replay loop.

use crate::scenario::Scenario;
use crate::soak::{judge, run_level_mode, RunRecord, SoakError, Violation, LEVELS};
use plugvolt::poll::PollStats;
use plugvolt_attacks::schedule::{AttackFamily, CampaignSchedule};
use plugvolt_cpu::model::CpuModel;
use plugvolt_hal::error::HalError;
use plugvolt_hal::trace::{
    compare_events, parse_trace, TapeDiff, TraceHeader, TraceRecorder, TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
};
use std::fmt;

/// Campaign label of the fixture (also the transcript header label).
pub const FIXTURE_LABEL: &str = "trace/fixture";

/// Errors of the record/replay gate.
#[derive(Debug)]
pub enum TraceGateError {
    /// Transcript serialization/parsing failed.
    Hal(HalError),
    /// The underlying campaign execution failed.
    Soak(SoakError),
    /// The transcript's sections do not line up with the deployment
    /// levels this build runs.
    SectionMismatch {
        /// What the replayer expected (a level label).
        expected: String,
        /// What the transcript had.
        got: String,
    },
    /// Recording refused to ship a fixture that violates the oracles.
    RecordedViolation(Violation),
}

impl fmt::Display for TraceGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceGateError::Hal(e) => write!(f, "{e}"),
            TraceGateError::Soak(e) => write!(f, "{e}"),
            TraceGateError::SectionMismatch { expected, got } => {
                write!(
                    f,
                    "transcript section mismatch: expected '{expected}', got '{got}'"
                )
            }
            TraceGateError::RecordedViolation(v) => {
                write!(f, "fixture campaign violates an oracle at record time: {v}")
            }
        }
    }
}

impl std::error::Error for TraceGateError {}

impl From<HalError> for TraceGateError {
    fn from(e: HalError) -> Self {
        TraceGateError::Hal(e)
    }
}

impl From<SoakError> for TraceGateError {
    fn from(e: SoakError) -> Self {
        TraceGateError::Soak(e)
    }
}

/// The deterministic fixture campaign: first attack family, drawn from
/// the scenario's `trace/fixture/schedule` stream, with a 300 µs poll
/// period to bound transcript size.
#[must_use]
pub fn fixture_schedule(scn: &Scenario, model: CpuModel) -> CampaignSchedule {
    let spec = model.spec();
    let mut rng = scn.rng("trace/fixture/schedule");
    let mut schedule = CampaignSchedule::generate(AttackFamily::ALL[0], &spec, &mut rng);
    schedule.poll_period_us = 300;
    schedule
}

/// Captured observables of one deployment level, used for the
/// byte-identity comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCapture {
    /// Deployment-level label (also the transcript section name).
    pub level: &'static str,
    /// Rendered telemetry profile JSON.
    pub profile_json: String,
    /// Final poll stats (polling level only).
    pub poll_stats: Option<PollStats>,
}

/// What [`record_fixture`] produced.
#[derive(Debug, Clone)]
pub struct RecordedFixture {
    /// The JSONL transcript (header, one section per level).
    pub jsonl: String,
    /// Per-level captures of the recorded runs.
    pub captures: Vec<LevelCapture>,
}

/// Records the fixture campaign across all four deployment levels onto
/// one transcript. Refuses to ship a fixture whose campaign violates
/// an oracle (a broken fixture would wedge the CI gate).
///
/// # Errors
///
/// Campaign failures, serialization failures, or a recorded oracle
/// violation.
pub fn record_fixture(scn: &Scenario, model: CpuModel) -> Result<RecordedFixture, TraceGateError> {
    let rec = TraceRecorder::new(TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        version: TRACE_SCHEMA_VERSION,
        model,
        root_seed: scn.root_seed(),
        label: FIXTURE_LABEL.to_string(),
    });
    let runs = run_levels(scn, model, Some(&rec))?;
    if let Some(v) = judge(&runs) {
        return Err(TraceGateError::RecordedViolation(v));
    }
    Ok(RecordedFixture {
        jsonl: rec.to_jsonl()?,
        captures: captures_of(&runs),
    })
}

/// Runs the fixture campaign once per deployment level, capturing the
/// observables; with `rec`, each level records into its own section.
fn run_levels(
    scn: &Scenario,
    model: CpuModel,
    rec: Option<&TraceRecorder>,
) -> Result<Vec<RunRecord>, SoakError> {
    let map = scn.quick_map(model);
    let schedule = fixture_schedule(scn, model);
    LEVELS
        .into_iter()
        .map(|level| {
            if let Some(rec) = rec {
                rec.begin_section(level.label());
            }
            run_level_mode(scn, model, &map, &schedule, level, None, rec, true).map(|(run, _)| run)
        })
        .collect()
}

fn captures_of(runs: &[RunRecord]) -> Vec<LevelCapture> {
    LEVELS
        .into_iter()
        .zip(runs)
        .map(|(level, run)| LevelCapture {
            level: level.label(),
            profile_json: run.profile_json.clone().unwrap_or_default(),
            poll_stats: run.poll_stats.clone(),
        })
        .collect()
}

/// The full replay-gate verdict.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Model the transcript was recorded against.
    pub model: CpuModel,
    /// Root seed from the transcript header.
    pub root_seed: u64,
    /// Each section's name and how the re-recorded section lines up
    /// against it, in transcript order.
    pub sections: Vec<(String, TapeDiff)>,
    /// Oracle verdict of the re-recorded runs (None = all oracles held).
    pub violation: Option<Violation>,
    /// Captures of the re-recorded runs.
    pub replay_captures: Vec<LevelCapture>,
    /// Captures of the plain-sim differential runs.
    pub sim_captures: Vec<LevelCapture>,
}

impl ReplayReport {
    /// Whether re-recording and sim produced byte-identical telemetry
    /// profiles and poll stats, level by level.
    #[must_use]
    pub fn profiles_match(&self) -> bool {
        self.replay_captures == self.sim_captures
    }

    /// The full gate: tape-clean, oracle-pass, sim-differential.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.sections.iter().all(|(_, diff)| diff.clean())
            && self.violation.is_none()
            && self.profiles_match()
    }

    /// Human-readable verdict for the CLI.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replaying {} transcript (model {}, seed {:#x})\n",
            FIXTURE_LABEL, self.model, self.root_seed
        ));
        for (name, diff) in &self.sections {
            out.push_str(&format!(
                "  section {:<16} {:>5} events  {}\n",
                name,
                diff.consumed,
                if diff.clean() {
                    "clean".to_string()
                } else {
                    format!(
                        "DIVERGED ({} mismatches, {} overrun, {} leftover)",
                        diff.divergences, diff.overrun, diff.leftover
                    )
                }
            ));
        }
        match &self.violation {
            None => out.push_str("  oracles: all held\n"),
            Some(v) => out.push_str(&format!("  oracles: VIOLATION {v}\n")),
        }
        out.push_str(&format!(
            "  sim differential: {}\n",
            if self.profiles_match() {
                "profiles and poll stats byte-identical"
            } else {
                "MISMATCH against plain sim run"
            }
        ));
        out.push_str(if self.passed() {
            "RESULT: replay gate passed\n"
        } else {
            "RESULT: replay gate FAILED\n"
        });
        out
    }
}

/// Checks a JSONL transcript: records the campaign its header names
/// again across all deployment levels, compares each new section with
/// the committed one, and runs the sim differential. Self-contained:
/// everything needed (model, seed, schedule stream) comes from the
/// transcript header.
///
/// # Errors
///
/// Schema errors, section/level mismatches, campaign failures.
pub fn replay_trace(jsonl: &str) -> Result<ReplayReport, TraceGateError> {
    let (header, sections) = parse_trace(jsonl)?;
    if sections.len() != LEVELS.len() {
        return Err(TraceGateError::SectionMismatch {
            expected: format!("{} sections", LEVELS.len()),
            got: format!("{} sections", sections.len()),
        });
    }
    if let Some((level, (name, _))) = LEVELS
        .into_iter()
        .zip(&sections)
        .find(|(level, (name, _))| name.as_str() != level.label())
    {
        return Err(TraceGateError::SectionMismatch {
            expected: level.label().to_string(),
            got: name.clone(),
        });
    }

    let scn = Scenario::with_seed(header.root_seed);
    let model = header.model;
    let rec = TraceRecorder::new(header.clone());
    let runs = run_levels(&scn, model, Some(&rec))?;
    let (_, live) = parse_trace(&rec.to_jsonl()?)?;
    let sim_runs = run_levels(&scn, model, None)?;
    Ok(ReplayReport {
        model,
        root_seed: header.root_seed,
        sections: sections
            .into_iter()
            .zip(live)
            .map(|((name, recorded), (_, live))| (name, compare_events(&recorded, &live)))
            .collect(),
        violation: judge(&runs),
        replay_captures: captures_of(&runs),
        sim_captures: captures_of(&sim_runs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::Level;

    #[test]
    fn record_then_replay_round_trips_clean() {
        let scn = Scenario::new();
        let fixture = record_fixture(&scn, CpuModel::CometLake).expect("records");
        assert_eq!(fixture.captures.len(), 4);
        let report = replay_trace(&fixture.jsonl).expect("replays");
        assert!(report.passed(), "{}", report.render_text());
        // The recorded captures equal the replayed ones too: record,
        // replay and sim are three views of one bit-identical run.
        assert_eq!(fixture.captures, report.replay_captures);
    }

    /// The sim differential compares a run that fires every tick (a
    /// machine with a tape never folds) with one that folds quiet ticks,
    /// so the fixture's polling level must fold something.
    #[test]
    fn the_sim_differential_compares_a_folded_run() {
        let scn = Scenario::new();
        let model = CpuModel::CometLake;
        let map = scn.quick_map(model);
        let schedule = fixture_schedule(&scn, model);
        let rec = TraceRecorder::new(TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            version: TRACE_SCHEMA_VERSION,
            model,
            root_seed: scn.root_seed(),
            label: FIXTURE_LABEL.to_string(),
        });
        let ticks_and_firings = |rec| {
            let (run, firings) = run_level_mode(
                &scn,
                model,
                &map,
                &schedule,
                Level::Polling,
                None,
                rec,
                true,
            )
            .expect("runs");
            (run.poll_stats.expect("captured").ticks, firings)
        };
        let (ticks, recorded) = ticks_and_firings(Some(&rec));
        assert_eq!(recorded, ticks, "a recorded run fires every tick");
        let (sim_ticks, sim) = ticks_and_firings(None);
        assert_eq!(sim_ticks, ticks);
        assert!(sim < ticks, "plain sim folded nothing: {sim} of {ticks}");
    }

    #[test]
    fn tampered_transcript_is_flagged() {
        let scn = Scenario::new();
        let fixture = record_fixture(&scn, CpuModel::CometLake).expect("records");
        // Flip one written value in the tape: replay must notice.
        let tampered = fixture.jsonl.replacen("\"value\":", "\"value\":9", 1);
        assert_ne!(tampered, fixture.jsonl, "tamper site must exist");
        let report = replay_trace(&tampered).expect("still parses");
        assert!(
            report.sections.iter().any(|(_, diff)| !diff.clean()),
            "tampered tape replayed clean: {}",
            report.render_text()
        );
    }

    #[test]
    fn hostile_transcripts_get_a_typed_error_or_fail_the_gate() {
        let fixture = record_fixture(&Scenario::new(), CpuModel::CometLake).expect("records");
        let lines: Vec<&str> = fixture.jsonl.lines().collect();
        let jsonl = |lines: &[&str]| lines.join("\n") + "\n";
        let marker = |name: &str| format!("{{\"Section\":{{\"name\":\"{name}\"}}}}");
        let last = marker(LEVELS[3].label());
        let last_at = lines
            .iter()
            .position(|l| *l == last)
            .expect("the last level has a section");

        assert!(matches!(
            replay_trace(""),
            Err(TraceGateError::Hal(HalError::TraceSchema { .. }))
        ));
        match replay_trace(&jsonl(&lines[..last_at])) {
            Err(TraceGateError::SectionMismatch { expected, got }) => {
                assert_eq!(
                    (expected.as_str(), got.as_str()),
                    ("4 sections", "3 sections")
                );
            }
            other => panic!("missing section: {other:?}"),
        }
        let renamed = fixture.jsonl.replacen(&last, &marker("hardware-clamp"), 1);
        match replay_trace(&renamed) {
            Err(TraceGateError::SectionMismatch { expected, got }) => {
                assert_eq!(
                    (expected.as_str(), got.as_str()),
                    ("hardware-msr", "hardware-clamp")
                );
            }
            other => panic!("renamed section: {other:?}"),
        }

        // A tape one event short or one event long parses, and fails
        // the gate on its last section alone: the live run overruns the
        // short tape, and leaves the long tape's extra event over.
        let end = lines.len() - 1;
        let doubled = [&lines[..], &lines[end..]].concat();
        for (case, tape, overrun, leftover) in [
            ("last line dropped", jsonl(&lines[..end]), 1, 0),
            ("last line doubled", jsonl(&doubled), 0, 1),
        ] {
            let report = replay_trace(&tape).expect("parses");
            assert!(!report.passed(), "{case}: {}", report.render_text());
            let (clean, tail) = report.sections.split_at(3);
            assert!(clean.iter().all(|(_, d)| d.clean()), "{case}");
            let diff = tail[0].1;
            assert_eq!(
                (diff.divergences, diff.overrun, diff.leftover),
                (0, overrun, leftover),
                "{case}"
            );
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = fixture_schedule(&Scenario::new(), CpuModel::CometLake);
        let b = fixture_schedule(&Scenario::new(), CpuModel::CometLake);
        assert_eq!(a, b);
    }
}
