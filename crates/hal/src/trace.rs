//! The recording backend, the pinned JSONL transcript schema, and the
//! tape comparison.
//!
//! A transcript is a JSONL stream: one JSON value per line, each an
//! externally-tagged [`TraceLine`]. The first line is always a
//! [`TraceHeader`] pinning schema name/version, CPU model, root seed
//! and campaign label; `Section` markers then delimit independent runs
//! (e.g. one per deployment level), each followed by its [`TraceEvent`]
//! stream. Schema version bumps are breaking: [`parse_trace`] rejects
//! any transcript whose `schema`/`version` pair it does not speak.
//!
//! [`RecordingBackend`] is a pure observer around [`SimBackend`]: it
//! forwards every access verbatim and appends what happened to the
//! tape, so a recorded run is bit-identical to an unrecorded one. A
//! committed tape is checked by recording the same campaign again and
//! handing both event streams to [`compare_events`], which reports
//! every mismatch, overrun and leftover position by position.

use crate::backend::MachineBackend;
use crate::error::HalError;
use crate::sim::SimBackend;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::{CpuPackage, PackageError};
use plugvolt_des::time::SimTime;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::{MsrError, WriteOutcome};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Name of the transcript schema, pinned in every header line.
pub const TRACE_SCHEMA: &str = "plugvolt-msr-trace";

/// Version of the transcript schema. Bumping this is a breaking change
/// to the on-disk format and must come with a migration note in
/// DESIGN.md §5f.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Direction of a recorded access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// `rdmsr`.
    Read,
    /// `wrmsr`.
    Write,
}

/// What the package did with the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOutcome {
    /// Read: the value returned. Write: the value stored (the raw
    /// value; the clamp bounds the applied offset, not the register).
    Value(u64),
    /// The write was accepted but had no effect (disabled mailbox…).
    Ignored,
    /// `#GP` — unknown register for this model.
    GeneralProtection,
    /// The register is locked against writes.
    WriteFault,
    /// The package was crashed when the access arrived.
    Crashed,
    /// The core does not exist.
    NoSuchCore,
}

/// One MSR access, fully decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic per-transcript sequence number.
    pub seq: u64,
    /// Simulated time of the access, picoseconds.
    pub t_ps: u64,
    /// Logical core index.
    pub core: usize,
    /// Register address.
    pub msr: u32,
    /// Access direction.
    pub op: TraceOp,
    /// The value written (0 for reads).
    pub value: u64,
    /// What happened.
    pub outcome: TraceOutcome,
}

/// First line of every transcript.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Must equal [`TRACE_SCHEMA`].
    pub schema: String,
    /// Must equal [`TRACE_SCHEMA_VERSION`].
    pub version: u32,
    /// CPU model the transcript was recorded against.
    pub model: CpuModel,
    /// Root seed of the recording scenario — a replayer boots the same
    /// deterministic world from this.
    pub root_seed: u64,
    /// Free-form campaign label.
    pub label: String,
}

/// One line of the JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceLine {
    /// Schema header; always the first line.
    Header(TraceHeader),
    /// Start of a named section (one per run/deployment level).
    Section {
        /// Section name, e.g. a deployment-level label.
        name: String,
    },
    /// A recorded access.
    Event(TraceEvent),
}

#[derive(Debug)]
struct RecorderState {
    lines: Vec<TraceLine>,
    seq: u64,
}

/// Cloneable handle onto a growing transcript. All clones append to
/// the same tape; keep one and hand another to a [`RecordingBackend`].
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    state: Rc<RefCell<RecorderState>>,
}

impl TraceRecorder {
    /// Starts a transcript with `header` as its first line.
    #[must_use]
    pub fn new(header: TraceHeader) -> Self {
        Self {
            state: Rc::new(RefCell::new(RecorderState {
                lines: vec![TraceLine::Header(header)],
                seq: 0,
            })),
        }
    }

    /// Opens a new section; subsequent events belong to it.
    pub fn begin_section(&self, name: &str) {
        self.state.borrow_mut().lines.push(TraceLine::Section {
            name: name.to_string(),
        });
    }

    /// Appends an access; the recorder assigns the sequence number.
    fn push_event(&self, mut ev: TraceEvent) {
        let mut st = self.state.borrow_mut();
        ev.seq = st.seq;
        st.seq += 1;
        st.lines.push(TraceLine::Event(ev));
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.state.borrow().seq
    }

    /// Serializes the transcript to JSONL (one line per [`TraceLine`],
    /// trailing newline).
    ///
    /// # Errors
    ///
    /// [`HalError::TraceSchema`] if a line fails to serialize.
    pub fn to_jsonl(&self) -> Result<String, HalError> {
        let st = self.state.borrow();
        let mut out = String::new();
        for line in &st.lines {
            let json = serde_json::to_string(line).map_err(|e| HalError::TraceSchema {
                detail: format!("serialize trace line: {e:?}"),
            })?;
            out.push_str(&json);
            out.push('\n');
        }
        Ok(out)
    }
}

fn outcome_of_read(r: &Result<u64, PackageError>) -> TraceOutcome {
    match r {
        Ok(v) => TraceOutcome::Value(*v),
        Err(e) => outcome_of_err(*e),
    }
}

fn outcome_of_write(r: &Result<WriteOutcome, PackageError>) -> TraceOutcome {
    match r {
        Ok(WriteOutcome::Written { stored }) => TraceOutcome::Value(*stored),
        Ok(WriteOutcome::Ignored) => TraceOutcome::Ignored,
        Err(e) => outcome_of_err(*e),
    }
}

fn outcome_of_err(e: PackageError) -> TraceOutcome {
    match e {
        PackageError::Msr(MsrError::GeneralProtection { .. }) => TraceOutcome::GeneralProtection,
        PackageError::Msr(MsrError::WriteFault { .. }) => TraceOutcome::WriteFault,
        PackageError::NoSuchCore(_) => TraceOutcome::NoSuchCore,
        PackageError::Crashed => TraceOutcome::Crashed,
    }
}

/// A pure observer around [`SimBackend`]: forwards every access and
/// appends it to the shared [`TraceRecorder`] tape.
#[derive(Debug)]
pub struct RecordingBackend {
    inner: SimBackend,
    rec: TraceRecorder,
}

impl RecordingBackend {
    /// Wraps `inner`, appending to `rec`.
    #[must_use]
    pub fn new(inner: SimBackend, rec: TraceRecorder) -> Self {
        Self { inner, rec }
    }
}

impl MachineBackend for RecordingBackend {
    fn name(&self) -> &'static str {
        "record"
    }

    fn rdmsr(&mut self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        let r = self.inner.rdmsr(now, core, msr);
        self.rec.push_event(TraceEvent {
            seq: 0,
            t_ps: now.as_picos(),
            core: core.0,
            msr: msr.0,
            op: TraceOp::Read,
            value: 0,
            outcome: outcome_of_read(&r),
        });
        r
    }

    fn wrmsr(
        &mut self,
        now: SimTime,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        let r = self.inner.wrmsr(now, core, msr, value);
        self.rec.push_event(TraceEvent {
            seq: 0,
            t_ps: now.as_picos(),
            core: core.0,
            msr: msr.0,
            op: TraceOp::Write,
            value,
            outcome: outcome_of_write(&r),
        });
        r
    }

    fn cpu(&self) -> &CpuPackage {
        self.inner.cpu()
    }

    fn cpu_mut(&mut self) -> &mut CpuPackage {
        self.inner.cpu_mut()
    }
}

/// How a live event stream lines up against a recorded one, position
/// by position (see [`compare_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeDiff {
    /// Positions both streams reach.
    pub consumed: usize,
    /// Positions among those where the live event differs from the
    /// recorded one.
    pub divergences: usize,
    /// Live events past the end of the recorded stream.
    pub overrun: usize,
    /// Recorded events the live stream never reached.
    pub leftover: usize,
}

impl TapeDiff {
    /// True iff the live stream matches the recorded one exactly: no
    /// divergences, no overrun, nothing left over.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.divergences == 0 && self.overrun == 0 && self.leftover == 0
    }
}

/// Compares a `live` event stream with a `recorded` one position by
/// position. Sequence numbers are ignored: they number a whole
/// transcript, so the same section recorded into a different
/// transcript carries different ones.
#[must_use]
pub fn compare_events(recorded: &[TraceEvent], live: &[TraceEvent]) -> TapeDiff {
    let consumed = recorded.len().min(live.len());
    TapeDiff {
        consumed,
        divergences: recorded
            .iter()
            .zip(live)
            .filter(|(r, l)| TraceEvent { seq: r.seq, ..**l } != **r)
            .count(),
        overrun: live.len() - consumed,
        leftover: recorded.len() - consumed,
    }
}

/// Parses a JSONL transcript into its header and per-section event
/// streams (in file order). Events before the first `Section` marker
/// land in an implicit section named `""`.
///
/// # Errors
///
/// [`HalError::TraceSchema`] on a malformed line, a missing header, or
/// a schema name/version this build does not speak.
pub fn parse_trace(jsonl: &str) -> Result<(TraceHeader, Vec<(String, Vec<TraceEvent>)>), HalError> {
    let mut lines = jsonl.lines().filter(|l| !l.trim().is_empty());
    let first = lines.next().ok_or_else(|| HalError::TraceSchema {
        detail: "empty transcript".to_string(),
    })?;
    let header = match parse_line(first)? {
        TraceLine::Header(h) => h,
        other => {
            return Err(HalError::TraceSchema {
                detail: format!("first line must be a header, got {other:?}"),
            })
        }
    };
    if header.schema != TRACE_SCHEMA || header.version != TRACE_SCHEMA_VERSION {
        return Err(HalError::TraceSchema {
            detail: format!(
                "unsupported schema {}@{} (this build speaks {TRACE_SCHEMA}@{TRACE_SCHEMA_VERSION})",
                header.schema, header.version
            ),
        });
    }

    let mut sections: Vec<(String, Vec<TraceEvent>)> = Vec::new();
    for line in lines {
        match parse_line(line)? {
            TraceLine::Header(_) => {
                return Err(HalError::TraceSchema {
                    detail: "duplicate header line".to_string(),
                })
            }
            TraceLine::Section { name } => sections.push((name, Vec::new())),
            TraceLine::Event(ev) => {
                if sections.is_empty() {
                    sections.push((String::new(), Vec::new()));
                }
                if let Some((_, events)) = sections.last_mut() {
                    events.push(ev);
                }
            }
        }
    }
    Ok((header, sections))
}

fn parse_line(line: &str) -> Result<TraceLine, HalError> {
    serde_json::from_str(line).map_err(|e| HalError::TraceSchema {
        detail: format!("malformed trace line {line:?}: {e:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::drive_freq_via_msr;
    use plugvolt_cpu::freq::FreqMhz;

    fn header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            version: TRACE_SCHEMA_VERSION,
            model: CpuModel::SkyLake,
            root_seed: 0xDAC,
            label: "test".to_string(),
        }
    }

    #[test]
    fn record_then_parse_round_trips() {
        let rec = TraceRecorder::new(header());
        rec.begin_section("warmup");
        let mut b = RecordingBackend::new(SimBackend::new(CpuModel::SkyLake, 1), rec.clone());
        let t = SimTime::ZERO;
        let _ = b.rdmsr(t, CoreId(0), Msr::IA32_PERF_STATUS);
        let _ = drive_freq_via_msr(&mut b, t, CoreId(0), FreqMhz(2700));
        assert_eq!(rec.event_count(), 2);

        let jsonl = rec.to_jsonl().expect("serialize");
        let (h, sections) = parse_trace(&jsonl).expect("parse");
        assert_eq!(h, header());
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, "warmup");
        assert_eq!(sections[0].1.len(), 2);
        assert_eq!(sections[0].1[0].op, TraceOp::Read);
        assert_eq!(sections[0].1[1].op, TraceOp::Write);
        assert_eq!(sections[0].1[1].msr, Msr::IA32_PERF_CTL.0);
    }

    /// Records a read and a `PERF_CTL` write of `perf_ctl` on a fresh
    /// seed-42 package into a one-section transcript.
    fn recorded_run(perf_ctl: u64) -> Vec<TraceEvent> {
        let rec = TraceRecorder::new(header());
        rec.begin_section("run");
        let mut b = RecordingBackend::new(SimBackend::new(CpuModel::SkyLake, 42), rec.clone());
        let t = SimTime::ZERO;
        let _ = b.rdmsr(t, CoreId(1), Msr::IA32_PERF_STATUS);
        let _ = b.wrmsr(t, CoreId(0), Msr::IA32_PERF_CTL, perf_ctl);
        let jsonl = rec.to_jsonl().expect("serialize");
        let (_, mut sections) = parse_trace(&jsonl).expect("parse");
        sections.remove(0).1
    }

    #[test]
    fn replay_of_identical_run_is_clean() {
        let tape = recorded_run(0x1d00);
        let diff = compare_events(&tape, &recorded_run(0x1d00));
        assert!(diff.clean(), "{diff:?}");
        assert_eq!(diff.consumed, 2);
    }

    #[test]
    fn replay_flags_divergence_and_overrun() {
        let tape = recorded_run(0x1d00);
        // A different written value, then one access past the tape.
        let mut live = recorded_run(0x1e00);
        live.push(tape[0]);
        let diff = compare_events(&tape, &live);
        assert_eq!(
            diff,
            TapeDiff {
                consumed: 2,
                divergences: 1,
                overrun: 1,
                leftover: 0
            }
        );
        assert!(!diff.clean());
    }

    #[test]
    fn unreached_tape_events_are_left_over() {
        let tape = recorded_run(0x1d00);
        let diff = compare_events(&tape, &tape[..1]);
        assert_eq!((diff.consumed, diff.overrun, diff.leftover), (1, 0, 1));
        assert!(!diff.clean());
    }

    #[test]
    fn sequence_numbers_do_not_count_as_divergences() {
        let tape = recorded_run(0x1d00);
        let mut live = tape.clone();
        for ev in &mut live {
            ev.seq += 100;
        }
        assert!(compare_events(&tape, &live).clean());
    }

    #[test]
    fn parse_rejects_wrong_version() {
        let mut h = header();
        h.version = TRACE_SCHEMA_VERSION + 1;
        let line = serde_json::to_string(&TraceLine::Header(h)).expect("serialize");
        let err = parse_trace(&line).expect_err("must reject");
        assert!(matches!(err, HalError::TraceSchema { .. }), "{err:?}");
    }

    #[test]
    fn recorded_run_matches_unrecorded_sim() {
        let t = SimTime::ZERO;
        let mut plain = SimBackend::new(CpuModel::SkyLake, 9);
        let rec = TraceRecorder::new(header());
        let mut taped = RecordingBackend::new(SimBackend::new(CpuModel::SkyLake, 9), rec);
        let a = drive_freq_via_msr(&mut plain, t, CoreId(0), FreqMhz(2600));
        let b = drive_freq_via_msr(&mut taped, t, CoreId(0), FreqMhz(2600));
        assert_eq!(a.ok(), b.ok());
        assert_eq!(
            plain.cpu().core_freq(CoreId(0)).expect("freq").mhz(),
            taped.cpu().core_freq(CoreId(0)).expect("freq").mhz()
        );
    }
}
