//! # plugvolt-hal
//!
//! MSR transcripts and the read-only host probe of the *Plug Your Volt*
//! reproduction. The countermeasure stack (polling module, deployment
//! levels, `msr-dev`, cpufreq) only ever touches `rdmsr`/`wrmsr`, and
//! all of it goes through `Machine`, which owns its `CpuPackage`. This
//! crate holds what observes that surface:
//!
//! - [`trace`] — the tape. A [`trace::TraceRecorder`] attached to a
//!   `Machine` appends every software-visible MSR access (and its
//!   outcome) to a pinned-schema JSONL transcript. A committed
//!   transcript is checked by recording its campaign again and
//!   comparing the two event streams with [`trace::compare_events`].
//! - [`host`] (Linux only) — a read-only probe of `/dev/cpu/<n>/msr`
//!   and sysfs cpufreq that measures real polling overhead. It has no
//!   write path at all, so it cannot undervolt the host, and it never
//!   takes part in a simulated run.
//!
//! Determinism contract: recording is a pure observer, so a recorded
//! run is bit-identical to an unrecorded one. The host probe reads the
//! wall clock and never takes part in golden-output or oracle gates.

#![warn(missing_docs)]

pub mod error;
pub mod trace;

#[cfg(target_os = "linux")]
pub mod host;
