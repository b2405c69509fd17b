//! # plugvolt-hal
//!
//! The MSR hardware abstraction layer of the *Plug Your Volt*
//! reproduction. The countermeasure stack (polling module, deployment
//! levels, `msr-dev`, cpufreq) only ever touches `rdmsr`/`wrmsr`; this
//! crate puts exactly that surface behind one trait,
//! [`backend::MachineBackend`], which a simulated `Machine` mounts.
//! Frequency requests are `IA32_PERF_CTL` writes through the same seam
//! ([`backend::drive_freq_via_msr`]).
//!
//! Two backends implement it:
//!
//! - [`sim::SimBackend`] — the simulated stack, bit-identical to the
//!   pre-HAL direct wiring (pure delegation to `CpuPackage`);
//! - [`trace::RecordingBackend`] — wraps the sim backend and appends
//!   every access to a pinned-schema JSONL transcript. A committed
//!   transcript is checked by recording its campaign again and
//!   comparing the two event streams with [`trace::compare_events`].
//!
//! [`host`] (Linux only) is not a backend: it is a read-only probe of
//! `/dev/cpu/<n>/msr` and sysfs cpufreq that measures real polling
//! overhead. It has no write path at all, so it cannot undervolt the
//! host, and it is never mounted in a `Machine`.
//!
//! Determinism contract: the sim backend is deterministic and
//! byte-identical to the direct stack, and recording is a pure
//! observer, so a recorded run is bit-identical to an unrecorded one.
//! The host probe reads the wall clock and never takes part in
//! golden-output or oracle gates.

#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod sim;
pub mod trace;

#[cfg(target_os = "linux")]
pub mod host;
