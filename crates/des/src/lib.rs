//! # plugvolt-des
//!
//! Deterministic discrete-event simulation kernel underpinning the
//! *Plug Your Volt* (DAC 2024) reproduction.
//!
//! The reproduction replaces the paper's physical Intel test benches with a
//! software model; every layer of that model (voltage regulator transients,
//! kernel scheduler slices, MSR polling timers, attack campaigns) runs on
//! the primitives defined here:
//!
//! - [`time`] — picosecond-resolution [`time::SimTime`] / [`time::SimDuration`];
//! - [`rng`] — labelled deterministic random streams;
//! - [`stats`] — online summaries and histograms for reports;
//! - [`vcd`] — IEEE-1364 Value Change Dump export for waveform viewers.
//!
//! The event calendar itself lives with its one user: the kernel's
//! `Machine` keeps its module timers in a private binary heap.
//! Run-time instrumentation (events, metrics, spans) is not here
//! either: it has one source, the `plugvolt-telemetry` sink.
//!
//! # Examples
//!
//! Sim time and labelled random streams, the two things every layer
//! shares:
//!
//! ```
//! use plugvolt_des::prelude::*;
//!
//! // An undervolt lands 5 µs in; the countermeasure restores at 9 µs.
//! let lands = SimTime::ZERO + SimDuration::from_micros(5);
//! let restores = lands + SimDuration::from_micros(4);
//! assert_eq!(restores.saturating_duration_since(lands).as_picos(), 4_000_000);
//!
//! // Streams with the same seed and label replay identically; a
//! // different label gives an independent stream.
//! let mut a = SimRng::from_seed_label(7, "attack/jitter");
//! let mut b = SimRng::from_seed_label(7, "attack/jitter");
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.below(10) < 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;
pub mod stats;
pub mod time;
pub mod vcd;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::vcd::{SignalId, SignalKind, Value, VcdRecorder};
}
