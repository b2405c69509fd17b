//! # plugvolt-attacks
//!
//! The DVFS fault-attack baselines of the *Plug Your Volt* (DAC 2024)
//! reproduction — the adversaries the countermeasure must defeat, each
//! driven end-to-end against the simulated machine (frequency pinning
//! via `cpupower`, undervolting via MSR 0x150, victims computing on the
//! faultable execution engine, exploit math on the faulty outputs):
//!
//! - [`plundervolt`] — Plundervolt \[19\]: RSA-CRT + Bellcore factoring
//!   and AES + Giraud DFA;
//! - [`voltjockey`] — VoltJockey \[21\]: cross-core voltage pulses against
//!   a victim on a sibling core;
//! - [`v0ltpwn`] — V0LTpwn \[14\]: SIMD/FMA integrity violation sweeps;
//! - [`clkscrew`] — CLKSCREW \[24\], transplanted: frequency-side
//!   escalation against a benign undervolt, with no 0x150 write at all;
//! - [`cacheplane`] — plane-select attacks: undervolting the cache plane
//!   (Table 1 plane 2) to corrupt load data while the core plane stays
//!   nominal;
//! - [`minefield`] — the Minefield-style deflection *defense* baseline
//!   (canary instrumentation + traps) the paper compares against;
//! - [`crypto`] — the from-scratch RSA-CRT and AES-128 victims plus the
//!   Bellcore/Giraud exploit math;
//! - [`campaign`] — shared adversary plumbing and reports;
//! - [`schedule`] — randomized campaign schedules (and their shrink
//!   hooks) for the differential soak fuzzer.
//!
//! # Examples
//!
//! Factor an RSA modulus on an undefended Comet Lake:
//!
//! ```no_run
//! use plugvolt_attacks::plundervolt::{run_rsa_attack, PlundervoltConfig};
//! use plugvolt_cpu::model::CpuModel;
//! use plugvolt_kernel::machine::Machine;
//!
//! let mut machine = Machine::new(CpuModel::CometLake, 42);
//! let report = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?;
//! assert!(report.success);
//! # Ok::<(), plugvolt_kernel::machine::MachineError>(())
//! ```

#![warn(missing_docs)]

pub mod cacheplane;
pub mod campaign;
pub mod clkscrew;
pub mod crypto;
pub mod minefield;
pub mod plundervolt;
pub mod schedule;
pub mod v0ltpwn;
pub mod voltjockey;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::cacheplane::{run_cache_plane_attack, CachePlaneConfig};
    pub use crate::campaign::{Adversary, AttackReport};
    pub use crate::clkscrew::{run_clkscrew_attack, ClkscrewConfig};
    pub use crate::crypto::aes::GiraudAttack;
    pub use crate::crypto::rsa::{bellcore_factor, RsaKey};
    pub use crate::minefield::{
        instrumentation_factor, sign_with_deflection, DeflectedSign, MinefieldConfig,
    };
    pub use crate::plundervolt::{
        run_aes_attack, run_rsa_attack, PlundervoltConfig, MAX_CRASHES_PER_OFFSET,
    };
    pub use crate::schedule::{
        AttackFamily, CampaignSchedule, PlaneSel, ScheduleAction, ScheduleEvent, VictimClass,
    };
    pub use crate::v0ltpwn::{run_v0ltpwn_attack, V0ltpwnConfig, V0ltpwnReport};
    pub use crate::voltjockey::{run_voltjockey_attack, VoltJockeyConfig};
}
