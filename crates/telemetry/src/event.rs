//! Typed, sim-time-stamped telemetry events.
//!
//! Every state change the simulator considers security-relevant —
//! OC-mailbox commands, voltage-rail slews, P-state moves, faults,
//! crashes, and the countermeasure's detect/restore pair — is
//! captured as one variant of [`TelemetryEvent`] instead of a free-form
//! trace string. Events carry plain integers (raw MSR addresses, plane
//! indices, millivolts) so they serialize identically across runs and
//! can be replayed into a VCD waveform (see [`crate::export`]).

use plugvolt_des::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One structured observability event.
///
/// Variants mirror the hot paths of the simulation: the overclocking
/// mailbox (`OcMailbox`), the voltage regulators (`VrSlew`), DVFS
/// (`PState`), the fault engine (`Fault`/`Crash`), and the polling
/// countermeasure (`Detection`/`Restore`, and its own failures
/// `RestoreFailed`/`FallbackFailed`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// An OC-mailbox voltage-offset command was decoded.
    OcMailbox {
        /// Logical core issuing the command.
        core: u32,
        /// Voltage plane index (0 = core, 2 = cache, …).
        plane: u8,
        /// Offset the writer asked for, in millivolts.
        requested_mv: i32,
        /// Offset actually applied after the hardware clamp, in mV (the
        /// plane's unchanged offset when the write was swallowed).
        applied_mv: i32,
        /// Whether the write reached the regulator at all (`false` when
        /// the OCM-disable gate or the microcode patch swallowed it).
        accepted: bool,
    },
    /// A voltage regulator began slewing toward a new target.
    VrSlew {
        /// Voltage plane index (0 = core, 2 = cache).
        plane: u8,
        /// Target rail voltage, in millivolts.
        target_mv: i32,
        /// Instant the rail settles on the target.
        settles_at: SimTime,
    },
    /// A core changed frequency (P-state transition).
    PState {
        /// Logical core that changed frequency.
        core: u32,
        /// New core frequency in MHz.
        freq_mhz: u32,
    },
    /// The execution engine produced faulty results.
    Fault {
        /// Logical core that faulted.
        core: u32,
        /// Number of faulty computations in the batch.
        faults: u64,
    },
    /// The package crashed (rail below the absolute minimum, or a
    /// lethal fault batch).
    Crash {
        /// Logical core executing when the crash latched.
        core: u32,
    },
    /// The polling countermeasure classified the current V/F state as
    /// unsafe.
    Detection {
        /// Logical core found in an unsafe state.
        core: u32,
        /// Frequency at detection time, in MHz.
        freq_mhz: u32,
        /// Offending voltage offset, in millivolts.
        offset_mv: i32,
    },
    /// The countermeasure issued its restore write.
    Restore {
        /// Logical core being restored.
        core: u32,
        /// Offset written back, in millivolts.
        restore_mv: i32,
    },
    /// The countermeasure's restore write restored nothing.
    RestoreFailed {
        /// Logical core whose restore failed.
        core: u32,
        /// Offset the write asked for, in millivolts.
        restore_mv: i32,
        /// `true` when the write went through but was ignored (OCM
        /// disabled, a microcode lock, the clamp); `false` when the
        /// write itself returned an error.
        ignored: bool,
    },
    /// The countermeasure's frequency-fallback write (`IA32_PERF_CTL`)
    /// returned an error, leaving the core at the unsafe frequency.
    FallbackFailed {
        /// Logical core whose fallback failed.
        core: u32,
        /// Frequency the write asked for, in MHz.
        freq_mhz: u32,
    },
    /// A soak-fuzzer campaign began its differential run.
    SoakCampaign {
        /// Campaign index within the soak run.
        campaign: u64,
        /// Attack-family index (order of `AttackFamily::ALL`).
        family: u8,
        /// Schedule events in the campaign.
        events: u32,
    },
    /// A soak oracle finished judging one campaign × deployment cell.
    SoakOracle {
        /// Campaign index within the soak run.
        campaign: u64,
        /// Oracle index (0 = zero-faults, 1 = exposure bound,
        /// 2 = stream equivalence).
        oracle: u8,
        /// Whether the invariant held.
        ok: bool,
    },
    /// A precomputed slack table was attached to the execution engine.
    ///
    /// The table evaluates its grid row by row on first hit, so neither
    /// field says how much of it has been computed. `build_ns` is host
    /// wall-clock time for laying out the table, not for evaluating its
    /// rows — the only host-dependent field in the event stream; it
    /// never feeds back into simulation results.
    SlackTableBuilt {
        /// Number of addressable `(frequency, voltage)` grid points,
        /// built or not.
        entries: u64,
        /// Wall-clock nanoseconds the table's skeleton took to lay out.
        build_ns: u64,
    },
}

impl TelemetryEvent {
    /// A short stable tag for the event kind (used by the table
    /// exporter and the VCD channel names).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::OcMailbox { .. } => "oc-mailbox",
            TelemetryEvent::VrSlew { .. } => "vr-slew",
            TelemetryEvent::PState { .. } => "p-state",
            TelemetryEvent::Fault { .. } => "fault",
            TelemetryEvent::Crash { .. } => "crash",
            TelemetryEvent::Detection { .. } => "detection",
            TelemetryEvent::Restore { .. } => "restore",
            TelemetryEvent::RestoreFailed { .. } => "restore-failed",
            TelemetryEvent::FallbackFailed { .. } => "fallback-failed",
            TelemetryEvent::SoakCampaign { .. } => "soak-campaign",
            TelemetryEvent::SoakOracle { .. } => "soak-oracle",
            TelemetryEvent::SlackTableBuilt { .. } => "slack-table-built",
        }
    }
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryEvent::OcMailbox {
                core,
                plane,
                requested_mv,
                applied_mv,
                accepted,
            } => write!(
                f,
                "oc-mailbox core{core} plane{plane} req {requested_mv} mV -> applied {applied_mv} mV ({})",
                if *accepted { "accepted" } else { "ignored" }
            ),
            TelemetryEvent::VrSlew {
                plane,
                target_mv,
                settles_at,
            } => write!(f, "vr-slew plane{plane} -> {target_mv} mV settles {settles_at}"),
            TelemetryEvent::PState { core, freq_mhz } => {
                write!(f, "p-state core{core} -> {freq_mhz} MHz")
            }
            TelemetryEvent::Fault { core, faults } => {
                write!(f, "fault core{core} x{faults}")
            }
            TelemetryEvent::Crash { core } => write!(f, "crash core{core}"),
            TelemetryEvent::Detection {
                core,
                freq_mhz,
                offset_mv,
            } => write!(
                f,
                "detection core{core} {offset_mv} mV @ {freq_mhz} MHz"
            ),
            TelemetryEvent::Restore { core, restore_mv } => {
                write!(f, "restore core{core} -> {restore_mv} mV")
            }
            TelemetryEvent::RestoreFailed {
                core,
                restore_mv,
                ignored,
            } => write!(
                f,
                "restore-failed core{core} -> {restore_mv} mV ({})",
                if *ignored { "ignored" } else { "error" }
            ),
            TelemetryEvent::FallbackFailed { core, freq_mhz } => {
                write!(f, "fallback-failed core{core} -> {freq_mhz} MHz")
            }
            TelemetryEvent::SoakCampaign {
                campaign,
                family,
                events,
            } => write!(
                f,
                "soak-campaign #{campaign} family{family} {events} events"
            ),
            TelemetryEvent::SoakOracle {
                campaign,
                oracle,
                ok,
            } => write!(
                f,
                "soak-oracle #{campaign} oracle{oracle} {}",
                if *ok { "held" } else { "VIOLATED" }
            ),
            TelemetryEvent::SlackTableBuilt { entries, build_ns } => {
                write!(f, "slack-table-built {entries} entries in {build_ns} ns")
            }
        }
    }
}

/// A [`TelemetryEvent`] stamped with the simulation instant it occurred.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event occurred on the simulation clock.
    pub at: SimTime,
    /// The event itself.
    pub event: TelemetryEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_stable() {
        let ev = TelemetryEvent::Crash { core: 0 };
        assert_eq!(ev.kind(), "crash");
        let ev = TelemetryEvent::Detection {
            core: 1,
            freq_mhz: 3_900,
            offset_mv: -230,
        };
        assert_eq!(ev.kind(), "detection");
    }

    #[test]
    fn display_is_compact() {
        let ev = TelemetryEvent::OcMailbox {
            core: 0,
            plane: 0,
            requested_mv: -250,
            applied_mv: -130,
            accepted: true,
        };
        assert_eq!(
            ev.to_string(),
            "oc-mailbox core0 plane0 req -250 mV -> applied -130 mV (accepted)"
        );
    }

    #[test]
    fn serde_round_trips_struct_variants() {
        let ev = TimedEvent {
            at: SimTime::from_picos(42_000),
            event: TelemetryEvent::VrSlew {
                plane: 2,
                target_mv: -120,
                settles_at: SimTime::from_picos(99_000),
            },
        };
        let json = serde_json::to_string(&ev).expect("serialize event");
        let back: TimedEvent = serde_json::from_str(&json).expect("deserialize event");
        assert_eq!(back, ev);
    }
}
