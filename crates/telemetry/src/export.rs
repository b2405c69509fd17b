//! The VCD export channel: replays a telemetry event timeline into a
//! GTKWave-compatible waveform via [`plugvolt_des::vcd::VcdRecorder`].
//!
//! Continuous quantities (applied offset, rail target, frequency)
//! become `real` signals; discrete occurrences (detection, restore,
//! fault, crash) become one-picosecond wire pulses so they are visible
//! at any zoom level.

use crate::event::{TelemetryEvent, TimedEvent};
use plugvolt_des::time::SimDuration;
use plugvolt_des::vcd::{SignalKind, Value, VcdRecorder};

/// Renders `events` (oldest first, as stored by the registry) into VCD
/// text under the module scope `telemetry`.
#[must_use]
pub fn events_to_vcd(events: &[TimedEvent]) -> String {
    let mut vcd = VcdRecorder::new("telemetry");
    let oc_applied = vcd.declare("oc_applied_mv", SignalKind::Real);
    let vr_target = vcd.declare("vr_target_mv", SignalKind::Real);
    let pstate = vcd.declare("pstate_mhz", SignalKind::Real);
    let detection = vcd.declare("detection", SignalKind::Wire);
    let restore = vcd.declare("restore", SignalKind::Wire);
    let fault = vcd.declare("fault", SignalKind::Wire);
    let crash = vcd.declare("crash", SignalKind::Wire);
    let oracle_violation = vcd.declare("oracle_violation", SignalKind::Wire);

    let pulse = |vcd: &mut VcdRecorder, at, id| {
        vcd.record(at, id, Value::Bits(1));
        vcd.record(at + SimDuration::PICO, id, Value::Bits(0));
    };

    for e in events {
        match &e.event {
            TelemetryEvent::OcMailbox { applied_mv, .. } => {
                vcd.record(e.at, oc_applied, Value::Real(f64::from(*applied_mv)));
            }
            TelemetryEvent::VrSlew { target_mv, .. } => {
                vcd.record(e.at, vr_target, Value::Real(f64::from(*target_mv)));
            }
            TelemetryEvent::PState { freq_mhz, .. } => {
                vcd.record(e.at, pstate, Value::Real(f64::from(*freq_mhz)));
            }
            TelemetryEvent::Detection { .. } => pulse(&mut vcd, e.at, detection),
            TelemetryEvent::Restore { .. } => pulse(&mut vcd, e.at, restore),
            TelemetryEvent::Fault { .. } => pulse(&mut vcd, e.at, fault),
            TelemetryEvent::Crash { .. } => pulse(&mut vcd, e.at, crash),
            TelemetryEvent::SoakOracle { ok: false, .. } => {
                pulse(&mut vcd, e.at, oracle_violation);
            }
            TelemetryEvent::RestoreFailed { .. }
            | TelemetryEvent::FallbackFailed { .. }
            | TelemetryEvent::SoakCampaign { .. }
            | TelemetryEvent::SoakOracle { ok: true, .. }
            | TelemetryEvent::SlackTableBuilt { .. } => {}
        }
    }
    vcd.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_des::time::SimTime;

    #[test]
    fn vcd_contains_declared_signals_and_pulses() {
        let events = vec![
            TimedEvent {
                at: SimTime::from_picos(1_000),
                event: TelemetryEvent::OcMailbox {
                    core: 0,
                    plane: 0,
                    requested_mv: -250,
                    applied_mv: -250,
                    accepted: true,
                },
            },
            TimedEvent {
                at: SimTime::from_picos(2_000),
                event: TelemetryEvent::Detection {
                    core: 0,
                    freq_mhz: 3_900,
                    offset_mv: -250,
                },
            },
        ];
        let vcd = events_to_vcd(&events);
        assert!(vcd.contains("$scope module telemetry $end"));
        assert!(vcd.contains("oc_applied_mv"));
        assert!(vcd.contains("detection"));
        // The detection pulse produces a rising then falling edge.
        assert!(vcd.contains("#2000"));
        assert!(vcd.contains("#2001"));
    }
}
