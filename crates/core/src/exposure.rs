//! Exposure accounting: the characterized bounds the soak oracles hold
//! the countermeasure to, and an episode accountant for sampled runs.
//!
//! The paper's claim for the polling deployment is a *turnaround*
//! bound: from the instant an unsafe offset is written, detection
//! happens within one polling period, and the restore command lands on
//! the rail one VR command latency plus slew later. [`ExposureBound`]
//! derives those two numbers from a [`PollConfig`] and the VR physics
//! constants; [`ExposureAccountant`] turns a sampled run into unsafe
//! *episodes* whose dwell can be checked against them.
//!
//! The accountant distinguishes the **configured** state (offset
//! register × instantaneous frequency — what Algorithm 3 observes) from
//! the **rail** state (the slew-limited analog voltage). Under a
//! chained re-attack the rail can stay low across several
//! detect/restore rounds, so the sound rail-level invariant is not
//! "every rail episode is short" but "once the configured state goes
//! safe, the rail recovers within the VR constants" — which is exactly
//! what [`ExposureAccountant::worst_overhang`] measures.

use crate::poll::PollConfig;
use plugvolt_cpu::package::MAILBOX_SETTLE;
use plugvolt_des::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Slack added to every bound for sampling quantization and module
/// timer work (the soak engine samples at 10 µs).
pub const ORACLE_SLOP: SimDuration = SimDuration::from_micros(30);

/// Worst-case rail slew allowance: the deepest offset the mailbox
/// accepts is ~500 mV and the regulators slew at 8 mV/µs, so one
/// full-swing ramp takes at most ~63 µs.
pub const SLEW_ALLOWANCE: SimDuration = SimDuration::from_micros(64);

/// The characterized exposure bounds for one deployment level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExposureBound {
    /// Unsafe *configured* state must be detected and rewritten within
    /// this long of the offending write (Algorithm 3 turnaround).
    pub detection: SimDuration,
    /// Once the configured state is safe again, the *rail* must be back
    /// in the safe region within this long (VR latency + slew).
    pub recovery: SimDuration,
}

impl ExposureBound {
    /// The bound for the polling module at `cfg`'s period.
    #[must_use]
    pub fn for_polling(cfg: &PollConfig) -> ExposureBound {
        ExposureBound {
            detection: cfg.period + ORACLE_SLOP,
            recovery: MAILBOX_SETTLE + SLEW_ALLOWANCE + ORACLE_SLOP,
        }
    }
}

/// One contiguous run of unsafe samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Episode {
    /// First unsafe sample.
    pub start: SimTime,
    /// First safe sample after the run (episode close).
    pub end: SimTime,
    /// Last sample within the episode at which the *configured* state
    /// was still unsafe (equals `start` when the episode is pure rail
    /// lag with a safe configuration throughout).
    pub last_config_unsafe: SimTime,
}

impl Episode {
    /// Episode length.
    #[must_use]
    pub fn dwell(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }

    /// Rail time beyond the last unsafe configured sample: how long the
    /// rail stayed unsafe after the countermeasure (or the adversary)
    /// made the configuration safe.
    #[must_use]
    pub fn overhang(&self) -> SimDuration {
        self.end.saturating_duration_since(self.last_config_unsafe)
    }
}

/// Folds a sampled `(rail unsafe?, config unsafe?)` stream into
/// episodes ([`Episode`] per rail excursion, dwell tracking for the
/// configured state).
#[derive(Debug, Clone, Default)]
pub struct ExposureAccountant {
    rail_open: Option<(SimTime, SimTime)>,
    config_open: Option<SimTime>,
    episodes: Vec<Episode>,
    config_dwell_max: SimDuration,
    total_unsafe: SimDuration,
    last_sample: Option<SimTime>,
}

impl ExposureAccountant {
    /// A fresh accountant.
    #[must_use]
    pub fn new() -> Self {
        ExposureAccountant::default()
    }

    /// Records one sample. `rail_unsafe` classifies the analog rail
    /// voltage against the map; `config_unsafe` classifies the
    /// configured offset register at the instantaneous frequency.
    pub fn record(&mut self, at: SimTime, rail_unsafe: bool, config_unsafe: bool) {
        if rail_unsafe {
            if let Some(prev) = self.last_sample {
                self.total_unsafe += at.saturating_duration_since(prev);
            }
        }
        self.last_sample = Some(at);
        match (&self.rail_open, rail_unsafe) {
            (None, true) => self.rail_open = Some((at, at)),
            (Some(_), false) => self.close_rail(at),
            _ => {}
        }
        if let Some((_, last_cfg)) = &mut self.rail_open {
            if config_unsafe {
                *last_cfg = at;
            }
        }
        match (self.config_open, config_unsafe) {
            (None, true) => self.config_open = Some(at),
            (Some(open), false) => {
                self.config_dwell_max = self
                    .config_dwell_max
                    .max(at.saturating_duration_since(open));
                self.config_open = None;
            }
            _ => {}
        }
    }

    fn close_rail(&mut self, at: SimTime) {
        if let Some((start, last_cfg)) = self.rail_open.take() {
            self.episodes.push(Episode {
                start,
                end: at,
                last_config_unsafe: last_cfg,
            });
        }
    }

    /// Closes any open episode at `at` (end of the observation window).
    pub fn finish(&mut self, at: SimTime) {
        self.close_rail(at);
        if let Some(open) = self.config_open.take() {
            self.config_dwell_max = self
                .config_dwell_max
                .max(at.saturating_duration_since(open));
        }
    }

    /// The closed rail episodes, in time order.
    #[must_use]
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Longest contiguous unsafe *configured* dwell (write → rewrite).
    #[must_use]
    pub fn worst_config_dwell(&self) -> SimDuration {
        self.config_dwell_max
    }

    /// Longest rail overhang past a safe configuration (see module
    /// docs; this is the chained-attack-sound rail invariant).
    #[must_use]
    pub fn worst_overhang(&self) -> SimDuration {
        self.episodes
            .iter()
            .map(Episode::overhang)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Longest single rail episode (diagnostic; *not* bounded under
    /// chained re-attacks).
    #[must_use]
    pub fn worst_dwell(&self) -> SimDuration {
        self.episodes
            .iter()
            .map(Episode::dwell)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total sampled unsafe rail time.
    #[must_use]
    pub fn total_unsafe(&self) -> SimDuration {
        self.total_unsafe
    }

    /// Checks this run against `bound`: the configured dwell against
    /// `detection`, the rail overhang against `recovery`. Returns the
    /// first violated quantity as `(observed, allowed)`.
    #[must_use]
    pub fn violates(&self, bound: &ExposureBound) -> Option<(SimDuration, SimDuration)> {
        if self.worst_config_dwell() > bound.detection {
            return Some((self.worst_config_dwell(), bound.detection));
        }
        if self.worst_overhang() > bound.recovery {
            return Some((self.worst_overhang(), bound.recovery));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn bounds_follow_the_poll_period() {
        let cfg = PollConfig::default();
        let b = ExposureBound::for_polling(&cfg);
        assert_eq!(b.detection, cfg.period + ORACLE_SLOP);
        assert!(b.recovery >= MAILBOX_SETTLE);
    }

    #[test]
    fn accountant_folds_samples_into_episodes() {
        let mut a = ExposureAccountant::new();
        // Config goes unsafe at 10, rail follows at 30, restore write at
        // 50, rail recovers at 70.
        for us in (0..12).map(|i| i * 10) {
            let rail = (30..70).contains(&us);
            let cfg = (10..50).contains(&us);
            a.record(t(us), rail, cfg);
        }
        a.finish(t(120));
        assert_eq!(a.episodes().len(), 1);
        let ep = a.episodes()[0];
        assert_eq!(ep.start, t(30));
        assert_eq!(ep.end, t(70));
        assert_eq!(ep.last_config_unsafe, t(40));
        assert_eq!(ep.overhang(), SimDuration::from_micros(30));
        assert_eq!(a.worst_config_dwell(), SimDuration::from_micros(40));
        assert_eq!(a.total_unsafe(), SimDuration::from_micros(40));
    }

    #[test]
    fn chained_writes_extend_config_not_overhang() {
        let mut a = ExposureAccountant::new();
        // Two back-to-back config-unsafe pulses keep the rail down the
        // whole time; the overhang only counts past the *last* unsafe
        // configured sample.
        for us in (0..30).map(|i| i * 10) {
            let rail = (20..260).contains(&us);
            let cfg = (10..100).contains(&us) || (120..200).contains(&us);
            a.record(t(us), rail, cfg);
        }
        a.finish(t(300));
        assert_eq!(a.episodes().len(), 1);
        let ep = a.episodes()[0];
        assert_eq!(ep.dwell(), SimDuration::from_micros(240));
        assert_eq!(ep.overhang(), SimDuration::from_micros(70));
    }

    #[test]
    fn violation_reports_observed_vs_allowed() {
        let mut a = ExposureAccountant::new();
        for us in (0..50).map(|i| i * 10) {
            a.record(t(us), false, (0..300).contains(&us));
        }
        a.finish(t(500));
        let bound = ExposureBound {
            detection: SimDuration::from_micros(100),
            recovery: SimDuration::from_micros(100),
        };
        let (observed, allowed) = a.violates(&bound).expect("violates");
        assert_eq!(allowed, SimDuration::from_micros(100));
        assert!(observed > allowed);
        let loose = ExposureBound {
            detection: SimDuration::from_micros(400),
            recovery: SimDuration::from_micros(400),
        };
        assert!(a.violates(&loose).is_none());
    }
}
