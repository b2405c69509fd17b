//! The cpufreq subsystem: scaling governors and the scaling driver.
//!
//! Linux exposes DVFS to software through per-policy *scaling governors*
//! with a driver that writes `IA32_PERF_CTL`. The paper's point is that
//! benign processes should keep this whole interface (unlike Intel's
//! access-control fix which locks it down while SGX runs); the polling
//! countermeasure leaves cpufreq untouched.

use crate::machine::{Machine, MachineError};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The scaling governors we model (the common subset of the Linux set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Governor {
    /// Pin to the policy maximum.
    Performance,
    /// Pin to the policy minimum.
    Powersave,
    /// Userspace-chosen fixed frequency (`scaling_setspeed`).
    Userspace(FreqMhz),
    /// Load-proportional between min and max (simplified ondemand).
    Ondemand {
        /// Current load estimate in percent (0–100).
        load_pct: u8,
    },
}

impl fmt::Display for Governor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Governor::Performance => write!(f, "performance"),
            Governor::Powersave => write!(f, "powersave"),
            Governor::Userspace(freq) => write!(f, "userspace({freq})"),
            Governor::Ondemand { load_pct } => write!(f, "ondemand({load_pct}%)"),
        }
    }
}

/// A per-core frequency policy: governor plus min/max bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Active governor.
    pub governor: Governor,
    /// Lower bound (clamped to the hardware table).
    pub min: FreqMhz,
    /// Upper bound (clamped to the hardware table).
    pub max: FreqMhz,
}

impl Policy {
    /// The frequency this policy currently requests.
    #[must_use]
    pub fn requested_freq(&self) -> FreqMhz {
        match self.governor {
            Governor::Performance => self.max,
            Governor::Powersave => self.min,
            Governor::Userspace(f) => FreqMhz(f.0.clamp(self.min.0, self.max.0)),
            Governor::Ondemand { load_pct } => {
                let span = self.max.0 - self.min.0;
                FreqMhz(self.min.0 + span * u32::from(load_pct.min(100)) / 100)
            }
        }
    }
}

/// The cpufreq subsystem state for one machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuFreq {
    policies: Vec<Policy>,
}

impl CpuFreq {
    /// Creates per-core policies spanning the hardware table, with the
    /// `performance`-like default of running at the base frequency via
    /// `Userspace`.
    #[must_use]
    pub fn new(machine: &Machine) -> Self {
        let spec = machine.cpu().spec();
        let table = &spec.freq_table;
        let policy = Policy {
            governor: Governor::Userspace(spec.base_freq),
            min: table.min(),
            max: table.max(),
        };
        CpuFreq {
            policies: vec![policy; machine.cpu().core_count()],
        }
    }

    /// The policy of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn policy(&self, core: CoreId) -> &Policy {
        &self.policies[core.0]
    }

    /// Sets `core`'s governor and applies the resulting frequency through
    /// the scaling driver (a `PERF_CTL` write).
    ///
    /// # Errors
    ///
    /// Propagates machine errors (crashed package…).
    pub fn set_governor(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        governor: Governor,
    ) -> Result<FreqMhz, MachineError> {
        let policy = &mut self.policies[core.0];
        policy.governor = governor;
        let f = policy.requested_freq();
        Self::drive(machine, core, f)
    }

    /// The scaling driver: quantizes to the hardware table and writes
    /// the ratio request to `IA32_PERF_CTL` as an ordinary machine
    /// `wrmsr`, which a tape records (see [`Machine::set_freq`]).
    fn drive(machine: &mut Machine, core: CoreId, f: FreqMhz) -> Result<FreqMhz, MachineError> {
        machine.set_freq(core, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_cpu::model::CpuModel;

    fn setup() -> (Machine, CpuFreq) {
        let m = Machine::new(CpuModel::SkyLake, 2);
        let cf = CpuFreq::new(&m);
        (m, cf)
    }

    #[test]
    fn default_policy_spans_table() {
        let (m, cf) = setup();
        let p = cf.policy(CoreId(0));
        assert_eq!(p.min, FreqMhz(800));
        assert_eq!(p.max, FreqMhz(3_600));
        assert_eq!(p.requested_freq(), FreqMhz(3_200));
        drop(m);
    }

    #[test]
    fn performance_pins_to_max() {
        let (mut m, mut cf) = setup();
        let f = cf
            .set_governor(&mut m, CoreId(0), Governor::Performance)
            .unwrap();
        assert_eq!(f, FreqMhz(3_600));
        assert_eq!(m.cpu().core_freq(CoreId(0)).unwrap(), FreqMhz(3_600));
    }

    #[test]
    fn powersave_pins_to_min() {
        let (mut m, mut cf) = setup();
        let f = cf
            .set_governor(&mut m, CoreId(1), Governor::Powersave)
            .unwrap();
        assert_eq!(f, FreqMhz(800));
    }

    #[test]
    fn ondemand_interpolates() {
        let p = Policy {
            governor: Governor::Ondemand { load_pct: 50 },
            min: FreqMhz(800),
            max: FreqMhz(3_600),
        };
        assert_eq!(p.requested_freq(), FreqMhz(2_200));
        let p0 = Policy {
            governor: Governor::Ondemand { load_pct: 0 },
            ..p
        };
        assert_eq!(p0.requested_freq(), FreqMhz(800));
        let p100 = Policy {
            governor: Governor::Ondemand { load_pct: 100 },
            ..p
        };
        assert_eq!(p100.requested_freq(), FreqMhz(3_600));
    }

    #[test]
    fn governor_display() {
        assert_eq!(Governor::Performance.to_string(), "performance");
        assert_eq!(
            Governor::Userspace(FreqMhz(2_000)).to_string(),
            "userspace(2 GHz)"
        );
    }
}
