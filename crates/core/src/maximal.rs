//! The maximal safe state (Sec. 5) and its vendor-level artifacts.
//!
//! The **maximal safe state** is the maximum negative voltage offset for
//! which a DVFS fault cannot be mounted at *any* frequency of the
//! system's spectrum. It is what makes the countermeasure deployable
//! below the kernel: a single scalar a microcode patch or a clamp MSR
//! can enforce without consulting the full per-frequency map.

use crate::charmap::CharacterizationMap;
use plugvolt_msr::offset_limit::VoltageOffsetLimit;
use serde::{Deserialize, Serialize};

/// The distilled vendor artifact: one bound plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaximalSafeState {
    /// The certified bound (mV, non-positive).
    pub offset_mv: i32,
    /// Guard margin that was applied on top of the raw characterization.
    pub margin_mv: i32,
    /// Name of the CPU the characterization came from.
    pub cpu_name: String,
    /// Microcode revision the characterization was taken under.
    pub microcode: u32,
}

impl MaximalSafeState {
    /// Distills the maximal safe state from a characterization map.
    ///
    /// Returns `None` for an empty map (nothing can be certified).
    #[must_use]
    pub fn from_map(map: &CharacterizationMap, margin_mv: i32) -> Option<Self> {
        let offset_mv = map.maximal_safe_offset_mv(margin_mv)?;
        Some(MaximalSafeState {
            offset_mv,
            margin_mv,
            cpu_name: map.cpu_name().to_owned(),
            microcode: map.microcode(),
        })
    }

    /// Builds the Sec. 5.2 hardware clamp enforcing this bound.
    #[must_use]
    pub fn offset_limit(&self) -> VoltageOffsetLimit {
        VoltageOffsetLimit::new(self.offset_mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charmap::FreqBand;
    use plugvolt_cpu::freq::FreqMhz;
    use plugvolt_msr::oc_mailbox::{OcRequest, Plane};

    fn map() -> CharacterizationMap {
        let mut m = CharacterizationMap::new("demo-cpu", 0xf0, -300);
        m.insert_band(
            FreqMhz(1_000),
            FreqBand {
                fault_onset_mv: Some(-240),
                crash_mv: Some(-260),
            },
        );
        m.insert_band(
            FreqMhz(3_000),
            FreqBand {
                fault_onset_mv: Some(-130),
                crash_mv: Some(-170),
            },
        );
        m
    }

    #[test]
    fn distillation_uses_shallowest_onset() {
        let mss = MaximalSafeState::from_map(&map(), 0).unwrap();
        assert_eq!(mss.offset_mv, -129);
        assert_eq!(mss.cpu_name, "demo-cpu");
        assert_eq!(mss.microcode, 0xf0);
        let with_margin = MaximalSafeState::from_map(&map(), 9).unwrap();
        assert_eq!(with_margin.offset_mv, -120);
    }

    #[test]
    fn empty_map_certifies_nothing() {
        let empty = CharacterizationMap::new("x", 0, -300);
        assert!(MaximalSafeState::from_map(&empty, 0).is_none());
    }

    #[test]
    fn artifacts_enforce_the_same_bound() {
        let mss = MaximalSafeState::from_map(&map(), 4).unwrap(); // −125
        assert_eq!(mss.offset_mv, -125);
        // The hardware clamp pulls a deep request up to the bound.
        let clamped = mss
            .offset_limit()
            .clamp(OcRequest::write_offset(-250, Plane::Core));
        assert_eq!(clamped.offset_mv(), -125);
    }

    #[test]
    fn serde_round_trip() {
        let mss = MaximalSafeState::from_map(&map(), 0).unwrap();
        let json = serde_json::to_string(&mss).unwrap();
        let back: MaximalSafeState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mss);
    }
}
