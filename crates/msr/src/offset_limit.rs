//! The paper's hypothetical `MSR_VOLTAGE_OFFSET_LIMIT` (Sec. 5.2).
//!
//! A vendor-provisioned register clamping what MSR 0x150 may request:
//! writes asking for an undervolt deeper than the **maximal safe state**
//! characterized for the CPU generation are clamped to that bound.
//! These are the semantics of the DRAM power-limit pair, transplanted to
//! voltage: software may request any limit through
//! `MSR_DRAM_POWER_LIMIT`, but a request below the `DRAM_MIN_PWR` floor
//! advertised in `MSR_DRAM_POWER_INFO` is silently raised to that floor.
//!
//! Layout (our design, no real part implements this):
//!
//! - bits 10:0 — maximum allowed undervolt *magnitude*, 1/1024 V units;
//! - bit 63 — enable.

use crate::oc_mailbox::{mv_to_units, units_to_mv, OcRequest};
use serde::{Deserialize, Serialize};

/// A decoded `MSR_VOLTAGE_OFFSET_LIMIT` value.
///
/// # Examples
///
/// ```
/// use plugvolt_msr::offset_limit::VoltageOffsetLimit;
/// use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
///
/// // Hardware provisioned with a −125 mV maximal safe state:
/// let limit = VoltageOffsetLimit::new(-125);
/// let req = OcRequest::write_offset(-250, Plane::Core);
/// let clamped = limit.clamp(req);
/// assert_eq!(clamped.offset_mv(), -125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VoltageOffsetLimit {
    max_undervolt_units: u16, // 11 bits, magnitude
    enabled: bool,
}

impl VoltageOffsetLimit {
    /// Creates an enabled limit allowing undervolts down to
    /// `max_offset_mv` (a non-positive millivolt offset).
    ///
    /// # Panics
    ///
    /// Panics if `max_offset_mv` is positive or deeper than the mailbox
    /// field allows.
    #[must_use]
    pub fn new(max_offset_mv: i32) -> Self {
        assert!(
            max_offset_mv <= 0,
            "limit must be a (non-positive) undervolt bound"
        );
        assert!(
            max_offset_mv >= OcRequest::MIN_OFFSET_MV,
            "limit {max_offset_mv} mV deeper than the mailbox field"
        );
        VoltageOffsetLimit {
            max_undervolt_units: mv_to_units(-max_offset_mv) as u16,
            enabled: true,
        }
    }

    /// A disabled limit: all requests pass through.
    #[must_use]
    pub fn disabled() -> Self {
        VoltageOffsetLimit {
            max_undervolt_units: 0,
            enabled: false,
        }
    }

    /// Whether clamping is active.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        self.enabled
    }

    /// The deepest permitted offset in millivolts (non-positive), or
    /// `None` when disabled.
    #[must_use]
    pub fn max_offset_mv(self) -> Option<i32> {
        self.enabled
            .then(|| -units_to_mv(self.max_undervolt_units as i16))
    }

    /// Clamps a mailbox request: undervolts deeper than the bound are
    /// pulled up to it; reads, overvolts and shallow undervolts pass
    /// unchanged. Non-core planes are clamped identically (the bound is
    /// characterized per package).
    #[must_use]
    pub fn clamp(self, req: OcRequest) -> OcRequest {
        if !self.enabled || !req.is_write() {
            return req;
        }
        let bound_units = -(self.max_undervolt_units as i16);
        if req.offset_units() < bound_units {
            req.with_offset_units(bound_units)
        } else {
            req
        }
    }

    /// Encodes to the raw 64-bit MSR value.
    #[must_use]
    pub fn encode(self) -> u64 {
        u64::from(self.max_undervolt_units & 0x7FF) | (u64::from(self.enabled) << 63)
    }

    /// Decodes a raw 64-bit MSR value.
    #[must_use]
    pub fn decode(raw: u64) -> Self {
        VoltageOffsetLimit {
            max_undervolt_units: (raw & 0x7FF) as u16,
            enabled: raw >> 63 == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oc_mailbox::Plane;

    #[test]
    fn round_trip() {
        let l = VoltageOffsetLimit::new(-130);
        let back = VoltageOffsetLimit::decode(l.encode());
        assert_eq!(back, l);
        assert_eq!(back.max_offset_mv(), Some(-130));
    }

    #[test]
    fn disabled_reports_none_and_passes_everything() {
        let l = VoltageOffsetLimit::disabled();
        assert_eq!(l.max_offset_mv(), None);
        let deep = OcRequest::write_offset(-400, Plane::Core);
        assert_eq!(l.clamp(deep), deep);
    }

    #[test]
    fn clamps_deep_undervolts() {
        let l = VoltageOffsetLimit::new(-100);
        let clamped = l.clamp(OcRequest::write_offset(-300, Plane::Core));
        assert_eq!(clamped.offset_mv(), -100);
        assert_eq!(clamped.plane(), Plane::Core);
        assert!(clamped.is_write());
    }

    #[test]
    fn passes_shallow_and_positive_offsets() {
        let l = VoltageOffsetLimit::new(-100);
        let shallow = OcRequest::write_offset(-50, Plane::Core);
        assert_eq!(l.clamp(shallow), shallow);
        let over = OcRequest::write_offset(40, Plane::Core);
        assert_eq!(l.clamp(over), over);
    }

    #[test]
    fn exact_bound_passes() {
        let l = VoltageOffsetLimit::new(-100);
        let at = OcRequest::write_offset(-100, Plane::Core);
        assert_eq!(l.clamp(at).offset_mv(), -100);
    }

    #[test]
    fn reads_pass_unchanged() {
        let l = VoltageOffsetLimit::new(-10);
        let read = OcRequest::read(Plane::Uncore);
        assert_eq!(l.clamp(read), read);
    }

    #[test]
    fn clamps_all_planes() {
        let l = VoltageOffsetLimit::new(-80);
        for plane in Plane::ALL {
            let c = l.clamp(OcRequest::write_offset(-200, plane));
            // Clamped to the bound, never deeper; unit quantization may
            // leave it up to 1 mV shallower.
            assert!(
                (-80..=-79).contains(&c.offset_mv()),
                "plane {plane}: {}",
                c.offset_mv()
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn positive_bound_rejected() {
        let _ = VoltageOffsetLimit::new(50);
    }
}
