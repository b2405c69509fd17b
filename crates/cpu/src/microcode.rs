//! The microcode sequencer patch (Sec. 5.1 deployment point).
//!
//! Microcode updates are loaded through BIOS/UEFI at reset and can patch
//! CPU behaviour in place. The sequencer handles conditional microcode
//! branches, which makes it the natural host for the paper's deeper
//! countermeasure deployment: when a `wrmsr` targets MSR 0x150 with an
//! offset that would violate the **maximal safe state**, a conditional
//! branch simply *ignores* the write — behaviour Intel already implements
//! on several other MSRs. [`crate::package::CpuPackage::wrmsr`] consults
//! the loaded patch right after the OCM-disable gate.

use plugvolt_msr::oc_mailbox::OcRequest;
use serde::{Deserialize, Serialize};

/// The Sec. 5.1 microcode update: a revision number plus the maximal
/// safe state it enforces on MSR 0x150.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicrocodeUpdate {
    /// Revision reported in `IA32_BIOS_SIGN_ID` once loaded.
    pub revision: u32,
    /// The maximal safe state bound (non-positive mV): any 0x150 write
    /// requesting a deeper undervolt is write-ignored.
    pub max_offset_mv: i32,
}

impl MicrocodeUpdate {
    /// Builds the Sec. 5.1 maximal-safe-state patch.
    ///
    /// # Panics
    ///
    /// Panics if `max_offset_mv` is positive.
    #[must_use]
    pub fn maximal_safe_state(revision: u32, max_offset_mv: i32) -> Self {
        assert!(
            max_offset_mv <= 0,
            "maximal safe state is an undervolt bound"
        );
        MicrocodeUpdate {
            revision,
            max_offset_mv,
        }
    }

    /// Whether the patch write-ignores `value` written to MSR 0x150: a
    /// write request undervolting past the bound. Reads, safe writes and
    /// malformed values (which the mailbox hardware rejects anyway) pass.
    #[must_use]
    pub fn ignores_mailbox_write(&self, value: u64) -> bool {
        OcRequest::decode(value)
            .is_ok_and(|req| req.is_write() && req.offset_mv() < self.max_offset_mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_msr::oc_mailbox::Plane;

    fn patch() -> MicrocodeUpdate {
        MicrocodeUpdate::maximal_safe_state(0xf5, -125)
    }

    #[test]
    fn maximal_safe_state_patch_filters_by_depth() {
        let safe = OcRequest::write_offset(-100, Plane::Core).encode();
        let unsafe_ = OcRequest::write_offset(-250, Plane::Core).encode();
        assert!(!patch().ignores_mailbox_write(safe));
        assert!(patch().ignores_mailbox_write(unsafe_));
    }

    #[test]
    fn reads_pass_the_safe_state_patch() {
        let read = OcRequest::read(Plane::Core).encode();
        assert!(!patch().ignores_mailbox_write(read));
    }

    #[test]
    fn malformed_values_pass_through() {
        // Run bit clear: mailbox hardware will reject; microcode lets it by.
        assert!(!patch().ignores_mailbox_write(0));
    }

    #[test]
    fn boundary_offset_is_allowed() {
        let at_bound = OcRequest::write_offset(-125, Plane::Core).encode();
        assert!(!patch().ignores_mailbox_write(at_bound));
    }

    #[test]
    #[should_panic(expected = "undervolt bound")]
    fn positive_bound_rejected() {
        let _ = MicrocodeUpdate::maximal_safe_state(0xf5, 10);
    }
}
