//! The per-package MSR register file.
//!
//! `rdmsr`/`wrmsr` of an unimplemented address raise `#GP` on real parts;
//! [`MsrFile`] reproduces that. The file only stores: the Sec. 5 write
//! gates on MSR 0x150 (OCM disable, the microcode patch, the hardware
//! clamp) live in the CPU package's `wrmsr`, which reports their verdict
//! as a [`WriteOutcome`].

use crate::addr::Msr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a `wrmsr` concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteOutcome {
    /// The value (after any clamp) was stored.
    Written {
        /// The value actually stored.
        stored: u64,
    },
    /// A write gate ignored it; the register is unchanged.
    Ignored,
}

impl WriteOutcome {
    /// Whether anything was stored.
    #[must_use]
    pub fn was_written(self) -> bool {
        matches!(self, WriteOutcome::Written { .. })
    }
}

/// MSR access errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsrError {
    /// `#GP`: the address is not implemented on this part.
    GeneralProtection {
        /// The offending address.
        msr: Msr,
    },
    /// `#GP` raised on a write the part refuses (e.g. a locked
    /// register).
    WriteFault {
        /// The offending address.
        msr: Msr,
    },
}

impl fmt::Display for MsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsrError::GeneralProtection { msr } => {
                write!(f, "#GP: access to unimplemented {msr}")
            }
            MsrError::WriteFault { msr } => write!(f, "#GP: write to {msr} rejected"),
        }
    }
}

impl std::error::Error for MsrError {}

/// The register file of one CPU package.
///
/// # Examples
///
/// ```
/// use plugvolt_msr::addr::Msr;
/// use plugvolt_msr::file::MsrFile;
///
/// let mut file = MsrFile::new();
/// file.implement(Msr::OC_MAILBOX, 0);
/// file.wrmsr(Msr::OC_MAILBOX, 0xABC)?;
/// assert_eq!(file.rdmsr(Msr::OC_MAILBOX)?, 0xABC);
/// assert!(file.rdmsr(Msr(0xDEAD)).is_err());
/// # Ok::<(), plugvolt_msr::file::MsrError>(())
/// ```
#[derive(Debug, Default)]
pub struct MsrFile {
    /// Implemented registers and their values, in implementation order.
    /// A package implements about ten, so a linear scan beats a tree.
    regs: Vec<(Msr, u64)>,
}

impl MsrFile {
    /// Creates an empty register file.
    #[must_use]
    pub fn new() -> Self {
        MsrFile::default()
    }

    /// Declares `msr` implemented with a reset value. Re-implementing an
    /// address resets it.
    pub fn implement(&mut self, msr: Msr, reset_value: u64) {
        match slot(&mut self.regs, msr) {
            Some(value) => *value = reset_value,
            None => self.regs.push((msr, reset_value)),
        }
    }

    /// `rdmsr`.
    ///
    /// # Errors
    ///
    /// [`MsrError::GeneralProtection`] if `msr` is not implemented.
    pub fn rdmsr(&self, msr: Msr) -> Result<u64, MsrError> {
        self.regs
            .iter()
            .find_map(|&(m, value)| (m == msr).then_some(value))
            .ok_or(MsrError::GeneralProtection { msr })
    }

    /// `wrmsr`: stores `value`.
    ///
    /// # Errors
    ///
    /// [`MsrError::GeneralProtection`] if `msr` is not implemented.
    pub fn wrmsr(&mut self, msr: Msr, value: u64) -> Result<(), MsrError> {
        let slot = slot(&mut self.regs, msr).ok_or(MsrError::GeneralProtection { msr })?;
        *slot = value;
        Ok(())
    }

    /// Stores a hardware-internal update (e.g. the package refreshing
    /// `IA32_PERF_STATUS`), not a software `wrmsr`.
    ///
    /// # Panics
    ///
    /// Panics if `msr` is not implemented: internal hardware state updates
    /// target registers the package declared at reset.
    pub fn store_internal(&mut self, msr: Msr, value: u64) {
        let slot = slot(&mut self.regs, msr)
            // Documented invariant (see `# Panics` above): internal stores
            // only target registers declared at reset.
            // plugvolt-lint: allow(no-unwrap-in-lib)
            .unwrap_or_else(|| panic!("internal store to unimplemented {msr}"));
        *slot = value;
    }
}

/// The value slot of `msr` in a register list, if implemented.
fn slot(regs: &mut [(Msr, u64)], msr: Msr) -> Option<&mut u64> {
    regs.iter_mut()
        .find_map(|(m, value)| (*m == msr).then_some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> MsrFile {
        let mut f = MsrFile::new();
        f.implement(Msr::OC_MAILBOX, 0);
        f
    }

    #[test]
    fn unimplemented_accesses_gp() {
        let mut f = file();
        assert_eq!(
            f.rdmsr(Msr(0x1234)),
            Err(MsrError::GeneralProtection { msr: Msr(0x1234) })
        );
        assert_eq!(
            f.wrmsr(Msr(0x1234), 1),
            Err(MsrError::GeneralProtection { msr: Msr(0x1234) })
        );
    }

    #[test]
    fn plain_write_read() {
        let mut f = file();
        f.wrmsr(Msr::OC_MAILBOX, 77).unwrap();
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 77);
    }

    #[test]
    fn store_internal_writes_through() {
        let mut f = file();
        f.store_internal(Msr::OC_MAILBOX, 9);
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 9);
    }

    #[test]
    #[should_panic(expected = "internal store to unimplemented")]
    fn store_internal_requires_implemented() {
        let mut f = file();
        f.store_internal(Msr(0x9999), 1);
    }

    #[test]
    fn reimplement_resets() {
        let mut f = file();
        f.wrmsr(Msr::OC_MAILBOX, 5).unwrap();
        f.implement(Msr::OC_MAILBOX, 0);
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 0);
    }
}
