//! The per-package MSR register file with microcode intercept hooks.
//!
//! `rdmsr`/`wrmsr` of an unimplemented address raise `#GP` on real parts;
//! [`MsrFile`] reproduces that. Writes pass through an ordered chain of
//! [`MsrInterceptor`]s first — this is the mechanism the paper's Sec. 5.1
//! microcode countermeasure hooks: a microcode sequencer patch can *allow*,
//! *clamp* or *write-ignore* a `wrmsr` to 0x150 (write-ignore behaviour is
//! implemented on several real MSRs).

use crate::addr::Msr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// What an interceptor decides about a pending `wrmsr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteDisposition {
    /// Let the (possibly already clamped) value through.
    Allow,
    /// Silently drop the write, leaving the register unchanged — the
    /// paper's microcode "write-ignore".
    Ignore,
    /// Replace the value and continue down the chain.
    Clamp(u64),
    /// Raise `#GP` to the writer.
    Fault,
}

/// How a `wrmsr` concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteOutcome {
    /// The value (after any clamps) was stored.
    Written {
        /// The value actually stored.
        stored: u64,
    },
    /// An interceptor write-ignored it; the register is unchanged.
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
    /// `#GP` raised by an interceptor (e.g. a locked register).
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

/// A microcode-level write intercept.
///
/// Interceptors run in registration order; the first `Ignore` or `Fault`
/// wins, `Clamp`ed values feed the next interceptor.
pub trait MsrInterceptor {
    /// Short name for traces, e.g. `"maximal-safe-state-patch"`.
    /// Sampled once at registration — [`MsrFile`] indexes the chain by
    /// this value, so it must be stable for the interceptor's lifetime.
    fn name(&self) -> &str;

    /// Decides what happens to a pending write of `value` to `msr`.
    fn on_write(&mut self, msr: Msr, value: u64) -> WriteDisposition;
}

/// One registered interceptor: the hook plus its registration-time name
/// (cached so name lookups never re-enter the trait object).
struct InterceptorEntry {
    name: Box<str>,
    hook: Box<dyn MsrInterceptor>,
}

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
#[derive(Default)]
pub struct MsrFile {
    regs: BTreeMap<Msr, u64>,
    /// The chain, in registration order.
    interceptors: Vec<InterceptorEntry>,
    /// Registered-name index: name → number of chain entries bearing it.
    /// Keeps [`MsrFile::has_interceptor`] and the absent-name fast path
    /// of [`MsrFile::remove_interceptor`] off the chain entirely.
    by_name: BTreeMap<Box<str>, usize>,
}

impl fmt::Debug for MsrFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsrFile")
            .field("implemented", &self.regs.len())
            .field(
                "interceptors",
                &self.interceptor_names().collect::<Vec<_>>(),
            )
            .finish()
    }
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
        self.regs.insert(msr, reset_value);
    }

    /// Registers a write interceptor at the end of the chain, caching
    /// its name in the index. Returns an identifier for
    /// [`remove_interceptor`](Self::remove_interceptor).
    pub fn add_interceptor(&mut self, interceptor: Box<dyn MsrInterceptor>) -> usize {
        let name: Box<str> = interceptor.name().into();
        *self.by_name.entry(name.clone()).or_insert(0) += 1;
        self.interceptors.push(InterceptorEntry {
            name,
            hook: interceptor,
        });
        self.interceptors.len() - 1
    }

    /// Removes every interceptor registered under `name` (chain order of
    /// the rest is preserved). Returns whether any was removed. The
    /// absent-name case is an index lookup that never walks the chain.
    pub fn remove_interceptor(&mut self, name: &str) -> bool {
        if self.by_name.remove(name).is_none() {
            return false;
        }
        self.interceptors.retain(|e| &*e.name != name);
        true
    }

    /// Whether any interceptor is registered under `name` — an index
    /// lookup, no chain walk, no virtual call.
    #[must_use]
    pub fn has_interceptor(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Names of the registered interceptors, in chain order — served
    /// from the registration-time cache without re-entering the trait
    /// objects.
    pub fn interceptor_names(&self) -> impl Iterator<Item = &str> {
        self.interceptors.iter().map(|e| &*e.name)
    }

    /// `rdmsr`.
    ///
    /// # Errors
    ///
    /// [`MsrError::GeneralProtection`] if `msr` is not implemented.
    pub fn rdmsr(&self, msr: Msr) -> Result<u64, MsrError> {
        self.regs
            .get(&msr)
            .copied()
            .ok_or(MsrError::GeneralProtection { msr })
    }

    /// `wrmsr`, running the interceptor chain.
    ///
    /// # Errors
    ///
    /// [`MsrError::GeneralProtection`] if `msr` is not implemented, or
    /// [`MsrError::WriteFault`] if an interceptor faulted the write.
    pub fn wrmsr(&mut self, msr: Msr, value: u64) -> Result<WriteOutcome, MsrError> {
        // One map traversal: hold the slot across the interceptor chain
        // (disjoint field borrows) instead of probing again to store.
        let Some(slot) = self.regs.get_mut(&msr) else {
            return Err(MsrError::GeneralProtection { msr });
        };
        let mut value = value;
        for i in &mut self.interceptors {
            match i.hook.on_write(msr, value) {
                WriteDisposition::Allow => {}
                WriteDisposition::Ignore => return Ok(WriteOutcome::Ignored),
                WriteDisposition::Clamp(v) => value = v,
                WriteDisposition::Fault => return Err(MsrError::WriteFault { msr }),
            }
        }
        *slot = value;
        Ok(WriteOutcome::Written { stored: value })
    }

    /// Stores directly, bypassing interceptors — hardware-internal updates
    /// (e.g. the package refreshing `IA32_PERF_STATUS`), not software
    /// `wrmsr`.
    ///
    /// # Panics
    ///
    /// Panics if `msr` is not implemented: internal hardware state updates
    /// target registers the package declared at reset.
    pub fn store_internal(&mut self, msr: Msr, value: u64) {
        let slot = self
            .regs
            .get_mut(&msr)
            // Documented invariant (see `# Panics` above): internal stores
            // only target registers declared at reset.
            // plugvolt-lint: allow(no-unwrap-in-lib)
            .unwrap_or_else(|| panic!("internal store to unimplemented {msr}"));
        *slot = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ClampAbove {
        limit: u64,
    }

    impl MsrInterceptor for ClampAbove {
        fn name(&self) -> &str {
            "clamp-above"
        }
        fn on_write(&mut self, _msr: Msr, value: u64) -> WriteDisposition {
            if value > self.limit {
                WriteDisposition::Clamp(self.limit)
            } else {
                WriteDisposition::Allow
            }
        }
    }

    struct IgnoreOdd;

    impl MsrInterceptor for IgnoreOdd {
        fn name(&self) -> &str {
            "ignore-odd"
        }
        fn on_write(&mut self, _msr: Msr, value: u64) -> WriteDisposition {
            if value % 2 == 1 {
                WriteDisposition::Ignore
            } else {
                WriteDisposition::Allow
            }
        }
    }

    struct FaultAll;

    impl MsrInterceptor for FaultAll {
        fn name(&self) -> &str {
            "fault-all"
        }
        fn on_write(&mut self, _msr: Msr, _value: u64) -> WriteDisposition {
            WriteDisposition::Fault
        }
    }

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
        let out = f.wrmsr(Msr::OC_MAILBOX, 77).unwrap();
        assert_eq!(out, WriteOutcome::Written { stored: 77 });
        assert!(out.was_written());
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 77);
    }

    #[test]
    fn clamp_interceptor_rewrites() {
        let mut f = file();
        f.add_interceptor(Box::new(ClampAbove { limit: 100 }));
        let out = f.wrmsr(Msr::OC_MAILBOX, 500).unwrap();
        assert_eq!(out, WriteOutcome::Written { stored: 100 });
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 100);
    }

    #[test]
    fn ignore_interceptor_preserves_old_value() {
        let mut f = file();
        f.wrmsr(Msr::OC_MAILBOX, 42).unwrap();
        f.add_interceptor(Box::new(IgnoreOdd));
        let out = f.wrmsr(Msr::OC_MAILBOX, 43).unwrap();
        assert_eq!(out, WriteOutcome::Ignored);
        assert!(!out.was_written());
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 42);
    }

    #[test]
    fn fault_interceptor_raises_gp() {
        let mut f = file();
        f.add_interceptor(Box::new(FaultAll));
        assert_eq!(
            f.wrmsr(Msr::OC_MAILBOX, 1),
            Err(MsrError::WriteFault {
                msr: Msr::OC_MAILBOX
            })
        );
    }

    #[test]
    fn chain_order_clamp_then_ignore() {
        let mut f = file();
        f.wrmsr(Msr::OC_MAILBOX, 42).unwrap();
        f.add_interceptor(Box::new(ClampAbove { limit: 101 }));
        f.add_interceptor(Box::new(IgnoreOdd));
        // 500 clamps to 101 (odd), which the second interceptor ignores.
        assert_eq!(
            f.wrmsr(Msr::OC_MAILBOX, 500).unwrap(),
            WriteOutcome::Ignored
        );
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 42);
    }

    #[test]
    fn remove_interceptor_by_name() {
        let mut f = file();
        f.add_interceptor(Box::new(IgnoreOdd));
        assert!(f.has_interceptor("ignore-odd"));
        assert!(f.remove_interceptor("ignore-odd"));
        assert!(!f.has_interceptor("ignore-odd"));
        assert!(!f.remove_interceptor("ignore-odd"));
        assert!(f.wrmsr(Msr::OC_MAILBOX, 43).unwrap().was_written());
    }

    #[test]
    fn duplicate_names_all_removed_order_preserved() {
        let mut f = file();
        f.add_interceptor(Box::new(ClampAbove { limit: 100 }));
        f.add_interceptor(Box::new(IgnoreOdd));
        f.add_interceptor(Box::new(ClampAbove { limit: 50 }));
        assert_eq!(
            f.interceptor_names().collect::<Vec<_>>(),
            ["clamp-above", "ignore-odd", "clamp-above"]
        );
        // Removing a duplicated name drops every bearer; the survivor
        // keeps its chain position.
        assert!(f.remove_interceptor("clamp-above"));
        assert!(!f.has_interceptor("clamp-above"));
        assert_eq!(f.interceptor_names().collect::<Vec<_>>(), ["ignore-odd"]);
        // Neither clamp runs any more; the ignore still does.
        assert!(f.wrmsr(Msr::OC_MAILBOX, 500).unwrap().was_written());
        assert_eq!(f.rdmsr(Msr::OC_MAILBOX).unwrap(), 500);
        assert_eq!(
            f.wrmsr(Msr::OC_MAILBOX, 501).unwrap(),
            WriteOutcome::Ignored
        );
    }

    #[test]
    fn remove_while_iterating_names_is_safe() {
        // The classic hazard the name index must survive: walk a
        // snapshot of the chain and remove entries mid-walk. The cached
        // names make the snapshot cheap, and each removal keeps the
        // index and the chain consistent for the next step.
        let mut f = file();
        f.add_interceptor(Box::new(ClampAbove { limit: 100 }));
        f.add_interceptor(Box::new(IgnoreOdd));
        f.add_interceptor(Box::new(FaultAll));
        f.add_interceptor(Box::new(IgnoreOdd));
        let snapshot: Vec<String> = f.interceptor_names().map(str::to_owned).collect();
        assert_eq!(snapshot.len(), 4);
        for name in &snapshot {
            // Duplicates were bulk-removed by their first occurrence;
            // a second visit must report "nothing to remove" rather
            // than corrupt the index.
            let before = f.interceptor_names().count();
            let removed = f.remove_interceptor(name);
            assert_eq!(removed, f.interceptor_names().count() < before);
            assert!(!f.has_interceptor(name));
        }
        assert_eq!(f.interceptor_names().count(), 0);
        assert!(f.wrmsr(Msr::OC_MAILBOX, 77).unwrap().was_written());
    }

    #[test]
    fn store_internal_bypasses_interceptors() {
        let mut f = file();
        f.add_interceptor(Box::new(FaultAll));
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
