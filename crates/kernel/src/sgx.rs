//! SGX remote attestation and the stepping adversary (threat-model
//! substrate).
//!
//! The paper's threat model (Sec. 4.1) hinges on what the SGX attestation
//! report *attests*:
//!
//! - Intel's fix for CVE-2019-11157 added the **disabled status of the
//!   overclocking mailbox** to the report — denying DVFS to benign
//!   software whenever an enclave must be trusted;
//! - the paper instead proposes attesting the **load state of the
//!   countermeasure kernel module**, so the OCM can stay enabled.
//!
//! It also models the single/zero-stepping adversary (SGX-Step-style)
//! that defeats trap-deflection defenses but not state polling.

use crate::machine::Machine;
use serde::{Deserialize, Serialize};

/// A signed attestation *quote*: the report plus a MAC under a key only
/// the (simulated) CPU holds. The paper's threat model gives the
/// adversary the OS and BIOS — but not the CPU — so a quote it forges or
/// replays with altered contents fails verification. The MAC here is a
/// keyed sponge over the canonical report encoding (a stand-in for
/// EPID/ECDSA quoting; collision resistance is not the point, key
/// separation from the OS is).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// The attested report.
    pub report: AttestationReport,
    /// MAC over the canonical report encoding.
    pub mac: u64,
}

/// The CPU-held quoting key (per package, derived from fuses; the
/// simulated fuse value is fixed per machine seed in a real deployment —
/// here a constant suffices since the adversary never learns it).
const QUOTING_KEY: u64 = 0x5EED_F00D_CAFE_D00D;

fn mac_bytes(key: u64, bytes: &[u8]) -> u64 {
    // Keyed SplitMix sponge: absorb 8 bytes at a time.
    let mut state = key ^ 0x9E37_79B9_7F4A_7C15;
    for chunk in bytes.chunks(8) {
        let mut block = [0u8; 8];
        block[..chunk.len()].copy_from_slice(chunk);
        state ^= u64::from_le_bytes(block);
        state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state ^= state >> 27;
        state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
        state ^= state >> 31;
    }
    state
}

impl Quote {
    /// The CPU quoting operation: only reachable through the package
    /// (the OS cannot invoke it with arbitrary report contents).
    #[must_use]
    pub fn issue(machine: &Machine) -> Quote {
        let report = AttestationReport::collect(machine);
        let mac = mac_bytes(QUOTING_KEY, &report.canonical_bytes());
        Quote { report, mac }
    }

    /// Remote verification: recompute the MAC over the claimed report.
    #[must_use]
    pub fn verify(&self) -> bool {
        mac_bytes(QUOTING_KEY, &self.report.canonical_bytes()) == self.mac
    }
}

/// What a verifier learns from a (simulated) SGX attestation quote.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttestationReport {
    /// Microcode revision in the CPU SVN.
    pub microcode_revision: u32,
    /// Whether the overclocking mailbox is disabled (Intel's fix \[12\]).
    pub ocm_disabled: bool,
    /// Whether hyper-threading is off (already attested on real parts).
    pub hyperthreading_disabled: bool,
    /// Kernel modules loaded at quote time — carries the paper's
    /// proposed countermeasure-module attestation.
    pub loaded_modules: Vec<String>,
}

impl AttestationReport {
    /// Collects a report from the running machine.
    #[must_use]
    pub fn collect(machine: &Machine) -> Self {
        AttestationReport {
            microcode_revision: machine.cpu().microcode_revision(),
            ocm_disabled: !machine.cpu().ocm_enabled(),
            hyperthreading_disabled: true,
            loaded_modules: machine.loaded_modules().map(str::to_owned).collect(),
        }
    }

    /// The paper's acceptance policy: the verifier requires the polling
    /// countermeasure module to be loaded (and does **not** require the
    /// OCM to be disabled).
    #[must_use]
    pub fn acceptable_to_plugvolt_verifier(&self, module_name: &str) -> bool {
        self.loaded_modules.iter().any(|m| m == module_name)
    }

    /// Intel's CVE-2019-11157 acceptance policy: OCM must be disabled.
    #[must_use]
    pub fn acceptable_to_intel_verifier(&self) -> bool {
        self.ocm_disabled
    }

    /// Canonical byte encoding the quote MAC covers.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.microcode_revision.to_le_bytes());
        out.push(u8::from(self.ocm_disabled));
        out.push(u8::from(self.hyperthreading_disabled));
        for m in &self.loaded_modules {
            out.extend_from_slice(&(m.len() as u32).to_le_bytes());
            out.extend_from_slice(m.as_bytes());
        }
        out
    }
}

/// How precisely the adversary can interrupt enclave execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SteppingCapability {
    /// No fine-grained control (the weaker model prior defenses assume).
    None,
    /// APIC-timer single-stepping (SGX-Step \[27\]): isolate one
    /// instruction per resume.
    SingleStep,
    /// Zero-stepping \[17\]: replay without forward progress, giving the
    /// adversary unbounded time between fault injection and any
    /// in-enclave detection (trap) running.
    ZeroStep,
}

impl SteppingCapability {
    /// Whether this adversary can isolate the faulted instruction from a
    /// subsequently executed in-enclave *trap* check — i.e. whether a
    /// Minefield-style deflection defense can be raced.
    #[must_use]
    pub fn defeats_trap_deflection(self) -> bool {
        !matches!(self, SteppingCapability::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{KernelModule, ModuleCtx};
    use plugvolt_cpu::model::CpuModel;
    use plugvolt_des::time::SimDuration;

    struct Noop;
    impl KernelModule for Noop {
        fn name(&self) -> &str {
            "plugvolt-poll"
        }
        fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            None
        }
        fn on_timer(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            None
        }
    }

    #[test]
    fn report_reflects_machine_state() {
        let mut m = Machine::new(CpuModel::SkyLake, 6);
        let r = AttestationReport::collect(&m);
        assert!(!r.ocm_disabled);
        assert_eq!(r.microcode_revision, 0xf0);
        assert!(r.loaded_modules.is_empty());
        m.load_module(Box::new(Noop)).unwrap();
        m.cpu_mut().set_ocm_enabled(false);
        let r = AttestationReport::collect(&m);
        assert!(r.ocm_disabled);
        assert_eq!(r.loaded_modules, vec!["plugvolt-poll".to_owned()]);
    }

    #[test]
    fn verifier_policies_differ() {
        let mut m = Machine::new(CpuModel::SkyLake, 6);
        m.load_module(Box::new(Noop)).unwrap();
        let r = AttestationReport::collect(&m);
        // Paper's verifier: module loaded suffices, OCM may stay enabled.
        assert!(r.acceptable_to_plugvolt_verifier("plugvolt-poll"));
        assert!(!r.acceptable_to_intel_verifier());
        // Unloading the module is attestation-visible (Sec. 4.1).
        m.unload_module("plugvolt-poll").unwrap();
        let r = AttestationReport::collect(&m);
        assert!(!r.acceptable_to_plugvolt_verifier("plugvolt-poll"));
    }

    #[test]
    fn quotes_verify_and_forgeries_fail() {
        let mut m = Machine::new(CpuModel::SkyLake, 6);
        m.load_module(Box::new(Noop)).unwrap();
        let quote = Quote::issue(&m);
        assert!(quote.verify());
        assert!(quote
            .report
            .acceptable_to_plugvolt_verifier("plugvolt-poll"));

        // The OS adversary unloads the module and tries to keep showing
        // the old report — but the honest quote now differs, and editing
        // the report body breaks the MAC.
        m.unload_module("plugvolt-poll").unwrap();
        let honest = Quote::issue(&m);
        assert!(honest.verify());
        assert!(!honest
            .report
            .acceptable_to_plugvolt_verifier("plugvolt-poll"));
        let mut forged = honest.clone();
        forged.report.loaded_modules = vec!["plugvolt-poll".to_owned()];
        assert!(!forged.verify(), "forged module list must not verify");
        let mut tampered = quote;
        tampered.report.ocm_disabled = true;
        assert!(!tampered.verify());
    }

    #[test]
    fn canonical_encoding_is_injective_on_module_lists() {
        // ["ab","c"] must not collide with ["a","bc"].
        let a = AttestationReport {
            microcode_revision: 1,
            ocm_disabled: false,
            hyperthreading_disabled: true,
            loaded_modules: vec!["ab".into(), "c".into()],
        };
        let b = AttestationReport {
            loaded_modules: vec!["a".into(), "bc".into()],
            ..a.clone()
        };
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn stepping_defeats_deflection() {
        assert!(!SteppingCapability::None.defeats_trap_deflection());
        assert!(SteppingCapability::SingleStep.defeats_trap_deflection());
        assert!(SteppingCapability::ZeroStep.defeats_trap_deflection());
    }
}
