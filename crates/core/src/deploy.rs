//! Countermeasure deployment levels (Sec. 4.3 and Sec. 5).
//!
//! The same characterization artifact can back three deployments:
//!
//! 1. **Kernel module** (Sec. 4.3) — the polling loop; software-only,
//!    deployable today, turnaround bounded by the polling period;
//! 2. **Microcode** (Sec. 5.1) — a sequencer patch that write-ignores
//!    unsafe `wrmsr 0x150` values against the maximal safe state;
//! 3. **Hardware MSR** (Sec. 5.2) — a `MSR_VOLTAGE_OFFSET_LIMIT` clamp
//!    with `DRAM_MIN_PWR` semantics.
//!
//! Plus the two baselines the paper compares against: Intel's
//! access-control fix (OCM disable, CVE-2019-11157) and no defense.

use crate::charmap::CharacterizationMap;
use crate::poll::{PollConfig, PollingModule, StatsHandle};
use plugvolt_cpu::microcode::MicrocodeUpdate;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_msr::offset_limit::VoltageOffsetLimit;
use serde::{Deserialize, Serialize};

/// Default guard margin applied on top of the characterized maximal safe
/// state for the microcode and hardware deployments.
pub const DEFAULT_MARGIN_MV: i32 = 5;

/// The defense configurations evaluated in the reproduction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Deployment {
    /// No countermeasure (the vulnerable baseline).
    None,
    /// Intel's CVE-2019-11157 response: overclocking mailbox disabled and
    /// attested — blocks benign DVFS along with the attacks.
    OcmDisable,
    /// The paper's polling kernel module.
    PollingModule(PollConfig),
    /// The paper's Sec. 5.1 microcode write-ignore patch.
    Microcode {
        /// Revision of the hypothetical patched microcode.
        revision: u32,
        /// Guard margin on the maximal safe state.
        margin_mv: i32,
    },
    /// The paper's Sec. 5.2 hardware clamp MSR.
    HardwareMsr {
        /// Guard margin on the maximal safe state.
        margin_mv: i32,
    },
}

impl Deployment {
    /// Short label used in reports and traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Deployment::None => "none",
            Deployment::OcmDisable => "ocm-disable",
            Deployment::PollingModule(_) => "polling-module",
            Deployment::Microcode { .. } => "microcode",
            Deployment::HardwareMsr { .. } => "hardware-msr",
        }
    }

    /// Whether benign (safe-state) undervolting keeps working under this
    /// deployment — the availability property the paper optimizes for.
    #[must_use]
    pub fn preserves_benign_dvfs(&self) -> bool {
        !matches!(self, Deployment::OcmDisable)
    }
}

/// A deployed countermeasure, with whatever observability it offers.
#[derive(Debug)]
pub struct Deployed {
    /// Polling statistics, present for the kernel-module level.
    pub poll_stats: Option<StatsHandle>,
}

/// Installs `deployment` on the machine, using `map` for every level
/// that consumes the characterization.
///
/// # Errors
///
/// Propagates machine/module errors.
pub fn deploy(
    machine: &mut Machine,
    map: &CharacterizationMap,
    deployment: Deployment,
) -> Result<Deployed, MachineError> {
    let mut poll_stats = None;
    match deployment {
        Deployment::None => {}
        Deployment::OcmDisable => {
            machine.cpu_mut().set_ocm_enabled(false);
        }
        Deployment::PollingModule(cfg) => {
            let (module, stats) = PollingModule::new(map.clone(), cfg);
            machine.load_module(Box::new(module))?;
            poll_stats = Some(stats);
        }
        Deployment::Microcode {
            revision,
            margin_mv,
        } => {
            let bound = map.maximal_safe_offset_mv(margin_mv).unwrap_or(0);
            machine
                .cpu_mut()
                .load_microcode(MicrocodeUpdate::maximal_safe_state(revision, bound));
        }
        Deployment::HardwareMsr { margin_mv } => {
            let bound = map.maximal_safe_offset_mv(margin_mv).unwrap_or(0);
            machine
                .cpu_mut()
                .provision_offset_limit(VoltageOffsetLimit::new(bound));
        }
    }
    Ok(Deployed { poll_stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charmap::FreqBand;
    use crate::poll::MODULE_NAME;
    use plugvolt_cpu::core::CoreId;
    use plugvolt_cpu::freq::FreqMhz;
    use plugvolt_cpu::model::CpuModel;
    use plugvolt_kernel::msr_dev::MsrDev;
    use plugvolt_msr::addr::Msr;
    use plugvolt_msr::oc_mailbox::{OcRequest, Plane};

    fn map() -> CharacterizationMap {
        let mut m = CharacterizationMap::new("demo", 0xf4, -300);
        m.insert_band(
            FreqMhz(1_800),
            FreqBand {
                fault_onset_mv: Some(-180),
                crash_mv: Some(-220),
            },
        );
        m.insert_band(
            FreqMhz(4_900),
            FreqBand {
                fault_onset_mv: Some(-120),
                crash_mv: Some(-160),
            },
        );
        m
    }

    fn attack_write(machine: &mut Machine, offset: i32) -> i32 {
        let dev = MsrDev::open(machine, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(offset, Plane::Core).encode();
        let _ = dev.write(machine, Msr::OC_MAILBOX, req);
        machine.cpu().core_offset_mv()
    }

    #[test]
    fn none_leaves_machine_vulnerable() {
        let mut m = Machine::new(CpuModel::CometLake, 8);
        let d = deploy(&mut m, &map(), Deployment::None).expect("deploying nothing cannot fail");
        assert!(d.poll_stats.is_none());
        assert_eq!(attack_write(&mut m, -250), -250);
    }

    #[test]
    fn ocm_disable_blocks_everything() {
        let mut m = Machine::new(CpuModel::CometLake, 8);
        deploy(&mut m, &map(), Deployment::OcmDisable)
            .expect("OCM disable deploys on a fresh machine");
        assert_eq!(attack_write(&mut m, -250), 0, "attack blocked");
        assert_eq!(attack_write(&mut m, -50), 0, "benign blocked too");
    }

    #[test]
    fn polling_module_deploys() {
        let mut m = Machine::new(CpuModel::CometLake, 8);
        let d = deploy(
            &mut m,
            &map(),
            Deployment::PollingModule(PollConfig::default()),
        )
        .expect("polling module deploys on a fresh machine");
        assert!(m.is_module_loaded(MODULE_NAME));
        assert!(d.poll_stats.is_some());
    }

    #[test]
    fn microcode_blocks_unsafe_allows_safe() {
        let mut m = Machine::new(CpuModel::CometLake, 8);
        deploy(
            &mut m,
            &map(),
            Deployment::Microcode {
                revision: 0xf5,
                margin_mv: 5,
            },
        )
        .expect("microcode update applies to a fresh machine");
        assert_eq!(m.cpu().microcode_revision(), 0xf5);
        // Maximal safe = −120 + 1 + 5 = −114.
        assert_eq!(attack_write(&mut m, -250), 0, "unsafe write-ignored");
        assert_eq!(attack_write(&mut m, -100), -100, "safe accepted");
    }

    #[test]
    fn hardware_msr_clamps() {
        let mut m = Machine::new(CpuModel::CometLake, 8);
        deploy(&mut m, &map(), Deployment::HardwareMsr { margin_mv: 5 })
            .expect("hardware clamp deploys on a fresh machine");
        let applied = attack_write(&mut m, -250);
        assert!(
            (-115..=-113).contains(&applied),
            "clamped to maximal safe, got {applied}"
        );
        assert_eq!(attack_write(&mut m, -60), -60, "safe accepted");
    }

    #[test]
    fn labels_and_availability() {
        assert!(Deployment::None.preserves_benign_dvfs());
        assert!(Deployment::PollingModule(PollConfig::default()).preserves_benign_dvfs());
        assert!(Deployment::Microcode {
            revision: 1,
            margin_mv: 0
        }
        .preserves_benign_dvfs());
        assert!(Deployment::HardwareMsr { margin_mv: 0 }.preserves_benign_dvfs());
        assert!(!Deployment::OcmDisable.preserves_benign_dvfs());
    }
}
