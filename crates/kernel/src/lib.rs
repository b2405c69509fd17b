//! # plugvolt-kernel
//!
//! Minimal kernel substrate for the *Plug Your Volt* (DAC 2024)
//! reproduction: everything the paper's software stack needs from an OS,
//! on the simulated CPUs of `plugvolt-cpu`.
//!
//! - [`machine`] — [`machine::Machine`]: clock + package + loadable
//!   [`machine::KernelModule`]s with cost-accounted timers (the module
//!   substrate the countermeasure deploys into, and the source of the
//!   Table 2 overhead);
//! - [`cpufreq`] — scaling governors and the `IA32_PERF_CTL` driver;
//! - [`cpuidle`] — C-state entry/exit with residency accounting;
//! - [`cpupower`] — the `cpupower` utility used by Algorithm 2;
//! - [`msr_dev`] — the userspace `/dev/cpu/*/msr` path with syscall
//!   costs (what attacks pay);
//! - [`sgx`] — stepping adversaries, and attestation reports carrying
//!   the paper's module-load-state proposal.
//!
//! # Examples
//!
//! Boot a machine, pin a core, read back its status MSR:
//!
//! ```
//! use plugvolt_kernel::prelude::*;
//! use plugvolt_cpu::prelude::*;
//! use plugvolt_msr::prelude::*;
//!
//! let mut m = Machine::new(CpuModel::KabyLakeR, 9);
//! let mut cpupower = CpuPower::new(&m);
//! cpupower.frequency_set(&mut m, CoreId(0), FreqMhz(2_000))?;
//! let now = m.now();
//! let raw = m.cpu().rdmsr(now, CoreId(0), Msr::IA32_PERF_STATUS)?;
//! assert_eq!(PerfStatus::decode(raw).freq_mhz(), 2_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cpufreq;
pub mod cpuidle;
pub mod cpupower;
pub mod machine;
pub mod msr_dev;
pub mod sgx;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::cpufreq::{CpuFreq, Governor, Policy};
    pub use crate::cpuidle::{CState, CpuIdle};
    pub use crate::cpupower::CpuPower;
    pub use crate::machine::{KernelModule, Machine, MachineError, ModuleCtx, WorkloadRun};
    pub use crate::msr_dev::MsrDev;
    pub use crate::sgx::{AttestationReport, Quote, SteppingCapability};
}
