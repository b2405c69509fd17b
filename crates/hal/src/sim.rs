//! The simulated backend: pure delegation onto [`CpuPackage`].
//!
//! This is the pre-HAL wiring behind the trait seam — every call is a
//! one-line forward, so the simulated stack stays bit-identical to the
//! direct `Machine → CpuPackage` plumbing it replaces.

use crate::backend::MachineBackend;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::{CpuPackage, PackageError};
use plugvolt_des::time::SimTime;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;

/// The deterministic simulated substrate: a [`CpuPackage`] behind the
/// backend trait.
#[derive(Debug)]
pub struct SimBackend {
    cpu: CpuPackage,
}

impl SimBackend {
    /// Boots a fresh median-silicon package for `model`, seeded.
    #[must_use]
    pub fn new(model: CpuModel, seed: u64) -> Self {
        Self {
            cpu: CpuPackage::new(model, seed),
        }
    }

    /// Wraps an already-configured package.
    #[must_use]
    pub fn from_package(cpu: CpuPackage) -> Self {
        Self { cpu }
    }
}

impl MachineBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn rdmsr(&mut self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        self.cpu.rdmsr(now, core, msr)
    }

    fn wrmsr(
        &mut self,
        now: SimTime,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        self.cpu.wrmsr(now, core, msr, value)
    }

    fn cpu(&self) -> &CpuPackage {
        &self.cpu
    }

    fn cpu_mut(&mut self) -> &mut CpuPackage {
        &mut self.cpu
    }

    fn repeat_reads(&mut self, core: CoreId, reads: u64) -> bool {
        self.cpu.repeat_reads(core, reads)
    }

    fn repeat_writes(&mut self, core: CoreId, writes: u64) -> bool {
        self.cpu.repeat_writes(core, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::drive_freq_via_msr;
    use plugvolt_cpu::freq::FreqMhz;

    #[test]
    fn delegates_bit_identically() {
        let seed = 0xDAC;
        let model = CpuModel::SkyLake;
        let direct = CpuPackage::new(model, seed);
        let mut hal = SimBackend::new(model, seed);
        let t = SimTime::ZERO;

        let a = direct.rdmsr(t, CoreId(0), Msr::IA32_PERF_STATUS);
        let b = hal.rdmsr(t, CoreId(0), Msr::IA32_PERF_STATUS);
        assert_eq!(a, b);
        assert_eq!(direct.core_count(), hal.cpu().core_count());
    }

    #[test]
    fn set_freq_quantizes_like_the_table() {
        let mut hal = SimBackend::new(CpuModel::SkyLake, 7);
        let want = hal.cpu().spec().freq_table.quantize(FreqMhz(2650));
        let got = drive_freq_via_msr(&mut hal, SimTime::ZERO, CoreId(0), FreqMhz(2650))
            .expect("sim set_freq");
        assert_eq!(got, want);
    }
}
