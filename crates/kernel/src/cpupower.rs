//! The `cpupower` utility façade.
//!
//! The paper's Algorithm 2 sets test frequencies with the `cpupower`
//! Linux utility (`CPU_POWER(test_frequency)`). This module is that
//! command-line surface over [`crate::cpufreq`]: frequency-set and the
//! all-cores convenience the DVFS thread uses.

use crate::cpufreq::{CpuFreq, Governor};
use crate::machine::{Machine, MachineError};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;

/// The `cpupower` utility bound to a machine's cpufreq subsystem.
#[derive(Debug)]
pub struct CpuPower {
    cpufreq: CpuFreq,
}

impl CpuPower {
    /// Creates the utility (initializing cpufreq policies).
    #[must_use]
    pub fn new(machine: &Machine) -> Self {
        CpuPower {
            cpufreq: CpuFreq::new(machine),
        }
    }

    /// `cpupower -c <core> frequency-set -f <freq>`: pins one core to a
    /// fixed frequency (userspace governor). Returns the quantized
    /// frequency actually applied.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn frequency_set(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        freq: FreqMhz,
    ) -> Result<FreqMhz, MachineError> {
        self.cpufreq
            .set_governor(machine, core, Governor::Userspace(freq))
    }

    /// `cpupower frequency-set -f <freq>` without `-c`: all cores.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn frequency_set_all(
        &mut self,
        machine: &mut Machine,
        freq: FreqMhz,
    ) -> Result<FreqMhz, MachineError> {
        let cores = machine.cpu().core_count();
        let mut applied = freq;
        for c in 0..cores {
            applied = self.frequency_set(machine, CoreId(c), freq)?;
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_cpu::model::CpuModel;

    #[test]
    fn frequency_set_quantizes_and_applies() {
        let mut m = Machine::new(CpuModel::KabyLakeR, 3);
        let mut cp = CpuPower::new(&m);
        let applied = cp.frequency_set(&mut m, CoreId(0), FreqMhz(2_150)).unwrap();
        assert_eq!(applied, FreqMhz(2_200));
        assert_eq!(m.cpu().core_freq(CoreId(0)).unwrap(), FreqMhz(2_200));
    }

    #[test]
    fn frequency_set_all_reaches_every_core() {
        let mut m = Machine::new(CpuModel::KabyLakeR, 3);
        let mut cp = CpuPower::new(&m);
        cp.frequency_set_all(&mut m, FreqMhz(1_200)).unwrap();
        for c in 0..m.cpu().core_count() {
            assert_eq!(m.cpu().core_freq(CoreId(c)).unwrap(), FreqMhz(1_200));
        }
    }

    #[test]
    fn sweep_resolution_matches_paper() {
        // Algorithm 2 sweeps at 0.1 GHz resolution; the table step is
        // 100 MHz so every sweep point is exactly representable.
        let m = Machine::new(CpuModel::KabyLakeR, 3);
        assert_eq!(m.cpu().spec().freq_table.step_mhz(), 100);
    }
}
