//! The trait seam: the complete MSR access surface of the stack.

use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::package::{CpuPackage, PackageError};
use plugvolt_des::time::SimTime;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;
use plugvolt_msr::perf_status::encode_perf_ctl;

/// The backend a simulated `Machine` hosts: `rdmsr`/`wrmsr` on a core
/// plus the concrete [`CpuPackage`] carrying the simulator's physics,
/// cost model and telemetry.
///
/// `now` is the caller's simulated clock: side effects such as rail
/// retargeting are time-stamped with it.
pub trait MachineBackend {
    /// Stable backend identifier (`"sim"`, `"record"`); appears in
    /// reports.
    fn name(&self) -> &'static str;

    /// Reads `msr` on `core`.
    ///
    /// # Errors
    ///
    /// [`PackageError`] on `#GP`, crash or a bad core.
    fn rdmsr(&mut self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, PackageError>;

    /// Writes `value` to `msr` on `core`.
    ///
    /// # Errors
    ///
    /// [`PackageError`] on `#GP`, crash, write fault or a bad core.
    fn wrmsr(
        &mut self,
        now: SimTime,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError>;

    /// The simulated package behind the seam.
    fn cpu(&self) -> &CpuPackage;

    /// Mutable access to the simulated package (the "privileged
    /// software" escape hatch attacks use).
    fn cpu_mut(&mut self) -> &mut CpuPackage;

    /// Accounts `reads` further reads on `core`, each repeating the
    /// last one the kernel issued there (same register, same value),
    /// without issuing them; `reads == 0` only asks. Returns `false`,
    /// accounting nothing, where every access must really be issued:
    /// the default, so a backend that logs each access (the recording
    /// backend) sees every one.
    fn repeat_reads(&mut self, core: CoreId, reads: u64) -> bool {
        let _ = (core, reads);
        false
    }

    /// Accounts `writes` further writes on `core`, each a mailbox read
    /// command like the ones the kernel last issued there, without
    /// issuing them; `writes == 0` only asks. Returns `false`,
    /// accounting nothing, where every access must really be issued
    /// (the default, as for [`repeat_reads`](Self::repeat_reads)) or
    /// the package refuses (see `CpuPackage::repeat_writes`).
    fn repeat_writes(&mut self, core: CoreId, writes: u64) -> bool {
        let _ = (core, writes);
        false
    }
}

/// The sim-family scaling driver: quantize to the hardware table,
/// write `IA32_PERF_CTL` through the backend's own `wrmsr` (so a
/// recording backend captures the DVFS request as an ordinary MSR
/// write, exactly like the Linux acpi-cpufreq driver), and read back
/// the applied frequency.
///
/// # Errors
///
/// Propagates the backend's `wrmsr` error or a package error from the
/// read-back.
pub fn drive_freq_via_msr<B: MachineBackend + ?Sized>(
    backend: &mut B,
    now: SimTime,
    core: CoreId,
    freq: FreqMhz,
) -> Result<FreqMhz, PackageError> {
    let f = backend.cpu().spec().freq_table.quantize(freq);
    backend.wrmsr(now, core, Msr::IA32_PERF_CTL, encode_perf_ctl(f.mhz()))?;
    backend.cpu().core_freq(core)
}
