//! The trait seam: the complete MSR/DVFS access surface of the stack.

use crate::error::HalError;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::package::CpuPackage;
use plugvolt_des::time::SimTime;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;
use plugvolt_msr::perf_status::encode_perf_ctl;

/// The `rdmsr`/`wrmsr` surface.
///
/// `now` is the caller's clock: simulated time for the sim-family
/// backends (side effects such as rail retargeting are time-stamped
/// with it), and ignored by the host backend, whose registers live on
/// the wall clock.
pub trait MsrBackend {
    /// Stable backend identifier (`"sim"`, `"record"`, `"replay"`,
    /// `"host-ro"`); appears in traces, errors and reports.
    fn name(&self) -> &'static str;

    /// Reads `msr` on `core`.
    ///
    /// # Errors
    ///
    /// [`HalError::Package`] on `#GP`/crash (sim family), or
    /// [`HalError::Io`] when the host register file is unreadable.
    fn rdmsr(&mut self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, HalError>;

    /// Writes `value` to `msr` on `core`.
    ///
    /// # Errors
    ///
    /// [`HalError::Package`] on `#GP`/crash/write-fault (sim family),
    /// or [`HalError::ReadOnlyBackend`] from backends that never write.
    fn wrmsr(
        &mut self,
        now: SimTime,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, HalError>;
}

/// The cpufreq scaling-driver surface: what `cpupower`/`cpufreq` need
/// from the substrate.
pub trait DvfsBackend {
    /// Number of logical cores the backend exposes.
    fn core_count(&self) -> usize;

    /// The frequency `core` currently runs at.
    ///
    /// # Errors
    ///
    /// [`HalError::Package`] for a bad core or crashed package, or
    /// [`HalError::Io`] when the host sysfs node is unreadable.
    fn current_freq(&mut self, core: CoreId) -> Result<FreqMhz, HalError>;

    /// Requests `freq` on `core` through the backend's scaling driver,
    /// returning the frequency actually applied (quantized to the
    /// hardware table on the sim family).
    ///
    /// # Errors
    ///
    /// [`HalError::ReadOnlyBackend`] from backends that never write;
    /// otherwise as [`Self::current_freq`].
    fn set_freq(&mut self, now: SimTime, core: CoreId, freq: FreqMhz) -> Result<FreqMhz, HalError>;
}

/// The backend union a simulated `Machine` hosts: MSR + DVFS access
/// plus the concrete [`CpuPackage`] carrying the simulator's physics,
/// cost model and telemetry.
///
/// The read-only host backend deliberately does **not** implement this
/// trait: it has no `CpuPackage`, cannot be mounted in a `Machine`,
/// and therefore can never be asked to participate in a simulated
/// attack campaign.
pub trait MachineBackend: MsrBackend + DvfsBackend {
    /// The simulated package behind the seam.
    fn cpu(&self) -> &CpuPackage;

    /// Mutable access to the simulated package (the "privileged
    /// software" escape hatch attacks use).
    fn cpu_mut(&mut self) -> &mut CpuPackage;

    /// Accounts `reads` further reads on `core`, each repeating the
    /// last one the kernel issued there (same register, same value),
    /// without issuing them; `reads == 0` only asks. Returns `false`,
    /// accounting nothing, where every access must really be issued:
    /// the default, so a backend that logs or checks each access (the
    /// recording and replaying backends) sees every one.
    fn repeat_reads(&mut self, core: CoreId, reads: u64) -> bool {
        let _ = (core, reads);
        false
    }
}

/// The shared sim-family scaling driver: quantize to the hardware
/// table, write `IA32_PERF_CTL` through the backend's own `wrmsr`
/// (so a recording backend captures the DVFS request as an ordinary
/// MSR write, exactly like the Linux acpi-cpufreq driver), and read
/// back the applied frequency.
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
) -> Result<FreqMhz, HalError> {
    let f = backend.cpu().spec().freq_table.quantize(freq);
    backend.wrmsr(now, core, Msr::IA32_PERF_CTL, encode_perf_ctl(f.mhz()))?;
    backend.cpu().core_freq(core).map_err(HalError::Package)
}
