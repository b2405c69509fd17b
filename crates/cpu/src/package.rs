//! The CPU package: cores, MSR file, voltage regulator, microcode and the
//! execution engine, wired together.
//!
//! This is the hardware the rest of the stack runs on. Software interacts
//! with it exactly the way the paper's attacks and countermeasure do — via
//! `rdmsr`/`wrmsr` (0x150 undervolting, 0x198 status, 0x199 frequency) —
//! while the package internally enforces the physics: offsets move the
//! rail through the slew-limited VR, and execution faults or crashes
//! according to Eq. 1 at the *actual* rail voltage.

use crate::core::{Core, CoreId};
use crate::energy::{EnergyMeter, EnergyModel};
use crate::exec::{BatchOutcome, ExecutionEngine, InstrClass, Rails};
use crate::freq::FreqMhz;
use crate::microcode::MicrocodeUpdate;
use crate::model::{CpuModel, CpuSpec};
use crate::vr::VoltageRegulator;

/// Latency between an accepted mailbox (0x150) write and the rail
/// beginning to move: firmware mailbox processing plus VR command
/// turnaround. Plundervolt reports "the system takes some time for the
/// scaled voltage to apply"; attacks wait on this order before probing.
pub const MAILBOX_SETTLE: SimDuration = SimDuration::from_micros(800);

/// Latency of hardware-managed P-state voltage tracking (fast path).
pub const PSTATE_SETTLE: SimDuration = SimDuration::from_micros(10);
use plugvolt_circuit::multiplier::MulExecution;
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::{MsrError, MsrFile, WriteOutcome};
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_msr::offset_limit::VoltageOffsetLimit;
use plugvolt_msr::perf_status::{decode_perf_ctl, PerfStatus};
use plugvolt_telemetry::{MetricKey, Sink, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by package operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackageError {
    /// The package has crashed (deep timing violation or rail collapse)
    /// and must be [`reset`](CpuPackage::reset).
    Crashed,
    /// An MSR access fault.
    Msr(MsrError),
    /// The core id does not exist on this package.
    NoSuchCore(CoreId),
}

impl fmt::Display for PackageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackageError::Crashed => write!(f, "package crashed; reset required"),
            PackageError::Msr(e) => write!(f, "{e}"),
            PackageError::NoSuchCore(c) => write!(f, "no such core {c:?}"),
        }
    }
}

impl std::error::Error for PackageError {}

impl From<MsrError> for PackageError {
    fn from(e: MsrError) -> Self {
        PackageError::Msr(e)
    }
}

/// A simulated CPU package of one of the paper's three generations.
///
/// # Examples
///
/// ```
/// use plugvolt_cpu::package::CpuPackage;
/// use plugvolt_cpu::model::CpuModel;
/// use plugvolt_cpu::core::CoreId;
/// use plugvolt_des::time::SimTime;
/// use plugvolt_msr::addr::Msr;
/// use plugvolt_msr::perf_status::PerfStatus;
///
/// let mut cpu = CpuPackage::new(CpuModel::CometLake, 42);
/// let now = SimTime::ZERO;
/// let raw = cpu.rdmsr(now, CoreId(0), Msr::IA32_PERF_STATUS)?;
/// let status = PerfStatus::decode(raw);
/// assert_eq!(status.freq_mhz(), 1_800); // base frequency
/// # Ok::<(), plugvolt_cpu::package::PackageError>(())
/// ```
pub struct CpuPackage {
    spec: CpuSpec,
    cores: Vec<Core>,
    msrs: MsrFile,
    core_vr: VoltageRegulator,
    cache_vr: VoltageRegulator,
    /// Last accepted mailbox offset per plane, in 1/1024 V units.
    plane_offset_units: [i16; 5],
    /// When the offset of each plane last changed through an accepted
    /// mailbox write — the "unsafe-state entry" instant the
    /// countermeasure's detection-latency metric is measured from.
    plane_offset_written_at: [Option<SimTime>; 5],
    /// When each core's frequency last *changed* through a P-state
    /// write. Together with [`Self::plane_offset_written_at`] this
    /// dates the entry into an unsafe V/F state: a CLKSCREW-style
    /// campaign leaves a standing offset and makes it unsafe much
    /// later by escalating the clock.
    core_pstate_changed_at: Vec<Option<SimTime>>,
    /// Plane whose offset the mailbox response register currently holds
    /// (set by the last read/write command, like the real protocol).
    mailbox_read_plane: Plane,
    ocm_enabled: bool,
    /// The Sec. 5.1 patch, checked in [`Self::wrmsr`] right after the
    /// OCM-disable gate.
    microcode_patch: Option<MicrocodeUpdate>,
    offset_limit: VoltageOffsetLimit,
    crashed: bool,
    engine: ExecutionEngine,
    rng: SimRng,
    mailbox_writes_ignored: u64,
    energy_model: EnergyModel,
    energy: EnergyMeter,
    energy_checkpoint: SimTime,
    telemetry: Sink,
    /// Slack-table hit/fallback totals already flushed to the sink, so
    /// repeated publishes only add the delta.
    slack_stats_flushed: Cell<(u64, u64)>,
    /// Per-core hot-path counters, batched in `Cell`s and flushed to
    /// the sink only at publish time (see [`CoreHotCounters`]).
    hot: Vec<CoreHotCounters>,
    /// Bumped by every change to what software can read of the package
    /// except a mailbox read command (see [`PackageSnapshot`]).
    generation: u64,
}

/// What a kernel timer firing can read of a package, small enough to
/// take around every firing: equal snapshots mean nothing changed the
/// MSR file, a plane offset or the rails' targets, a core's P-state or
/// idle state, the mailbox gate, the microcode or the crash latch in
/// between. Mailbox read commands are the one write left out: they
/// change only the plane the response register reports, which the
/// snapshot holds by value, so a tick that issues a read command per
/// plane leaves the snapshot it started from. (The command register
/// itself is never read back: `rdmsr` of the mailbox answers from the
/// plane offsets.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackageSnapshot {
    generation: u64,
    mailbox_read_plane: Plane,
}

/// The per-core counters bumped on the simulator's hottest paths
/// (every `rdmsr`/`wrmsr`). Kept in plain `Cell`s so the access path
/// never touches the allocating registry;
/// [`CpuPackage::publish_hot_counters`] flushes deltas under the
/// registered metric keys. The kernel's own cost accounting (stolen
/// time, MSR access cost) lives in its `Machine`, not here.
#[derive(Debug, Default)]
struct CoreHotCounters {
    rdmsr: Cell<u64>,
    wrmsr: Cell<u64>,
    /// Whether the last `wrmsr` was a mailbox read command the mailbox
    /// took as written (see [`CpuPackage::repeat_writes`]).
    read_command: Cell<bool>,
    /// Snapshot of the two counters at the last flush (in field
    /// order), so repeated publishes add only deltas.
    flushed: Cell<[u64; 2]>,
}

impl fmt::Debug for CpuPackage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuPackage")
            .field("model", &self.spec.model)
            .field("cores", &self.cores.len())
            .field(
                "microcode",
                &format_args!("{:#x}", self.microcode_revision()),
            )
            .field("ocm_enabled", &self.ocm_enabled)
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl CpuPackage {
    /// Powers on a package of the given model with a deterministic seed.
    #[must_use]
    pub fn new(model: CpuModel, seed: u64) -> Self {
        Self::from_spec(model.spec(), seed)
    }

    /// Powers on physical *unit* `unit` of the model — same SKU,
    /// die-to-die process variation applied.
    #[must_use]
    pub fn new_unit(model: CpuModel, seed: u64, unit: u64) -> Self {
        Self::from_spec(model.spec().with_unit_variation(unit), seed)
    }

    /// Powers on a package from an explicit spec.
    #[must_use]
    pub fn from_spec(spec: CpuSpec, seed: u64) -> Self {
        let mut engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        // Base-spec packages get the shared precomputed slack table (a
        // pure cache — see `crate::slack`). Unit-varied specs have their
        // own calibration and stay on the analytic path.
        if spec == spec.model.spec() {
            engine.set_slack_table(Some(crate::slack::shared_table(spec.model)));
        }
        let cores = (0..spec.cores)
            .map(|i| Core::new(CoreId(i), spec.base_freq))
            .collect();
        let nominal = spec.nominal_voltage_mv(spec.base_freq);
        let nominal_cache = spec.nominal_cache_voltage_mv(spec.base_freq);
        let mut pkg = CpuPackage {
            core_vr: VoltageRegulator::new(nominal, MAILBOX_SETTLE, 8.0 /* mV/µs */),
            cache_vr: VoltageRegulator::new(nominal_cache, MAILBOX_SETTLE, 8.0),
            cores,
            mailbox_read_plane: Plane::Core,
            msrs: MsrFile::new(),
            plane_offset_units: [0; 5],
            plane_offset_written_at: [None; 5],
            core_pstate_changed_at: vec![None; spec.cores],
            ocm_enabled: true,
            microcode_patch: None,
            offset_limit: VoltageOffsetLimit::disabled(),
            crashed: false,
            engine,
            rng: SimRng::from_seed_label(seed, "cpu-package"),
            mailbox_writes_ignored: 0,
            energy_model: EnergyModel::default(),
            energy: EnergyMeter::default(),
            energy_checkpoint: SimTime::ZERO,
            telemetry: Sink::new(),
            slack_stats_flushed: Cell::new((0, 0)),
            hot: (0..spec.cores)
                .map(|_| CoreHotCounters::default())
                .collect(),
            generation: 0,
            spec,
        };
        pkg.implement_msrs();
        pkg
    }

    fn implement_msrs(&mut self) {
        self.msrs.implement(Msr::OC_MAILBOX, 0);
        self.msrs.implement(Msr::IA32_PERF_STATUS, 0);
        self.msrs.implement(Msr::IA32_PERF_CTL, 0);
        self.msrs.implement(
            Msr::IA32_BIOS_SIGN_ID,
            u64::from(self.microcode_revision()) << 32,
        );
        self.msrs
            .implement(Msr::VOLTAGE_OFFSET_LIMIT, self.offset_limit.encode());
        self.msrs.implement(Msr::DRAM_POWER_LIMIT, 0);
        self.msrs.implement(Msr::DRAM_POWER_INFO, 0);
        self.msrs.implement(Msr::IA32_THERM_STATUS, 0);
        self.msrs.implement(Msr::PKG_ENERGY_STATUS, 0);
        self.msrs.implement(Msr::TIME_STAMP_COUNTER, 0);
    }

    /// The model specification.
    #[must_use]
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// The execution engine (for workloads needing direct access).
    #[must_use]
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Whether the package is crashed and needs a reset.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether the overclocking mailbox accepts writes.
    #[must_use]
    pub fn ocm_enabled(&self) -> bool {
        self.ocm_enabled
    }

    /// Enables/disables the overclocking mailbox (Intel's access-control
    /// countermeasure). The state is attestation-visible.
    pub fn set_ocm_enabled(&mut self, enabled: bool) {
        self.generation += 1;
        self.ocm_enabled = enabled;
    }

    /// The loaded microcode revision.
    #[must_use]
    pub fn microcode_revision(&self) -> u32 {
        self.microcode_patch
            .map_or(self.spec.microcode, |patch| patch.revision)
    }

    /// Mailbox writes dropped by the OCM-disable gate or the microcode
    /// patch so far.
    #[must_use]
    pub fn mailbox_writes_ignored(&self) -> u64 {
        self.mailbox_writes_ignored
    }

    /// The package's telemetry sink. Fresh (and private to this
    /// package) until [`set_telemetry`](Self::set_telemetry) installs a
    /// shared one.
    #[must_use]
    pub fn telemetry(&self) -> &Sink {
        &self.telemetry
    }

    /// Installs a shared telemetry sink; the kernel does this so the
    /// package, the machine, and every module record into one registry.
    pub fn set_telemetry(&mut self, sink: Sink) {
        self.telemetry = sink;
        if let Some(table) = self.engine.slack_table() {
            // The table predates the sink (laid out at boot), so the
            // event lands at t=0. `build_ns` is wall-clock telemetry only.
            self.telemetry.emit(
                SimTime::ZERO,
                TelemetryEvent::SlackTableBuilt {
                    entries: table.len() as u64,
                    build_ns: table.build_ns(),
                },
            );
        }
    }

    /// Attaches (or detaches, with `None`) a precomputed slack table on
    /// the execution engine. Boot attaches the shared table
    /// automatically for base specs; tests detach it to pin the analytic
    /// path.
    pub fn set_slack_table(&mut self, table: Option<Arc<crate::slack::SlackTable>>) {
        self.engine.set_slack_table(table);
    }

    /// Flushes the slack-table hit/fallback counters to the telemetry
    /// sink (`slack-table/hits`, `slack-table/fallbacks`). Idempotent:
    /// repeated calls add only the delta since the last flush.
    pub fn publish_slack_table_stats(&self) {
        let hits = self.engine.slack_table_hits();
        let fallbacks = self.engine.slack_table_fallbacks();
        let (flushed_hits, flushed_fallbacks) = self.slack_stats_flushed.get();
        if hits > flushed_hits {
            self.telemetry.add(
                MetricKey::global("slack-table", "hits"),
                hits - flushed_hits,
            );
        }
        if fallbacks > flushed_fallbacks {
            self.telemetry.add(
                MetricKey::global("slack-table", "fallbacks"),
                fallbacks - flushed_fallbacks,
            );
        }
        self.slack_stats_flushed.set((hits, fallbacks));
    }

    /// Flushes the batched per-core MSR instruction counters
    /// (`msr/rdmsr`, `msr/wrmsr`) to the telemetry sink. Idempotent:
    /// repeated calls add only the delta since the last flush.
    pub fn publish_hot_counters(&self) {
        for (i, c) in self.hot.iter().enumerate() {
            let core = i as u32;
            let keys = [
                MetricKey::per_core("msr", "rdmsr", core),
                MetricKey::per_core("msr", "wrmsr", core),
            ];
            let cur = [c.rdmsr.get(), c.wrmsr.get()];
            let prev = c.flushed.get();
            for ((key, now), before) in keys.into_iter().zip(cur).zip(prev) {
                if now > before {
                    self.telemetry.add(key, now - before);
                }
            }
            c.flushed.set(cur);
        }
    }

    /// When `plane`'s offset last changed through an accepted mailbox
    /// write — the instant an attacker-chosen offset took effect, which
    /// the polling module's detection-latency metric measures from.
    #[must_use]
    pub fn last_offset_write_at(&self, plane: Plane) -> Option<SimTime> {
        self.plane_offset_written_at[plane.index() as usize]
    }

    /// When `core`'s frequency last changed through a P-state write.
    /// `None` for an invalid id or a core still at its boot frequency.
    #[must_use]
    pub fn last_pstate_change_at(&self, core: CoreId) -> Option<SimTime> {
        self.core_pstate_changed_at.get(core.0).copied().flatten()
    }

    /// Loads a microcode update (BIOS/UEFI path), replacing any loaded
    /// one. Persists across [`reset`](Self::reset), like a BIOS-embedded
    /// update.
    pub fn load_microcode(&mut self, update: MicrocodeUpdate) {
        self.generation += 1;
        self.microcode_patch = Some(update);
        self.msrs
            .store_internal(Msr::IA32_BIOS_SIGN_ID, u64::from(update.revision) << 32);
    }

    /// Provisions the hardware voltage-offset clamp
    /// (`MSR_VOLTAGE_OFFSET_LIMIT`, Sec. 5.2). Vendor-only operation.
    pub fn provision_offset_limit(&mut self, limit: VoltageOffsetLimit) {
        self.generation += 1;
        self.offset_limit = limit;
        self.msrs
            .store_internal(Msr::VOLTAGE_OFFSET_LIMIT, limit.encode());
    }

    /// Reboots a crashed (or running) package: MSRs and offsets to reset
    /// values, rail to nominal, cores to base frequency. Microcode
    /// updates and the hardware clamp persist (they live in BIOS/fuses).
    pub fn reset(&mut self, now: SimTime) {
        self.generation += 1;
        self.crashed = false;
        self.plane_offset_units = [0; 5];
        self.plane_offset_written_at = [None; 5];
        self.core_pstate_changed_at = vec![None; self.spec.cores];
        self.mailbox_read_plane = Plane::Core;
        for core in &mut self.cores {
            core.set_freq(self.spec.base_freq);
            core.wake();
        }
        let nominal = self.spec.nominal_voltage_mv(self.spec.base_freq);
        self.core_vr.set_target(now, nominal);
        self.cache_vr
            .set_target(now, self.spec.nominal_cache_voltage_mv(self.spec.base_freq));
        self.msrs = MsrFile::new();
        self.implement_msrs();
    }

    /// The actual core-plane rail voltage at `now`, in mV.
    #[must_use]
    pub fn core_voltage_mv(&self, now: SimTime) -> f64 {
        self.core_vr.voltage_mv(now)
    }

    /// How long the core-plane rail keeps its voltage at `now`, absent a
    /// retarget (see [`VoltageRegulator::holds_until`]).
    #[must_use]
    pub fn core_rail_holds_until(&self, now: SimTime) -> Option<SimTime> {
        self.core_vr.holds_until(now)
    }

    /// How long both timing rails keep their voltages at `now`, absent a
    /// retarget: the earlier of the two rails' holds, `None` when both
    /// sit at their targets.
    #[must_use]
    pub fn rails_hold_until(&self, now: SimTime) -> Option<SimTime> {
        match (
            self.core_vr.holds_until(now),
            self.cache_vr.holds_until(now),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The actual cache-plane rail voltage at `now`, in mV.
    #[must_use]
    pub fn cache_voltage_mv(&self, now: SimTime) -> f64 {
        self.cache_vr.voltage_mv(now)
    }

    /// Both timing rails at `now`.
    #[must_use]
    pub fn rails(&self, now: SimTime) -> Rails {
        Rails {
            core_mv: self.core_voltage_mv(now),
            cache_mv: self.cache_voltage_mv(now),
        }
    }

    /// The currently requested offset of any plane, in mV.
    #[must_use]
    pub fn plane_offset_mv(&self, plane: Plane) -> i32 {
        plugvolt_msr::oc_mailbox::units_to_mv(self.plane_offset_units[plane.index() as usize])
    }

    /// The currently *requested* core-plane offset in mV (what reading
    /// MSR 0x150 reports), independent of whether the rail has settled.
    #[must_use]
    pub fn core_offset_mv(&self) -> i32 {
        plugvolt_msr::oc_mailbox::units_to_mv(self.plane_offset_units[Plane::Core.index() as usize])
    }

    /// When both rails have reached their current targets.
    #[must_use]
    pub fn rail_settles_at(&self) -> SimTime {
        self.core_vr.settles_at().max(self.cache_vr.settles_at())
    }

    /// The frequency of `core`.
    ///
    /// # Errors
    ///
    /// [`PackageError::NoSuchCore`] for an invalid id.
    pub fn core_freq(&self, core: CoreId) -> Result<FreqMhz, PackageError> {
        self.cores
            .get(core.0)
            .map(Core::freq)
            .ok_or(PackageError::NoSuchCore(core))
    }

    /// Sets `core`'s frequency (quantized to the frequency table) and
    /// retargets the shared rail to the new nominal voltage plus the
    /// current offset. This is what `IA32_PERF_CTL` writes do.
    ///
    /// # Errors
    ///
    /// [`PackageError::Crashed`] / [`PackageError::NoSuchCore`].
    pub fn set_core_freq(
        &mut self,
        now: SimTime,
        core: CoreId,
        freq: FreqMhz,
    ) -> Result<FreqMhz, PackageError> {
        self.ensure_alive()?;
        let quantized = self.spec.freq_table.quantize(freq);
        let c = self
            .cores
            .get_mut(core.0)
            .ok_or(PackageError::NoSuchCore(core))?;
        if c.freq() != quantized {
            // Only genuine transitions re-date the unsafe-state entry:
            // an idempotent P-state write must not shrink measured
            // detection latency.
            self.core_pstate_changed_at[core.0] = Some(now);
        }
        c.set_freq(quantized);
        self.telemetry.emit(
            now,
            TelemetryEvent::PState {
                core: core.0 as u32,
                freq_mhz: quantized.mhz(),
            },
        );
        self.retarget_rail(now, PSTATE_SETTLE);
        Ok(quantized)
    }

    fn ensure_alive(&self) -> Result<(), PackageError> {
        if self.crashed {
            Err(PackageError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Highest frequency among running cores — what the shared rail must
    /// supply for. With every core idle the rail retreats to the table
    /// minimum (package C-state power saving).
    fn demand_freq(&self) -> FreqMhz {
        self.cores
            .iter()
            .filter(|c| c.is_running())
            .map(Core::freq)
            .max()
            .unwrap_or(self.spec.freq_table.min())
    }

    /// Whether `core` is executing (P-state) rather than idle (C-state).
    ///
    /// # Errors
    ///
    /// [`PackageError::NoSuchCore`] for an invalid id.
    pub fn is_core_running(&self, core: CoreId) -> Result<bool, PackageError> {
        self.cores
            .get(core.0)
            .map(Core::is_running)
            .ok_or(PackageError::NoSuchCore(core))
    }

    /// Parks `core` in idle C-state `level`; the shared rail retreats to
    /// the remaining demand.
    ///
    /// # Errors
    ///
    /// [`PackageError::Crashed`] / [`PackageError::NoSuchCore`].
    pub fn enter_idle(
        &mut self,
        now: SimTime,
        core: CoreId,
        level: u8,
    ) -> Result<(), PackageError> {
        self.ensure_alive()?;
        self.cores
            .get_mut(core.0)
            .ok_or(PackageError::NoSuchCore(core))?
            .enter_idle(level);
        self.retarget_rail(now, PSTATE_SETTLE);
        Ok(())
    }

    /// Wakes `core` back into the P-state spectrum at its resume
    /// frequency; the rail rises to meet the new demand first.
    ///
    /// # Errors
    ///
    /// [`PackageError::Crashed`] / [`PackageError::NoSuchCore`].
    pub fn wake_core(&mut self, now: SimTime, core: CoreId) -> Result<(), PackageError> {
        self.ensure_alive()?;
        self.cores
            .get_mut(core.0)
            .ok_or(PackageError::NoSuchCore(core))?
            .wake();
        self.retarget_rail(now, PSTATE_SETTLE);
        Ok(())
    }

    /// Instantaneous package power at `now`, watts.
    #[must_use]
    pub fn package_power_w(&self, now: SimTime) -> f64 {
        let v = self.core_voltage_mv(now);
        self.cores
            .iter()
            .map(|c| {
                self.energy_model
                    .core_power_w(v, c.freq().mhz(), c.is_running())
            })
            .sum()
    }

    /// Package energy consumed since boot (or the last reset of the
    /// meter), joules — what RAPL's `MSR_PKG_ENERGY_STATUS` counts.
    #[must_use]
    pub fn package_energy_j(&self, now: SimTime) -> f64 {
        let tail = now
            .saturating_duration_since(self.energy_checkpoint)
            .as_secs_f64();
        self.energy.joules() + self.package_power_w(now) * tail
    }

    /// Folds the elapsed segment into the energy meter. Called on every
    /// operating-point change so the constant-power segments between
    /// checkpoints stay short.
    fn checkpoint_energy(&mut self, now: SimTime) {
        let dt = now
            .saturating_duration_since(self.energy_checkpoint)
            .as_secs_f64();
        if dt > 0.0 {
            let p = self.package_power_w(now);
            self.energy.accumulate(p, dt);
        }
        self.energy_checkpoint = self.energy_checkpoint.max(now);
    }

    fn retarget_rail(&mut self, now: SimTime, settle: SimDuration) {
        // Slew churn is attributed, not costed: the VR retarget itself
        // happens off-core.
        self.telemetry.tracer().record_span("vr/retarget", 0);
        self.generation += 1;
        self.checkpoint_energy(now);
        let demand = self.demand_freq();
        let offset =
            f64::from(self.plane_offset_units[Plane::Core.index() as usize]) * 1000.0 / 1024.0;
        let core_target = self.spec.nominal_voltage_mv(demand) + offset;
        self.core_vr.set_target_after(now, core_target, settle);
        let cache_offset =
            f64::from(self.plane_offset_units[Plane::Cache.index() as usize]) * 1000.0 / 1024.0;
        let cache_target = self.spec.nominal_cache_voltage_mv(demand) + cache_offset;
        self.cache_vr.set_target_after(now, cache_target, settle);
        self.telemetry.emit_with(now, || TelemetryEvent::VrSlew {
            plane: Plane::Core.index(),
            target_mv: core_target.round() as i32,
            settles_at: self.core_vr.settles_at(),
        });
        self.telemetry.emit_with(now, || TelemetryEvent::VrSlew {
            plane: Plane::Cache.index(),
            target_mv: cache_target.round() as i32,
            settles_at: self.cache_vr.settles_at(),
        });
    }

    /// `rdmsr` from `core`.
    ///
    /// # Errors
    ///
    /// [`PackageError`] on crash, bad core, or `#GP`.
    pub fn rdmsr(&self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        self.ensure_alive()?;
        if core.0 >= self.cores.len() {
            return Err(PackageError::NoSuchCore(core));
        }
        let c = &self.hot[core.0];
        c.rdmsr.set(c.rdmsr.get() + 1);
        match msr {
            Msr::IA32_PERF_STATUS => {
                let freq = self.cores[core.0].freq();
                let v = self.core_voltage_mv(now).max(0.0);
                Ok(PerfStatus::new(freq.mhz(), v).encode())
            }
            Msr::TIME_STAMP_COUNTER => {
                // The invariant TSC ticks at the base frequency
                // regardless of the current P-state.
                let base = u64::from(self.spec.base_freq.mhz());
                Ok(now.as_picos().saturating_mul(base) / 1_000_000)
            }
            Msr::PKG_ENERGY_STATUS => {
                // RAPL: wrapping 32-bit counter in 2^-16 J units.
                let mut meter = self.energy;
                let tail = now
                    .saturating_duration_since(self.energy_checkpoint)
                    .as_secs_f64();
                meter.accumulate(self.package_power_w(now), tail);
                Ok(u64::from(meter.rapl_counter()))
            }
            Msr::OC_MAILBOX => {
                // Reading the mailbox reports the offset of the plane the
                // last command addressed (the response register of the
                // real protocol); at boot that is the core plane, which
                // is what the paper's Algorithm 3 reads.
                let plane = self.mailbox_read_plane;
                let units = self.plane_offset_units[plane.index() as usize];
                Ok(OcRequest::write_offset(0, plane)
                    .with_offset_units(units)
                    .encode())
            }
            _ => Ok(self.msrs.rdmsr(msr)?),
        }
    }

    /// Counts `reads` further `rdmsr`s on `core` without performing
    /// them, for reads that would repeat one just made (a read has no
    /// side effect but its count); `reads == 0` only asks. Returns
    /// `false`, counting nothing, for a bad core or a crashed package
    /// (whose reads fault uncounted).
    #[must_use]
    pub fn repeat_reads(&self, core: CoreId, reads: u64) -> bool {
        let Some(c) = self.hot.get(core.0).filter(|_| !self.crashed) else {
            return false;
        };
        c.rdmsr.set(c.rdmsr.get() + reads);
        true
    }

    /// Counts `writes` further `wrmsr`s on `core` without performing
    /// them, for writes that would repeat the mailbox read commands
    /// just made there: such a write changes nothing but the read plane
    /// (held by [`snapshot`](Self::snapshot)) and its count; `writes ==
    /// 0` only asks. Returns `false`, counting nothing, unless the last
    /// write on `core` was a read command stored as written, on a live
    /// package whose mailbox is enabled and which has no microcode patch
    /// loaded (the patch sees every write).
    #[must_use]
    pub fn repeat_writes(&self, core: CoreId, writes: u64) -> bool {
        let Some(c) = self.hot.get(core.0) else {
            return false;
        };
        if self.crashed
            || !self.ocm_enabled
            || self.microcode_patch.is_some()
            || !c.read_command.get()
        {
            return false;
        }
        c.wrmsr.set(c.wrmsr.get() + writes);
        true
    }

    /// The package state a timer firing can read (see
    /// [`PackageSnapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> PackageSnapshot {
        PackageSnapshot {
            generation: self.generation,
            mailbox_read_plane: self.mailbox_read_plane,
        }
    }

    /// `wrmsr` from `core`, with full side effects (mailbox → VR,
    /// `PERF_CTL` → frequency) and the Sec. 5 mailbox gates: OCM disable,
    /// then the microcode patch, then the hardware clamp.
    ///
    /// # Errors
    ///
    /// [`PackageError`] on crash, bad core, or `#GP`.
    pub fn wrmsr(
        &mut self,
        now: SimTime,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        self.ensure_alive()?;
        if core.0 >= self.cores.len() {
            return Err(PackageError::NoSuchCore(core));
        }
        let c = &self.hot[core.0];
        c.wrmsr.set(c.wrmsr.get() + 1);
        // With the mailbox open and no patch loaded, a read command is
        // stored as written and only moves the read plane.
        let read_command = msr == Msr::OC_MAILBOX
            && self.ocm_enabled
            && self.microcode_patch.is_none()
            && OcRequest::decode(value).is_ok_and(|req| !req.is_write());
        c.read_command.set(read_command);
        if !read_command {
            self.generation += 1;
        }
        // OCM disable gates the mailbox before anything else sees it;
        // the microcode patch sees what gets past it.
        if msr == Msr::OC_MAILBOX
            && (!self.ocm_enabled
                || self
                    .microcode_patch
                    .is_some_and(|patch| patch.ignores_mailbox_write(value)))
        {
            self.mailbox_writes_ignored += 1;
            self.note_mailbox_ignored(now, core, value);
            return Ok(WriteOutcome::Ignored);
        }
        self.msrs.wrmsr(msr, value)?;
        match msr {
            Msr::OC_MAILBOX => {
                if let Ok(req) = OcRequest::decode(value) {
                    self.mailbox_read_plane = req.plane();
                    if req.is_write() {
                        // The hardware clamp (if provisioned) bounds the
                        // accepted offset.
                        let requested_mv = req.offset_mv();
                        let req = self.offset_limit.clamp(req);
                        self.plane_offset_units[req.plane().index() as usize] = req.offset_units();
                        self.plane_offset_written_at[req.plane().index() as usize] = Some(now);
                        self.telemetry.emit_with(now, || TelemetryEvent::OcMailbox {
                            core: core.0 as u32,
                            plane: req.plane().index(),
                            requested_mv,
                            applied_mv: req.offset_mv(),
                            accepted: true,
                        });
                        if matches!(req.plane(), Plane::Core | Plane::Cache) {
                            self.retarget_rail(now, MAILBOX_SETTLE);
                        }
                    }
                }
                // Malformed values (run bit clear) are stored but inert,
                // like the real mailbox.
            }
            Msr::IA32_PERF_CTL => {
                let freq = FreqMhz(decode_perf_ctl(value));
                self.set_core_freq(now, core, freq)?;
            }
            _ => {}
        }
        Ok(WriteOutcome::Written { stored: value })
    }

    /// Records a swallowed mailbox write: the requested offset never
    /// reached the regulator, so the applied offset is the plane's
    /// current (unchanged) one. This is the event the exposure-window
    /// metric relies on being *absent* for microcode/clamp levels.
    fn note_mailbox_ignored(&self, now: SimTime, core: CoreId, raw: u64) {
        self.telemetry
            .incr(MetricKey::global("msr", "wrmsr_ignored"));
        if let Ok(req) = OcRequest::decode(raw) {
            if req.is_write() {
                self.telemetry.emit(
                    now,
                    TelemetryEvent::OcMailbox {
                        core: core.0 as u32,
                        plane: req.plane().index(),
                        requested_mv: req.offset_mv(),
                        applied_mv: self.plane_offset_mv(req.plane()),
                        accepted: false,
                    },
                );
            }
        }
    }

    /// Latches the crashed state, emitting the telemetry event once.
    fn latch_crash(&mut self, now: SimTime, core: CoreId) {
        self.generation += 1;
        if !self.crashed {
            self.telemetry.incr(MetricKey::global("cpu", "crashes"));
            self.telemetry.emit(
                now,
                TelemetryEvent::Crash {
                    core: core.0 as u32,
                },
            );
        }
        self.crashed = true;
    }

    /// Accounts a batch that retired with faulty results.
    fn note_faults(&self, now: SimTime, core: CoreId, faults: u64) {
        if faults > 0 {
            self.telemetry
                .add(MetricKey::per_core("cpu", "faults", core.0 as u32), faults);
            self.telemetry.emit(
                now,
                TelemetryEvent::Fault {
                    core: core.0 as u32,
                    faults,
                },
            );
        }
    }

    /// Executing on an idle core wakes it (scheduling reality).
    fn wake_if_idle(&mut self, now: SimTime, core: CoreId) -> Result<(), PackageError> {
        if !self.is_core_running(core)? {
            self.wake_core(now, core)?;
        }
        Ok(())
    }

    /// Checks the rail for collapse at `now`, latching a crash if it has
    /// fallen below the absolute minimum operating voltage.
    fn check_rail(&mut self, now: SimTime, core: CoreId) -> Result<Rails, PackageError> {
        self.ensure_alive()?;
        let rails = self.rails(now);
        if rails.core_mv < self.spec.absolute_min_voltage_mv()
            || rails.cache_mv < self.spec.absolute_min_voltage_mv()
        {
            self.latch_crash(now, core);
            return Err(PackageError::Crashed);
        }
        Ok(rails)
    }

    /// Executes one `imul` on `core` at the rail conditions of `now`.
    ///
    /// # Errors
    ///
    /// [`PackageError::Crashed`] if the package is (or just) crashed.
    pub fn execute_imul(
        &mut self,
        now: SimTime,
        core: CoreId,
        a: u64,
        b: u64,
    ) -> Result<MulExecution, PackageError> {
        self.wake_if_idle(now, core)?;
        let rails = self.check_rail(now, core)?;
        let f = self.core_freq(core)?;
        let ex = self
            .engine
            .execute_imul(a, b, f, rails.core_mv, &mut self.rng);
        if ex.outcome == plugvolt_circuit::fault::FaultOutcome::Crash {
            self.latch_crash(now, core);
            return Err(PackageError::Crashed);
        }
        if matches!(
            ex.outcome,
            plugvolt_circuit::fault::FaultOutcome::Faulted { .. }
        ) {
            self.note_faults(now, core, 1);
        }
        Ok(ex)
    }

    /// Runs the EXECUTE-thread loop (`iters` varying-operand `imul`s) on
    /// `core` at the rail conditions of `now`. A crash latches.
    ///
    /// # Errors
    ///
    /// [`PackageError::Crashed`] / [`PackageError::NoSuchCore`].
    pub fn run_imul_loop(
        &mut self,
        now: SimTime,
        core: CoreId,
        iters: u64,
    ) -> Result<u64, PackageError> {
        self.wake_if_idle(now, core)?;
        let rails = self.check_rail(now, core)?;
        let f = self.core_freq(core)?;
        match self
            .engine
            .run_imul_loop(iters, f, rails.core_mv, &mut self.rng)
        {
            BatchOutcome::Retired { faults } => {
                self.note_faults(now, core, faults);
                Ok(faults)
            }
            BatchOutcome::Crashed => {
                self.latch_crash(now, core);
                Err(PackageError::Crashed)
            }
        }
    }

    /// Accounts `batches` further [`run_batch`](Self::run_batch)es of
    /// `class` on `core` at `now` without running them, where running
    /// them would retire with no fault, draw no random number and change
    /// nothing but the slack-table counters: a live package, a running
    /// core and rails above the crash floor, at a zero fault probability
    /// (see `ExecutionEngine::repeat_quiet_batches`). Returns `false`,
    /// accounting nothing, elsewhere; `batches == 0` only asks.
    #[must_use]
    pub fn repeat_quiet_batches(
        &self,
        now: SimTime,
        core: CoreId,
        class: InstrClass,
        batches: u64,
    ) -> bool {
        let (Ok(true), Ok(f)) = (self.is_core_running(core), self.core_freq(core)) else {
            return false;
        };
        let rails = self.rails(now);
        let floor = self.spec.absolute_min_voltage_mv();
        !self.crashed
            && rails.core_mv >= floor
            && rails.cache_mv >= floor
            && self.engine.repeat_quiet_batches(class, f, rails, batches)
    }

    /// Runs a batch of `class` instructions on `core`. A crash latches.
    ///
    /// # Errors
    ///
    /// [`PackageError::Crashed`] / [`PackageError::NoSuchCore`].
    pub fn run_batch(
        &mut self,
        now: SimTime,
        core: CoreId,
        class: InstrClass,
        iters: u64,
    ) -> Result<u64, PackageError> {
        self.wake_if_idle(now, core)?;
        let rails = self.check_rail(now, core)?;
        let f = self.core_freq(core)?;
        match self
            .engine
            .run_batch_on_rails(class, iters, f, rails, &mut self.rng)
        {
            BatchOutcome::Retired { faults } => {
                self.note_faults(now, core, faults);
                Ok(faults)
            }
            BatchOutcome::Crashed => {
                self.latch_crash(now, core);
                Err(PackageError::Crashed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> SimTime {
        SimTime::ZERO
    }

    fn settled(pkg: &CpuPackage) -> SimTime {
        pkg.rail_settles_at() + SimDuration::from_micros(1)
    }

    fn pkg() -> CpuPackage {
        CpuPackage::new(CpuModel::SkyLake, 11)
    }

    #[test]
    fn powers_on_at_base_frequency_and_nominal_voltage() {
        let p = pkg();
        assert_eq!(p.core_freq(CoreId(0)).unwrap(), FreqMhz(3_200));
        let v = p.core_voltage_mv(now());
        let expected = p.spec().nominal_voltage_mv(FreqMhz(3_200));
        assert!((v - expected).abs() < 1e-9);
        assert!(!p.is_crashed());
    }

    #[test]
    fn perf_status_reports_freq_and_voltage() {
        let p = pkg();
        let raw = p.rdmsr(now(), CoreId(1), Msr::IA32_PERF_STATUS).unwrap();
        let st = PerfStatus::decode(raw);
        assert_eq!(st.freq_mhz(), 3_200);
        assert!((st.voltage_mv() - p.core_voltage_mv(now())).abs() < 0.2);
    }

    #[test]
    fn perf_ctl_changes_frequency_quantized() {
        let mut p = pkg();
        let raw = plugvolt_msr::perf_status::encode_perf_ctl(2_600);
        p.wrmsr(now(), CoreId(0), Msr::IA32_PERF_CTL, raw).unwrap();
        assert_eq!(p.core_freq(CoreId(0)).unwrap(), FreqMhz(2_600));
        // Other cores unaffected.
        assert_eq!(p.core_freq(CoreId(1)).unwrap(), FreqMhz(3_200));
    }

    #[test]
    fn mailbox_write_moves_rail_after_settling() {
        let mut p = pkg();
        let req = OcRequest::write_offset(-100, Plane::Core).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        // Offset is visible immediately in the register...
        assert!((-100..=-99).contains(&p.core_offset_mv()));
        // ...but the rail only moves after settle + slew.
        let before = p.core_voltage_mv(now());
        let nominal = p.spec().nominal_voltage_mv(FreqMhz(3_200));
        assert!((before - nominal).abs() < 1e-9);
        let after = p.core_voltage_mv(settled(&p));
        // −100 mV truncates to −102 units = −99.609375 mV applied.
        assert!((after - (nominal - 99.609375)).abs() < 0.1, "after={after}");
    }

    #[test]
    fn repeated_reads_are_counted_on_existing_cores() {
        let p = pkg();
        assert!(p.repeat_reads(CoreId(1), 3));
        assert!(!p.repeat_reads(CoreId(99), 1));
        p.publish_hot_counters();
        p.telemetry().with(|reg| {
            assert_eq!(reg.counter(&MetricKey::per_core("msr", "rdmsr", 1)), 3);
        });
    }

    #[test]
    fn only_mailbox_read_commands_keep_the_snapshot_and_repeat() {
        let mut p = pkg();
        let t = now();
        let read = |plane| OcRequest::read(plane).encode();
        let before = p.snapshot();
        p.wrmsr(t, CoreId(0), Msr::OC_MAILBOX, read(Plane::Cache))
            .unwrap();
        assert_ne!(p.snapshot(), before, "the read plane moved");
        p.wrmsr(t, CoreId(0), Msr::OC_MAILBOX, read(Plane::Core))
            .unwrap();
        assert_eq!(p.snapshot(), before, "and moved back");
        assert!(p.repeat_writes(CoreId(0), 0));
        assert!(!p.repeat_writes(CoreId(1), 0), "core 1 wrote nothing");
        assert!(!p.repeat_writes(CoreId(99), 0));
        // Any other write changes the package, even one that stores the
        // value already there.
        let perf_ctl = plugvolt_msr::perf_status::encode_perf_ctl(3_200);
        p.wrmsr(t, CoreId(0), Msr::IA32_PERF_CTL, perf_ctl).unwrap();
        assert_ne!(p.snapshot(), before);
        assert!(!p.repeat_writes(CoreId(0), 0));
        let before = p.snapshot();
        p.reset(t);
        assert_ne!(p.snapshot(), before);
        // A read command the microcode patch sees, or one the closed
        // mailbox drops, is not repeatable.
        p.load_microcode(MicrocodeUpdate::maximal_safe_state(0xf5, -125));
        p.wrmsr(t, CoreId(0), Msr::OC_MAILBOX, read(Plane::Core))
            .unwrap();
        assert!(!p.repeat_writes(CoreId(0), 0));
        let mut p = pkg();
        p.set_ocm_enabled(false);
        p.wrmsr(t, CoreId(2), Msr::OC_MAILBOX, read(Plane::Core))
            .unwrap();
        assert!(!p.repeat_writes(CoreId(2), 0));
        p.set_ocm_enabled(true);
        p.wrmsr(t, CoreId(2), Msr::OC_MAILBOX, read(Plane::Core))
            .unwrap();
        assert!(p.repeat_writes(CoreId(2), 5));
        p.publish_hot_counters();
        p.telemetry().with(|reg| {
            assert_eq!(reg.counter(&MetricKey::per_core("msr", "wrmsr", 2)), 7);
        });
    }

    #[test]
    fn rails_hold_until_a_ramp_and_for_good_once_settled() {
        let mut p = pkg();
        let t = now() + SimDuration::from_micros(1);
        assert_eq!(p.rails_hold_until(t), None);
        let req = OcRequest::write_offset(-100, Plane::Core).encode();
        p.wrmsr(t, CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        let hold = p.rails_hold_until(t).expect("a ramp is pending");
        assert!(hold > t);
        assert_eq!(p.rails(hold), p.rails(t));
        assert_ne!(p.rails(hold + SimDuration::from_micros(1)), p.rails(t));
        assert_eq!(p.rails_hold_until(settled(&p)), None);
    }

    #[test]
    fn mailbox_read_reports_current_offset() {
        let mut p = pkg();
        let req = OcRequest::write_offset(-125, Plane::Core).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        let raw = p.rdmsr(now(), CoreId(0), Msr::OC_MAILBOX).unwrap();
        let back = OcRequest::decode(raw).unwrap();
        assert_eq!(back.offset_mv(), -125);
    }

    #[test]
    fn ocm_disable_ignores_writes() {
        let mut p = pkg();
        p.set_ocm_enabled(false);
        let req = OcRequest::write_offset(-200, Plane::Core).encode();
        let out = p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        assert_eq!(out, WriteOutcome::Ignored);
        assert_eq!(p.core_offset_mv(), 0);
        assert_eq!(p.mailbox_writes_ignored(), 1);
    }

    #[test]
    fn microcode_patch_write_ignores_unsafe_offsets() {
        let mut p = pkg();
        p.load_microcode(MicrocodeUpdate::maximal_safe_state(0xf5, -125));
        assert_eq!(p.microcode_revision(), 0xf5);
        let deep = OcRequest::write_offset(-250, Plane::Core).encode();
        let out = p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, deep).unwrap();
        assert_eq!(out, WriteOutcome::Ignored);
        assert_eq!(p.core_offset_mv(), 0);
        let safe = OcRequest::write_offset(-100, Plane::Core).encode();
        assert!(p
            .wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, safe)
            .unwrap()
            .was_written());
        assert!((-100..=-99).contains(&p.core_offset_mv()));
    }

    #[test]
    fn hardware_clamp_bounds_accepted_offset() {
        let mut p = pkg();
        p.provision_offset_limit(VoltageOffsetLimit::new(-125));
        let deep = OcRequest::write_offset(-300, Plane::Core).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, deep).unwrap();
        assert_eq!(p.core_offset_mv(), -125);
    }

    #[test]
    fn nominal_execution_is_fault_free() {
        let mut p = pkg();
        let faults = p.run_imul_loop(now(), CoreId(0), 1_000_000).unwrap();
        assert_eq!(faults, 0);
    }

    #[test]
    fn deep_undervolt_faults_then_crash_latches() {
        let mut p = pkg();
        // Drive the offset deep enough to fault at base frequency.
        let mut offset = -120;
        let faults = loop {
            let req = OcRequest::write_offset(offset, Plane::Core).encode();
            p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req).unwrap();
            let t = settled(&p);
            match p.run_imul_loop(t, CoreId(0), 1_000_000) {
                Ok(0) => {
                    offset -= 5;
                    assert!(offset > -400, "never faulted");
                }
                Ok(n) => break n,
                Err(PackageError::Crashed) => {
                    panic!("crashed before any fault band at {offset} mV")
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert!(faults > 0);
        // Push far deeper: must crash, and stay crashed until reset.
        let req = OcRequest::write_offset(-450, Plane::Core).encode();
        let _ = p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req);
        let t = settled(&p);
        assert_eq!(
            p.run_imul_loop(t, CoreId(0), 1_000_000),
            Err(PackageError::Crashed)
        );
        assert!(p.is_crashed());
        assert_eq!(
            p.rdmsr(t, CoreId(0), Msr::IA32_PERF_STATUS),
            Err(PackageError::Crashed)
        );
        p.reset(t);
        assert!(!p.is_crashed());
        assert_eq!(p.core_offset_mv(), 0);
        let v = p.core_voltage_mv(p.rail_settles_at() + SimDuration::from_micros(1));
        let nominal = p.spec().nominal_voltage_mv(p.spec().base_freq);
        assert!((v - nominal).abs() < 1.0);
    }

    #[test]
    fn microcode_survives_reset() {
        let mut p = pkg();
        p.load_microcode(MicrocodeUpdate::maximal_safe_state(0xf5, -125));
        p.reset(now());
        let deep = OcRequest::write_offset(-250, Plane::Core).encode();
        let out = p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, deep).unwrap();
        assert_eq!(out, WriteOutcome::Ignored);
    }

    #[test]
    fn bad_core_id_is_rejected() {
        let mut p = pkg();
        assert_eq!(
            p.rdmsr(now(), CoreId(9), Msr::IA32_PERF_STATUS),
            Err(PackageError::NoSuchCore(CoreId(9)))
        );
        assert_eq!(
            p.wrmsr(now(), CoreId(9), Msr::OC_MAILBOX, 0),
            Err(PackageError::NoSuchCore(CoreId(9)))
        );
    }

    #[test]
    fn unknown_msr_faults() {
        let p = pkg();
        assert!(matches!(
            p.rdmsr(now(), CoreId(0), Msr(0x1234)),
            Err(PackageError::Msr(MsrError::GeneralProtection { .. }))
        ));
    }

    #[test]
    fn energy_accumulates_with_time_and_drops_with_undervolt() {
        let mut p = pkg();
        // Window A: 100 ms at nominal.
        p.checkpoint_energy(now());
        let t1 = SimTime::ZERO + SimDuration::from_millis(100);
        let e_nominal = p.package_energy_j(t1);
        assert!(e_nominal > 0.5, "e={e_nominal}");
        // Window B: same wall time with a −100 mV benign undervolt.
        let req = OcRequest::write_offset(-100, Plane::Core).encode();
        p.wrmsr(t1, CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        let t2 = p.rail_settles_at();
        let e_start = p.package_energy_j(t2);
        let t3 = t2 + SimDuration::from_millis(100);
        let e_under = p.package_energy_j(t3) - e_start;
        assert!(
            e_under < e_nominal * 0.95,
            "undervolt saved nothing: {e_under} vs {e_nominal}"
        );
    }

    #[test]
    fn idle_package_sips_energy() {
        let mut p = pkg();
        let t0 = now();
        for c in 0..4 {
            p.enter_idle(t0, CoreId(c), 6).unwrap();
        }
        let t1 = p.rail_settles_at();
        let e_start = p.package_energy_j(t1);
        let t2 = t1 + SimDuration::from_millis(100);
        let e_idle = p.package_energy_j(t2) - e_start;
        // Versus a fully busy window of the same length.
        let mut busy = pkg();
        busy.checkpoint_energy(t0);
        let e_busy = busy.package_energy_j(t0 + SimDuration::from_millis(100));
        assert!(e_idle < e_busy / 10.0, "idle {e_idle} vs busy {e_busy}");
    }

    #[test]
    fn tsc_is_invariant_across_pstates() {
        let mut p = pkg(); // base 3.2 GHz
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        let tsc1 = p.rdmsr(t, CoreId(0), Msr::TIME_STAMP_COUNTER).unwrap();
        assert_eq!(tsc1, 32_000, "10 µs at 3.2 GHz");
        // Dropping the core frequency does not change the TSC rate.
        p.set_core_freq(t, CoreId(0), FreqMhz(800)).unwrap();
        let t2 = t + SimDuration::from_micros(10);
        let tsc2 = p.rdmsr(t2, CoreId(0), Msr::TIME_STAMP_COUNTER).unwrap();
        assert_eq!(tsc2 - tsc1, 32_000);
    }

    #[test]
    fn rapl_msr_reports_the_meter() {
        let mut p = pkg();
        let t = SimTime::ZERO + SimDuration::from_millis(50);
        let raw = p.rdmsr(t, CoreId(0), Msr::PKG_ENERGY_STATUS).unwrap();
        let joules = raw as f64 * crate::energy::RAPL_UNIT_J;
        let direct = p.package_energy_j(t);
        assert!((joules - direct).abs() < 0.001, "{joules} vs {direct}");
        assert!(joules > 0.1);
        let _ = &mut p;
    }

    #[test]
    fn idle_cores_release_the_rail() {
        let mut p = pkg();
        let nominal_base = p.spec().nominal_voltage_mv(FreqMhz(3_200));
        let nominal_min = p.spec().nominal_voltage_mv(FreqMhz(800));
        for c in 0..4 {
            p.enter_idle(now(), CoreId(c), 6).unwrap();
        }
        let t = settled(&p);
        let v = p.core_voltage_mv(t);
        assert!(
            (v - nominal_min).abs() < 1.0,
            "rail at {v}, want {nominal_min}"
        );
        assert!(v < nominal_base - 100.0);
        // Waking one core pulls the rail back up.
        p.wake_core(t, CoreId(2)).unwrap();
        let t2 = settled(&p);
        assert!((p.core_voltage_mv(t2) - nominal_base).abs() < 1.0);
        assert!(p.is_core_running(CoreId(2)).unwrap());
        assert!(!p.is_core_running(CoreId(0)).unwrap());
    }

    #[test]
    fn executing_on_an_idle_core_wakes_it() {
        let mut p = pkg();
        p.enter_idle(now(), CoreId(1), 1).unwrap();
        assert!(!p.is_core_running(CoreId(1)).unwrap());
        let t = settled(&p);
        let faults = p.run_imul_loop(t, CoreId(1), 10_000).unwrap();
        assert_eq!(faults, 0);
        assert!(p.is_core_running(CoreId(1)).unwrap());
    }

    #[test]
    fn cache_plane_write_moves_cache_rail_only() {
        let mut p = pkg();
        let nominal_core = p.spec().nominal_voltage_mv(FreqMhz(3_200));
        let nominal_cache = p.spec().nominal_cache_voltage_mv(FreqMhz(3_200));
        let req = OcRequest::write_offset(-125, Plane::Cache).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        let t = settled(&p);
        assert!(
            (p.core_voltage_mv(t) - nominal_core).abs() < 1e-9,
            "core rail untouched"
        );
        assert!(
            (p.cache_voltage_mv(t) - (nominal_cache - 125.0)).abs() < 1.0,
            "cache rail moved: {}",
            p.cache_voltage_mv(t)
        );
        assert_eq!(p.plane_offset_mv(Plane::Cache), -125);
        assert_eq!(p.plane_offset_mv(Plane::Core), 0);
    }

    #[test]
    fn mailbox_read_protocol_selects_plane() {
        let mut p = pkg();
        let wr = OcRequest::write_offset(-125, Plane::Cache).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, wr).unwrap();
        // The response register now reflects the cache plane.
        let resp = OcRequest::decode(p.rdmsr(now(), CoreId(0), Msr::OC_MAILBOX).unwrap()).unwrap();
        assert_eq!(resp.plane(), Plane::Cache);
        assert_eq!(resp.offset_mv(), -125);
        // A read command re-targets the response at another plane.
        let rd = OcRequest::read(Plane::Core).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, rd).unwrap();
        let resp = OcRequest::decode(p.rdmsr(now(), CoreId(0), Msr::OC_MAILBOX).unwrap()).unwrap();
        assert_eq!(resp.plane(), Plane::Core);
        assert_eq!(resp.offset_mv(), 0);
    }

    #[test]
    fn cache_undervolt_faults_loads_not_alu() {
        use crate::exec::InstrClass;
        let mut p = pkg();
        // Deep cache-plane undervolt at a fast core clock.
        p.set_core_freq(now(), CoreId(0), FreqMhz(3_600)).unwrap();
        let req = OcRequest::write_offset(-300, Plane::Cache).encode();
        p.wrmsr(now(), CoreId(0), Msr::OC_MAILBOX, req).unwrap();
        let t = settled(&p);
        let alu = p
            .run_batch(t, CoreId(0), InstrClass::AluAdd, 1_000_000)
            .unwrap();
        assert_eq!(alu, 0, "core plane is at nominal; ALU must be clean");
        match p.run_batch(t, CoreId(0), InstrClass::Load, 1_000_000) {
            Ok(faults) => assert!(faults > 0, "loads must fault under cache undervolt"),
            Err(PackageError::Crashed) => {} // even deeper: also a violation
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn rail_tracks_highest_running_core() {
        let mut p = pkg();
        // Drop core 0 to the floor; rail must still serve cores 1–3 at base.
        p.set_core_freq(now(), CoreId(0), FreqMhz(800)).unwrap();
        let nominal_base = p.spec().nominal_voltage_mv(FreqMhz(3_200));
        assert!((p.core_vr.target_mv() - nominal_base).abs() < 1e-9);
        // Drop all cores: rail follows.
        for c in 0..4 {
            p.set_core_freq(now(), CoreId(c), FreqMhz(800)).unwrap();
        }
        let nominal_low = p.spec().nominal_voltage_mv(FreqMhz(800));
        assert!((p.core_vr.target_mv() - nominal_low).abs() < 1e-9);
    }
}
