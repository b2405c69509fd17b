//! Step S2: the polling countermeasure kernel module (Algorithm 3).
//!
//! The deployed module polls, per core, MSR `0x198` (frequency) and MSR
//! `0x150` (voltage offset). If the observed pair is in the characterized
//! unsafe set, it immediately rewrites `0x150` to force the system back
//! into a safe state. Because an accepted mailbox undervolt only reaches
//! the rail after the VR command latency, a polling period shorter than
//! that latency removes the unsafe target before the voltage ever moves —
//! which is why the paper observes *complete* fault elimination.
//!
//! The module runs off per-CPU timers: each tick costs the polled core a
//! timer-interrupt entry plus two local `rdmsr`s and the set lookup. That
//! stolen time is the entire source of the Table 2 overhead (0.28 % in
//! the paper).

use crate::charmap::CharacterizationMap;
use crate::state::{StateClass, SystemState};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_des::stats::Summary;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_kernel::machine::{KernelModule, ModuleCtx};
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_msr::perf_status::PerfStatus;
use plugvolt_telemetry::{HistogramSpec, MetricKey, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The module name shown in `lsmod` and the attestation report.
pub const MODULE_NAME: &str = "plugvolt-poll";

/// What the module writes to 0x150 when it finds an unsafe state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestorePolicy {
    /// Clear the offset entirely (back to the fused V/F curve).
    ZeroOffset,
    /// Clamp to the maximal safe state with the given guard margin,
    /// preserving as much benign undervolt as possible.
    MaximalSafe {
        /// Extra guard in mV on top of the characterized bound.
        margin_mv: i32,
    },
}

/// Configuration of the polling module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PollConfig {
    /// Polling period. The default (200 µs) sits well inside the VR
    /// command latency, giving complete prevention at ≈ 0.3 % overhead.
    pub period: SimDuration,
    /// Restore action on detection.
    pub restore: RestorePolicy,
    /// Timer-interrupt entry/exit overhead charged per tick per core.
    pub timer_overhead: SimDuration,
    /// Also drop the core frequency on detection (`IA32_PERF_CTL`), to
    /// the fastest point at which the *observed* offset is safe.
    ///
    /// Rationale: a 0x150 restore only takes effect after the mailbox/VR
    /// command latency (hundreds of µs), but a frequency-side attacker
    /// (CLKSCREW-style) flips the (f, V) pair into unsafety through the
    /// *fast* P-state path. Lowering the frequency restores the Eq. 1
    /// budget within microseconds and closes that window; the governor
    /// re-raises the frequency afterwards.
    pub frequency_fallback: bool,
    /// Guard margin in mV: states within this much of the characterized
    /// unsafe band are treated as unsafe.
    ///
    /// Rationale: the empirical onset certifies "no faults observed in a
    /// million iterations", i.e. a per-operation fault probability below
    /// 1e-6 -- but a Bellcore-style attacker needs only *one* fault in
    /// an arbitrarily long campaign parked just above the onset. A few
    /// millivolts of guard put every permitted state astronomically far
    /// down the fault-probability curve.
    pub guard_margin_mv: i32,
    /// Voltage planes the module watches.
    ///
    /// The paper's Algorithm 3 reads MSR 0x150 once per core — the
    /// mailbox *response register*, which reflects the last command's
    /// plane (core at boot). With the default `[Core]` the module issues
    /// exactly that read and acts on whatever plane the response holds.
    /// Adding `Plane::Cache` makes the module issue explicit per-plane
    /// read commands each tick (≈ 2 extra MSR accesses per plane per
    /// core), closing cache-plane undervolting at a measurable overhead
    /// cost — see the plane ablation in EXPERIMENTS.md.
    pub planes: Vec<Plane>,
    /// Skip cores parked in a C-state. An idle core retires no
    /// instructions and therefore cannot be faulted; it gets polled on
    /// the first tick after it wakes (bounded by one period, the same
    /// bound as detection itself). Saves the per-core poll cost on idle
    /// machines.
    pub skip_idle_cores: bool,
}

impl Default for PollConfig {
    fn default() -> Self {
        PollConfig {
            period: SimDuration::from_micros(200),
            restore: RestorePolicy::ZeroOffset,
            timer_overhead: SimDuration::from_nanos(150),
            frequency_fallback: true,
            guard_margin_mv: 10,
            planes: vec![Plane::Core],
            skip_idle_cores: true,
        }
    }
}

/// Live counters of a deployed polling module.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PollStats {
    /// Timer ticks fired.
    pub ticks: u64,
    /// Per-core state observations made.
    pub observations: u64,
    /// Unsafe states detected.
    pub detections: u64,
    /// Restore writes issued.
    pub restores: u64,
    /// Frequency fallbacks issued (fast-path mitigation).
    pub freq_fallbacks: u64,
    /// Time of the most recent detection.
    pub last_detection: Option<SimTime>,
    /// Offsets (mV) seen at detection time.
    pub detected_offsets: Summary,
}

/// Shared handle onto a deployed module's statistics.
pub type StatsHandle = Rc<RefCell<PollStats>>;

/// The polling countermeasure kernel module.
///
/// # Examples
///
/// ```
/// use plugvolt::charmap::{CharacterizationMap, FreqBand};
/// use plugvolt::poll::{PollConfig, PollingModule, MODULE_NAME};
/// use plugvolt_cpu::freq::FreqMhz;
/// use plugvolt_cpu::model::CpuModel;
/// use plugvolt_kernel::machine::Machine;
///
/// let mut map = CharacterizationMap::new("demo", 0xf4, -300);
/// map.insert_band(FreqMhz(1_800), FreqBand {
///     fault_onset_mv: Some(-180),
///     crash_mv: Some(-220),
/// });
/// let mut machine = Machine::new(CpuModel::CometLake, 1);
/// let (module, _stats) = PollingModule::new(map, PollConfig::default());
/// machine.load_module(Box::new(module))?;
/// assert!(machine.is_module_loaded(MODULE_NAME));
/// # Ok::<(), plugvolt_kernel::machine::MachineError>(())
/// ```
#[derive(Debug)]
pub struct PollingModule {
    map: Arc<CharacterizationMap>,
    cfg: PollConfig,
    stats: StatsHandle,
    /// One core's observations, refilled by every `poll_core` call so a
    /// quiet tick allocates nothing.
    observed: Vec<(Plane, SystemState)>,
    /// The observations the last tick made, if it detected nothing (a
    /// quiet tick: see [`KernelModule::fold_quiet_ticks`]).
    quiet: Option<u64>,
}

impl PollingModule {
    /// Creates the module around a characterization map, returning it
    /// together with the shared statistics handle. The module shares an
    /// `Arc` map with its other holders; an owned map is wrapped once.
    #[must_use]
    pub fn new(map: impl Into<Arc<CharacterizationMap>>, cfg: PollConfig) -> (Self, StatsHandle) {
        let stats: StatsHandle = Rc::default();
        (
            PollingModule {
                map: map.into(),
                cfg,
                stats: Rc::clone(&stats),
                observed: Vec::new(),
                quiet: None,
            },
            stats,
        )
    }

    /// Classifies a state with the configured guard margin applied: the
    /// probe is `guard_margin_mv` deeper than the observation, widening
    /// the unsafe set.
    #[must_use]
    pub fn classify_guarded(&self, freq: FreqMhz, offset_mv: i32) -> StateClass {
        let probe = if offset_mv < 0 {
            offset_mv - self.cfg.guard_margin_mv.max(0)
        } else {
            offset_mv
        };
        self.map.classify(freq, probe.max(-1_000))
    }

    /// The fastest table frequency at which `offset_mv` is safe per the
    /// (guarded) characterization, if any.
    #[must_use]
    pub fn safe_frequency_for(
        &self,
        table: &plugvolt_cpu::freq::FreqTable,
        offset_mv: i32,
    ) -> Option<FreqMhz> {
        let (top, step) = (table.max().mhz(), table.step_mhz());
        (0..table.len() as u32)
            .map(|k| FreqMhz(top - k * step))
            .find(|&f| self.classify_guarded(f, offset_mv) == StateClass::Safe)
    }

    /// The restore offset the policy dictates.
    #[must_use]
    pub fn restore_offset_mv(&self) -> i32 {
        match self.cfg.restore {
            RestorePolicy::ZeroOffset => 0,
            RestorePolicy::MaximalSafe { margin_mv } => {
                self.map.maximal_safe_offset_mv(margin_mv).unwrap_or(0)
            }
        }
    }

    /// Polls one core, replacing `out` with the per-plane observations
    /// it made.
    fn poll_core(
        &self,
        ctx: &mut ModuleCtx<'_>,
        core: CoreId,
        out: &mut Vec<(Plane, SystemState)>,
    ) {
        out.clear();
        ctx.charge(core, self.cfg.timer_overhead);
        ctx.tracer()
            .record_span("poll/overhead", self.cfg.timer_overhead.as_picos());
        // Algorithm 3 line 4: read 0x198, locally.
        let Ok(perf) = ctx.rdmsr_local(core, Msr::IA32_PERF_STATUS) else {
            return;
        };
        let freq = FreqMhz(PerfStatus::decode(perf).freq_mhz());
        let observe = |raw: u64| {
            OcRequest::decode(raw).ok().map(|req| {
                (
                    req.plane(),
                    SystemState {
                        freq,
                        offset_mv: req.offset_mv(),
                    },
                )
            })
        };
        if self.cfg.planes == [Plane::Core] {
            // Algorithm 3 line 5 verbatim: one read of the response
            // register; act on whatever plane it reflects.
            if let Ok(raw) = ctx.rdmsr_local(core, Msr::OC_MAILBOX) {
                out.extend(observe(raw));
            }
            return;
        }
        for &plane in &self.cfg.planes {
            // Explicit read command per plane, then fetch the response.
            let cmd = OcRequest::read(plane).encode();
            if ctx.wrmsr_local(core, Msr::OC_MAILBOX, cmd).is_err() {
                continue;
            }
            if let Ok(raw) = ctx.rdmsr_local(core, Msr::OC_MAILBOX) {
                out.extend(observe(raw));
            }
        }
    }
}

impl KernelModule for PollingModule {
    fn name(&self) -> &str {
        MODULE_NAME
    }

    fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        Some(self.cfg.period)
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        // The guard owns a tracer clone, so it outlives this borrow of
        // `ctx` and closes when the whole iteration is done.
        let _iteration = ctx.tracer().span("poll/iteration");
        self.stats.borrow_mut().ticks += 1;
        let cores = ctx.cpu().core_count();
        let mut observed = std::mem::take(&mut self.observed);
        let (mut observations, mut detections) = (0u64, 0u64);
        for c in 0..cores {
            let core = CoreId(c);
            if self.cfg.skip_idle_cores && !ctx.cpu().is_core_running(core).unwrap_or(true) {
                continue;
            }
            self.poll_core(ctx, core, &mut observed);
            for &(plane, state) in &observed {
                self.stats.borrow_mut().observations += 1;
                observations += 1;
                // Algorithm 3 line 6: membership in the (guard-widened)
                // unsafe set.
                if self.classify_guarded(state.freq, state.offset_mv) == StateClass::Safe {
                    continue;
                }
                detections += 1;
                {
                    let mut s = self.stats.borrow_mut();
                    s.detections += 1;
                    s.last_detection = Some(ctx.now());
                    s.detected_offsets.record(f64::from(state.offset_mv));
                }
                // Unsafe-state entry instant: the *later* of the
                // adversarial offset write and the core's last P-state
                // change — a CLKSCREW-style campaign parks a standing
                // offset and only makes it unsafe by escalating the
                // clock much later. Captured before the restore write
                // below overwrites the per-plane timestamp.
                let entry = match (
                    ctx.cpu().last_offset_write_at(plane),
                    ctx.cpu().last_pstate_change_at(core),
                ) {
                    (Some(w), Some(p)) => Some(w.max(p)),
                    (w, None) => w,
                    (None, p) => p,
                };
                let now = ctx.now();
                let sink = ctx.cpu().telemetry().clone();
                sink.emit(
                    now,
                    TelemetryEvent::Detection {
                        core: core.0 as u32,
                        freq_mhz: state.freq.mhz(),
                        offset_mv: state.offset_mv,
                    },
                );
                if let Some(entry) = entry {
                    let latency_us = now.saturating_duration_since(entry).as_picos() as f64 / 1e6;
                    sink.observe(
                        MetricKey::global("poll", "detection_latency_us"),
                        HistogramSpec::DETECTION_LATENCY_US,
                        latency_us,
                    );
                    sink.record_summary(
                        MetricKey::per_core("poll", "detection_latency_us", core.0 as u32),
                        latency_us,
                    );
                }
                // Algorithm 3 line 7: write 0x150 to force a safe state —
                // on the plane that was observed unsafe. A write the
                // mailbox ignored (OCM disabled, microcode lock) or that
                // failed restored nothing: it is accounted as a failure,
                // not as a restore.
                let restore_mv = self.restore_offset_mv();
                let req = OcRequest::write_offset(restore_mv, plane).encode();
                let written = ctx.wrmsr_local(core, Msr::OC_MAILBOX, req);
                if written.is_ok_and(WriteOutcome::was_written) {
                    self.stats.borrow_mut().restores += 1;
                    sink.emit(
                        ctx.now(),
                        TelemetryEvent::Restore {
                            core: core.0 as u32,
                            restore_mv,
                        },
                    );
                    if let Some(entry) = entry {
                        // End-to-end exposure bound: the restore command
                        // lands on the rail only after the VR latency.
                        let landing_us = ctx
                            .cpu()
                            .rail_settles_at()
                            .saturating_duration_since(entry)
                            .as_picos() as f64
                            / 1e6;
                        sink.observe(
                            MetricKey::global("poll", "restore_landing_us"),
                            HistogramSpec::RESTORE_LANDING_US,
                            landing_us,
                        );
                    }
                } else {
                    sink.add(
                        MetricKey::per_core("poll", "restore_failed", core.0 as u32),
                        1,
                    );
                    sink.emit(
                        ctx.now(),
                        TelemetryEvent::RestoreFailed {
                            core: core.0 as u32,
                            restore_mv,
                            ignored: written.is_ok(),
                        },
                    );
                }
                // Fast-path mitigation: the mailbox restore only reaches
                // the rail after the VR command latency, but the core can
                // be made safe *now* by shrinking the frequency side of
                // Eq. 1. (Only core-plane timing scales with frequency in
                // this model, but the lookup is conservative either way.)
                if self.cfg.frequency_fallback {
                    let table = &ctx.cpu().spec().freq_table;
                    if let Some(fallback) = self.safe_frequency_for(table, state.offset_mv) {
                        if fallback < state.freq {
                            let raw = plugvolt_msr::perf_status::encode_perf_ctl(fallback.mhz());
                            if ctx.wrmsr_local(core, Msr::IA32_PERF_CTL, raw).is_ok() {
                                self.stats.borrow_mut().freq_fallbacks += 1;
                            } else {
                                sink.add(
                                    MetricKey::per_core("poll", "fallback_failed", core.0 as u32),
                                    1,
                                );
                                sink.emit(
                                    ctx.now(),
                                    TelemetryEvent::FallbackFailed {
                                        core: core.0 as u32,
                                        freq_mhz: fallback.mhz(),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
        self.observed = observed;
        // A tick that detected nothing wrote no restore: the next one
        // reads the same registers and, unless something else changes
        // them, sees the same values.
        self.quiet = (detections == 0).then_some(observations);
        Some(self.cfg.period)
    }

    fn fold_quiet_ticks(&mut self, ticks: u64) -> bool {
        let Some(observations) = self.quiet else {
            return false;
        };
        let mut s = self.stats.borrow_mut();
        s.ticks += ticks;
        s.observations += ticks * observations;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charmap::FreqBand;
    use plugvolt_cpu::model::CpuModel;
    use plugvolt_cpu::package::{CpuPackage, PackageError};
    use plugvolt_hal::backend::MachineBackend;
    use plugvolt_hal::sim::SimBackend;
    use plugvolt_kernel::machine::Machine;
    use plugvolt_kernel::msr_dev::MsrDev;
    use plugvolt_msr::file::MsrError;

    fn demo_map() -> CharacterizationMap {
        let mut map = CharacterizationMap::new("demo", 0xf4, -300);
        for (mhz, onset, crash) in [
            (400, -280, -295),
            (1_800, -200, -240),
            (3_400, -150, -190),
            (4_900, -110, -150),
        ] {
            map.insert_band(
                FreqMhz(mhz),
                FreqBand {
                    fault_onset_mv: Some(onset),
                    crash_mv: Some(crash),
                },
            );
        }
        map
    }

    fn machine_with_module(cfg: PollConfig) -> (Machine, StatsHandle) {
        let mut m = Machine::new(CpuModel::CometLake, 33);
        let (module, stats) = PollingModule::new(demo_map(), cfg);
        m.load_module(Box::new(module))
            .expect("fresh machine has no module name collision");
        (m, stats)
    }

    #[test]
    fn idle_polling_detects_nothing() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_millis(10));
        let s = stats.borrow();
        assert_eq!(s.ticks, 50);
        assert_eq!(s.observations, 200); // 4 cores × 50 ticks
        assert_eq!(s.detections, 0);
        assert_eq!(s.restores, 0);
    }

    #[test]
    fn unsafe_offset_is_detected_and_restored() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        // Adversary writes a deep undervolt from userspace.
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        assert_eq!(m.cpu().core_offset_mv(), -250);
        // Within one period the module must have cleared it.
        m.advance(SimDuration::from_micros(250));
        assert_eq!(m.cpu().core_offset_mv(), 0);
        let s = stats.borrow();
        assert!(s.detections >= 1);
        assert!(s.restores >= 1);
        assert!(s.last_detection.is_some());
    }

    #[test]
    fn restore_happens_before_rail_moves() {
        // The complete-prevention property: detection inside the VR
        // command latency means the rail never leaves nominal.
        let (mut m, _stats) = machine_with_module(PollConfig::default());
        let nominal = m
            .cpu()
            .spec()
            .nominal_voltage_mv(m.cpu().core_freq(CoreId(0)).expect("core 0 always exists"));
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        // Watch the rail for 5 ms.
        let mut min_v = f64::INFINITY;
        for _ in 0..500 {
            m.advance(SimDuration::from_micros(10));
            min_v = min_v.min(m.cpu().core_voltage_mv(m.now()));
        }
        assert!(
            (min_v - nominal).abs() < 1.0,
            "rail dipped to {min_v} (nominal {nominal})"
        );
    }

    #[test]
    fn safe_undervolts_are_left_alone() {
        // The paper's selling point: benign DVFS keeps working.
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-100, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_millis(5));
        assert_eq!(m.cpu().core_offset_mv(), -100, "benign undervolt kept");
        assert_eq!(stats.borrow().detections, 0);
    }

    #[test]
    fn maximal_safe_restore_policy_clamps_not_clears() {
        let cfg = PollConfig {
            restore: RestorePolicy::MaximalSafe { margin_mv: 5 },
            ..PollConfig::default()
        };
        let (mut m, stats) = machine_with_module(cfg);
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(250));
        // Maximal safe = shallowest onset (−110) + 1 + margin 5 = −104.
        let restored = m.cpu().core_offset_mv();
        assert!((-105..=-103).contains(&restored), "restored to {restored}");
        assert!(stats.borrow().restores >= 1);
    }

    #[test]
    fn overhead_is_fractions_of_a_percent() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_millis(100));
        let stolen = m.stolen_time(CoreId(0));
        let frac = stolen.as_picos() as f64 / SimDuration::from_millis(100).as_picos() as f64;
        assert!((0.0005..0.01).contains(&frac), "overhead fraction = {frac}");
        assert!(stats.borrow().ticks >= 499);
    }

    #[test]
    fn idle_cores_are_not_polled() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        // Park three of four cores.
        let now = m.now();
        for c in 1..4 {
            m.cpu_mut()
                .enter_idle(now, CoreId(c), 6)
                .expect("running core can enter idle");
        }
        m.advance(SimDuration::from_millis(10));
        let s = stats.borrow();
        assert_eq!(s.ticks, 50);
        assert_eq!(s.observations, 50, "only the running core is observed");
        // And the idle cores accrued no poll cost.
        assert_eq!(m.stolen_time(CoreId(3)), SimDuration::ZERO);
        assert!(m.stolen_time(CoreId(0)) > SimDuration::ZERO);
    }

    #[test]
    fn woken_core_is_polled_within_one_period() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let now = m.now();
        m.cpu_mut()
            .enter_idle(now, CoreId(1), 6)
            .expect("running core can enter idle");
        m.advance(SimDuration::from_millis(2));
        let before = stats.borrow().observations;
        let now = m.now();
        m.cpu_mut()
            .wake_core(now, CoreId(1))
            .expect("idle core can be woken");
        m.advance(SimDuration::from_micros(250));
        // One tick covering both running cores.
        assert!(stats.borrow().observations >= before + 2);
    }

    #[test]
    fn ignored_restore_is_not_counted() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        // With the mailbox disabled every restore write is dropped.
        m.cpu_mut().set_ocm_enabled(false);
        m.advance(SimDuration::from_micros(250));
        assert_eq!(m.cpu().core_offset_mv(), -250);
        assert!(stats.borrow().detections >= 1);
        assert_eq!(stats.borrow().restores, 0);
        m.telemetry().with(|reg| {
            assert!(!reg.events().any(|e| e.event.kind() == "restore"));
        });
    }

    /// Restore failures per core: the event kinds and the counter.
    fn failures(m: &Machine, kind: &str, counter: &str) -> (u64, u64) {
        m.telemetry().with(|reg| {
            let events = reg.events().filter(|e| e.event.kind() == kind).count() as u64;
            let count = reg
                .counters()
                .filter(|(k, _)| k.component == "poll" && k.name == counter)
                .map(|(_, v)| v)
                .sum();
            (events, count)
        })
    }

    #[test]
    fn restores_the_microcode_lock_ignores_are_failures() {
        // A layered deployment: the poller restores to its maximal safe
        // state (−104 mV), deeper than the microcode lock admits
        // (−49 mV), so the lock ignores every restore write.
        let mut m = Machine::new(CpuModel::CometLake, 33);
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        crate::deploy::deploy(
            &mut m,
            &demo_map(),
            crate::deploy::Deployment::Microcode {
                revision: 0xf5,
                margin_mv: 60,
            },
        )
        .expect("microcode deploys");
        let (module, stats) = PollingModule::new(
            demo_map(),
            PollConfig {
                restore: RestorePolicy::MaximalSafe { margin_mv: 5 },
                frequency_fallback: false,
                ..PollConfig::default()
            },
        );
        m.load_module(Box::new(module)).expect("fresh machine");
        m.advance(SimDuration::from_millis(1));
        assert_eq!(m.cpu().core_offset_mv(), -250, "nothing was restored");
        let s = stats.borrow();
        assert_eq!(s.detections, 20, "5 ticks x 4 cores");
        assert_eq!(s.restores, 0);
        assert_eq!(
            failures(&m, "restore-failed", "restore_failed"),
            (s.detections, s.detections),
            "one ignored-restore event and one count per detection"
        );
        m.telemetry().with(|reg| {
            assert!(reg.events().all(|e| !matches!(
                e.event,
                TelemetryEvent::RestoreFailed { ignored: false, .. }
            )));
        });
    }

    /// A sim backend whose `IA32_PERF_CTL` writes fail, as a locked
    /// register would.
    struct PerfCtlLocked(SimBackend);

    impl MachineBackend for PerfCtlLocked {
        fn name(&self) -> &'static str {
            "perf-ctl-locked"
        }
        fn rdmsr(&mut self, now: SimTime, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
            self.0.rdmsr(now, core, msr)
        }
        fn wrmsr(
            &mut self,
            now: SimTime,
            core: CoreId,
            msr: Msr,
            value: u64,
        ) -> Result<WriteOutcome, PackageError> {
            if msr == Msr::IA32_PERF_CTL {
                return Err(PackageError::Msr(MsrError::WriteFault { msr }));
            }
            self.0.wrmsr(now, core, msr, value)
        }
        fn cpu(&self) -> &CpuPackage {
            self.0.cpu()
        }
        fn cpu_mut(&mut self) -> &mut CpuPackage {
            self.0.cpu_mut()
        }
    }

    #[test]
    fn failed_frequency_fallbacks_are_failures() {
        let backend = PerfCtlLocked(SimBackend::new(CpuModel::CometLake, 33));
        let mut m = Machine::with_backend(Box::new(backend), 33);
        let (module, stats) = PollingModule::new(demo_map(), PollConfig::default());
        m.load_module(Box::new(module)).expect("fresh machine");
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(250));
        let s = stats.borrow();
        assert!(s.detections >= 1);
        assert_eq!(s.freq_fallbacks, 0);
        assert_eq!(
            failures(&m, "fallback-failed", "fallback_failed"),
            (s.detections, s.detections),
            "one failed-fallback event and one count per detection"
        );
        assert_eq!(failures(&m, "restore-failed", "restore_failed"), (0, 0));
    }

    #[test]
    fn safe_frequency_walks_the_table_from_the_top() {
        let (module, _stats) = PollingModule::new(demo_map(), PollConfig::default());
        let table = CpuModel::CometLake.spec().freq_table;
        let descending: Vec<FreqMhz> = table.iter().collect::<Vec<_>>().into_iter().rev().collect();
        for offset_mv in [-300, -250, -200, -150, -100, 0] {
            assert_eq!(
                module.safe_frequency_for(&table, offset_mv),
                descending
                    .iter()
                    .copied()
                    .find(|&f| module.classify_guarded(f, offset_mv) == StateClass::Safe),
                "offset {offset_mv} mV"
            );
        }
    }

    #[test]
    fn module_unload_stops_polling() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_millis(1));
        m.unload_module(MODULE_NAME)
            .expect("module was loaded by the fixture");
        assert!(!m.is_module_loaded(MODULE_NAME));
        let ticks = stats.borrow().ticks;
        assert!(ticks > 0);
        m.advance(SimDuration::from_millis(1));
        assert_eq!(stats.borrow().ticks, ticks);
    }

    #[test]
    fn detection_records_telemetry_latency_and_events() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(250));
        assert!(stats.borrow().detections >= 1);
        m.telemetry().with(|reg| {
            let latency = reg
                .histogram(&MetricKey::global("poll", "detection_latency_us"))
                .expect("detection latency histogram recorded");
            assert!(latency.total() >= 1);
            let per_core = reg
                .summary(&MetricKey::per_core("poll", "detection_latency_us", 0))
                .expect("per-core latency summary recorded");
            // Detection happens on the first tick at or after the write,
            // so latency is bounded by one polling period.
            assert!(per_core.max().expect("non-empty summary") <= 200.0);
            let landing = reg
                .histogram(&MetricKey::global("poll", "restore_landing_us"))
                .expect("restore landing histogram recorded");
            assert!(landing.total() >= 1);
            let kinds: Vec<&str> = reg.events().map(|e| e.event.kind()).collect();
            assert!(kinds.contains(&"detection"));
            assert!(kinds.contains(&"restore"));
        });
    }

    #[test]
    fn detection_latency_is_bounded_by_period() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_micros(123)); // desynchronize
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let written_at = m.now();
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(400));
        let detected_at = stats.borrow().last_detection.expect("detected");
        let latency = detected_at.saturating_duration_since(written_at);
        assert!(
            latency <= SimDuration::from_micros(205),
            "latency = {latency}"
        );
    }
}
