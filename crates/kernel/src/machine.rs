//! The machine: a CPU package under a minimal kernel.
//!
//! [`Machine`] owns the simulated clock, a [`MachineBackend`] carrying
//! the [`CpuPackage`], and a set of loadable [`KernelModule`]s with
//! kernel-timer semantics — the substrate the paper's countermeasure is
//! deployed on. Modules steal core time when their timers run (the
//! source of the Table 2 overhead), and all MSR traffic they issue is
//! cost-accounted (IPI to the target core plus the `rdmsr`/`wrmsr`
//! microcode flow; the paper's Sec. 5 names this ioctl/MSR path as one
//! contributor to countermeasure turnaround time).
//!
//! All software MSR/DVFS traffic — module context, `msr-dev`, cpufreq —
//! flows through the backend seam ([`Machine::rdmsr`],
//! [`Machine::wrmsr`], [`Machine::set_freq`] and the [`ModuleCtx`]
//! accessors), so a recording backend observes exactly the accesses the
//! software stack makes. Direct `cpu_mut()` access remains the
//! "privileged attacker / physical package" escape hatch and is not
//! part of the recorded surface.

use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::exec::InstrClass;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::{CpuPackage, PackageError, PackageSnapshot};
use plugvolt_des::rng::SimRng;
use plugvolt_des::stats::Histogram;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_hal::backend::{drive_freq_via_msr, MachineBackend};
use plugvolt_hal::sim::SimBackend;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;
use plugvolt_telemetry::{HistogramSpec, MetricKey, Sink, SpanMark, Tracer};
use std::collections::BinaryHeap;
use std::fmt;

/// Cross-core IPI cost for a remote MSR access from kernel context.
pub const IPI_COST: SimDuration = SimDuration::from_nanos(1_900);

/// Errors from machine-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Underlying package error.
    Package(PackageError),
    /// A module with this name is already loaded.
    ModuleLoaded(String),
    /// No module with this name is loaded.
    ModuleNotLoaded(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Package(e) => write!(f, "{e}"),
            MachineError::ModuleLoaded(n) => write!(f, "module '{n}' already loaded"),
            MachineError::ModuleNotLoaded(n) => write!(f, "module '{n}' not loaded"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<PackageError> for MachineError {
    fn from(e: PackageError) -> Self {
        MachineError::Package(e)
    }
}

/// The kernel's cost accounting for one core: what its modules stole
/// from it and what their MSR accesses cost, kept on the [`Machine`]
/// and flushed to the telemetry sink at publish.
#[derive(Debug, Clone, Copy, Default)]
struct CoreAccount {
    /// Module-stolen time since boot (`kernel/stolen_ps`).
    stolen: SimDuration,
    /// Modelled cost of kernel-context MSR accesses since boot
    /// (`msr/access_cost_ps`); also part of `stolen`.
    msr_cost: SimDuration,
    /// The microcode-flow cost of one MSR access, memoized with the
    /// core frequency it was computed at.
    flow_cost: Option<(FreqMhz, SimDuration)>,
    /// Kernel-context `rdmsr`s and `wrmsr`s issued on this core since
    /// boot.
    reads: u64,
    writes: u64,
    /// `[stolen, msr_cost]` in ps at the last publish, so repeated
    /// publishes add only deltas.
    flushed: [u64; 2],
}

/// Context handed to a module while its timer runs.
///
/// All MSR accesses through the context are **cost-accounted**: they
/// consume time on the accessed core (IPI + microcode flow), which is
/// how the polling countermeasure's overhead arises. An access to a
/// core that does not exist costs nothing and is not recorded; the
/// access itself fails with [`PackageError::NoSuchCore`].
pub struct ModuleCtx<'a> {
    now: SimTime,
    backend: &'a mut dyn MachineBackend,
    cores: &'a mut [CoreAccount],
    tracer: &'a Tracer,
    module_name: &'a str,
}

impl fmt::Debug for ModuleCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleCtx")
            .field("now", &self.now)
            .field("module", &self.module_name)
            .finish()
    }
}

impl ModuleCtx<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the package (frequency tables, specs…).
    #[must_use]
    pub fn cpu(&self) -> &CpuPackage {
        self.backend.cpu()
    }

    /// Cost-accounted `rdmsr` on `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn rdmsr(&mut self, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        self.account_access(core, IPI_COST, false);
        self.backend.rdmsr(self.now, core, msr)
    }

    /// Cost-accounted `wrmsr` on `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn wrmsr(
        &mut self,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        self.account_access(core, IPI_COST, true);
        self.backend.wrmsr(self.now, core, msr, value)
    }

    /// Cost-accounted `rdmsr` from a **per-CPU timer context** on `core`
    /// itself: no IPI, only the microcode flow (plus the timer-interrupt
    /// overhead charged separately by the module).
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn rdmsr_local(&mut self, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        self.account_access(core, SimDuration::ZERO, false);
        self.backend.rdmsr(self.now, core, msr)
    }

    /// Cost-accounted `wrmsr` from a per-CPU timer context on `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn wrmsr_local(
        &mut self,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        self.account_access(core, SimDuration::ZERO, true);
        self.backend.wrmsr(self.now, core, msr, value)
    }

    /// Charges one kernel-context MSR access on `core` — `ipi` plus the
    /// microcode flow at the core's current frequency — as stolen time
    /// and as MSR access cost. The flow cost is recomputed only when
    /// the core's frequency changed since the last access, so a
    /// `PERF_CTL` write mid-tick is costed exactly.
    fn account_access(&mut self, core: CoreId, ipi: SimDuration, write: bool) {
        let Some(acct) = self.cores.get_mut(core.0) else {
            return;
        };
        let cpu = self.backend.cpu();
        let freq = cpu.core_freq(core).unwrap_or(cpu.spec().base_freq);
        let flow = match acct.flow_cost {
            Some((at, cost)) if at == freq => cost,
            _ => {
                let cost = cpu.engine().msr_access_duration(freq);
                acct.flow_cost = Some((freq, cost));
                cost
            }
        };
        let cost = ipi + flow;
        acct.msr_cost += cost;
        acct.stolen += cost;
        if write {
            acct.writes += 1;
        } else {
            acct.reads += 1;
        }
        self.tracer.record_span("msr/access", cost.as_picos());
    }

    /// Charges pure compute time (comparisons, set lookups) to a core.
    pub fn charge(&mut self, core: CoreId, cost: SimDuration) {
        if let Some(acct) = self.cores.get_mut(core.0) {
            acct.stolen += cost;
        }
    }

    /// The span tracer shared with the machine's telemetry sink, for
    /// modules opening their own spans (e.g. the poll loop).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        self.tracer
    }
}

/// A loadable kernel module with timer-driven work.
pub trait KernelModule {
    /// Unique module name (what `lsmod` would show).
    fn name(&self) -> &str;

    /// Called at load; returns the delay until the first timer firing, or
    /// `None` for a module with no timer.
    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration>;

    /// Called when the timer fires; returns the delay until the next
    /// firing, or `None` to stop the timer.
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration>;

    /// Called at unload.
    fn exit(&mut self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// Reports whether the `on_timer` that just ran was *quiet* — it
    /// changed nothing it reads, so with nothing else changing, each
    /// next firing would read the same values, make the same calls and
    /// return the same delay — and, if so, accounts `ticks` such
    /// firings in the module's own state as if they had run;
    /// `ticks == 0` only asks. The machine then accounts what those
    /// firings cost the kernel and the package (see
    /// [`Machine::advance_to`]). The default is never quiet: every
    /// firing runs.
    fn fold_quiet_ticks(&mut self, ticks: u64) -> bool {
        let _ = ticks;
        false
    }
}

struct PendingTimer {
    at: SimTime,
    seq: u64,
    module_idx: usize,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

struct ModuleSlot {
    module: Option<Box<dyn KernelModule>>,
    name: String,
    live: bool,
}

/// Result of running a workload batch on a core (see
/// [`Machine::run_workload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Instructions retired.
    pub instructions: u64,
    /// Architecturally incorrect results among them.
    pub faults: u64,
    /// Wall-clock time consumed, including time stolen by modules.
    pub wall: SimDuration,
    /// Time stolen from this core by kernel modules during the run.
    pub stolen: SimDuration,
}

/// One core's share of a timer firing in the kernel's accounting:
/// the core's totals before the firing, then what the firing added.
#[derive(Debug, Clone, Copy, Default)]
struct TickCost {
    stolen: SimDuration,
    msr_cost: SimDuration,
    reads: u64,
    writes: u64,
}

impl TickCost {
    fn of(acct: &CoreAccount) -> Self {
        TickCost {
            stolen: acct.stolen,
            msr_cost: acct.msr_cost,
            reads: acct.reads,
            writes: acct.writes,
        }
    }
}

/// The latest timer firing: what it started from while it runs, then
/// what it did, kept so that later firings of its timer can be folded
/// while they would repeat it exactly (see [`Machine::advance_to`]).
/// Kept on the machine to reuse its storage.
#[derive(Debug)]
struct LastTick {
    /// Whether the next firings of its timer repeat it for as long as
    /// the package still matches `package`, the rails hold and no other
    /// timer comes first.
    repeatable: bool,
    module_idx: usize,
    /// The `seq` of the timer it re-armed, and its delay.
    seq: u64,
    period: SimDuration,
    /// The package it started from (and, when repeatable, left).
    package: PackageSnapshot,
    /// Until when the rails keep their voltages (`None`: for good).
    hold: Option<SimTime>,
    /// Per core: the totals before it, then what it cost.
    costs: Vec<TickCost>,
    /// The tracer before it, then what it recorded.
    spans: SpanMark,
}

/// The firings that would repeat the latest one exactly: those of its
/// timer from `next` on, every `period`, before any other timer and
/// while the rails hold.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    next: SimTime,
    period: SimDuration,
    /// The earliest other pending timer.
    other: Option<SimTime>,
    hold: Option<SimTime>,
}

impl Stretch {
    /// Whether the firing at `t` is one of them.
    fn admits(&self, t: SimTime) -> bool {
        self.other.is_none_or(|o| t < o) && self.hold.is_none_or(|h| t <= h)
    }

    /// How many of them fall at or before `horizon`, and the last.
    fn through(&self, horizon: SimTime) -> Option<(u64, SimTime)> {
        let mut limit = horizon.as_picos();
        if let Some(h) = self.hold {
            limit = limit.min(h.as_picos());
        }
        if let Some(o) = self.other {
            limit = limit.min(o.as_picos().checked_sub(1)?);
        }
        let k = limit.checked_sub(self.next.as_picos())? / self.period.as_picos();
        Some((k + 1, self.next + self.period * k))
    }

    /// The first instant past them a timer fires: the other timer or
    /// the first firing after the rails' hold, `None` if neither.
    fn end(&self) -> Option<SimTime> {
        let after_hold = self.hold.map(|h| {
            if h < self.next {
                self.next
            } else {
                let k = (h - self.next).as_picos() / self.period.as_picos() + 1;
                self.next + self.period * k
            }
        });
        match (self.other, after_hold) {
            (Some(o), Some(h)) => Some(o.min(h)),
            (o, h) => o.or(h),
        }
    }
}

/// The fixed inputs of one [`Machine::run_workload`] call.
#[derive(Debug, Clone, Copy)]
struct Run {
    core: CoreId,
    class: InstrClass,
    iters: u64,
    started: SimTime,
    /// The core's stolen time when the run started.
    stolen_before: SimDuration,
}

/// Where the per-tick loop of [`Machine::run_workload`] stands after
/// `ticks` folded firings.
#[derive(Debug, Clone, Copy)]
struct Fold {
    ticks: u64,
    /// Batches the loop would have run between them.
    batches: u64,
    now: SimTime,
    remaining: u64,
}

/// A CPU package under a minimal kernel, on a simulated clock.
///
/// # Examples
///
/// ```
/// use plugvolt_kernel::machine::Machine;
/// use plugvolt_cpu::model::CpuModel;
/// use plugvolt_des::time::SimDuration;
///
/// let mut m = Machine::new(CpuModel::CometLake, 1);
/// m.advance(SimDuration::from_millis(5));
/// assert_eq!(m.now().as_picos(), 5_000_000_000);
/// ```
pub struct Machine {
    now: SimTime,
    backend: Box<dyn MachineBackend>,
    modules: Vec<ModuleSlot>,
    timers: BinaryHeap<PendingTimer>,
    timer_seq: u64,
    /// `on_timer` calls made since boot (folded firings excluded).
    firings: u64,
    last: LastTick,
    cores: Vec<CoreAccount>,
    /// `kernel/timer_iteration_us` observations not yet drained into
    /// the sink (at publish, on a sink swap, and on drop).
    timer_iterations: Histogram,
    rng: SimRng,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("backend", &self.backend_name())
            .field("cpu", self.backend.cpu())
            .field("modules", &self.loaded_modules().collect::<Vec<_>>())
            .finish()
    }
}

impl Machine {
    /// Boots a machine with the given CPU model and deterministic seed.
    #[must_use]
    pub fn new(model: CpuModel, seed: u64) -> Self {
        Self::from_package(CpuPackage::new(model, seed), seed)
    }

    /// Boots physical *unit* `unit` of the model (die-to-die variation).
    #[must_use]
    pub fn new_unit(model: CpuModel, seed: u64, unit: u64) -> Self {
        Self::from_package(CpuPackage::new_unit(model, seed, unit), seed)
    }

    /// Boots a machine around an explicit package.
    #[must_use]
    pub fn from_package(cpu: CpuPackage, seed: u64) -> Self {
        Self::with_backend(Box::new(SimBackend::from_package(cpu)), seed)
    }

    /// Boots a machine around an arbitrary machine backend (sim,
    /// recording — anything implementing [`MachineBackend`]).
    #[must_use]
    pub fn with_backend(backend: Box<dyn MachineBackend>, seed: u64) -> Self {
        let cores = backend.cpu().core_count();
        let spec = HistogramSpec::POLL_ITERATION_US;
        let last = LastTick {
            repeatable: false,
            module_idx: 0,
            seq: 0,
            period: SimDuration::ZERO,
            package: backend.cpu().snapshot(),
            hold: None,
            costs: Vec::with_capacity(cores),
            spans: SpanMark::default(),
        };
        Machine {
            now: SimTime::ZERO,
            backend,
            modules: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            firings: 0,
            last,
            cores: vec![CoreAccount::default(); cores],
            timer_iterations: Histogram::new(spec.lo, spec.hi, spec.bins),
            rng: SimRng::from_seed_label(seed, "machine"),
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stable name of the mounted backend (`"sim"`, `"record"`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The CPU package.
    #[must_use]
    pub fn cpu(&self) -> &CpuPackage {
        self.backend.cpu()
    }

    /// Mutable access to the CPU package — the "privileged software"
    /// escape hatch attacks use (direct `wrmsr` etc. are methods on the
    /// package and need the current time; pair with [`now`](Self::now)).
    /// Package mutations through here bypass the backend seam and are
    /// invisible to a recording backend — exactly like physical
    /// tampering would be.
    pub fn cpu_mut(&mut self) -> &mut CpuPackage {
        self.backend.cpu_mut()
    }

    /// Privileged zero-cost `rdmsr` through the backend seam (root
    /// userspace reading without the kernel's IPI/syscall accounting —
    /// what experiment harness code should use instead of `cpu_mut()`).
    ///
    /// # Errors
    ///
    /// Propagates the package error.
    pub fn rdmsr(&mut self, core: CoreId, msr: Msr) -> Result<u64, MachineError> {
        Ok(self.backend.rdmsr(self.now, core, msr)?)
    }

    /// Privileged zero-cost `wrmsr` through the backend seam.
    ///
    /// # Errors
    ///
    /// Propagates the package error.
    pub fn wrmsr(
        &mut self,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, MachineError> {
        Ok(self.backend.wrmsr(self.now, core, msr, value)?)
    }

    /// Requests a core frequency (quantized to the hardware table) as
    /// an `IA32_PERF_CTL` write through the backend, returning what was
    /// applied.
    ///
    /// # Errors
    ///
    /// Propagates the package error.
    pub fn set_freq(&mut self, core: CoreId, freq: FreqMhz) -> Result<FreqMhz, MachineError> {
        Ok(drive_freq_via_msr(
            self.backend.as_mut(),
            self.now,
            core,
            freq,
        )?)
    }

    /// The machine's telemetry sink (shared with the CPU package).
    #[must_use]
    pub fn telemetry(&self) -> &Sink {
        self.backend.cpu().telemetry()
    }

    /// Installs a shared telemetry sink so several machines (e.g. the
    /// fresh instances an experiment boots per measurement) record into
    /// one registry.
    pub fn set_telemetry(&mut self, sink: Sink) {
        // Firings so far belong to the sink they happened under, and
        // their spans to its tracer: none of them is repeated into the
        // new one.
        self.drain_timer_iterations();
        self.last.repeatable = false;
        self.backend.cpu_mut().set_telemetry(sink);
    }

    /// Folds the slack-table hit/fallback counters, the package's
    /// batched MSR counters and the kernel's per-core accounting
    /// (`kernel/stolen_ps`, `msr/access_cost_ps`,
    /// `kernel/timer_iteration_us`) into the telemetry registry. Call
    /// once per machine, after its run completes (extra calls only add
    /// deltas). Timer iterations are also drained when the machine is
    /// dropped, so a machine that never publishes still records them.
    pub fn publish_telemetry(&mut self) {
        let cpu = self.backend.cpu();
        let sink = cpu.telemetry();
        sink.tracer().record_span("telemetry/flush", 0);
        cpu.publish_slack_table_stats();
        cpu.publish_hot_counters();
        for (i, acct) in self.cores.iter_mut().enumerate() {
            let core = i as u32;
            let keys = [
                MetricKey::per_core("kernel", "stolen_ps", core),
                MetricKey::per_core("msr", "access_cost_ps", core),
            ];
            let cur = [acct.stolen.as_picos(), acct.msr_cost.as_picos()];
            for ((key, now), before) in keys.into_iter().zip(cur).zip(acct.flushed) {
                if now > before {
                    sink.add(key, now - before);
                }
            }
            acct.flushed = cur;
        }
        self.drain_timer_iterations();
    }

    fn drain_timer_iterations(&mut self) {
        self.backend.cpu().telemetry().drain_histogram(
            MetricKey::global("kernel", "timer_iteration_us"),
            HistogramSpec::POLL_ITERATION_US,
            &mut self.timer_iterations,
        );
    }

    /// Attaches (or detaches, with `None`) a precomputed slack table on
    /// the CPU's execution engine (see `plugvolt_cpu::slack`).
    pub fn set_slack_table(
        &mut self,
        table: Option<std::sync::Arc<plugvolt_cpu::slack::SlackTable>>,
    ) {
        self.backend.cpu_mut().set_slack_table(table);
    }

    /// Deterministic per-machine random stream (for workload jitter).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Cumulative module-stolen time per core since boot.
    #[must_use]
    pub fn stolen_time(&self, core: CoreId) -> SimDuration {
        self.cores
            .get(core.0)
            .map_or(SimDuration::ZERO, |acct| acct.stolen)
    }

    /// Names of loaded modules (what the SGX attestation report lists).
    pub fn loaded_modules(&self) -> impl Iterator<Item = &str> {
        self.modules
            .iter()
            .filter(|s| s.live)
            .map(|s| s.name.as_str())
    }

    /// Whether the named module is loaded.
    #[must_use]
    pub fn is_module_loaded(&self, name: &str) -> bool {
        self.loaded_modules().any(|n| n == name)
    }

    /// Loads a kernel module (`insmod`), running its `init`.
    ///
    /// # Errors
    ///
    /// [`MachineError::ModuleLoaded`] if a module of that name is live.
    pub fn load_module(&mut self, module: Box<dyn KernelModule>) -> Result<(), MachineError> {
        let name = module.name().to_owned();
        if self.is_module_loaded(&name) {
            return Err(MachineError::ModuleLoaded(name));
        }
        let idx = self.modules.len();
        self.modules.push(ModuleSlot {
            module: Some(module),
            name,
            live: true,
        });
        let tracer = self.telemetry().tracer().clone();
        if let Some(delay) = self.with_module(idx, &tracer, |m, ctx| m.init(ctx)) {
            self.arm_timer(idx, delay, &tracer);
        }
        Ok(())
    }

    /// Unloads a module (`rmmod`), running its `exit` and cancelling its
    /// timers. This is the adversary capability discussed in Sec. 4.1 —
    /// visible in the attestation report.
    ///
    /// # Errors
    ///
    /// [`MachineError::ModuleNotLoaded`] if no such module is live.
    pub fn unload_module(&mut self, name: &str) -> Result<(), MachineError> {
        let idx = self
            .modules
            .iter()
            .position(|s| s.live && s.name == name)
            .ok_or_else(|| MachineError::ModuleNotLoaded(name.to_owned()))?;
        let tracer = self.telemetry().tracer().clone();
        self.with_module(idx, &tracer, |m, ctx| {
            m.exit(ctx);
        });
        self.modules[idx].live = false;
        Ok(())
    }

    fn arm_timer(&mut self, module_idx: usize, delay: SimDuration, tracer: &Tracer) {
        // Queue churn is attributed, not costed: scheduling a kernel
        // timer is free on the sim clock.
        tracer.record_span("queue/schedule", 0);
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(PendingTimer {
            at: self.now + delay,
            seq,
            module_idx,
        });
    }

    fn with_module<R>(
        &mut self,
        idx: usize,
        tracer: &Tracer,
        f: impl FnOnce(&mut Box<dyn KernelModule>, &mut ModuleCtx<'_>) -> R,
    ) -> R {
        let mut module = self.modules[idx].module.take().expect("module re-entered");
        let mut ctx = ModuleCtx {
            now: self.now,
            backend: self.backend.as_mut(),
            cores: &mut self.cores,
            tracer,
            module_name: &self.modules[idx].name,
        };
        let r = f(&mut module, &mut ctx);
        self.modules[idx].module = Some(module);
        r
    }

    /// When the earliest pending module timer fires, if any. Timers of
    /// unloaded modules still count until their slot comes up, so this
    /// may be earlier than the next timer that does any work.
    #[must_use]
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.timers.peek().map(|t| t.at)
    }

    /// How many module timer firings actually ran `on_timer` since
    /// boot. Folded firings (see [`advance_to`](Self::advance_to)) are
    /// accounted as if they ran but are not counted here, so this tells
    /// how much of a run the fold skipped.
    #[must_use]
    pub fn timer_firings(&self) -> u64 {
        self.firings
    }

    /// When the first pending module timer can change the package: the
    /// next firing, unless the firings from there would repeat the
    /// latest one exactly (see [`advance_to`](Self::advance_to)); then
    /// the first firing past them. `None` when no timer is pending or
    /// the pending one repeats for good.
    #[must_use]
    pub fn next_change_at(&self) -> Option<SimTime> {
        let next = self.next_timer_at()?;
        self.stretch().map_or(Some(next), |s| s.end())
    }

    /// Advances the clock to `horizon`, firing due module timers in order.
    ///
    /// A run of *quiet* timer firings is folded into one step. A firing
    /// is repeatable when its module reports it quiet
    /// ([`KernelModule::fold_quiet_ticks`]), it left the package as it
    /// found it (a [`PackageSnapshot`]: mailbox read commands are the
    /// one write allowed) and the backend can account its accesses
    /// without issuing them. The next firings of its timer then repeat
    /// it exactly for as long as nothing it reads can change: until
    /// another timer, or the rails leaving their hold, or a change to
    /// the package — between calls too, through [`cpu_mut`](Self::cpu_mut),
    /// [`wrmsr`](Self::wrmsr) or [`set_freq`](Self::set_freq), which the
    /// snapshot catches. Those firings are accounted at once, each the
    /// latest real firing's cost, calls and spans; the result is the
    /// same as firing each timer.
    pub fn advance_to(&mut self, horizon: SimTime) {
        while let Some(t) = self.timers.peek() {
            if t.at > horizon {
                break;
            }
            if let Some((ticks, last)) = self.stretch().and_then(|s| s.through(horizon)) {
                self.commit_fold(ticks, last);
                continue;
            }
            let timer = self.timers.pop().expect("peeked timer vanished");
            if self.modules[timer.module_idx].live {
                self.fire(&timer);
            }
        }
        if horizon > self.now {
            self.now = horizon;
            self.telemetry().tracer().set_sim_now(self.now);
        }
    }

    /// Runs `timer`'s module, recording in `self.last` what the firing
    /// did and whether the next firings would repeat it.
    fn fire(&mut self, timer: &PendingTimer) {
        // `with_module` needs `&mut self`, so hold the tracer by clone
        // (it is an `Rc` handle onto the sink's shared span tree).
        let tracer = self.telemetry().tracer().clone();
        self.now = timer.at;
        tracer.set_sim_now(self.now);
        self.firings += 1;
        let last = &mut self.last;
        last.costs.clear();
        last.costs.extend(self.cores.iter().map(TickCost::of));
        last.package = self.backend.cpu().snapshot();
        tracer.mark(&mut last.spans);
        let span = tracer.span("kernel/timer");
        let next = self.with_module(timer.module_idx, &tracer, |m, ctx| m.on_timer(ctx));
        if let Some(next) = next {
            self.arm_timer(timer.module_idx, next, &tracer);
        }
        drop(span);

        let last = &mut self.last;
        let mut iteration = SimDuration::ZERO;
        for (cost, acct) in last.costs.iter_mut().zip(&self.cores) {
            *cost = TickCost {
                stolen: acct.stolen - cost.stolen,
                msr_cost: acct.msr_cost - cost.msr_cost,
                reads: acct.reads - cost.reads,
                writes: acct.writes - cost.writes,
            };
            iteration += cost.stolen;
        }
        self.timer_iterations
            .record(iteration.as_picos() as f64 / 1e6);
        tracer.delta_since(&mut last.spans);
        last.module_idx = timer.module_idx;
        last.seq = self.timer_seq.wrapping_sub(1);
        last.period = next.unwrap_or(SimDuration::ZERO);
        last.hold = self.backend.cpu().rails_hold_until(self.now);
        let module = self.modules[timer.module_idx]
            .module
            .as_mut()
            .expect("module re-entered");
        let backend = &mut self.backend;
        last.repeatable = last.period > SimDuration::ZERO
            && backend.cpu().snapshot() == last.package
            && module.fold_quiet_ticks(0)
            && last.costs.iter().enumerate().all(|(c, cost)| {
                (cost.reads == 0 || backend.repeat_reads(CoreId(c), 0))
                    && (cost.writes == 0 || backend.repeat_writes(CoreId(c), 0))
            });
    }

    /// The firings that would repeat the latest one exactly, from the
    /// next pending one on: `None` unless that one is its timer's, the
    /// latest firing was repeatable, and the package and the tracer
    /// still stand where it left them.
    fn stretch(&self) -> Option<Stretch> {
        let last = &self.last;
        if !last.repeatable || !self.modules[last.module_idx].live {
            return None;
        }
        let next = self.timers.peek()?;
        let cpu = self.backend.cpu();
        if next.seq != last.seq
            || cpu.snapshot() != last.package
            || !cpu.telemetry().tracer().can_repeat(&last.spans)
        {
            return None;
        }
        let other = self
            .timers
            .iter()
            .filter(|t| t.seq != next.seq)
            .map(|t| t.at)
            .min();
        Some(Stretch {
            next: next.at,
            period: last.period,
            other,
            hold: last.hold,
        })
    }

    /// Advances the clock by `span`.
    pub fn advance(&mut self, span: SimDuration) {
        self.advance_to(self.now + span);
    }

    /// Runs `iters` instructions of `class` on `core` starting now,
    /// interleaved with module timers; the core only makes progress when
    /// no module work is stealing it. Returns the retired/fault/steal
    /// accounting — the primitive behind the SPEC-style overhead runs.
    ///
    /// Quiet timer firings fold as in [`advance_to`](Self::advance_to),
    /// together with this loop's batches between them: after a
    /// repeatable firing the machine replays only the loop's batch
    /// slicing up to the end of the fold or of the run, and accounts
    /// the batches without running them. That holds only where every
    /// batch in between retires without a random draw; elsewhere each
    /// batch runs, and each firing between them still folds on its own.
    /// The result is the same as firing each timer.
    ///
    /// # Errors
    ///
    /// Propagates a package crash.
    pub fn run_workload(
        &mut self,
        core: CoreId,
        class: InstrClass,
        iters: u64,
    ) -> Result<WorkloadRun, MachineError> {
        let started = self.now;
        let stolen_before = self.stolen_time(core);
        let run = Run {
            core,
            class,
            iters,
            started,
            stolen_before,
        };
        let mut remaining = iters;
        let mut faults = 0u64;
        loop {
            let freq = self.backend.cpu().core_freq(core)?;
            // Loop invariant we maintain: now == started + work_time(done)
            // + steal accrued on this core. Catch up first if module work
            // just pushed us behind that line.
            let accrued = self.stolen_time(core).saturating_sub(stolen_before);
            let done = iters - remaining;
            let work_time = self
                .backend
                .cpu()
                .engine()
                .batch_duration(class, done, freq);
            let target = started + work_time + accrued;
            if target > self.now {
                let fires = self.next_timer_at().is_some_and(|t| t <= target);
                self.advance_to(target);
                if fires {
                    continue; // re-evaluate: the catch-up fired timers
                }
                // A quiet catch-up changed nothing but the clock, which
                // now sits on the target: re-evaluating would give the
                // same frequency and target again.
            }
            if remaining == 0 {
                break;
            }
            let full = self
                .backend
                .cpu()
                .engine()
                .batch_duration(class, remaining, freq);
            match self.next_timer_at() {
                Some(t) if t < self.now + full => {
                    // Run the part of the batch that fits before the timer.
                    let n = slice_before(self.now, t, freq, class, remaining);
                    if n > 0 {
                        let now = self.now;
                        faults += self.backend.cpu_mut().run_batch(now, core, class, n)?;
                        remaining -= n;
                    }
                    self.advance_to(t); // fires the timer, accrues steal
                    remaining = self.fold_batches(run, freq, remaining);
                }
                _ => {
                    let now = self.now;
                    faults += self
                        .backend
                        .cpu_mut()
                        .run_batch(now, core, class, remaining)?;
                    remaining = 0;
                    self.advance_to(self.now + full);
                }
            }
        }
        let stolen = self.stolen_time(core).saturating_sub(stolen_before);
        Ok(WorkloadRun {
            instructions: iters,
            faults,
            wall: self.now.saturating_duration_since(started),
            stolen,
        })
    }

    /// After the timer firing at `self.now`, folds the following
    /// firings of its timer together with this loop's batches between
    /// them (see [`run_workload`](Self::run_workload)), returning the
    /// run's remaining instructions. `freq` is the core's frequency,
    /// which nothing inside the fold changes.
    fn fold_batches(&mut self, run: Run, freq: FreqMhz, remaining: u64) -> u64 {
        let Run {
            core,
            class,
            iters,
            started,
            stolen_before,
        } = run;
        let Some(stretch) = self.stretch() else {
            return remaining;
        };
        let cpu = self.backend.cpu();
        if !cpu.repeat_quiet_batches(self.now, core, class, 0) {
            return remaining;
        }
        let steal = self.last.costs[core.0].stolen;
        let engine = cpu.engine();

        // Replay this loop from the top, from one firing to the next,
        // with the timer and the steal it accrues known in advance.
        let mut fold = Fold {
            ticks: 0,
            batches: 0,
            now: self.now,
            remaining,
        };
        let mut accrued = self.stolen_time(core).saturating_sub(stolen_before);
        let mut tick = stretch.next;
        while stretch.admits(tick) {
            let done = iters - fold.remaining;
            let target = started + engine.batch_duration(class, done, freq) + accrued;
            let mut now = fold.now;
            if target > now {
                if tick <= target {
                    break; // the catch-up fires the timer
                }
                now = target;
            }
            if fold.remaining == 0
                || tick >= now + engine.batch_duration(class, fold.remaining, freq)
            {
                break; // the rest of the run fits before the timer
            }
            let n = slice_before(now, tick, freq, class, fold.remaining);
            if n > 0 {
                fold.batches += 1;
                fold.remaining -= n;
            }
            fold.now = tick;
            fold.ticks += 1;
            accrued += steal;
            tick += stretch.period;
        }
        if fold.ticks > 0 {
            let counted = cpu.repeat_quiet_batches(self.now, core, class, fold.batches);
            assert!(counted, "package refused batches it accepted");
            self.commit_fold(fold.ticks, fold.now);
        }
        fold.remaining
    }

    /// Accounts `k` repetitions of the latest timer firing, the last of
    /// them at `last_at`: everything each would have done, the latest
    /// real firing's effect times `k`, and its timer re-armed after the
    /// last.
    fn commit_fold(&mut self, k: u64, last_at: SimTime) {
        let last = &mut self.last;
        let mut iteration = SimDuration::ZERO;
        for (c, (acct, cost)) in self.cores.iter_mut().zip(&last.costs).enumerate() {
            iteration += cost.stolen;
            acct.stolen += cost.stolen * k;
            acct.msr_cost += cost.msr_cost * k;
            acct.reads += cost.reads * k;
            acct.writes += cost.writes * k;
            let counted = (cost.reads == 0 || self.backend.repeat_reads(CoreId(c), cost.reads * k))
                && (cost.writes == 0 || self.backend.repeat_writes(CoreId(c), cost.writes * k));
            assert!(counted, "backend refused accesses it accepted");
        }
        let tracer = self.backend.cpu().telemetry().tracer();
        tracer.repeat(&last.spans, k);
        tracer.set_sim_now(last_at);
        self.timer_iterations
            .record_n(iteration.as_picos() as f64 / 1e6, k);
        let module = self.modules[last.module_idx]
            .module
            .as_mut()
            .expect("module re-entered");
        module.fold_quiet_ticks(k);
        self.timers.pop();
        self.timer_seq += k;
        last.seq = self.timer_seq - 1;
        self.timers.push(PendingTimer {
            at: last_at + last.period,
            seq: last.seq,
            module_idx: last.module_idx,
        });
        self.now = last_at;
    }
}

/// How many `class` instructions at `freq` fit between `now` and `t`.
fn slice_before(now: SimTime, t: SimTime, freq: FreqMhz, class: InstrClass, remaining: u64) -> u64 {
    let cycles = t.saturating_duration_since(now).cycles_at(freq.mhz());
    ((cycles as f64 / class.cpi()).floor() as u64).min(remaining)
}

impl Drop for Machine {
    fn drop(&mut self) {
        // Many experiment machines never publish; their timer firings
        // still belong in the sink. Not while unwinding: the sink may be
        // borrowed by the frame that panicked, and a second panic aborts.
        if !std::thread::panicking() {
            self.drain_timer_iterations();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TickModule {
        period: SimDuration,
        cost: SimDuration,
        ticks: u64,
    }

    impl KernelModule for TickModule {
        fn name(&self) -> &str {
            "tick"
        }
        fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            Some(self.period)
        }
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            self.ticks += 1;
            for c in 0..ctx.cpu().core_count() {
                ctx.charge(CoreId(c), self.cost);
            }
            Some(self.period)
        }
    }

    fn machine() -> Machine {
        Machine::new(CpuModel::CometLake, 5)
    }

    #[test]
    fn advance_moves_clock() {
        let mut m = machine();
        m.advance(SimDuration::from_micros(100));
        assert_eq!(m.now(), SimTime::ZERO + SimDuration::from_micros(100));
    }

    #[test]
    fn module_load_unload_lifecycle() {
        let mut m = machine();
        assert!(!m.is_module_loaded("tick"));
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(2),
            ticks: 0,
        }))
        .unwrap();
        assert!(m.is_module_loaded("tick"));
        // Double-load is rejected.
        let err = m
            .load_module(Box::new(TickModule {
                period: SimDuration::from_millis(1),
                cost: SimDuration::ZERO,
                ticks: 0,
            }))
            .unwrap_err();
        assert_eq!(err, MachineError::ModuleLoaded("tick".into()));
        m.unload_module("tick").unwrap();
        assert!(!m.is_module_loaded("tick"));
        assert_eq!(
            m.unload_module("tick"),
            Err(MachineError::ModuleNotLoaded("tick".into()))
        );
    }

    #[test]
    fn timers_fire_and_steal_time() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(2),
            ticks: 0,
        }))
        .unwrap();
        m.advance(SimDuration::from_millis(10));
        // 10 ticks × 2 µs stolen per core.
        assert_eq!(m.stolen_time(CoreId(0)), SimDuration::from_micros(20));
        assert_eq!(m.stolen_time(CoreId(3)), SimDuration::from_micros(20));
    }

    #[test]
    fn next_timer_at_reports_the_armed_timer() {
        let mut m = machine();
        assert_eq!(m.next_timer_at(), None);
        m.advance(SimDuration::from_micros(250));
        let period = SimDuration::from_millis(1);
        m.load_module(Box::new(TickModule {
            period,
            cost: SimDuration::ZERO,
            ticks: 0,
        }))
        .unwrap();
        assert_eq!(m.next_timer_at(), Some(m.now() + period));
    }

    #[test]
    fn unloaded_module_timers_stop() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(2),
            ticks: 0,
        }))
        .unwrap();
        m.advance(SimDuration::from_millis(3));
        m.unload_module("tick").unwrap();
        let stolen = m.stolen_time(CoreId(0));
        m.advance(SimDuration::from_millis(10));
        assert_eq!(m.stolen_time(CoreId(0)), stolen);
    }

    #[test]
    fn workload_without_modules_runs_at_full_rate() {
        let mut m = machine();
        let run = m
            .run_workload(CoreId(0), InstrClass::Imul, 1_000_000)
            .unwrap();
        assert_eq!(run.instructions, 1_000_000);
        assert_eq!(run.faults, 0);
        assert_eq!(run.stolen, SimDuration::ZERO);
        // 1M imul at CPI 1, 1.8 GHz base → ≈ 555 µs.
        let expect = SimDuration::from_cycles(1_000_000, 1_800);
        let diff = run.wall.saturating_sub(expect) + expect.saturating_sub(run.wall);
        assert!(diff < SimDuration::from_micros(5), "wall={}", run.wall);
    }

    #[test]
    fn workload_with_module_pays_overhead() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(5),
            ticks: 0,
        }))
        .unwrap();
        // A long run: 100M ALU ops ≈ 13.9 ms at 1.8 GHz.
        let run = m
            .run_workload(CoreId(0), InstrClass::AluAdd, 100_000_000)
            .unwrap();
        assert!(run.stolen > SimDuration::ZERO);
        // Overhead ratio ≈ 5 µs/ms = 0.5 %.
        let ratio = run.stolen.as_picos() as f64 / run.wall.as_picos() as f64;
        assert!((0.002..0.008).contains(&ratio), "ratio={ratio}");
        // Wall = compute + stolen, within slice rounding.
        let compute = run.wall.saturating_sub(run.stolen);
        let pure = SimDuration::from_cycles(25_000_000, 1_800);
        let diff = compute.saturating_sub(pure) + pure.saturating_sub(compute);
        assert!(
            diff < SimDuration::from_micros(50),
            "compute={compute} pure={pure}"
        );
    }

    /// Charges `cost` and reads `PERF_STATUS` locally on every core, plus
    /// one remote read of core 0 and one of `extra_core`, per tick.
    struct MsrTickModule {
        cost: SimDuration,
        extra_core: CoreId,
        firings: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl KernelModule for MsrTickModule {
        fn name(&self) -> &str {
            "msr-tick"
        }
        fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            Some(SimDuration::from_millis(1))
        }
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            self.firings.set(self.firings.get() + 1);
            for c in 0..ctx.cpu().core_count() {
                ctx.charge(CoreId(c), self.cost);
                ctx.rdmsr_local(CoreId(c), Msr::IA32_PERF_STATUS)
                    .expect("core exists");
            }
            ctx.rdmsr(CoreId(0), Msr::IA32_PERF_STATUS)
                .expect("core 0 exists");
            let _ = ctx.rdmsr(self.extra_core, Msr::IA32_PERF_STATUS);
            Some(SimDuration::from_millis(1))
        }
    }

    fn msr_tick_machine(extra_core: CoreId) -> (Machine, Sink, std::rc::Rc<std::cell::Cell<u64>>) {
        let sink = Sink::new();
        let mut m = machine();
        m.set_telemetry(sink.clone());
        let firings = std::rc::Rc::default();
        m.load_module(Box::new(MsrTickModule {
            cost: SimDuration::from_micros(2),
            extra_core,
            firings: std::rc::Rc::clone(&firings),
        }))
        .unwrap();
        (m, sink, firings)
    }

    #[test]
    fn publish_and_drop_flush_the_kernel_accounting() {
        let (mut m, sink, firings) = msr_tick_machine(CoreId(1));
        let cores = m.cpu().core_count();
        let flow = m
            .cpu()
            .engine()
            .msr_access_duration(m.cpu().core_freq(CoreId(0)).unwrap());
        m.advance(SimDuration::from_millis(3));
        m.publish_telemetry();
        m.advance(SimDuration::from_millis(2));
        m.publish_telemetry();
        let published = firings.get();
        let stolen: Vec<SimDuration> = (0..cores).map(|c| m.stolen_time(CoreId(c))).collect();
        // Firings after the last publish reach the sink when the
        // machine drops; the counters stay at their published values.
        m.advance(SimDuration::from_millis(4));
        let total = firings.get();
        drop(m);
        assert_eq!((published, total), (5, 9));
        let remote = IPI_COST + flow;
        let per_tick_cost = |c: usize| match c {
            0 | 1 => flow + remote,
            _ => flow,
        };
        let mut iteration = SimDuration::ZERO;
        sink.with(|reg| {
            for (c, stolen) in stolen.iter().enumerate() {
                let core = c as u32;
                let cost = per_tick_cost(c) * published;
                assert_eq!(
                    reg.counter(&MetricKey::per_core("kernel", "stolen_ps", core)),
                    stolen.as_picos()
                );
                assert_eq!(*stolen, cost + SimDuration::from_micros(2) * published);
                assert_eq!(
                    reg.counter(&MetricKey::per_core("msr", "access_cost_ps", core)),
                    cost.as_picos()
                );
                iteration += per_tick_cost(c) + SimDuration::from_micros(2);
            }
            let spec = HistogramSpec::POLL_ITERATION_US;
            let mut expect = Histogram::new(spec.lo, spec.hi, spec.bins);
            for _ in 0..total {
                expect.record(iteration.as_picos() as f64 / 1e6);
            }
            assert_eq!(
                reg.histogram(&MetricKey::global("kernel", "timer_iteration_us")),
                Some(&expect)
            );
        });
    }

    #[test]
    fn firings_stay_with_the_sink_they_happened_under() {
        let (mut m, first, _firings) = msr_tick_machine(CoreId(1));
        m.advance(SimDuration::from_millis(3));
        let second = Sink::new();
        m.set_telemetry(second.clone());
        m.advance(SimDuration::from_millis(2));
        drop(m);
        let firings = |sink: &Sink| {
            sink.with(|reg| {
                reg.histogram(&MetricKey::global("kernel", "timer_iteration_us"))
                    .map_or(0, Histogram::total)
            })
        };
        assert_eq!((firings(&first), firings(&second)), (3, 2));
    }

    #[test]
    fn access_to_a_missing_core_is_neither_costed_nor_recorded() {
        let (mut m, sink, _firings) = msr_tick_machine(CoreId(99));
        m.advance(SimDuration::from_millis(3));
        let stolen: Vec<SimDuration> = (0..4).map(|c| m.stolen_time(CoreId(c))).collect();
        m.publish_telemetry();
        sink.with(|reg| {
            assert!(
                reg.counters().all(|(k, _)| k.core.is_none_or(|c| c < 4)),
                "no metric for a core the package does not have"
            );
            let total: u64 = reg
                .counters()
                .filter(|(k, _)| k.component == "kernel" && k.name == "stolen_ps")
                .map(|(_, v)| v)
                .sum();
            let expect: SimDuration = stolen.iter().copied().sum();
            assert_eq!(total, expect.as_picos());
        });
    }

    /// Reads `PERF_STATUS` and issues a mailbox read command on core 0
    /// every millisecond, reporting every tick quiet and counting the
    /// ticks it was told were folded.
    struct QuietModule {
        folded: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl KernelModule for QuietModule {
        fn name(&self) -> &str {
            "quiet"
        }
        fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            Some(SimDuration::from_millis(1))
        }
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            let read =
                plugvolt_msr::oc_mailbox::OcRequest::read(plugvolt_msr::oc_mailbox::Plane::Core);
            ctx.rdmsr_local(CoreId(0), Msr::IA32_PERF_STATUS)
                .expect("core 0 exists");
            ctx.wrmsr_local(CoreId(0), Msr::OC_MAILBOX, read.encode())
                .expect("mailbox takes a read command");
            Some(SimDuration::from_millis(1))
        }
        fn fold_quiet_ticks(&mut self, ticks: u64) -> bool {
            self.folded.set(self.folded.get() + ticks);
            true
        }
    }

    #[test]
    fn quiet_ticks_fold_until_the_package_or_another_timer_changes() {
        let mut m = machine();
        let folded = std::rc::Rc::default();
        m.load_module(Box::new(QuietModule {
            folded: std::rc::Rc::clone(&folded),
        }))
        .unwrap();
        let ms = SimDuration::from_millis;
        m.advance(ms(10));
        assert_eq!((m.timer_firings(), folded.get()), (1, 9));
        assert_eq!(m.next_change_at(), None, "it repeats for good");
        // Across calls too, until a write changes the package: then the
        // next firing runs, and the ones after it fold again.
        m.advance(ms(5));
        assert_eq!((m.timer_firings(), folded.get()), (1, 14));
        let freq = m.cpu().core_freq(CoreId(1)).unwrap();
        m.set_freq(CoreId(1), freq).unwrap();
        assert_eq!(m.next_change_at(), m.next_timer_at());
        m.advance(ms(5));
        assert_eq!((m.timer_firings(), folded.get()), (2, 18));
        // Another module's timer ends the stretch.
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_micros(3_500),
            cost: SimDuration::ZERO,
            ticks: 0,
        }))
        .unwrap();
        let other = m.now() + SimDuration::from_micros(3_500);
        assert_eq!(m.next_change_at(), Some(other));
        m.advance(ms(5));
        // Folded up to the other timer, then one real firing of each,
        // then folding again.
        assert_eq!((m.timer_firings(), folded.get()), (4, 22));
        // Every tick was accounted: two reads' and a write's worth of
        // steal on core 0, and the package's access counters.
        let flow = m.cpu().engine().msr_access_duration(freq);
        assert_eq!(m.stolen_time(CoreId(0)), flow * 2 * 25);
        m.publish_telemetry();
        m.telemetry().with(|reg| {
            assert_eq!(reg.counter(&MetricKey::per_core("msr", "rdmsr", 0)), 25);
            assert_eq!(reg.counter(&MetricKey::per_core("msr", "wrmsr", 0)), 25);
        });
    }

    #[test]
    fn trace_records_module_lifecycle() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::ZERO,
            ticks: 0,
        }))
        .unwrap();
        assert!(m.is_module_loaded("tick"));
        m.unload_module("tick").unwrap();
        assert!(!m.is_module_loaded("tick"));
    }
}
