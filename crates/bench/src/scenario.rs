//! The scenario/session layer: one place that owns machine
//! construction, seed derivation, characterization-map memoization,
//! deployment setup and telemetry wiring for every experiment entry
//! point (the `repro` subcommands, `plugvolt-cli`, the examples and the
//! integration tests).
//!
//! Before this layer existed, each entry point hand-rolled the same
//! setup: `Machine::new(model, SEED)` calls scattered across 1,000+
//! lines of experiment runners, `quick_map` recomputed at every call
//! site, and telemetry threaded through duplicated `*_with(sink)`
//! function variants. A [`Scenario`] replaces all of that:
//!
//! - **Machine construction** — [`Scenario::machine`] boots from the
//!   scenario's root seed, [`Scenario::machine_for`] from a labelled
//!   seed derived via [`plugvolt_des::rng::derive_seed`], so every
//!   auxiliary machine gets its own independent, reproducible stream
//!   and adding one never perturbs another;
//! - **Seed derivation** — one root seed fans out into per-purpose
//!   streams ([`Scenario::rng`], [`Scenario::seed_for`]) under the
//!   workspace's stream-splitting discipline;
//! - **Map memoization** — [`Scenario::quick_map`] serves the analytic
//!   characterization map from a process-wide store, so it is computed
//!   at most once per model per process however many experiments ask;
//! - **Telemetry** — a sink attached with [`Scenario::with_telemetry`]
//!   is installed on every machine the scenario boots, which is what
//!   deleted the `defense_matrix_with`/`deployment_levels_with`/
//!   `interval_sweep_with` variant pattern;
//! - **Characterization** — [`Scenario::characterize`] is the one S1
//!   sweep engine: each frequency column runs
//!   [`plugvolt::characterize::sweep_column`] on its own machine booted
//!   from a labelled seed, and the columns spread over `run_cells`, the
//!   workspace's one worker pool.
//!
//! The construction discipline is enforced by the `plugvolt-lint` rule
//! `machine-construction-discipline`: `Machine::new` outside this
//! module (and test code) is flagged.

use plugvolt::characterize::{
    analytic_map, shard_label, sweep_column, sweep_frequencies, CharacterizationRun,
    CharacterizeError, ColumnSweep, SweepConfig,
};
use plugvolt::charmap::CharacterizationMap;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::rng::{derive_seed, SimRng};
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_hal::trace::TraceRecorder;
use plugvolt_kernel::machine::Machine;
use plugvolt_telemetry::{Sink, StreamCursor, StreamFrame};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};

/// Default root seed for all experiments (the paper's venue and year).
pub const SEED: u64 = 0x0DAC_2024;

/// A simulation session: root seed plus optional telemetry sink, from
/// which every machine, stream and map of one experiment run is drawn.
///
/// # Examples
///
/// ```
/// use plugvolt_bench::scenario::Scenario;
/// use plugvolt_cpu::model::CpuModel;
///
/// let scenario = Scenario::new();
/// let map = scenario.quick_map(CpuModel::CometLake);
/// let mut machine = scenario.machine(CpuModel::CometLake);
/// assert!(map.maximal_safe_offset_mv(5).is_some());
/// assert!(!machine.cpu().is_crashed());
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    root_seed: u64,
    telemetry: Option<Sink>,
    stream: Option<Rc<RefCell<FrameWriter>>>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::new()
    }
}

impl Scenario {
    /// A session rooted at the workspace default seed [`SEED`].
    #[must_use]
    pub fn new() -> Self {
        Scenario::with_seed(SEED)
    }

    /// A session rooted at an explicit seed (reproductions pin these).
    #[must_use]
    pub fn with_seed(root_seed: u64) -> Self {
        Scenario {
            root_seed,
            telemetry: None,
            stream: None,
        }
    }

    /// Attaches a telemetry sink; every machine the scenario boots from
    /// here on shares this registry.
    #[must_use]
    pub fn with_telemetry(mut self, sink: Sink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// The session's root seed.
    #[must_use]
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The attached telemetry sink, if any.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Sink> {
        self.telemetry.as_ref()
    }

    /// A labelled seed derived from the root seed (stable per label).
    #[must_use]
    pub fn seed_for(&self, label: &str) -> u64 {
        derive_seed(self.root_seed, label)
    }

    /// A labelled random stream rooted at the session seed.
    #[must_use]
    pub fn rng(&self, label: &str) -> SimRng {
        SimRng::from_seed_label(self.root_seed, label)
    }

    /// Boots the session's primary machine for a model, seeded with the
    /// root seed itself (so single-machine experiments reproduce the
    /// historical `Machine::new(model, SEED)` byte-for-byte).
    #[must_use]
    pub fn machine(&self, model: CpuModel) -> Machine {
        self.install(Machine::new(model, self.root_seed))
    }

    /// Boots an auxiliary machine from a labelled derived seed — one
    /// label per purpose, so campaigns stay independent of each other.
    #[must_use]
    pub fn machine_for(&self, model: CpuModel, label: &str) -> Machine {
        self.install(Machine::new(model, self.seed_for(label)))
    }

    /// Boots a specific physical unit of a SKU (die-to-die variation
    /// studies), seeded with the root seed.
    #[must_use]
    pub fn unit_machine(&self, model: CpuModel, unit: u64) -> Machine {
        self.install(Machine::new_unit(model, self.root_seed, unit))
    }

    /// Boots a specific physical unit of a SKU from a labelled derived
    /// seed (one machine per characterization column of a unit).
    #[must_use]
    pub fn unit_machine_for(&self, model: CpuModel, unit: u64, label: &str) -> Machine {
        self.install(Machine::new_unit(model, self.seed_for(label), unit))
    }

    /// Boots [`Scenario::machine_for`]'s machine with `rec` attached as
    /// its tape, so every software-visible MSR access is appended to
    /// `rec`'s transcript and a recorded run is bit-identical to an
    /// unrecorded one.
    #[must_use]
    pub fn machine_recording(&self, model: CpuModel, label: &str, rec: &TraceRecorder) -> Machine {
        let mut machine = self.machine_for(model, label);
        machine.attach_tape(rec.clone());
        machine
    }

    fn install(&self, mut machine: Machine) -> Machine {
        if let Some(sink) = &self.telemetry {
            machine.set_telemetry(sink.clone());
        }
        machine
    }

    /// The analytic characterization map for a model, memoized
    /// process-wide: computed at most once per model per process, then
    /// shared by every caller (the map is seed-independent physics, so
    /// one store serves all sessions).
    #[must_use]
    pub fn quick_map(&self, model: CpuModel) -> Arc<CharacterizationMap> {
        quick_map(model)
    }

    /// Runs the S1 characterization sweep rooted at the session seed:
    /// one column per frequency of [`sweep_frequencies`], each on a
    /// fresh machine from [`Scenario::machine_for`] labelled
    /// [`shard_label`], spread over `workers` threads by `run_cells`.
    /// Records merge in frequency order, so the run is byte-identical
    /// for any worker count. With a sink attached the columns run
    /// sequentially on the caller thread and every column machine
    /// publishes its counters and spans into the sink; without one,
    /// each column machine records into a sink that keeps no event
    /// timeline, since nothing outside the sweep can read it.
    ///
    /// # Errors
    ///
    /// Returns [`CharacterizeError::Config`] for a degenerate `cfg`
    /// before any machine boots, else the first column's machine error
    /// in frequency order.
    pub fn characterize(
        &self,
        model: CpuModel,
        cfg: &SweepConfig,
        workers: usize,
    ) -> Result<CharacterizationRun, CharacterizeError> {
        self.sweep(model, cfg, workers, &|scn, label| {
            scn.machine_for(model, label)
        })
    }

    /// The sweep engine behind [`Scenario::characterize`], with the
    /// column machine's boot supplied by the caller (the die-to-die
    /// study boots a specific unit per column).
    pub(crate) fn sweep(
        &self,
        model: CpuModel,
        cfg: &SweepConfig,
        workers: usize,
        boot: &(dyn Fn(&Scenario, &str) -> Machine + Sync),
    ) -> Result<CharacterizationRun, CharacterizeError> {
        cfg.validate()?;
        let spec = model.spec();
        let freqs = sweep_frequencies(&spec, cfg);
        let columns = run_cells(self, workers, freqs.len(), |scn, i| {
            let mut machine = boot(scn, &shard_label(freqs[i]));
            scn.column(&mut machine, cfg, freqs[i])
        })?;
        Ok(CharacterizationRun::from_columns(&spec, cfg, columns))
    }

    /// One column on a freshly booted machine; with a sink attached the
    /// machine then publishes its counters into it, and an attached
    /// stream advances by the column's sim time (every column machine
    /// starts its clock at zero, so this re-bases the columns onto one
    /// monotone stream clock). Without a sink the machine gets one that
    /// keeps no events, so the package builds none.
    fn column(
        &self,
        machine: &mut Machine,
        cfg: &SweepConfig,
        freq: FreqMhz,
    ) -> Result<ColumnSweep, CharacterizeError> {
        if self.telemetry.is_none() {
            machine.set_telemetry(Sink::with_event_capacity(0));
        }
        let column = sweep_column(machine, cfg, freq)?;
        if self.telemetry.is_some() {
            machine.publish_telemetry();
        }
        self.advance_stream(column.duration);
        Ok(column)
    }

    /// Streams pinned-schema JSONL telemetry frames (registry counter
    /// deltas plus span aggregates) to `path`: at most one frame per
    /// simulated millisecond of the stream clock, which advances as
    /// characterization columns and soak campaigns complete. Attaches a
    /// fresh sink if none is attached and turns its tracer on; write
    /// errors surface at [`Scenario::finish_stream`].
    ///
    /// # Errors
    ///
    /// The error creating `path`.
    pub fn with_stream(mut self, path: impl AsRef<Path>) -> io::Result<Scenario> {
        let out = File::create(path)?;
        let sink = self.telemetry.get_or_insert_with(Sink::new).clone();
        sink.tracer().set_enabled(true);
        self.stream = Some(Rc::new(RefCell::new(FrameWriter {
            cursor: StreamCursor::new(1),
            sink,
            out,
            clock: SimTime::ZERO,
            error: None,
        })));
        Ok(self)
    }

    /// Writes the closing frame (unconditionally, so the last counter
    /// movement is never lost to interval gating) and returns the
    /// number of frames streamed; `Ok(0)` without a stream.
    ///
    /// # Errors
    ///
    /// The first error writing the stream file.
    pub fn finish_stream(&self) -> io::Result<u64> {
        let Some(stream) = &self.stream else {
            return Ok(0);
        };
        let w = &mut *stream.borrow_mut();
        let frame = w.cursor.flush(&w.sink, w.clock);
        w.write(&frame);
        w.error.take().map_or(Ok(frame.seq + 1), Err)
    }

    /// Moves the stream clock forward by `by` and writes a frame if one
    /// is due; a no-op without a stream.
    pub(crate) fn advance_stream(&self, by: SimDuration) {
        if let Some(stream) = &self.stream {
            let w = &mut *stream.borrow_mut();
            w.clock = w.clock + by;
            if let Some(frame) = w.cursor.poll(&w.sink, w.clock) {
                w.write(&frame);
            }
        }
    }
}

/// The frame writer behind [`Scenario::with_stream`]: one cursor over
/// the scenario sink, the stream file, the stream clock, and the first
/// write error (stashed so the run finishes and reports it once).
#[derive(Debug)]
struct FrameWriter {
    cursor: StreamCursor,
    sink: Sink,
    out: File,
    clock: SimTime,
    error: Option<io::Error>,
}

impl FrameWriter {
    fn write(&mut self, frame: &StreamFrame) {
        if let Err(e) = writeln!(self.out, "{}", frame.to_jsonl()) {
            self.error.get_or_insert(e);
        }
    }
}

/// The process-wide memoized store behind [`Scenario::quick_map`].
fn quick_map_store() -> &'static Mutex<BTreeMap<&'static str, Arc<CharacterizationMap>>> {
    static STORE: OnceLock<Mutex<BTreeMap<&'static str, Arc<CharacterizationMap>>>> =
        OnceLock::new();
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The analytic characterization map for a model, computed at most once
/// per process (see [`Scenario::quick_map`]).
#[must_use]
pub fn quick_map(model: CpuModel) -> Arc<CharacterizationMap> {
    let spec = model.spec();
    let mut store = quick_map_store().lock().expect("quick-map store poisoned");
    store
        .entry(spec.name)
        .or_insert_with(|| Arc::new(analytic_map(&spec)))
        .clone()
}

/// Runs `cell_count` independent experiment cells, sequentially or over
/// a worker pool, merging results in cell-index order. This is the
/// workspace's one worker pool: characterization columns, defense and
/// level matrices, interval rows and soak campaigns all run on it.
///
/// Every cell boots its own machines from seeds derived off the
/// scenario's root seed and the cell's labels, so the merged vector is
/// byte-identical for any worker count. Parallel workers each construct
/// a sink-free `Scenario` from the root seed (the telemetry sink is
/// `Rc`-based and single-threaded, so a sink on `scn` forces the
/// sequential path; cells still see identical seed streams either way).
///
/// # Errors
///
/// The first failing cell's error in cell-index order.
pub(crate) fn run_cells<T, E, F>(
    scn: &Scenario,
    workers: usize,
    cell_count: usize,
    cell: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(&Scenario, usize) -> Result<T, E> + Sync,
{
    let workers = workers.clamp(1, cell_count.max(1));
    if workers == 1 || scn.telemetry().is_some() {
        return (0..cell_count).map(|i| cell(scn, i)).collect();
    }

    let root_seed = scn.root_seed();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, E>>>> =
        (0..cell_count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let _worker = scope.spawn(|| {
                let local = Scenario::with_seed(root_seed);
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= cell_count {
                        break;
                    }
                    let result = cell(&local, i);
                    *slots[i].lock().expect("cell slot poisoned") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .expect("every cell index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_map_is_memoized_per_process() {
        let scenario = Scenario::new();
        let a = scenario.quick_map(CpuModel::CometLake);
        let b = Scenario::with_seed(999).quick_map(CpuModel::CometLake);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second lookup must serve the stored map, not recompute"
        );
    }

    #[test]
    fn primary_machine_reproduces_raw_construction() {
        use plugvolt_cpu::core::CoreId;
        let scenario = Scenario::with_seed(7);
        let mut a = scenario.machine(CpuModel::SkyLake);
        let mut b = Machine::new(CpuModel::SkyLake, 7);
        let now = a.now();
        let fa = a.cpu_mut().run_imul_loop(now, CoreId(0), 50_000);
        let fb = b.cpu_mut().run_imul_loop(now, CoreId(0), 50_000);
        assert_eq!(fa.ok(), fb.ok());
    }

    #[test]
    fn labelled_machines_get_independent_seeds() {
        let scenario = Scenario::new();
        assert_ne!(scenario.seed_for("a"), scenario.seed_for("b"));
        assert_eq!(scenario.seed_for("a"), Scenario::new().seed_for("a"));
        assert_ne!(scenario.seed_for("a"), scenario.root_seed());
    }

    #[test]
    fn telemetry_sink_is_installed_on_boot() {
        use plugvolt::deploy::{deploy, Deployment};
        use plugvolt::poll::PollConfig;
        let sink = Sink::new();
        let scenario = Scenario::new().with_telemetry(sink.clone());
        let mut machine = scenario.machine(CpuModel::CometLake);
        let map = scenario.quick_map(CpuModel::CometLake);
        deploy(
            &mut machine,
            &map,
            Deployment::PollingModule(PollConfig::default()),
        )
        .expect("deploys");
        machine.advance(plugvolt_des::time::SimDuration::from_millis(1));
        machine.publish_telemetry();
        let profile = sink.profile("t");
        assert!(
            profile.counter_total("msr", "rdmsr") > 0,
            "polling activity must reach the scenario sink"
        );
    }
}
