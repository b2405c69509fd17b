//! `sweep`: the S1 safe/unsafe characterization (Figs 2–4) and the
//! S1 → S2 artifact handoff.
//!
//! One op characterizes one model at the paper's resolution
//! (`Scenario::characterize(model, &SweepConfig::default(), 1)`),
//! cycling Sky Lake, Kaby Lake R and Comet Lake, then JSON-encodes and
//! decodes the map and derives the maximal safe state from it. No
//! kernel module is loaded, so the poll path does no work here.
//!
//! The traced run rebuilds the engine's shard loop (one fresh machine
//! per frequency, write → settle → execute → restore per grid point)
//! from public calls and asserts every record of the library run.

use crate::tracer::{Label, Tracer};
use crate::{note_machine, same, timed, warm_model, Finish, TracedOp, Workload};
use plugvolt::characterize::{shard_label, CharacterizationRun, SweepConfig, SweepRecord};
use plugvolt::charmap::{CharacterizationMap, FreqBand};
use plugvolt::deploy::DEFAULT_MARGIN_MV;
use plugvolt::maximal::MaximalSafeState;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::{CpuModel, CpuSpec};
use plugvolt_cpu::package::PackageError;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::cpupower::CpuPower;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};

/// The models the sweep cycles through.
pub const MODELS: [CpuModel; 3] = [CpuModel::SkyLake, CpuModel::KabyLakeR, CpuModel::CometLake];

/// The sweep workload.
#[derive(Debug, Clone)]
pub struct Sweep {
    cfg: SweepConfig,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new(SweepConfig::default())
    }
}

impl Sweep {
    /// A sweep workload over `cfg` (the paper's grid by default).
    #[must_use]
    pub fn new(cfg: SweepConfig) -> Self {
        Sweep { cfg }
    }
}

/// One sweep op's output.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOut {
    /// The characterization run.
    pub run: CharacterizationRun,
    /// The map after a JSON round trip.
    pub decoded: CharacterizationMap,
    /// The maximal safe state derived from the decoded map.
    pub maximal: Option<MaximalSafeState>,
}

fn model_of(i: u64) -> CpuModel {
    MODELS[(i % MODELS.len() as u64) as usize]
}

/// The S1 → S2 handoff: encode, decode, derive the maximal safe state.
fn handoff(run: CharacterizationRun, tr: &mut Tracer) -> Result<SweepOut, String> {
    let json = tr
        .span(Label::JsonMapEncode, |_| serde_json::to_string(&run.map))
        .map_err(|e| format!("map encode: {e}"))?;
    let decoded: CharacterizationMap = tr
        .span(Label::JsonMapDecode, |_| serde_json::from_str(&json))
        .map_err(|e| format!("map decode: {e}"))?;
    let maximal = tr.span(Label::CoreMaximalFromMap, |_| {
        MaximalSafeState::from_map(&decoded, DEFAULT_MARGIN_MV)
    });
    Ok(SweepOut {
        run,
        decoded,
        maximal,
    })
}

impl Workload for Sweep {
    type Output = SweepOut;
    const NAME: &'static str = "sweep";
    const CYCLE: u64 = MODELS.len() as u64;
    const GROUPS: u64 = 16;

    fn setup(&mut self, tr: &mut Tracer) {
        for model in MODELS {
            warm_model(model, false, tr);
        }
    }

    fn op(&mut self, i: u64, seed: u64) -> Result<SweepOut, String> {
        let run = Scenario::with_seed(seed)
            .characterize(model_of(i), &self.cfg, 1)
            .map_err(|e| e.to_string())?;
        handoff(run, &mut Tracer::new(false))
    }

    fn check(&mut self, _i: u64, _seed: u64, out: &SweepOut) -> Result<(), String> {
        if out.decoded != out.run.map {
            return Err("map changed across its JSON round trip".into());
        }
        if out.run.records.is_empty() || out.run.map.is_empty() {
            return Err("sweep produced no records".into());
        }
        for (f, band) in out.run.map.iter() {
            let onset_ok = band.fault_onset_mv.is_none_or(|o| o <= -1);
            let crash_ok = band.crash_mv.is_none_or(|c| c <= -1);
            let ordered = match (band.crash_mv, band.fault_onset_mv) {
                (Some(c), Some(o)) => c <= o,
                _ => true,
            };
            if !(onset_ok && crash_ok && ordered) {
                return Err(format!("band at {f} breaks crash <= onset <= -1: {band:?}"));
            }
        }
        if out.maximal.is_none() {
            return Err("no maximal safe state derivable from the map".into());
        }
        Ok(())
    }

    fn digest_text(out: &SweepOut) -> String {
        format!(
            "{}|{}",
            serde_json::to_string(&out.run).unwrap_or_default(),
            serde_json::to_string(&out.maximal).unwrap_or_default()
        )
    }

    fn traced_op(&mut self, i: u64, seed: u64, tr: &mut Tracer) -> Result<TracedOp, String> {
        let (lib, untraced_ns) = timed(|| self.op(i, seed));
        let lib = lib?;
        let (rebuilt, traced_ns) = timed(|| -> Result<SweepOut, String> {
            let run = rebuilt_characterize(model_of(i), seed, &self.cfg, tr)
                .map_err(|e| e.to_string())?;
            handoff(run, tr)
        });
        let rebuilt = rebuilt?;
        same("characterization run", &lib.run, &rebuilt.run)?;
        same("S1 -> S2 handoff", &lib, &rebuilt)?;
        self.check(i, seed, &rebuilt)?;
        Ok(TracedOp {
            untraced_ns,
            traced_ns,
        })
    }

    fn finish(&mut self, _first_seed: u64, _ops: u64) -> Finish {
        Finish::default()
    }
}

/// The frequencies the engine visits: the table at the configured
/// stride, always including the table maximum.
fn sweep_frequencies(spec: &CpuSpec, cfg: &SweepConfig) -> Vec<FreqMhz> {
    let min = spec.freq_table.min().mhz();
    let mut freqs: Vec<FreqMhz> = spec
        .freq_table
        .iter()
        .filter(|f| (f.mhz() - min).is_multiple_of(cfg.freq_step_mhz))
        .collect();
    if freqs.last() != Some(&spec.freq_table.max()) {
        freqs.push(spec.freq_table.max());
    }
    freqs
}

/// `characterize_sharded(model, root_seed, cfg, 1)` rebuilt from public
/// calls, with a span around each layer call.
///
/// # Errors
///
/// Machine errors other than the handled sweep crashes.
pub fn rebuilt_characterize(
    model: CpuModel,
    root_seed: u64,
    cfg: &SweepConfig,
    tr: &mut Tracer,
) -> Result<CharacterizationRun, MachineError> {
    let spec = model.spec();
    let scn = Scenario::with_seed(root_seed);
    let mut map = CharacterizationMap::new(spec.name, spec.microcode, cfg.offset_floor_mv);
    let mut records = Vec::new();
    let mut crashes = 0u32;
    let mut duration = SimDuration::ZERO;
    for freq in sweep_frequencies(&spec, cfg) {
        let mut machine = tr.span(Label::BenchMachineFor, |_| {
            scn.machine_for(model, &shard_label(freq))
        });
        let started = machine.now();
        let mut cpupower = CpuPower::new(&machine);
        let dev = MsrDev::open(&machine, cfg.execute_core)?;
        let (band, shard_records, shard_crashes) =
            sweep_one(&mut machine, &mut cpupower, &dev, cfg, freq, tr)?;
        duration += machine.now().saturating_duration_since(started);
        note_machine(&machine, tr);
        records.extend(shard_records);
        crashes += shard_crashes;
        map.insert_band(freq, band);
    }
    Ok(CharacterizationRun {
        map,
        records,
        crashes,
        duration,
    })
}

/// One frequency's offset sweep (the inner loop of Algorithm 2).
fn sweep_one(
    machine: &mut Machine,
    cpupower: &mut CpuPower,
    dev: &MsrDev,
    cfg: &SweepConfig,
    freq: FreqMhz,
    tr: &mut Tracer,
) -> Result<(FreqBand, Vec<SweepRecord>, u32), MachineError> {
    tr.span(Label::KernelFrequencySetAll, |_| {
        cpupower.frequency_set_all(machine, freq)
    })?;
    settle(machine, tr);
    let mut band = FreqBand::default();
    let mut records = Vec::new();
    let mut crashes = 0u32;
    let mut offset = cfg.offset_start_mv;
    while offset >= cfg.offset_floor_mv {
        match test_point(machine, dev, cfg, offset, tr) {
            Ok(faults) => {
                records.push(SweepRecord {
                    freq,
                    offset_mv: offset,
                    faults,
                    crashed: false,
                });
                if faults > 0 && band.fault_onset_mv.is_none() {
                    band.fault_onset_mv = Some((offset + cfg.offset_step_mv - 1).min(-1));
                }
            }
            Err(MachineError::Package(PackageError::Crashed)) => {
                records.push(SweepRecord {
                    freq,
                    offset_mv: offset,
                    faults: 0,
                    crashed: true,
                });
                if band.crash_mv.is_none() {
                    band.crash_mv = Some((offset + cfg.offset_step_mv - 1).min(-1));
                }
                crashes += 1;
                let now = machine.now();
                tr.span(Label::CpuReset, |_| machine.cpu_mut().reset(now));
                settle(machine, tr);
                tr.span(Label::KernelFrequencySetAll, |_| {
                    cpupower.frequency_set_all(machine, freq)
                })?;
                settle(machine, tr);
                if cfg.stop_after_crash {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
        offset -= cfg.offset_step_mv;
    }
    Ok((band, records, crashes))
}

/// One grid point: write the offset, settle, run the EXECUTE loop,
/// restore, settle.
fn test_point(
    machine: &mut Machine,
    dev: &MsrDev,
    cfg: &SweepConfig,
    offset_mv: i32,
    tr: &mut Tracer,
) -> Result<u64, MachineError> {
    let req = OcRequest::write_offset(offset_mv, Plane::Core).encode();
    tr.span(Label::KernelMsrDevWrite, |_| {
        dev.write(machine, Msr::OC_MAILBOX, req)
    })?;
    settle(machine, tr);
    let core = cfg.execute_core;
    let now = machine.now();
    let faults = tr.span(Label::CpuRunImulLoop, |_| {
        machine.cpu_mut().run_imul_loop(now, core, cfg.imul_iters)
    });
    let freq_now = machine.cpu().core_freq(core).unwrap_or(FreqMhz(1_000));
    tr.span(Label::KernelAdvanceTo, |_| {
        machine.advance(SimDuration::from_cycles(cfg.imul_iters, freq_now.mhz()));
    });
    let faults = faults.map_err(MachineError::from)?;
    let restore = OcRequest::write_offset(0, Plane::Core).encode();
    tr.span(Label::KernelMsrDevWrite, |_| {
        dev.write(machine, Msr::OC_MAILBOX, restore)
    })?;
    settle(machine, tr);
    Ok(faults)
}

/// Waits until the rail has settled (plus 1 µs).
fn settle(machine: &mut Machine, tr: &mut Tracer) {
    let t = machine.cpu().rail_settles_at() + SimDuration::from_micros(1);
    if t > machine.now() {
        tr.span(Label::KernelAdvanceTo, |_| machine.advance_to(t));
    }
}
