//! The experiment runners behind every table and figure of the paper.
//!
//! Each function takes a [`Scenario`] (seed + optional telemetry) and
//! produces a report, so the `repro` binary, the integration tests and
//! `perfbench` all share one implementation. Machines are
//! booted through the scenario — never constructed ad hoc here — which
//! is what keeps every run reproducible from a single root seed. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record produced from these.

use crate::scenario::{run_cells, Scenario};
use plugvolt::characterize::{CharacterizeError, SweepConfig};
use plugvolt::charmap::CharacterizationMap;
use plugvolt::deploy::{deploy, Deployment};
use plugvolt::poll::{PollConfig, MODULE_NAME};
use plugvolt::state::StateClass;
use plugvolt_attacks::cacheplane::{run_cache_plane_attack, CachePlaneConfig};
use plugvolt_attacks::campaign::AttackReport;
use plugvolt_attacks::clkscrew::{run_clkscrew_attack, ClkscrewConfig};
use plugvolt_attacks::plundervolt::{run_aes_attack, run_rsa_attack, PlundervoltConfig};
use plugvolt_attacks::v0ltpwn::{run_v0ltpwn_attack, V0ltpwnConfig};
use plugvolt_attacks::voltjockey::{run_voltjockey_attack, VoltJockeyConfig};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_kernel::sgx::{AttestationReport, SteppingCapability};
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_telemetry::{HistogramSpec, MetricKey};
use serde::{Deserialize, Serialize};

pub use crate::scenario::SEED;

/// Figure 1 data: the Eq. 1 terms and slack as the supply drops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Point {
    /// Offset below nominal, mV.
    pub offset_mv: i32,
    /// `T_src + T_prop` (worst-case imul path), ps.
    pub path_ps: f64,
    /// `T_clk − T_setup − T_ε`, ps.
    pub available_ps: f64,
    /// Slack, ps.
    pub slack_ps: f64,
    /// Classification under the fault model.
    pub state: StateClass,
}

/// Generates the Figure 1 series for a model at a frequency.
#[must_use]
pub fn fig1_series(model: CpuModel, freq: FreqMhz, max_offset_mv: i32) -> Vec<Fig1Point> {
    use plugvolt_circuit::timing::{TimingBudget, TimingState};
    let spec = model.spec();
    let mul = spec.multiplier();
    let fm = spec.fault_model();
    let budget = TimingBudget::for_frequency_mhz(freq.mhz(), spec.t_setup_ps, spec.t_eps_ps);
    let nominal = spec.nominal_voltage_mv(freq);
    (0..=max_offset_mv.unsigned_abs() as i32)
        .step_by(5)
        .map(|off| {
            let v = nominal - f64::from(off);
            let path = mul.worst_path_delay_ps(v);
            let slack = budget.slack_ps(path);
            let state = match fm.classify(slack) {
                TimingState::Safe if fm.fault_probability(slack) * 1e6 >= 1.0 => StateClass::Unsafe,
                TimingState::Safe => StateClass::Safe,
                TimingState::Unsafe => StateClass::Unsafe,
                TimingState::Crash => StateClass::Crash,
            };
            Fig1Point {
                offset_mv: -off,
                path_ps: path,
                available_ps: budget.available_ps(),
                slack_ps: slack,
                state,
            }
        })
        .collect()
}

/// The sweep grid used by the Figures 2–4 characterization: the paper's
/// 1 mV × 0.1 GHz resolution when `full`, otherwise a coarser, faster
/// grid with identical shape.
#[must_use]
pub fn figure_sweep_config(full: bool) -> SweepConfig {
    if full {
        SweepConfig::default()
    } else {
        SweepConfig {
            offset_step_mv: 2,
            freq_step_mhz: 200,
            ..SweepConfig::default()
        }
    }
}

/// One cell of the defense matrix (§4.3: "completely prevents DVFS
/// faults" × every attack).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseCell {
    /// Deployment label.
    pub deployment: String,
    /// Attack name.
    pub attack: String,
    /// Whether the exploit goal was reached.
    pub success: bool,
    /// Faulty computations the adversary observed.
    pub faulty_events: u64,
    /// Countermeasure detections (polling level only).
    pub detections: u64,
    /// Whether benign DVFS survived under this deployment.
    pub benign_dvfs_preserved: bool,
}

/// All deployments evaluated by the defense matrix.
#[must_use]
pub fn all_deployments() -> Vec<Deployment> {
    vec![
        Deployment::None,
        Deployment::OcmDisable,
        Deployment::PollingModule(PollConfig::default()),
        Deployment::Microcode {
            revision: 0xf5,
            margin_mv: 5,
        },
        Deployment::HardwareMsr { margin_mv: 5 },
    ]
}

/// Runs the full defense matrix: every attack × every deployment. Each
/// attack campaign gets its own machine booted from a labelled derived
/// seed, so adding or reordering attacks never perturbs the others; a
/// telemetry sink attached to the scenario is shared across all of them.
///
/// Cells are farmed out over `workers` threads (the pool the
/// characterization columns run on): every cell's stream depends only on the
/// scenario root seed and the cell's own labels, never on which worker
/// ran it, so the merged matrix is byte-identical for any worker count
/// (pinned by `tests/determinism.rs`). A telemetry sink forces the
/// sequential path — the sink is single-threaded by design.
///
/// # Errors
///
/// Propagates machine errors (first failing cell in matrix order).
pub fn defense_matrix(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    workers: usize,
) -> Result<Vec<DefenseCell>, MachineError> {
    let deployments = all_deployments();
    let cell_count = deployments.len() * ATTACK_COUNT;
    run_cells(scn, workers, cell_count, |scn, i| {
        defense_cell(
            scn,
            model,
            map,
            &deployments[i / ATTACK_COUNT],
            i % ATTACK_COUNT,
        )
    })
}

/// Number of attack campaigns in the defense matrix.
const ATTACK_COUNT: usize = 6;

/// One cell of the defense matrix: boot a labelled machine, deploy,
/// attack, check benign DVFS.
fn defense_cell(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    deployment: &Deployment,
    attack_idx: usize,
) -> Result<DefenseCell, MachineError> {
    let mut machine = scn.machine_for(model, &format!("defense-matrix/attack{attack_idx}"));
    let deployment = match (deployment, attack_idx) {
        // The cache-plane attack needs the plane-aware polling
        // configuration (the plane ablation shows why).
        (Deployment::PollingModule(cfg), 5) => Deployment::PollingModule(PollConfig {
            planes: vec![
                plugvolt_msr::oc_mailbox::Plane::Core,
                plugvolt_msr::oc_mailbox::Plane::Cache,
            ],
            ..cfg.clone()
        }),
        (d, _) => d.clone(),
    };
    let deployed = deploy(&mut machine, map, deployment.clone())?;
    let report: AttackReport = match attack_idx {
        0 => run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?,
        1 => {
            let cfg = PlundervoltConfig {
                victims_per_step: 300,
                ..PlundervoltConfig::default()
            };
            run_aes_attack(&mut machine, &cfg, 2)?
        }
        2 => run_voltjockey_attack(&mut machine, &VoltJockeyConfig::default(), 3)?,
        3 => run_v0ltpwn_attack(&mut machine, &V0ltpwnConfig::default())?.report,
        4 => {
            let cfg = ClkscrewConfig {
                benign_offset_mv: -170,
                ..ClkscrewConfig::default()
            };
            run_clkscrew_attack(&mut machine, &cfg)?
        }
        _ => run_cache_plane_attack(&mut machine, &CachePlaneConfig::default())?,
    };
    let detections = deployed
        .poll_stats
        .as_ref()
        .map_or(0, |s| s.borrow().detections);
    let benign = benign_dvfs_works(&mut scn.machine(model), map, &deployment)?;
    if scn.telemetry().is_some() {
        machine.publish_telemetry();
    }
    Ok(DefenseCell {
        deployment: deployment.label().to_owned(),
        attack: report.attack.clone(),
        success: report.success,
        faulty_events: report.faulty_events,
        detections,
        benign_dvfs_preserved: benign,
    })
}

/// Checks that a benign −40 mV power-saving undervolt still lands and
/// holds for 5 ms under the given deployment.
fn benign_dvfs_works(
    machine: &mut Machine,
    map: &CharacterizationMap,
    deployment: &Deployment,
) -> Result<bool, MachineError> {
    let _ = deploy(machine, map, deployment.clone())?;
    let dev = MsrDev::open(machine, CoreId(0))?;
    let req = OcRequest::write_offset(-40, Plane::Core).encode();
    let _ = dev.write(machine, Msr::OC_MAILBOX, req)?;
    machine.advance(SimDuration::from_millis(5));
    Ok(machine.cpu().core_offset_mv() <= -35)
}

/// One row of the deployment-levels ablation (§5: turnaround time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelRow {
    /// Deployment label.
    pub deployment: String,
    /// Time from the attack's 0x150 write to the offset being back in
    /// the safe region (`None` = never neutralized).
    pub neutralize_latency: Option<SimDuration>,
    /// Deepest *effective* undervolt observed in a 5 ms window: rail
    /// voltage versus the nominal of the instantaneous frequency (mV).
    /// A clamped-but-safe undervolt (hardware MSR) legitimately shows a
    /// non-zero value here.
    pub max_effective_undervolt_mv: f64,
    /// Whether the effective (frequency, undervolt) state was ever in
    /// the characterized unsafe region.
    pub ever_unsafe: bool,
    /// Faults a victim running imuls throughout the window observed.
    pub victim_faults: u64,
}

/// Measures actual exposure per deployment level: attack write at t₀,
/// victim hammering imuls, rail watched for 5 ms.
///
/// When the scenario carries a telemetry sink, the per-deployment
/// *exposure window* — total time the sampled effective (frequency,
/// undervolt) state classified unsafe — is published as a
/// `deploy/<label>` gauge (ns) and aggregated into the
/// `deploy/exposure_window_us` histogram.
///
/// Rows run over `workers` threads with a worker-count-independent
/// merge (see [`defense_matrix`]); a telemetry sink forces the
/// sequential path.
///
/// # Errors
///
/// Propagates machine errors (first failing row in deployment order).
pub fn deployment_levels(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    workers: usize,
) -> Result<Vec<LevelRow>, MachineError> {
    let deployments = all_deployments();
    let count = deployments.len();
    run_cells(scn, workers, count, |scn, i| {
        level_row(scn, model, map, &deployments[i])
    })
}

/// One row of the deployment-levels ablation: deploy, attack write,
/// watch the rail and a victim for 5 ms.
fn level_row(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    deployment: &Deployment,
) -> Result<LevelRow, MachineError> {
    let mut machine = scn.machine(model);
    let _deployed = deploy(&mut machine, map, deployment.clone())?;
    // Pin fast so −250 mV is deeply unsafe.
    let mut cpupower = plugvolt_kernel::cpupower::CpuPower::new(&machine);
    let fast = machine.cpu().spec().freq_table.max();
    cpupower.frequency_set(&mut machine, CoreId(0), fast)?;
    machine.advance(SimDuration::from_millis(1));
    let dev = MsrDev::open(&machine, CoreId(0))?;
    let attack = OcRequest::write_offset(-250, Plane::Core).encode();
    let written_at = machine.now();
    let _ = dev.write(&mut machine, Msr::OC_MAILBOX, attack)?;

    let mut neutralized: Option<SimTime> = None;
    let mut max_effective = 0.0f64;
    let mut ever_unsafe = false;
    let mut victim_faults = 0u64;
    let mut reset_happened = false;
    let sample = SimDuration::from_micros(10);
    let mut exposure = SimDuration::ZERO;
    for _ in 0..500 {
        machine.advance(sample);
        let f_now = machine.cpu().core_freq(CoreId(0))?;
        let nominal_now = machine.cpu().spec().nominal_voltage_mv(f_now);
        let effective = nominal_now - machine.cpu().core_voltage_mv(machine.now());
        max_effective = max_effective.max(effective);
        if effective > 2.0 && map.classify(f_now, -(effective.ceil() as i32)) != StateClass::Safe {
            ever_unsafe = true;
            exposure += sample;
        }
        // A reboot clearing the offset is not countermeasure action;
        // only count neutralization before any crash.
        if neutralized.is_none()
            && !reset_happened
            && map.classify(f_now, machine.cpu().core_offset_mv()) == StateClass::Safe
        {
            neutralized = Some(machine.now());
        }
        let now = machine.now();
        match machine.cpu_mut().run_imul_loop(now, CoreId(0), 20_000) {
            Ok(f) => victim_faults += f,
            Err(_) => {
                reset_happened = true;
                let now = machine.now();
                machine.cpu_mut().reset(now);
                cpupower.frequency_set(&mut machine, CoreId(0), fast)?;
                victim_faults += 20_000; // a crash is at least as bad
            }
        }
    }
    if let Some(sink) = scn.telemetry() {
        let label = deployment.label();
        sink.set_gauge(
            MetricKey::global(format!("deploy/{label}"), "exposure_ns"),
            exposure.as_picos() as f64 / 1e3,
        );
        sink.observe(
            MetricKey::global("deploy", "exposure_window_us"),
            HistogramSpec::EXPOSURE_WINDOW_US,
            exposure.as_picos() as f64 / 1e6,
        );
        machine.publish_telemetry();
    }
    Ok(LevelRow {
        deployment: deployment.label().to_owned(),
        neutralize_latency: neutralized.map(|t| t.saturating_duration_since(written_at)),
        max_effective_undervolt_mv: max_effective.max(0.0),
        ever_unsafe,
        victim_faults,
    })
}

/// One row of the polling-interval ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRow {
    /// Polling period.
    pub period: SimDuration,
    /// Fraction of core time stolen by the module (overhead).
    pub overhead_pct: f64,
    /// Detection latency for a deep attack write.
    pub detect_latency: Option<SimDuration>,
    /// Whether the rail ever dipped more than 5 mV below the nominal
    /// voltage of the *instantaneous* frequency (i.e. an effective
    /// undervolt; benign P-state transitions do not count).
    pub rail_moved: bool,
}

/// The polling periods swept by [`interval_sweep`], in microseconds.
pub const SWEEP_PERIODS_US: [u64; 9] = [10, 25, 50, 100, 200, 400, 800, 1_600, 3_200];

/// Sweeps the polling period: overhead vs turnaround (our ablation of
/// the paper's design choice of a kernel-module poller).
///
/// A telemetry sink attached to the scenario is shared across the
/// per-period machines. Periods run over `workers` threads with a
/// worker-count-independent merge (see [`defense_matrix`]); a telemetry
/// sink forces the sequential path.
///
/// # Errors
///
/// Propagates machine errors (first failing period in sweep order).
pub fn interval_sweep(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    workers: usize,
) -> Result<Vec<IntervalRow>, MachineError> {
    run_cells(scn, workers, SWEEP_PERIODS_US.len(), |scn, i| {
        interval_row(scn, model, map, SWEEP_PERIODS_US[i])
    })
}

/// One row of the polling-interval ablation: deploy at the period,
/// measure idle overhead, then turnaround for a deep attack write.
fn interval_row(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    period_us: u64,
) -> Result<IntervalRow, MachineError> {
    let period = SimDuration::from_micros(period_us);
    let mut machine = scn.machine(model);
    let cfg = PollConfig {
        period,
        ..PollConfig::default()
    };
    let deployed = deploy(&mut machine, map, Deployment::PollingModule(cfg))?;
    // Pin fast so a −250 mV write is deeply unsafe at this frequency.
    let mut cpupower = plugvolt_kernel::cpupower::CpuPower::new(&machine);
    let fast = machine.cpu().spec().freq_table.max();
    cpupower.frequency_set(&mut machine, CoreId(0), fast)?;
    // Overhead: watch 50 ms of idle polling.
    let stolen_before = machine.stolen_time(CoreId(0));
    machine.advance(SimDuration::from_millis(50));
    let stolen = machine.stolen_time(CoreId(0)).saturating_sub(stolen_before);
    let overhead_pct =
        stolen.as_picos() as f64 / SimDuration::from_millis(50).as_picos() as f64 * 100.0;

    // Turnaround: deep write, watch 20 ms.
    let dev = MsrDev::open(&machine, CoreId(0))?;
    let written_at = machine.now();
    let _ = dev.write(
        &mut machine,
        Msr::OC_MAILBOX,
        OcRequest::write_offset(-250, Plane::Core).encode(),
    )?;
    let mut max_effective_undervolt = 0.0f64;
    for _ in 0..2_000 {
        machine.advance(SimDuration::from_micros(10));
        let f_now = machine.cpu().core_freq(CoreId(0))?;
        let nominal_now = machine.cpu().spec().nominal_voltage_mv(f_now);
        let v = machine.cpu().core_voltage_mv(machine.now());
        max_effective_undervolt = max_effective_undervolt.max(nominal_now - v);
    }
    let stats = deployed.poll_stats.expect("polling deployment");
    let detect_latency = stats
        .borrow()
        .last_detection
        .map(|t| t.saturating_duration_since(written_at));
    if scn.telemetry().is_some() {
        machine.publish_telemetry();
    }
    Ok(IntervalRow {
        period,
        overhead_pct,
        detect_latency,
        rail_moved: max_effective_undervolt > 5.0,
    })
}

/// Per-unit characterization summary (die-to-die variation study).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRow {
    /// Physical unit id.
    pub unit: u64,
    /// The unit's own maximal safe state (mV).
    pub own_mss_mv: i32,
    /// Fault onset at the table maximum frequency (mV).
    pub onset_at_fmax_mv: Option<i32>,
}

/// Result of the per-unit vs per-generation characterization study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitStudy {
    /// Per-unit summaries.
    pub rows: Vec<UnitRow>,
    /// The generation-wide bound (shallowest per-unit MSS): what a
    /// vendor must fuse into every part of the SKU.
    pub generation_mss_mv: i32,
    /// Mean benign-undervolt headroom forfeited by using the
    /// generation-wide bound instead of per-unit characterization (mV).
    pub mean_headroom_lost_mv: f64,
    /// Whether protecting every unit with the generation map blocked a
    /// deep attack on each of them.
    pub generation_map_protects_all: bool,
}

/// Characterizes several physical units of one SKU and evaluates the
/// per-unit vs per-generation deployment question the paper's Sec. 5
/// leaves open: the microcode/MSR bound must be fused per *generation*,
/// so it has to take the worst (shallowest) unit, costing the better
/// units benign undervolt headroom.
///
/// # Errors
///
/// Propagates sweep-configuration and machine errors.
pub fn unit_variation_study(
    scn: &Scenario,
    model: CpuModel,
    units: u64,
) -> Result<UnitStudy, CharacterizeError> {
    use plugvolt::charmap::FreqBand;
    let cfg = SweepConfig {
        offset_step_mv: 3,
        freq_step_mhz: 400,
        ..SweepConfig::default()
    };
    let fmax = model.spec().freq_table.max();
    let mut rows = Vec::new();
    let mut maps = Vec::new();
    for unit in 0..units {
        let run = scn.sweep(model, &cfg, 1, &|scn, label| {
            scn.unit_machine_for(model, unit, label)
        })?;
        rows.push(UnitRow {
            unit,
            own_mss_mv: run.map.maximal_safe_offset_mv(5).unwrap_or(0),
            onset_at_fmax_mv: run.map.band(fmax).and_then(|b| b.fault_onset_mv),
        });
        maps.push(run.map);
    }
    let generation_mss_mv = rows.iter().map(|r| r.own_mss_mv).max().unwrap_or(0);
    let mean_headroom_lost_mv = rows
        .iter()
        .map(|r| f64::from(r.own_mss_mv - generation_mss_mv).abs())
        .sum::<f64>()
        / rows.len() as f64;

    // Build the generation-wide map: per frequency, the most conservative
    // band across units.
    let mut generation = maps[0].clone();
    let freqs: Vec<FreqMhz> = generation.iter().map(|(f, _)| f).collect();
    for f in freqs {
        let onset = maps
            .iter()
            .filter_map(|m| m.band(f).and_then(|b| b.fault_onset_mv))
            .max();
        let crash = maps
            .iter()
            .filter_map(|m| m.band(f).and_then(|b| b.crash_mv))
            .max();
        generation.insert_band(
            f,
            FreqBand {
                fault_onset_mv: onset,
                crash_mv: crash,
            },
        );
    }

    // Every unit, protected by the generation map, must block the attack.
    let mut all_protected = true;
    for unit in 0..units {
        let mut machine = scn.unit_machine(model, unit);
        let _ = deploy(
            &mut machine,
            &generation,
            Deployment::PollingModule(PollConfig::default()),
        )?;
        let report = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?;
        if report.success {
            all_protected = false;
        }
    }
    Ok(UnitStudy {
        rows,
        generation_mss_mv,
        mean_headroom_lost_mv,
        generation_map_protects_all: all_protected,
    })
}

/// One row of the energy ablation: what denying benign undervolting
/// costs, in the currency the paper's introduction argues in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Configuration label.
    pub config: String,
    /// Average package power over the window, watts.
    pub avg_power_w: f64,
    /// Energy over the window, joules.
    pub joules: f64,
    /// Savings versus the no-undervolt baseline, percent.
    pub savings_pct: f64,
}

/// Measures package energy over a fixed busy window under: no undervolt
/// (what Intel's OCM-disable forces on the user), a benign undervolt at
/// the maximal safe state (what the paper's deployments permit), and a
/// deeper benign undervolt at reduced frequency.
///
/// # Errors
///
/// Propagates machine errors.
pub fn energy_ablation(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
) -> Result<Vec<EnergyRow>, MachineError> {
    let window = SimDuration::from_millis(500);
    let mss = map.maximal_safe_offset_mv(10).unwrap_or(0);
    let mut rows: Vec<EnergyRow> = Vec::new();
    let mut baseline_j = 0.0;
    for (config, offset_mv) in [
        ("no undervolt (OCM disabled)", 0),
        ("maximal-safe undervolt (paper)", mss),
    ] {
        let mut machine = scn.machine(model);
        // Deploy the paper's polling module: the benign offset must
        // survive it for the whole window.
        let _ = deploy(
            &mut machine,
            map,
            Deployment::PollingModule(PollConfig::default()),
        )?;
        if offset_mv < 0 {
            let dev = MsrDev::open(&machine, CoreId(0))?;
            let req = OcRequest::write_offset(offset_mv, Plane::Core).encode();
            let _ = dev.write(&mut machine, Msr::OC_MAILBOX, req)?;
        }
        // Let the rail settle, then measure a busy window via RAPL.
        // The energy reads use the privileged zero-cost Machine::rdmsr
        // path: no MSR access cost is charged, so the measurement never
        // contaminates the overhead this ablation quantifies.
        machine.advance(SimDuration::from_millis(3));
        let e0 = machine.rdmsr(CoreId(0), Msr::PKG_ENERGY_STATUS)? as f64
            * plugvolt_cpu::energy::RAPL_UNIT_J;
        machine.advance(window);
        let e1 = machine.rdmsr(CoreId(0), Msr::PKG_ENERGY_STATUS)? as f64
            * plugvolt_cpu::energy::RAPL_UNIT_J;
        let joules = e1 - e0;
        if baseline_j == 0.0 {
            baseline_j = joules;
        }
        rows.push(EnergyRow {
            config: config.to_owned(),
            avg_power_w: joules / window.as_secs_f64(),
            joules,
            savings_pct: (baseline_j - joules) / baseline_j * 100.0,
        });
    }
    Ok(rows)
}

/// One row of the voltage-plane ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaneRow {
    /// Planes the polling module watches.
    pub planes: String,
    /// Idle polling overhead (percent of one core's time).
    pub overhead_pct: f64,
    /// Did the core-plane Plundervolt campaign succeed?
    pub core_attack_succeeded: bool,
    /// Did the cache-plane campaign succeed?
    pub cache_attack_succeeded: bool,
}

/// Ablation: what watching more voltage planes costs and buys.
///
/// The paper's Algorithm 3 reads MSR 0x150 once per core (the mailbox
/// response register). This sweep compares that configuration against
/// explicit per-plane polling.
///
/// # Errors
///
/// Propagates machine errors.
pub fn plane_ablation(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
) -> Result<Vec<PlaneRow>, MachineError> {
    use plugvolt_msr::oc_mailbox::Plane;
    let mut rows = Vec::new();
    for planes in [vec![Plane::Core], vec![Plane::Core, Plane::Cache]] {
        let label = planes
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("+");
        let cfg = PollConfig {
            planes,
            ..PollConfig::default()
        };
        // Idle overhead over 50 ms.
        let mut machine = scn.machine(model);
        let _ = deploy(&mut machine, map, Deployment::PollingModule(cfg.clone()))?;
        machine.advance(SimDuration::from_millis(50));
        let stolen = machine.stolen_time(CoreId(0));
        let overhead_pct =
            stolen.as_picos() as f64 / SimDuration::from_millis(50).as_picos() as f64 * 100.0;

        // Core-plane Plundervolt.
        let mut machine = scn.machine(model);
        let _ = deploy(&mut machine, map, Deployment::PollingModule(cfg.clone()))?;
        let core_attack = run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 1)?;

        // Cache-plane campaign.
        let mut machine = scn.machine(model);
        let _ = deploy(&mut machine, map, Deployment::PollingModule(cfg))?;
        let cache_attack = run_cache_plane_attack(&mut machine, &CachePlaneConfig::default())?;

        rows.push(PlaneRow {
            planes: label,
            overhead_pct,
            core_attack_succeeded: core_attack.success,
            cache_attack_succeeded: cache_attack.success,
        });
    }
    Ok(rows)
}

/// Outcome of the threat-model experiment (§4.1): stepping adversaries
/// vs deflection-style defenses vs polling.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteppingRow {
    /// Defense under test.
    pub defense: String,
    /// Adversary stepping capability.
    pub stepping: String,
    /// Did the adversary obtain an exploitable faulty output?
    pub exploit_succeeded: bool,
    /// Did the defense's trap fire (deflection only)?
    pub trap_fired: bool,
}

/// Models the §4.1 argument with the real implementations:
///
/// - the **deflection** baseline runs the victim under Minefield-style
///   canary instrumentation ([`plugvolt_attacks::minefield`]). A
///   *non-stepping* adversary's undervolt window covers whole blocks, so
///   the canaries co-fault and the trap withholds the signature. A
///   single/zero-stepping adversary isolates exactly one multiplication
///   inside the window (the SGX-Step + Plundervolt methodology): the
///   canaries execute at safe voltage, no trap fires, and the harvested
///   faulty signature factors the modulus;
/// - the **polling** countermeasure neutralizes the undervolt *before
///   the rail moves*, so there is no fault to isolate — stepping does
///   not help.
///
/// # Errors
///
/// Propagates machine errors.
pub fn stepping_experiment(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
) -> Result<Vec<SteppingRow>, MachineError> {
    use plugvolt_attacks::crypto::rsa::{bellcore_factor, RsaKey};
    use plugvolt_attacks::minefield::{sign_with_deflection, MinefieldConfig};

    let mut rows = Vec::new();
    for &stepping in &[
        SteppingCapability::None,
        SteppingCapability::SingleStep,
        SteppingCapability::ZeroStep,
    ] {
        for defense in ["deflection-traps", "plugvolt-polling"] {
            let mut machine = scn.machine(model);
            let deployment = if defense == "plugvolt-polling" {
                Deployment::PollingModule(PollConfig::default())
            } else {
                Deployment::None
            };
            let _ = deploy(&mut machine, map, deployment)?;
            let mut rng = scn.rng("stepping");
            let key = RsaKey::generate(&mut rng);

            // Adversary: pin fast and write a mid-band undervolt pulse.
            let mut cpupower = plugvolt_kernel::cpupower::CpuPower::new(&machine);
            let fast = machine.cpu().spec().freq_table.max();
            cpupower.frequency_set_all(&mut machine, fast)?;
            machine.advance(SimDuration::from_millis(1));
            let dev = MsrDev::open(&machine, CoreId(0))?;
            let _ = dev.write(
                &mut machine,
                Msr::OC_MAILBOX,
                OcRequest::write_offset(-175, Plane::Core).encode(),
            )?;
            machine.advance(SimDuration::from_millis(2));

            let mut exploit = false;
            let mut trap_fired = false;
            for i in 0..40u64 {
                let msg = (1_000 + i) % key.n;
                if stepping.defeats_trap_deflection() {
                    // Instruction isolation: exactly one multiplication of
                    // the CRT executes inside the pulse; everything else —
                    // including every canary — runs at restored voltage.
                    let mut count = 0u32;
                    let target = 40 + (i as u32 % 24); // somewhere in the q-half
                    let mut failure = false;
                    let now = machine.now();
                    let sig = {
                        let cpu = machine.cpu_mut();
                        let mut mul = |a: u64, b: u64| {
                            count += 1;
                            if count == target {
                                match cpu.execute_imul(now, CoreId(0), a, b) {
                                    Ok(ex) => ex.value,
                                    Err(_) => {
                                        failure = true;
                                        a.wrapping_mul(b)
                                    }
                                }
                            } else {
                                a.wrapping_mul(b)
                            }
                        };
                        key.sign_crt(msg, &mut mul)
                    };
                    if failure {
                        let now = machine.now();
                        machine.cpu_mut().reset(now);
                        cpupower.frequency_set_all(&mut machine, fast)?;
                        continue;
                    }
                    machine.advance(SimDuration::from_micros(50));
                    if !key.verify(msg, sig) && bellcore_factor(key.n, key.e, msg, sig).is_some() {
                        exploit = true;
                        break;
                    }
                } else {
                    // No isolation: the whole instrumented computation runs
                    // under the parked conditions.
                    let out = match sign_with_deflection(
                        &mut machine,
                        CoreId(0),
                        &key,
                        msg,
                        &MinefieldConfig::default(),
                    ) {
                        Ok(out) => out,
                        Err(e) if plugvolt_attacks::campaign::is_crash(&e) => {
                            let now = machine.now();
                            machine.cpu_mut().reset(now);
                            cpupower.frequency_set_all(&mut machine, fast)?;
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    trap_fired |= out.trapped;
                    let observed = if defense == "deflection-traps" {
                        out.adversary_view(stepping)
                    } else {
                        Some(out.signature)
                    };
                    if let Some(sig) = observed {
                        if !key.verify(msg, sig)
                            && bellcore_factor(key.n, key.e, msg, sig).is_some()
                        {
                            exploit = true;
                            break;
                        }
                    }
                    machine.advance(SimDuration::from_micros(50));
                }
            }
            rows.push(SteppingRow {
                defense: defense.to_owned(),
                stepping: format!("{stepping:?}"),
                exploit_succeeded: exploit,
                trap_fired,
            });
        }
    }
    Ok(rows)
}

/// The attestation story (§4.1): what each verifier policy accepts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttestationRow {
    /// Machine configuration.
    pub config: String,
    /// Accepted by the paper's verifier (module attested)?
    pub plugvolt_ok: bool,
    /// Accepted by Intel's CVE-2019-11157 verifier (OCM disabled)?
    pub intel_ok: bool,
    /// Benign DVFS available in this configuration?
    pub benign_dvfs: bool,
}

/// Compares the attestation policies across machine configurations.
///
/// # Errors
///
/// Propagates machine errors.
pub fn attestation_matrix(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
) -> Result<Vec<AttestationRow>, MachineError> {
    let mut rows = Vec::new();
    for (config, deployment) in [
        ("undefended", Deployment::None),
        ("ocm-disabled (Intel fix)", Deployment::OcmDisable),
        (
            "polling module (paper)",
            Deployment::PollingModule(PollConfig::default()),
        ),
    ] {
        let mut machine = scn.machine(model);
        let _ = deploy(&mut machine, map, deployment.clone())?;
        let report = AttestationReport::collect(&machine);
        let benign = benign_dvfs_works(&mut scn.machine(model), map, &deployment)?;
        rows.push(AttestationRow {
            config: config.to_owned(),
            plugvolt_ok: report.acceptable_to_plugvolt_verifier(MODULE_NAME),
            intel_ok: report.acceptable_to_intel_verifier(),
            benign_dvfs: benign,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::quick_map;

    #[test]
    fn fig1_series_shows_the_three_regions() {
        let series = fig1_series(CpuModel::SkyLake, FreqMhz(3_600), 300);
        assert!(series.iter().any(|p| p.state == StateClass::Safe));
        assert!(series.iter().any(|p| p.state == StateClass::Unsafe));
        assert!(series.iter().any(|p| p.state == StateClass::Crash));
        // Path stretches monotonically as we undervolt.
        for w in series.windows(2) {
            assert!(w[1].path_ps >= w[0].path_ps);
            assert!(w[1].slack_ps <= w[0].slack_ps);
        }
    }

    #[test]
    fn quick_map_covers_the_table() {
        let map = quick_map(CpuModel::CometLake);
        let spec = CpuModel::CometLake.spec();
        assert_eq!(map.len(), spec.freq_table.len());
        assert!(map.maximal_safe_offset_mv(0).is_some());
    }

    #[test]
    fn interval_sweep_tradeoff_holds() {
        let map = quick_map(CpuModel::CometLake);
        let rows = interval_sweep(&Scenario::new(), CpuModel::CometLake, &map, 2).unwrap();
        assert_eq!(rows.len(), 9);
        // Overhead decreases as the period grows.
        for w in rows.windows(2) {
            assert!(w[1].overhead_pct <= w[0].overhead_pct + 0.02, "{w:?}");
        }
        // Short periods keep the rail pinned; very long ones do not.
        assert!(!rows.first().unwrap().rail_moved);
        assert!(rows.last().unwrap().rail_moved);
    }

    #[test]
    fn unit_study_varies_and_generation_map_protects() {
        let study = unit_variation_study(&Scenario::new(), CpuModel::CometLake, 4).unwrap();
        assert_eq!(study.rows.len(), 4);
        let mss: Vec<i32> = study.rows.iter().map(|r| r.own_mss_mv).collect();
        assert!(
            mss.iter().any(|&m| m != mss[0]),
            "units should differ: {mss:?}"
        );
        assert!(study.generation_map_protects_all);
        assert_eq!(
            study.generation_mss_mv,
            *mss.iter().max().unwrap(),
            "generation bound is the shallowest unit"
        );
    }

    #[test]
    fn energy_ablation_shows_double_digit_savings() {
        let map = quick_map(CpuModel::CometLake);
        let rows = energy_ablation(&Scenario::new(), CpuModel::CometLake, &map).unwrap();
        assert_eq!(rows.len(), 2);
        assert!((10.0..25.0).contains(&rows[0].avg_power_w), "{rows:?}");
        assert_eq!(rows[0].savings_pct, 0.0);
        assert!(
            (10.0..40.0).contains(&rows[1].savings_pct),
            "savings {}",
            rows[1].savings_pct
        );
    }

    #[test]
    fn attestation_matrix_tells_the_papers_story() {
        let map = quick_map(CpuModel::CometLake);
        let rows = attestation_matrix(&Scenario::new(), CpuModel::CometLake, &map).unwrap();
        let by = |c: &str| rows.iter().find(|r| r.config.contains(c)).unwrap().clone();
        let undefended = by("undefended");
        assert!(!undefended.plugvolt_ok && !undefended.intel_ok);
        let intel = by("ocm-disabled");
        assert!(intel.intel_ok && !intel.benign_dvfs);
        let paper = by("polling");
        assert!(paper.plugvolt_ok && paper.benign_dvfs && !paper.intel_ok);
    }
}
