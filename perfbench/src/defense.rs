//! `defense`: the 5-deployment × 6-attack matrix (§4.3/§5: no attack
//! survives polling, microcode or the MSR clamp).
//!
//! Every matrix cell is composed from public calls: boot, deploy,
//! `run_*_attack`, then the benign-DVFS check. This is the only
//! workload that reaches the named attacks and their crypto victims.
//!
//! One op is one row of the matrix, the six cells of one of the paper's
//! three deployments (polling module, microcode, MSR clamp), cycling
//! the three rows; one seed group is one pass over them. A row, not a
//! cell, is the op because the cells split into six that take about
//! 10 ms and nine well under 1 ms: a median over cells would sit on the
//! edge between the two clusters and jump with the run's op count.
//!
//! The two baseline deployments (none, OCM disable) are left out of the
//! timed loop: on about 1 seed in 280 the undefended RSA-CRT campaign
//! crashes the machine at an offset it then retries forever. Once per
//! run, outside the timed window, all 30 composed cells are checked
//! against `experiments::defense_matrix(.., 1)` at the workspace's
//! pinned seed, whose matrix terminates.

use crate::tracer::{Label, Tracer};
use crate::{note_machine, same, timed, warm_model, Finish, TracedOp, Workload};
use plugvolt::charmap::CharacterizationMap;
use plugvolt::deploy::{deploy, Deployment};
use plugvolt::poll::PollConfig;
use plugvolt_attacks::cacheplane::{run_cache_plane_attack, CachePlaneConfig};
use plugvolt_attacks::campaign::AttackReport;
use plugvolt_attacks::clkscrew::{run_clkscrew_attack, ClkscrewConfig};
use plugvolt_attacks::plundervolt::{run_aes_attack, run_rsa_attack, PlundervoltConfig};
use plugvolt_attacks::v0ltpwn::{run_v0ltpwn_attack, V0ltpwnConfig};
use plugvolt_attacks::voltjockey::{run_voltjockey_attack, VoltJockeyConfig};
use plugvolt_bench::experiments::{all_deployments, defense_matrix, DefenseCell};
use plugvolt_bench::scenario::{Scenario, SEED};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use std::sync::Arc;

/// Attack campaigns per deployment.
pub const ATTACKS: usize = 6;

/// The defense workload.
#[derive(Debug, Clone)]
pub struct Defense {
    model: CpuModel,
    map: Option<Arc<CharacterizationMap>>,
    /// Matrix rows of the paper's deployments, in matrix order.
    defended: Vec<usize>,
}

impl Default for Defense {
    fn default() -> Self {
        let defended = all_deployments()
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                matches!(
                    d,
                    Deployment::PollingModule(_)
                        | Deployment::Microcode { .. }
                        | Deployment::HardwareMsr { .. }
                )
            })
            .map(|(row, _)| row)
            .collect();
        Defense {
            model: CpuModel::CometLake,
            map: None,
            defended,
        }
    }
}

impl Defense {
    fn map(&self) -> Arc<CharacterizationMap> {
        self.map
            .clone()
            .unwrap_or_else(|| Scenario::new().quick_map(self.model))
    }

    /// The matrix row op `i` runs.
    fn row_of(&self, i: u64) -> usize {
        self.defended[(i % self.defended.len() as u64) as usize]
    }
}

/// Composes the six cells of matrix row `row`.
///
/// # Errors
///
/// Machine errors.
pub fn compose_row(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    row: usize,
    tr: &mut Tracer,
) -> Result<Vec<DefenseCell>, MachineError> {
    (row * ATTACKS..(row + 1) * ATTACKS)
        .map(|cell| compose_cell(scn, model, map, cell, tr))
        .collect()
}

/// The seed label the defense matrix boots attack `idx`'s machine from.
fn attack_label(idx: usize) -> String {
    format!("defense-matrix/attack{idx}")
}

/// Composes matrix cell `cell` from public calls, with spans around the
/// layer calls (a disabled tracer makes this the untraced op).
///
/// # Errors
///
/// Machine errors.
pub fn compose_cell(
    scn: &Scenario,
    model: CpuModel,
    map: &CharacterizationMap,
    cell: usize,
    tr: &mut Tracer,
) -> Result<DefenseCell, MachineError> {
    let deployments = all_deployments();
    let attack_idx = cell % ATTACKS;
    let mut machine = tr.span(Label::BenchMachineFor, |_| {
        scn.machine_for(model, &attack_label(attack_idx))
    });
    let deployment = match (&deployments[cell / ATTACKS], attack_idx) {
        // The cache-plane attack needs the plane-aware poller.
        (Deployment::PollingModule(cfg), 5) => Deployment::PollingModule(PollConfig {
            planes: vec![Plane::Core, Plane::Cache],
            ..cfg.clone()
        }),
        (d, _) => d.clone(),
    };
    let deployed = tr.span(Label::CoreDeploy, |_| {
        deploy(&mut machine, map, deployment.clone())
    })?;
    let m = &mut machine;
    let report: AttackReport = match attack_idx {
        0 => tr.span(Label::AttacksRsa, |_| {
            run_rsa_attack(m, &PlundervoltConfig::default(), 1)
        })?,
        1 => {
            let cfg = PlundervoltConfig {
                victims_per_step: 300,
                ..PlundervoltConfig::default()
            };
            tr.span(Label::AttacksAes, |_| run_aes_attack(m, &cfg, 2))?
        }
        2 => tr.span(Label::AttacksVoltjockey, |_| {
            run_voltjockey_attack(m, &VoltJockeyConfig::default(), 3)
        })?,
        3 => {
            tr.span(Label::AttacksV0ltpwn, |_| {
                run_v0ltpwn_attack(m, &V0ltpwnConfig::default())
            })?
            .report
        }
        4 => {
            let cfg = ClkscrewConfig {
                benign_offset_mv: -170,
                ..ClkscrewConfig::default()
            };
            tr.span(Label::AttacksClkscrew, |_| run_clkscrew_attack(m, &cfg))?
        }
        _ => tr.span(Label::AttacksCacheplane, |_| {
            run_cache_plane_attack(m, &CachePlaneConfig::default())
        })?,
    };
    let detections = deployed
        .poll_stats
        .as_ref()
        .map_or(0, |s| s.borrow().detections);
    note_machine(&machine, tr);
    let benign = tr.span(Label::BenchBenignCheck, |tr| {
        let mut fresh = tr.span(Label::BenchMachineFor, |_| scn.machine(model));
        benign_dvfs_works(&mut fresh, map, &deployment, tr)
    })?;
    Ok(DefenseCell {
        deployment: deployment.label().to_owned(),
        attack: report.attack.clone(),
        success: report.success,
        faulty_events: report.faulty_events,
        detections,
        benign_dvfs_preserved: benign,
    })
}

/// Whether a benign −40 mV power-saving undervolt lands and holds for
/// 5 ms under the deployment.
fn benign_dvfs_works(
    machine: &mut Machine,
    map: &CharacterizationMap,
    deployment: &Deployment,
    tr: &mut Tracer,
) -> Result<bool, MachineError> {
    tr.span(Label::CoreDeploy, |_| {
        deploy(machine, map, deployment.clone())
    })?;
    let dev = MsrDev::open(machine, CoreId(0))?;
    let req = OcRequest::write_offset(-40, Plane::Core).encode();
    tr.span(Label::KernelMsrDevWrite, |_| {
        dev.write(machine, Msr::OC_MAILBOX, req)
    })?;
    tr.span(Label::KernelAdvanceTo, |_| {
        machine.advance(SimDuration::from_millis(5));
    });
    Ok(machine.cpu().core_offset_mv() <= -35)
}

impl Workload for Defense {
    type Output = Vec<DefenseCell>;
    const NAME: &'static str = "defense";
    const CYCLE: u64 = 3;
    const GROUPS: u64 = 8;

    fn setup(&mut self, tr: &mut Tracer) {
        warm_model(self.model, true, tr);
        self.map = Some(Scenario::new().quick_map(self.model));
    }

    fn op(&mut self, i: u64, seed: u64) -> Result<Vec<DefenseCell>, String> {
        compose_row(
            &Scenario::with_seed(seed),
            self.model,
            &self.map(),
            self.row_of(i),
            &mut Tracer::new(false),
        )
        .map_err(|e| e.to_string())
    }

    fn check(&mut self, _i: u64, _seed: u64, out: &Vec<DefenseCell>) -> Result<(), String> {
        for cell in out {
            let clamped = matches!(cell.deployment.as_str(), "microcode" | "hardware-msr");
            if cell.success {
                return Err(format!(
                    "{} succeeded under {}",
                    cell.attack, cell.deployment
                ));
            }
            if clamped && cell.faulty_events != 0 {
                return Err(format!(
                    "{} saw {} faulty events under {}",
                    cell.attack, cell.faulty_events, cell.deployment
                ));
            }
            if !cell.benign_dvfs_preserved {
                return Err(format!("benign DVFS lost under {}", cell.deployment));
            }
        }
        Ok(())
    }

    fn digest_text(out: &Vec<DefenseCell>) -> String {
        serde_json::to_string(out).unwrap_or_default()
    }

    fn traced_op(&mut self, i: u64, seed: u64, tr: &mut Tracer) -> Result<TracedOp, String> {
        let (lib, untraced_ns) = timed(|| self.op(i, seed));
        let lib = lib?;
        let scn = Scenario::with_seed(seed);
        let map = self.map();
        let row = self.row_of(i);
        let (rebuilt, traced_ns) = timed(|| compose_row(&scn, self.model, &map, row, tr));
        let rebuilt = rebuilt.map_err(|e| e.to_string())?;
        same("defense row", &lib, &rebuilt)?;
        self.check(i, seed, &rebuilt)?;
        Ok(TracedOp {
            untraced_ns,
            traced_ns,
        })
    }

    fn finish(&mut self, _first_seed: u64, _ops: u64) -> Finish {
        let mut f = Finish::default();
        let scn = Scenario::with_seed(SEED);
        let map = self.map();
        let composed: Result<Vec<DefenseCell>, MachineError> = (0..all_deployments().len()
            * ATTACKS)
            .map(|c| compose_cell(&scn, self.model, &map, c, &mut Tracer::new(false)))
            .collect();
        match (composed, defense_matrix(&scn, self.model, &map, 1)) {
            (Ok(mine), Ok(lib)) if mine == lib => f
                .notes
                .push("all 30 composed cells equal defense_matrix at the pinned seed".into()),
            (Ok(mine), Ok(lib)) => f.errors.push(
                same("defense matrix", &lib, &mine)
                    .err()
                    .unwrap_or_default(),
            ),
            (Err(e), _) | (_, Err(e)) => f.errors.push(format!("defense matrix: {e}")),
        }
        f
    }
}
