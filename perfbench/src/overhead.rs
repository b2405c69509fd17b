//! `overhead`: the S2 polling module's cost on the SPEC-like suite
//! (Table 2, the paper's 0.28 %).
//!
//! One op is `measure_benchmark` for one suite row (four rate runs, two
//! of them with the polling module loaded), cycling through all 23
//! rows; the 23 ops of one seed group form one suite pass. Almost all
//! host time goes to poll ticks, with no offset writes.
//!
//! The traced run rebuilds `measure_benchmark` and `run_rate` from
//! public calls (boots through `Scenario::with_seed(s).machine(model)`,
//! which reproduces the library's `Machine::new(model, s)`) and asserts
//! the library's row.

use crate::tracer::{Count, Label, Tracer};
use crate::{note_machine, same, stats, timed, warm_model, Finish, TracedOp, Workload};
use plugvolt::charmap::CharacterizationMap;
use plugvolt::poll::PollingModule;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_telemetry::Sink;
use plugvolt_workloads::overhead::{measure_benchmark_with, run_table2, OverheadConfig, Table2Row};
use plugvolt_workloads::rate::{reference_time, JITTER};
use plugvolt_workloads::suite::{Benchmark, Tuning, SUITE};
use std::sync::Arc;

/// The paper's Table 2 mean |slowdown|, percent.
pub const PAPER_MEAN_ABS_SLOWDOWN_PCT: f64 = 0.28;

/// The overhead workload.
#[derive(Debug, Clone)]
pub struct Overhead {
    model: CpuModel,
    work_divisor: u64,
    map: Option<Arc<CharacterizationMap>>,
    /// Per suite pass: rows seen, Σ base slowdown, Σ |slowdown| (base
    /// and peak).
    passes: Vec<(u64, f64, f64)>,
    first_pass: Vec<Table2Row>,
}

impl Default for Overhead {
    fn default() -> Self {
        Overhead::new(1)
    }
}

/// One overhead op's output.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadOut {
    /// The Table 2 row.
    pub row: Table2Row,
    /// Faulted instructions across the four rate runs.
    pub faults: u64,
}

impl Overhead {
    /// An overhead workload at a work divisor (1 = reference-length
    /// rate runs, as the paper; tests shrink the work).
    #[must_use]
    pub fn new(work_divisor: u64) -> Self {
        Overhead {
            model: CpuModel::CometLake,
            work_divisor,
            map: None,
            passes: Vec::new(),
            first_pass: Vec::new(),
        }
    }

    fn config(&self, seed: u64) -> OverheadConfig {
        OverheadConfig {
            model: self.model,
            seed,
            work_divisor: self.work_divisor,
            ..OverheadConfig::default()
        }
    }

    fn map(&self) -> Arc<CharacterizationMap> {
        self.map
            .clone()
            .unwrap_or_else(|| Scenario::new().quick_map(self.model))
    }
}

fn bench_of(i: u64) -> &'static Benchmark {
    &SUITE[(i % SUITE.len() as u64) as usize]
}

fn slowdown_pct(without: f64, with: f64) -> f64 {
    (without - with) / without * 100.0
}

impl Workload for Overhead {
    type Output = OverheadOut;
    const NAME: &'static str = "overhead";
    const CYCLE: u64 = SUITE.len() as u64;
    const GROUPS: u64 = 4;

    fn setup(&mut self, tr: &mut Tracer) {
        warm_model(self.model, true, tr);
        self.map = Some(Scenario::new().quick_map(self.model));
    }

    fn op(&mut self, i: u64, seed: u64) -> Result<OverheadOut, String> {
        let map = self.map();
        let sink = Sink::new();
        let row = measure_benchmark_with(bench_of(i), &self.config(seed), &map, Some(&sink))
            .map_err(|e| e.to_string())?;
        let faults = sink.with(|reg| {
            reg.counters()
                .filter(|(k, _)| k.component == "cpu" && k.name == "faults")
                .map(|(_, v)| v)
                .sum()
        });
        Ok(OverheadOut { row, faults })
    }

    fn check(&mut self, i: u64, _seed: u64, out: &OverheadOut) -> Result<(), String> {
        let pass = (i / Self::CYCLE) as usize;
        if self.passes.len() <= pass {
            self.passes.resize(pass + 1, (0, 0.0, 0.0));
        }
        let r = &out.row;
        let p = &mut self.passes[pass];
        p.0 += 1;
        p.1 += r.base_slowdown_pct;
        p.2 += (r.base_slowdown_pct.abs() + r.peak_slowdown_pct.abs()) / 2.0;
        if pass == 0 {
            self.first_pass.push(r.clone());
        }
        if out.faults != 0 {
            return Err(format!(
                "{}: {} faults in the rate runs",
                r.name, out.faults
            ));
        }
        let rates = [r.base_without, r.base_with, r.peak_without, r.peak_with];
        if rates.iter().any(|x| !x.is_finite() || *x <= 0.0) {
            return Err(format!("{}: non-positive rate {rates:?}", r.name));
        }
        Ok(())
    }

    fn digest_text(out: &OverheadOut) -> String {
        serde_json::to_string(&out.row).unwrap_or_default()
    }

    fn traced_op(&mut self, i: u64, seed: u64, tr: &mut Tracer) -> Result<TracedOp, String> {
        let (lib, untraced_ns) = timed(|| self.op(i, seed));
        let lib = lib?;
        let cfg = self.config(seed);
        let map = self.map();
        let (rebuilt, traced_ns) = timed(|| rebuilt_measure_benchmark(bench_of(i), &cfg, &map, tr));
        let rebuilt = rebuilt.map_err(|e| e.to_string())?;
        same("Table 2 row", &lib, &rebuilt)?;
        self.check(i, seed, &rebuilt)?;
        Ok(TracedOp {
            untraced_ns,
            traced_ns,
        })
    }

    fn finish(&mut self, first_seed: u64, _ops: u64) -> Finish {
        let mut f = Finish::default();
        let mut errs = Vec::new();
        for (p, &(n, base, abs)) in self.passes.iter().enumerate() {
            if n < Self::CYCLE {
                continue;
            }
            let mean_base = base / n as f64;
            let mean_abs = abs / n as f64;
            errs.push((mean_abs - PAPER_MEAN_ABS_SLOWDOWN_PCT).abs());
            if !(mean_base > 0.0 && mean_base < 1.0 && (0.05..0.8).contains(&mean_abs)) {
                f.failed_ops += n;
                f.errors.push(format!(
                    "suite pass {p}: mean base slowdown {mean_base:.4} %, mean |slowdown| \
                     {mean_abs:.4} % outside the crate's asserted bounds"
                ));
            }
        }
        let passes = errs.len();
        f.notes.push(format!(
            "paper_err_pp {:.6} pp (median over {passes} suite passes of |mean |slowdown| - 0.28 %|)",
            stats::median_f64(&mut errs)
        ));
        if passes > 0 {
            match run_table2(&self.config(first_seed)) {
                Ok(table) if table.rows == self.first_pass => f
                    .notes
                    .push("first suite pass equals run_table2 for its seed".into()),
                Ok(_) => f
                    .errors
                    .push("first suite pass differs from run_table2 for its seed".into()),
                Err(e) => f.errors.push(format!("run_table2: {e}")),
            }
        }
        f
    }
}

/// FNV-1a of a benchmark name with the configuration bits mixed in:
/// the per-run seed salt `measure_benchmark` uses.
fn run_salt(name: &str, with_polling: bool, tuning: Tuning) -> u64 {
    let mut h = stats::fnv1a(stats::FNV_BASIS, name.as_bytes());
    h ^= u64::from(with_polling) << 1 | u64::from(tuning == Tuning::Peak);
    h
}

/// `measure_benchmark(bench, cfg, map)` rebuilt from public calls.
///
/// # Errors
///
/// Machine errors.
pub fn rebuilt_measure_benchmark(
    bench: &Benchmark,
    cfg: &OverheadConfig,
    map: &CharacterizationMap,
    tr: &mut Tracer,
) -> Result<OverheadOut, MachineError> {
    let b = Benchmark {
        instructions: (bench.instructions / cfg.work_divisor.max(1)).max(1_000_000),
        ..*bench
    };
    let mut faults = 0u64;
    let mut rate = |with_polling: bool, tuning: Tuning| -> Result<f64, MachineError> {
        let seed = cfg.seed ^ run_salt(bench.name, with_polling, tuning);
        let mut machine = tr.span(Label::BenchMachineFor, |_| {
            Scenario::with_seed(seed).machine(cfg.model)
        });
        let mut stats = None;
        if with_polling {
            let (module, handle) = tr.span(Label::CorePollingModuleNew, |_| {
                PollingModule::new(map.clone(), cfg.poll.clone())
            });
            tr.span(Label::KernelLoadModule, |_| {
                machine.load_module(Box::new(module))
            })?;
            stats = Some(handle);
        }
        let (score, run_faults) = rebuilt_run_rate(&mut machine, &b, tuning, with_polling, tr)?;
        faults += run_faults;
        if let Some(handle) = stats {
            let s = handle.borrow();
            tr.add(Count::PollTicks, s.ticks);
            tr.add(Count::PollObservations, s.observations);
            tr.add(Count::PollDetections, s.detections);
            tr.add(Count::PollRestores, s.restores);
        }
        note_machine(&machine, tr);
        Ok(score)
    };
    let base_without = rate(false, Tuning::Base)?;
    let base_with = rate(true, Tuning::Base)?;
    let peak_without = rate(false, Tuning::Peak)?;
    let peak_with = rate(true, Tuning::Peak)?;
    Ok(OverheadOut {
        row: Table2Row {
            name: bench.name.to_owned(),
            base_without,
            base_with,
            base_slowdown_pct: slowdown_pct(base_without, base_with),
            peak_without,
            peak_with,
            peak_slowdown_pct: slowdown_pct(peak_without, peak_with),
        },
        faults,
    })
}

/// `run_rate` rebuilt from public calls: one copy per core, each copy
/// the benchmark's instruction mix through `Machine::run_workload`.
fn rebuilt_run_rate(
    machine: &mut Machine,
    bench: &Benchmark,
    tuning: Tuning,
    polled: bool,
    tr: &mut Tracer,
) -> Result<(f64, u64), MachineError> {
    let label = if polled {
        Label::KernelRunWorkloadPolled
    } else {
        Label::KernelRunWorkloadUnpolled
    };
    let copies = machine.cpu().core_count();
    let freq = machine.cpu().core_freq(CoreId(0))?;
    let total = bench.instructions_for(tuning);
    let weight_sum: u64 = bench.mix.iter().map(|&(_, w)| u64::from(w)).sum();
    let mut worst = SimDuration::ZERO;
    let mut faults = 0u64;
    for c in 0..copies {
        let core = CoreId(c);
        let mut copy_wall = SimDuration::ZERO;
        for &(class, w) in bench.mix {
            let n = total * u64::from(w) / weight_sum;
            let run = tr.span(label, |_| machine.run_workload(core, class, n))?;
            copy_wall += run.wall;
            faults += run.faults;
        }
        worst = worst.max(copy_wall);
    }
    let jitter = 1.0 + JITTER * (2.0 * machine.rng().next_f64() - 1.0);
    let ref_time = reference_time(bench, tuning, freq, copies);
    Ok((
        copies as f64 * ref_time / worst.as_secs_f64() * jitter,
        faults,
    ))
}
