//! The Table 2 harness: polling-countermeasure overhead on the suite.
//!
//! For every benchmark the harness measures base and peak rates on a
//! clean machine and on an identical machine with the polling module
//! loaded, and reports the per-benchmark slowdown plus the suite mean —
//! the paper's headline 0.28 % figure.
//!
//! Sign convention: `slowdown_pct = (rate_without − rate_with) /
//! rate_without × 100`, i.e. **positive = the module costs
//! performance**. (The paper prints the same quantity with a leading
//! minus sign; magnitudes are comparable.)

use crate::rate::{run_rate, RateScore};
use crate::suite::{Benchmark, Tuning, SUITE};
use plugvolt::characterize::analytic_map;
use plugvolt::charmap::CharacterizationMap;
use plugvolt::poll::{PollConfig, PollingModule};
use plugvolt_cpu::model::CpuModel;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_telemetry::Sink;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Harness configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverheadConfig {
    /// CPU model to run on (the paper uses Comet Lake).
    pub model: CpuModel,
    /// Run seed.
    pub seed: u64,
    /// Polling configuration under test.
    pub poll: PollConfig,
    /// Work divisor (1 = full reference runs; tests use 100+).
    pub work_divisor: u64,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        OverheadConfig {
            model: CpuModel::CometLake,
            seed: 2024,
            poll: PollConfig::default(),
            work_divisor: 1,
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Base rate without polling.
    pub base_without: f64,
    /// Base rate with polling.
    pub base_with: f64,
    /// Base slowdown in percent (positive = module costs performance).
    pub base_slowdown_pct: f64,
    /// Peak rate without polling.
    pub peak_without: f64,
    /// Peak rate with polling.
    pub peak_with: f64,
    /// Peak slowdown in percent.
    pub peak_slowdown_pct: f64,
}

/// The full Table 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Per-benchmark rows.
    pub rows: Vec<Table2Row>,
    /// Mean base slowdown (percent).
    pub mean_base_slowdown_pct: f64,
    /// Mean peak slowdown (percent).
    pub mean_peak_slowdown_pct: f64,
    /// Mean of |slowdown| across base and peak — the paper's "0.28 %".
    pub mean_abs_slowdown_pct: f64,
}

fn slowdown_pct(without: f64, with: f64) -> f64 {
    (without - with) / without * 100.0
}

fn scaled(bench: &Benchmark, divisor: u64) -> Benchmark {
    Benchmark {
        instructions: (bench.instructions / divisor.max(1)).max(1_000_000),
        ..*bench
    }
}

/// Measures one benchmark's four rates (base/peak × without/with).
///
/// # Errors
///
/// Propagates machine errors.
pub fn measure_benchmark(
    bench: &Benchmark,
    cfg: &OverheadConfig,
    map: &Arc<CharacterizationMap>,
) -> Result<Table2Row, MachineError> {
    measure_benchmark_with(bench, cfg, map, None)
}

/// [`measure_benchmark`] with an optional telemetry sink shared by the
/// four machines it boots (base/peak × without/with polling).
///
/// # Errors
///
/// Propagates machine errors.
pub fn measure_benchmark_with(
    bench: &Benchmark,
    cfg: &OverheadConfig,
    map: &Arc<CharacterizationMap>,
    telemetry: Option<&Sink>,
) -> Result<Table2Row, MachineError> {
    let b = scaled(bench, cfg.work_divisor);
    let rates = |with_polling: bool, tuning: Tuning| -> Result<RateScore, MachineError> {
        // Each of the four measurements is an independent "run" with its
        // own measurement noise, like four separate SPEC invocations.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in bench.name.bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        h ^= u64::from(with_polling) << 1 | u64::from(tuning == Tuning::Peak);
        // workloads sits below bench in the dependency graph, so the
        // Scenario layer is out of reach here; the caller supplies the
        // root seed and this FNV mix plays the role of a labelled
        // derivation (one stream per benchmark × configuration).
        // plugvolt-lint: allow(machine-construction-discipline)
        let mut machine = Machine::new(cfg.model, cfg.seed ^ h);
        if let Some(sink) = telemetry {
            machine.set_telemetry(sink.clone());
        }
        if with_polling {
            let (module, _stats) = PollingModule::new(Arc::clone(map), cfg.poll.clone());
            machine.load_module(Box::new(module))?;
        }
        let score = run_rate(&mut machine, &b, tuning);
        if telemetry.is_some() {
            machine.publish_telemetry();
        }
        score
    };
    let base_without = rates(false, Tuning::Base)?.score;
    let base_with = rates(true, Tuning::Base)?.score;
    let peak_without = rates(false, Tuning::Peak)?.score;
    let peak_with = rates(true, Tuning::Peak)?.score;
    Ok(Table2Row {
        name: bench.name.to_owned(),
        base_without,
        base_with,
        base_slowdown_pct: slowdown_pct(base_without, base_with),
        peak_without,
        peak_with,
        peak_slowdown_pct: slowdown_pct(peak_without, peak_with),
    })
}

/// Runs the whole Table 2 reproduction.
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_table2(cfg: &OverheadConfig) -> Result<Table2, MachineError> {
    run_table2_with(cfg, None)
}

/// [`run_table2`] with an optional telemetry sink shared across the
/// whole suite (every machine of every benchmark records into it).
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_table2_with(
    cfg: &OverheadConfig,
    telemetry: Option<&Sink>,
) -> Result<Table2, MachineError> {
    let map = Arc::new(analytic_map(&cfg.model.spec()));
    let mut rows = Vec::with_capacity(SUITE.len());
    for bench in &SUITE {
        rows.push(measure_benchmark_with(bench, cfg, &map, telemetry)?);
    }
    let n = rows.len() as f64;
    let mean_base = rows.iter().map(|r| r.base_slowdown_pct).sum::<f64>() / n;
    let mean_peak = rows.iter().map(|r| r.peak_slowdown_pct).sum::<f64>() / n;
    let mean_abs = rows
        .iter()
        .flat_map(|r| [r.base_slowdown_pct, r.peak_slowdown_pct])
        .map(f64::abs)
        .sum::<f64>()
        / (2.0 * n);
    Ok(Table2 {
        rows,
        mean_base_slowdown_pct: mean_base,
        mean_peak_slowdown_pct: mean_peak,
        mean_abs_slowdown_pct: mean_abs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::find;

    fn cfg() -> OverheadConfig {
        OverheadConfig {
            work_divisor: 200,
            ..OverheadConfig::default()
        }
    }

    #[test]
    fn single_benchmark_overhead_is_small_and_real() {
        let c = cfg();
        let map = Arc::new(analytic_map(&c.model.spec()));
        let row = measure_benchmark(find("bwaves").unwrap(), &c, &map).unwrap();
        // Rates are in the anchor's neighbourhood.
        assert!((row.base_without - 628.59).abs() / 628.59 < 0.01);
        // Slowdown within noise ± real overhead: |x| < 1.5 %.
        assert!(row.base_slowdown_pct.abs() < 1.5, "{row:?}");
        assert!(row.peak_slowdown_pct.abs() < 1.5, "{row:?}");
    }

    #[test]
    fn polling_costs_rate_on_average() {
        // Individual rows jitter, but the suite mean must be positive
        // (the module really steals cycles) and well under 1 %.
        let table = run_table2(&cfg()).unwrap();
        assert_eq!(table.rows.len(), 23);
        assert!(
            table.mean_base_slowdown_pct > 0.0,
            "mean base {}",
            table.mean_base_slowdown_pct
        );
        assert!(
            table.mean_base_slowdown_pct < 1.0,
            "mean base {}",
            table.mean_base_slowdown_pct
        );
        // The paper's headline: ≈ 0.28 %. Accept the right regime.
        assert!(
            (0.05..0.8).contains(&table.mean_abs_slowdown_pct),
            "mean abs {}",
            table.mean_abs_slowdown_pct
        );
    }

    #[test]
    fn slowdown_sign_convention() {
        assert!(slowdown_pct(100.0, 99.0) > 0.0);
        assert!(slowdown_pct(100.0, 101.0) < 0.0);
    }
}
