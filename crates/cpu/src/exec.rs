//! The execution engine: instruction classes and their datapath timing.
//!
//! Different x86 instructions stress different path depths; prior work
//! found `imul` the most faultable (deepest repeatedly-exercised path),
//! which is why the paper's EXECUTE thread uses it. Workloads are
//! described as mixes over these classes; each class scales the
//! multiplier-calibrated path by a depth factor and carries a CPI for
//! time accounting.

use crate::freq::FreqMhz;
use crate::slack::{class_index, SlackTable};
use plugvolt_circuit::delay::{Millivolts, Picoseconds};
use plugvolt_circuit::fault::{sample_binomial, FaultModel};
use plugvolt_circuit::multiplier::{MultiplierUnit, StageDelays};
use plugvolt_circuit::timing::{TimingBudget, TimingState};
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::Arc;

/// Instruction classes the engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrClass {
    /// 64×64 integer multiply — the deepest path, the attack target.
    Imul,
    /// AES round (AES-NI): S-box + MixColumns tree, slightly shallower.
    Aesenc,
    /// Floating-point fused multiply-add.
    Fma,
    /// Simple ALU op (add/sub/logic) — shallow.
    AluAdd,
    /// L1-hit load: address generation + way select.
    Load,
}

impl InstrClass {
    /// All modelled classes.
    pub const ALL: [InstrClass; 5] = [
        InstrClass::Imul,
        InstrClass::Aesenc,
        InstrClass::Fma,
        InstrClass::AluAdd,
        InstrClass::Load,
    ];

    /// Depth of this class's critical path relative to the full-width
    /// multiplier path.
    #[must_use]
    pub fn depth_factor(self) -> f64 {
        match self {
            InstrClass::Imul => 1.0,
            InstrClass::Fma => 0.93,
            InstrClass::Aesenc => 0.82,
            InstrClass::Load => 0.62,
            InstrClass::AluAdd => 0.48,
        }
    }

    /// Average cycles per instruction in a tight loop (throughput CPI).
    #[must_use]
    pub fn cpi(self) -> f64 {
        match self {
            InstrClass::Imul => 1.0,
            InstrClass::Fma => 0.5,
            InstrClass::Aesenc => 1.0,
            InstrClass::Load => 0.5,
            InstrClass::AluAdd => 0.25,
        }
    }
}

/// The supply voltages visible to an instruction: the core-plane rail
/// and the cache-plane rail (Table 1 of the paper documents five planes;
/// these two carry timing-critical logic in this model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rails {
    /// Core-plane voltage, mV.
    pub core_mv: Millivolts,
    /// Cache-plane voltage, mV.
    pub cache_mv: Millivolts,
}

impl Rails {
    /// Both planes at the same voltage (the pre-multi-plane behaviour).
    #[must_use]
    pub fn uniform(v_mv: Millivolts) -> Self {
        Rails {
            core_mv: v_mv,
            cache_mv: v_mv,
        }
    }

    /// The supply that times this instruction class: loads traverse the
    /// cache arrays (cache plane), everything else the core plane.
    #[must_use]
    pub fn for_class(&self, class: InstrClass) -> Millivolts {
        match class {
            InstrClass::Load => self.cache_mv,
            _ => self.core_mv,
        }
    }
}

/// Result of executing a batch of one instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchOutcome {
    /// The batch retired; `faults` instructions produced wrong results.
    Retired {
        /// Count of architecturally incorrect results.
        faults: u64,
    },
    /// The core locked up during the batch.
    Crashed,
}

impl BatchOutcome {
    /// Faults observed, if the batch retired.
    #[must_use]
    pub fn faults(self) -> Option<u64> {
        match self {
            BatchOutcome::Retired { faults } => Some(faults),
            BatchOutcome::Crashed => None,
        }
    }
}

/// The two multiplier paths at one voltage that the instruction classes
/// interpolate between (see [`ExecutionEngine::class_paths`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassPaths {
    full: Picoseconds,
    shallow: Picoseconds,
}

impl ClassPaths {
    /// Critical-path delay of one instruction of `class`.
    pub(crate) fn delay_ps(self, class: InstrClass) -> Picoseconds {
        // The class factor scales the logic depth, not the fixed wire part.
        self.shallow + (self.full - self.shallow) * class.depth_factor()
    }
}

/// The execution engine for one package (shared across cores; the core's
/// frequency and the rail voltage are passed per call).
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    mul: MultiplierUnit,
    fault_model: FaultModel,
    t_setup_ps: f64,
    t_eps_ps: f64,
    /// Precomputed slack table for the batch hot path ([`crate::slack`]);
    /// `None` runs everything analytically.
    table: Option<Arc<SlackTable>>,
    /// Batches answered from the table.
    table_hits: Cell<u64>,
    /// Batches that missed the table (or ran with none attached).
    table_fallbacks: Cell<u64>,
}

impl ExecutionEngine {
    /// Creates an engine over a calibrated multiplier and fault model.
    #[must_use]
    pub fn new(
        mul: MultiplierUnit,
        fault_model: FaultModel,
        t_setup_ps: f64,
        t_eps_ps: f64,
    ) -> Self {
        ExecutionEngine {
            mul,
            fault_model,
            t_setup_ps,
            t_eps_ps,
            table: None,
            table_hits: Cell::new(0),
            table_fallbacks: Cell::new(0),
        }
    }

    /// Attaches (or detaches, with `None`) a precomputed slack table.
    ///
    /// The table is a pure cache: attached or not, every batch outcome
    /// and RNG draw is bit-identical (see [`crate::slack`]).
    pub fn set_slack_table(&mut self, table: Option<Arc<SlackTable>>) {
        self.table = table;
    }

    /// The attached slack table, if any.
    #[must_use]
    pub fn slack_table(&self) -> Option<&Arc<SlackTable>> {
        self.table.as_ref()
    }

    /// How many batches were answered from the slack table so far.
    #[must_use]
    pub fn slack_table_hits(&self) -> u64 {
        self.table_hits.get()
    }

    /// How many batches fell back to the analytic path (off-grid query
    /// or no table attached).
    #[must_use]
    pub fn slack_table_fallbacks(&self) -> u64 {
        self.table_fallbacks.get()
    }

    /// The timing budget at frequency `f`.
    #[must_use]
    pub fn budget(&self, f: FreqMhz) -> TimingBudget {
        TimingBudget::for_frequency_mhz(f.mhz(), self.t_setup_ps, self.t_eps_ps)
    }

    /// The calibrated multiplier unit.
    #[must_use]
    pub fn multiplier(&self) -> &MultiplierUnit {
        &self.mul
    }

    /// The fault model.
    #[must_use]
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// Critical-path delay of one instruction of `class` at voltage `v`.
    #[must_use]
    pub fn class_path_delay_ps(&self, class: InstrClass, v_mv: Millivolts) -> Picoseconds {
        self.class_paths(self.mul.stage_delays(v_mv))
            .delay_ps(class)
    }

    /// The full-width and shallowest multiplier paths with stage delays
    /// `st`, between which every class's critical path lies.
    pub(crate) fn class_paths(&self, st: StageDelays) -> ClassPaths {
        ClassPaths {
            full: self.mul.path_delay_at(u64::MAX, u64::MAX, st),
            shallow: self.mul.path_delay_at(1, 1, st),
        }
    }

    /// Timing slack for `class` at frequency `f` and voltage `v`.
    #[must_use]
    pub fn class_slack_ps(&self, class: InstrClass, f: FreqMhz, v_mv: Millivolts) -> Picoseconds {
        self.budget(f)
            .slack_ps(self.class_path_delay_ps(class, v_mv))
    }

    /// Executes one `imul` with explicit operands, exactly (used by the
    /// crypto victims, where *which* bits flip matters).
    #[must_use]
    pub fn execute_imul(
        &self,
        a: u64,
        b: u64,
        f: FreqMhz,
        v_mv: Millivolts,
        rng: &mut SimRng,
    ) -> plugvolt_circuit::multiplier::MulExecution {
        self.mul
            .execute(a, b, &self.budget(f), v_mv, &self.fault_model, rng)
    }

    /// Runs the paper's EXECUTE-thread loop: `iters` `imul`s with varying
    /// operands, returning the fault count (or a crash).
    #[must_use]
    pub fn run_imul_loop(
        &self,
        iters: u64,
        f: FreqMhz,
        v_mv: Millivolts,
        rng: &mut SimRng,
    ) -> BatchOutcome {
        // Table fast path: same operand-class walk as
        // `MultiplierUnit::run_imul_loop`, with the per-class slack,
        // classification and fault probability read from the grid. Both
        // paths stop at the first crashing class without drawing for it,
        // so the RNG stream stays identical.
        if let Some(entry) = self.table.as_ref().and_then(|t| t.entry(f, v_mv)) {
            self.table_hits.set(self.table_hits.get() + 1);
            let mut faults = 0u64;
            for (i, (fraction, _, _)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                let n = (iters as f64 * fraction).round() as u64;
                let op = entry.imul_ops[i];
                if op.state == TimingState::Crash {
                    return BatchOutcome::Crashed;
                }
                faults += sample_binomial(n, op.fault_p, rng);
            }
            return BatchOutcome::Retired { faults };
        }
        self.table_fallbacks.set(self.table_fallbacks.get() + 1);
        match self
            .mul
            .run_imul_loop(iters, &self.budget(f), v_mv, &self.fault_model, rng)
        {
            plugvolt_circuit::multiplier::LoopOutcome::Completed { faults } => {
                BatchOutcome::Retired { faults }
            }
            plugvolt_circuit::multiplier::LoopOutcome::Crashed { .. } => BatchOutcome::Crashed,
        }
    }

    /// Runs a batch of `iters` instructions of `class`, sampling faults in
    /// O(faults) time. The class picks its timing rail from `rails`.
    #[must_use]
    pub fn run_batch_on_rails(
        &self,
        class: InstrClass,
        iters: u64,
        f: FreqMhz,
        rails: Rails,
        rng: &mut SimRng,
    ) -> BatchOutcome {
        let v_mv = rails.for_class(class);
        // Table fast path: the cached entry stores this exact voltage's
        // slack, classification and fault probability, so the outcome and
        // the RNG draws match the analytic expressions below bit for bit.
        if let Some(entry) = self.table.as_ref().and_then(|t| t.entry(f, v_mv)) {
            self.table_hits.set(self.table_hits.get() + 1);
            let cached = entry.classes[class_index(class)];
            if cached.state == TimingState::Crash {
                return BatchOutcome::Crashed;
            }
            return BatchOutcome::Retired {
                faults: sample_binomial(iters, cached.fault_p, rng),
            };
        }
        self.table_fallbacks.set(self.table_fallbacks.get() + 1);
        let slack = self.class_slack_ps(class, f, v_mv);
        if self.fault_model.classify(slack) == TimingState::Crash {
            return BatchOutcome::Crashed;
        }
        BatchOutcome::Retired {
            faults: self.fault_model.sample_fault_count(slack, iters, rng),
        }
    }

    /// Accounts `batches` further batches of `class` at `(f, rails)`
    /// without running them, where running them would change nothing
    /// but the table hit/fallback counter: no crash, no fault and no
    /// random draw. That holds where the fault probability is exactly
    /// zero, the first early exit of `sample_binomial` for any batch
    /// size (its below-resolution exit sits behind a branch that
    /// depends on the size). Returns `false`, accounting nothing,
    /// elsewhere; `batches == 0` only asks.
    #[must_use]
    pub fn repeat_quiet_batches(
        &self,
        class: InstrClass,
        f: FreqMhz,
        rails: Rails,
        batches: u64,
    ) -> bool {
        let v_mv = rails.for_class(class);
        let (counter, state, fault_p) = match self.table.as_ref().and_then(|t| t.entry(f, v_mv)) {
            Some(entry) => {
                let cached = entry.classes[class_index(class)];
                (&self.table_hits, cached.state, cached.fault_p)
            }
            None => {
                let slack = self.class_slack_ps(class, f, v_mv);
                let fm = &self.fault_model;
                (
                    &self.table_fallbacks,
                    fm.classify(slack),
                    fm.fault_probability(slack),
                )
            }
        };
        if state == TimingState::Crash || fault_p.is_nan() || fault_p > 0.0 {
            return false;
        }
        counter.set(counter.get() + batches);
        true
    }

    /// Runs a batch with both planes at `v_mv` (see
    /// [`run_batch_on_rails`](Self::run_batch_on_rails)).
    #[must_use]
    pub fn run_batch(
        &self,
        class: InstrClass,
        iters: u64,
        f: FreqMhz,
        v_mv: Millivolts,
        rng: &mut SimRng,
    ) -> BatchOutcome {
        self.run_batch_on_rails(class, iters, f, Rails::uniform(v_mv), rng)
    }

    /// Wall-clock duration of a batch of `iters` instructions of `class`
    /// at frequency `f`.
    #[must_use]
    pub fn batch_duration(&self, class: InstrClass, iters: u64, f: FreqMhz) -> SimDuration {
        let cycles = (iters as f64 * class.cpi()).ceil() as u64;
        SimDuration::from_cycles(cycles, f.mhz())
    }

    /// Cost of one `rdmsr`/`wrmsr` microcode flow at frequency `f`
    /// (≈ 250 core cycles on real parts).
    #[must_use]
    pub fn msr_access_duration(&self, f: FreqMhz) -> SimDuration {
        SimDuration::from_cycles(250, f.mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CpuModel;

    fn engine() -> ExecutionEngine {
        let spec = CpuModel::CometLake.spec();
        ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        )
    }

    fn rng() -> SimRng {
        SimRng::from_seed_label(3, "exec-tests")
    }

    /// The analytic slacks pinned as bit patterns, independently of the
    /// slack table (which shares the stage-delay helpers and so would
    /// drift together with them). Comet Lake at its base frequency, at
    /// nominal, nominal − 150 mV, and at `vth`, where every stage delay
    /// is infinite: the class slacks are NaN (∞ − ∞ between the two
    /// bounding paths; NaN payloads are not portable, so only NaN-ness
    /// is pinned) and the imul slacks −∞, all classified Crash.
    #[test]
    fn analytic_slack_bits_are_pinned() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let f = spec.base_freq;
        let nominal = spec.nominal_voltage_mv(f);
        let cases: [(f64, [u64; 5], [u64; 3]); 2] = [
            (
                nominal,
                [
                    0x4073_5873_197b_32ba,
                    0x4074_83c0_ef25_bbc1,
                    0x4073_ccd8_7acb_bd5a,
                    0x4076_b91b_10f6_13ea,
                    0x4075_d050_4e54_feac,
                ],
                [
                    0x4073_5873_197b_32ba,
                    0x4074_670f_6cb7_0b6c,
                    0x4076_6767_b445_8ee7,
                ],
            ),
            (
                nominal - 150.0,
                [
                    0x406c_d98f_9ede_325a,
                    0x4070_1229_1449_9022,
                    0x406e_214d_0d4f_398a,
                    0x4073_2e19_b2c9_c62b,
                    0x4071_e65c_4458_befa,
                ],
                [
                    0x406c_d98f_9ede_325a,
                    0x406f_d387_2c74_9d24,
                    0x4072_bb13_ac52_98a8,
                ],
            ),
        ];
        let imul = |v, i: usize| {
            let (_, a, b) = MultiplierUnit::IMUL_LOOP_CLASSES[i];
            e.multiplier().slack_ps(a, b, &e.budget(f), v)
        };
        for (v, class_bits, imul_bits) in cases {
            for (c, bits) in InstrClass::ALL.into_iter().zip(class_bits) {
                assert_eq!(e.class_slack_ps(c, f, v).to_bits(), bits, "{c:?} at {v} mV");
            }
            for (i, bits) in imul_bits.into_iter().enumerate() {
                assert_eq!(imul(v, i).to_bits(), bits, "imul class {i} at {v} mV");
            }
        }
        let v = spec.vth_mv;
        for c in InstrClass::ALL {
            let slack = e.class_slack_ps(c, f, v);
            assert!(slack.is_nan(), "{c:?} at vth: {slack}");
            assert_eq!(e.fault_model().classify(slack), TimingState::Crash);
        }
        for i in 0..MultiplierUnit::IMUL_LOOP_CLASSES.len() {
            assert_eq!(imul(v, i).to_bits(), f64::NEG_INFINITY.to_bits());
            assert_eq!(e.fault_model().classify(imul(v, i)), TimingState::Crash);
        }
    }

    #[test]
    fn class_depths_are_ordered() {
        let e = engine();
        let v = 900.0;
        let d = |c| e.class_path_delay_ps(c, v);
        assert!(d(InstrClass::Imul) > d(InstrClass::Fma));
        assert!(d(InstrClass::Fma) > d(InstrClass::Aesenc));
        assert!(d(InstrClass::Aesenc) > d(InstrClass::Load));
        assert!(d(InstrClass::Load) > d(InstrClass::AluAdd));
    }

    #[test]
    fn imul_faults_before_alu() {
        // Scanning down in voltage, imul must leave the safe region first:
        // the paper's reason for choosing it in the EXECUTE thread.
        let e = engine();
        let f = FreqMhz(3_000);
        let onset = |class: InstrClass| {
            for v in (400..=1_200).rev() {
                if e.fault_model()
                    .classify(e.class_slack_ps(class, f, f64::from(v)))
                    != TimingState::Safe
                {
                    return v;
                }
            }
            0
        };
        assert!(onset(InstrClass::Imul) > onset(InstrClass::Aesenc));
        assert!(onset(InstrClass::Aesenc) > onset(InstrClass::AluAdd));
    }

    #[test]
    fn nominal_batches_never_fault() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let mut r = rng();
        for f in [FreqMhz(400), FreqMhz(1_800), FreqMhz(4_900)] {
            let v = spec.nominal_voltage_mv(f);
            for class in InstrClass::ALL {
                let out = e.run_batch(class, 1_000_000, f, v, &mut r);
                assert_eq!(out, BatchOutcome::Retired { faults: 0 }, "{class:?} at {f}");
            }
        }
    }

    #[test]
    fn quiet_batches_are_counted_only_at_zero_fault_probability() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let f = spec.base_freq;
        let nominal = spec.nominal_voltage_mv(f);
        let rails = Rails::uniform(nominal);
        assert!(e.repeat_quiet_batches(InstrClass::Imul, f, rails, 0));
        assert!(e.repeat_quiet_batches(InstrClass::Imul, f, rails, 5));
        assert_eq!(e.slack_table_fallbacks(), 5);
        // A batch run there retires with no fault and draws nothing.
        let mut r = rng();
        let mut untouched = r.clone();
        let out = e.run_batch_on_rails(InstrClass::Imul, 1_000_000, f, rails, &mut r);
        assert_eq!(out, BatchOutcome::Retired { faults: 0 });
        assert_eq!(r.next_u64(), untouched.next_u64());
        // Where a batch would sample faults, nothing is counted.
        let deep = (1..400)
            .map(|mv| nominal - f64::from(mv))
            .find(|&v| {
                let slack = e.class_slack_ps(InstrClass::Imul, f, v);
                e.fault_model().fault_probability(slack) > 0.0
            })
            .expect("a voltage with a fault probability");
        assert!(!e.repeat_quiet_batches(InstrClass::Imul, f, Rails::uniform(deep), 5));
        assert_eq!(e.slack_table_fallbacks(), 6);
    }

    #[test]
    fn batch_durations_scale_with_cpi_and_freq() {
        let e = engine();
        let fast = e.batch_duration(InstrClass::AluAdd, 1_000_000, FreqMhz(2_000));
        let slow = e.batch_duration(InstrClass::Imul, 1_000_000, FreqMhz(2_000));
        assert!(slow > fast);
        let half_clock = e.batch_duration(InstrClass::Imul, 1_000_000, FreqMhz(1_000));
        assert_eq!(half_clock.as_picos(), slow.as_picos() * 2);
    }

    #[test]
    fn execute_imul_correct_at_nominal() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let f = spec.base_freq;
        let v = spec.nominal_voltage_mv(f);
        let mut r = rng();
        let ex = e.execute_imul(0xDEAD_BEEF_CAFE_F00D, 0x1234_5678_9ABC_DEF0, f, v, &mut r);
        assert_eq!(
            ex.value,
            0xDEAD_BEEF_CAFE_F00Du64.wrapping_mul(0x1234_5678_9ABC_DEF0)
        );
    }

    #[test]
    fn deep_undervolt_crashes_batch() {
        let e = engine();
        let out = e.run_batch(InstrClass::Imul, 1_000, FreqMhz(4_900), 450.0, &mut rng());
        assert_eq!(out, BatchOutcome::Crashed);
        assert_eq!(out.faults(), None);
    }

    #[test]
    fn msr_access_cost_is_hundreds_of_cycles() {
        let e = engine();
        let d = e.msr_access_duration(FreqMhz(2_500));
        assert_eq!(d.as_picos(), 250 * 400); // 250 cycles at 400 ps each
    }
}
