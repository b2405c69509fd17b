//! Timing model of the 64×64 integer multiplier (`imul`) datapath.
//!
//! Prior work (\[15, 14, 19\] in the paper) found `imul` to be the
//! instruction most likely to fault under DVFS attacks, which is why the
//! paper's EXECUTE thread runs a tight loop of one million `imul`
//! iterations with varying 64-bit operands. We model the multiplier as a
//! Booth-encoded Wallace tree followed by a carry-propagate adder:
//!
//! - partial-product reduction depth grows with the *significant width*
//!   of the operands (a 64×64 product exercises the full tree, small
//!   operands only a few levels) — this reproduces Plundervolt's
//!   observation that fault probability is operand-dependent;
//! - the final adder depth grows with the product width.
//!
//! The model is analytic (no per-gate simulation) so characterization
//! sweeps over millions of iterations stay fast.

use crate::delay::{AlphaPowerModel, DelayModel, Millivolts, Picoseconds};
use crate::fault::{FaultModel, FaultOutcome};
use crate::timing::TimingBudget;
use plugvolt_des::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Result of one modelled `imul` execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MulExecution {
    /// The (possibly faulted) low 64 bits of the product, `imul` semantics.
    pub value: u64,
    /// What happened microarchitecturally.
    pub outcome: FaultOutcome,
}

/// The voltage-dependent stage delays of the multiplier at one supply:
/// the launching flop's clock-to-Q and one logic gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDelays {
    /// Clock-to-Q delay of the launching flop.
    pub clk_to_q_ps: Picoseconds,
    /// Delay of one gate level.
    pub gate_ps: Picoseconds,
}

/// The multiplier datapath timing model.
///
/// # Examples
///
/// ```
/// use plugvolt_circuit::multiplier::MultiplierUnit;
///
/// let mul = MultiplierUnit::default();
/// // Wider operands exercise a deeper path:
/// let narrow = mul.path_delay_ps(0xFF, 0xFF, 1_000.0);
/// let wide = mul.path_delay_ps(u64::MAX, u64::MAX, 1_000.0);
/// assert!(wide > narrow);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiplierUnit {
    gate: AlphaPowerModel,
    clk_to_q: AlphaPowerModel,
    /// Fixed wiring/mux overhead per traversal.
    wire_ps: Picoseconds,
    /// Depth (gate levels) of Booth encode + first reduction level.
    base_depth: f64,
    /// Extra levels when the full 64-bit tree + 128-bit CPA is exercised.
    full_width_extra_depth: f64,
}

impl Default for MultiplierUnit {
    /// A unit calibrated for a ≈ 4 GHz-capable core at 1.0 V nominal:
    /// the full-width path consumes ≈ 205 ps at 1 V, leaving typical Intel
    /// guardbands (≈ 100–200 mV) before first faults.
    fn default() -> Self {
        MultiplierUnit::new(
            AlphaPowerModel::calibrated(8.0, 1_000.0, 330.0, 1.35),
            AlphaPowerModel::calibrated(18.0, 1_000.0, 330.0, 1.35),
            15.0,
            6.0,
            15.5,
        )
    }
}

impl MultiplierUnit {
    /// Creates a multiplier model.
    ///
    /// # Panics
    ///
    /// Panics if depths or the wire delay are negative.
    #[must_use]
    pub fn new(
        gate: AlphaPowerModel,
        clk_to_q: AlphaPowerModel,
        wire_ps: Picoseconds,
        base_depth: f64,
        full_width_extra_depth: f64,
    ) -> Self {
        assert!(wire_ps >= 0.0, "wire delay must be non-negative");
        assert!(
            base_depth >= 0.0 && full_width_extra_depth >= 0.0,
            "depths must be non-negative"
        );
        MultiplierUnit {
            gate,
            clk_to_q,
            wire_ps,
            base_depth,
            full_width_extra_depth,
        }
    }

    /// The per-gate delay model.
    #[must_use]
    pub fn gate_model(&self) -> AlphaPowerModel {
        self.gate
    }

    /// Significant width of the product of `a` and `b`: how much of the
    /// reduction tree the operands exercise (1..=64 levels of result bits).
    #[must_use]
    pub fn significant_bits(a: u64, b: u64) -> u32 {
        let wa = 64 - a.leading_zeros();
        let wb = 64 - b.leading_zeros();
        (wa + wb).clamp(2, 64)
    }

    /// Gate-level logic depth exercised by this operand pair.
    #[must_use]
    pub fn depth_for(&self, a: u64, b: u64) -> f64 {
        // Wallace-tree reduction depth grows ≈ log_{3/2}(rows); the CPA
        // depth grows ≈ log2(result width). Both are captured by scaling
        // the extra depth with the fraction of the product width in use.
        let frac = f64::from(Self::significant_bits(a, b)) / 64.0;
        self.base_depth + self.full_width_extra_depth * frac.sqrt()
    }

    /// The two voltage-dependent stage delays at supply `v_mv`. Every
    /// path through the unit is built from these, so a caller that needs
    /// several paths at one voltage evaluates the alpha-power model once.
    #[must_use]
    pub fn stage_delays(&self, v_mv: Millivolts) -> StageDelays {
        StageDelays {
            clk_to_q_ps: self.clk_to_q.delay_ps(v_mv),
            gate_ps: self.gate.delay_ps(v_mv),
        }
    }

    /// `T_src + T_prop` for one `imul` traversal with stage delays `st`.
    #[must_use]
    pub fn path_delay_at(&self, a: u64, b: u64, st: StageDelays) -> Picoseconds {
        st.clk_to_q_ps + self.depth_for(a, b) * st.gate_ps + self.wire_ps
    }

    /// `T_src + T_prop` for one `imul` traversal at supply `v_mv`.
    #[must_use]
    pub fn path_delay_ps(&self, a: u64, b: u64, v_mv: Millivolts) -> Picoseconds {
        self.path_delay_at(a, b, self.stage_delays(v_mv))
    }

    /// Worst-case (full-width) path delay at supply `v_mv`.
    #[must_use]
    pub fn worst_path_delay_ps(&self, v_mv: Millivolts) -> Picoseconds {
        self.path_delay_ps(u64::MAX, u64::MAX, v_mv)
    }

    /// Timing slack of one `imul` with these operands under `budget`.
    #[must_use]
    pub fn slack_ps(&self, a: u64, b: u64, budget: &TimingBudget, v_mv: Millivolts) -> Picoseconds {
        budget.slack_ps(self.path_delay_ps(a, b, v_mv))
    }

    /// Executes one `imul` (low 64 bits of the product, like x86 `imul
    /// r64, r64`) under the fault model.
    pub fn execute(
        &self,
        a: u64,
        b: u64,
        budget: &TimingBudget,
        v_mv: Millivolts,
        fm: &FaultModel,
        rng: &mut SimRng,
    ) -> MulExecution {
        let correct = a.wrapping_mul(b);
        let slack = self.slack_ps(a, b, budget, v_mv);
        let outcome = fm.sample(slack, Self::significant_bits(a, b), rng);
        let value = match outcome {
            FaultOutcome::Faulted { flip_mask } => correct ^ flip_mask,
            _ => correct,
        };
        MulExecution { value, outcome }
    }

    /// The operand-width mix an EXECUTE-thread loop of pseudo-random
    /// 64-bit pairs exercises: `(fraction of iterations, a, b)`. Almost
    /// all random 64-bit pairs are full width, with a thin tail of
    /// narrower products. Public so precomputed slack tables can cache
    /// exactly the `(slack, state, fault probability)` triplets that
    /// [`Self::run_imul_loop`] derives per class.
    pub const IMUL_LOOP_CLASSES: [(f64, u64, u64); 3] = [
        (0.90, u64::MAX, u64::MAX),      // full-width products
        (0.08, u32::MAX as u64, 0xFFFF), // 48-bit products
        (0.02, 0xFFFF, 0xFF),            // 24-bit products
    ];

    /// Number of faulted iterations in a tight loop of `iters` full-width
    /// `imul`s — the paper's EXECUTE-thread workload — sampled in O(faults)
    /// time. Returns `Err(())`-like `None` when the core would crash.
    #[must_use]
    pub fn run_imul_loop(
        &self,
        iters: u64,
        budget: &TimingBudget,
        v_mv: Millivolts,
        fm: &FaultModel,
        rng: &mut SimRng,
    ) -> LoopOutcome {
        // The loop varies operands; model it as a mix of width classes
        // (see [`Self::IMUL_LOOP_CLASSES`]).
        let st = self.stage_delays(v_mv);
        let mut faults = 0u64;
        for (frac, a, b) in Self::IMUL_LOOP_CLASSES {
            let n = (iters as f64 * frac).round() as u64;
            let slack = budget.slack_ps(self.path_delay_at(a, b, st));
            if fm.classify(slack) == crate::timing::TimingState::Crash {
                return LoopOutcome::Crashed { completed: 0 };
            }
            faults += fm.sample_fault_count(slack, n, rng);
        }
        LoopOutcome::Completed { faults }
    }
}

/// Outcome of an EXECUTE-thread `imul` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopOutcome {
    /// The loop ran to completion with this many incorrect products.
    Completed {
        /// Number of iterations whose product was wrong.
        faults: u64,
    },
    /// The core locked up before finishing.
    Crashed {
        /// Iterations retired before the lockup (0 in this model).
        completed: u64,
    },
}

impl LoopOutcome {
    /// Faults observed, if the loop completed.
    #[must_use]
    pub fn faults(self) -> Option<u64> {
        match self {
            LoopOutcome::Completed { faults } => Some(faults),
            LoopOutcome::Crashed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed_label(7, "mul-tests")
    }

    #[test]
    fn significant_bits_examples() {
        assert_eq!(MultiplierUnit::significant_bits(0, 0), 2);
        assert_eq!(MultiplierUnit::significant_bits(1, 1), 2);
        assert_eq!(MultiplierUnit::significant_bits(0xFF, 0xFF), 16);
        assert_eq!(MultiplierUnit::significant_bits(u64::MAX, u64::MAX), 64);
        assert_eq!(MultiplierUnit::significant_bits(u64::MAX, 1), 64);
    }

    #[test]
    fn significant_bits_boundary_operands() {
        // Zero and one have zero/one-bit widths; the lower clamp floors
        // the sum at 2 (a product always exercises at least one level).
        assert_eq!(MultiplierUnit::significant_bits(0, 1), 2);
        assert_eq!(MultiplierUnit::significant_bits(1, 0), 2);
        assert_eq!(MultiplierUnit::significant_bits(0, u64::MAX), 64);
        assert_eq!(MultiplierUnit::significant_bits(u64::MAX, 0), 64);
        assert_eq!(MultiplierUnit::significant_bits(1, u64::MAX), 64);
        // 64 + 64 significant bits saturates at the upper clamp.
        assert_eq!(MultiplierUnit::significant_bits(u64::MAX, u64::MAX), 64);
        // Just under the upper clamp: 32 + 31 = 63.
        assert_eq!(
            MultiplierUnit::significant_bits(u32::MAX as u64, (u32::MAX >> 1) as u64),
            63
        );
    }

    #[test]
    fn depth_grows_with_width() {
        let m = MultiplierUnit::default();
        assert!(m.depth_for(3, 3) < m.depth_for(u32::MAX as u64, 0xFFFF));
        assert!(m.depth_for(u32::MAX as u64, 0xFFFF) < m.depth_for(u64::MAX, u64::MAX));
    }

    #[test]
    fn nominal_execution_is_correct() {
        let m = MultiplierUnit::default();
        let budget = TimingBudget::for_frequency_mhz(3_000, 35.0, 15.0);
        let fm = FaultModel::default();
        let mut r = rng();
        for i in 1..200u64 {
            let a = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let b = i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            let e = m.execute(a, b, &budget, 1_000.0, &fm, &mut r);
            assert_eq!(e.outcome, FaultOutcome::Correct);
            assert_eq!(e.value, a.wrapping_mul(b));
        }
    }

    #[test]
    fn deep_undervolt_faults_products() {
        let m = MultiplierUnit::default();
        let budget = TimingBudget::for_frequency_mhz(3_000, 35.0, 15.0);
        let fm = FaultModel::default();
        let mut r = rng();
        // Find a voltage that is unsafe but not crashing for full-width ops.
        let mut v = 1_000.0;
        while fm.classify(m.slack_ps(u64::MAX, u64::MAX, &budget, v))
            == crate::timing::TimingState::Safe
        {
            v -= 1.0;
            assert!(v > 300.0, "never left safe region");
        }
        let v = v - 3.0; // a little into the band
        let mut faulted = 0;
        for i in 0..500u64 {
            let a = u64::MAX - i;
            let e = m.execute(a, u64::MAX, &budget, v, &fm, &mut r);
            if e.outcome.is_faulted() {
                faulted += 1;
                assert_ne!(e.value, a.wrapping_mul(u64::MAX));
            }
        }
        assert!(faulted > 0, "no faults in unsafe band");
    }

    #[test]
    fn imul_loop_safe_has_no_faults() {
        let m = MultiplierUnit::default();
        let budget = TimingBudget::for_frequency_mhz(2_000, 35.0, 15.0);
        let fm = FaultModel::default();
        let out = m.run_imul_loop(1_000_000, &budget, 1_000.0, &fm, &mut rng());
        assert_eq!(out, LoopOutcome::Completed { faults: 0 });
        assert_eq!(out.faults(), Some(0));
    }

    #[test]
    fn imul_loop_crashes_when_too_deep() {
        let m = MultiplierUnit::default();
        let budget = TimingBudget::for_frequency_mhz(3_500, 35.0, 15.0);
        let fm = FaultModel::default();
        let out = m.run_imul_loop(1_000, &budget, 400.0, &fm, &mut rng());
        assert_eq!(out, LoopOutcome::Crashed { completed: 0 });
        assert_eq!(out.faults(), None);
    }

    #[test]
    fn loop_fault_onset_is_between_safe_and_crash() {
        let m = MultiplierUnit::default();
        let budget = TimingBudget::for_frequency_mhz(3_000, 35.0, 15.0);
        let fm = FaultModel::default();
        let mut r = rng();
        let mut saw_faults = false;
        let mut prev_crashed = false;
        for v in (500..=1_000).rev().step_by(2) {
            match m.run_imul_loop(1_000_000, &budget, f64::from(v), &fm, &mut r) {
                LoopOutcome::Completed { faults } => {
                    assert!(!prev_crashed, "completed after crash while undervolting");
                    if faults > 0 {
                        saw_faults = true;
                    }
                }
                LoopOutcome::Crashed { .. } => prev_crashed = true,
            }
        }
        assert!(saw_faults, "no fault band before crash");
        assert!(prev_crashed, "never crashed");
    }

    #[test]
    fn worst_path_is_full_width() {
        let m = MultiplierUnit::default();
        assert_eq!(
            m.worst_path_delay_ps(950.0),
            m.path_delay_ps(u64::MAX, u64::MAX, 950.0)
        );
    }
}
