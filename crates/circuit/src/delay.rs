//! Voltage-dependent gate delay models.
//!
//! Undervolting slows CMOS logic: lower supply voltage means smaller
//! voltage swings and slower transistor switching, which stretches the
//! `T_src` and `T_prop` terms of the paper's Eq. 1 while leaving `T_clk`,
//! `T_setup` and `T_ε` untouched. The standard first-order description is
//! the **alpha-power law** (Sakurai–Newton):
//!
//! ```text
//! D(V) = K · V / (V − V_th)^α
//! ```
//!
//! with threshold voltage `V_th` and velocity-saturation index `α`
//! (≈ 1.3–1.5 for modern short-channel processes). As `V → V_th` the delay
//! diverges — the physical root cause of every DVFS fault attack.

use serde::{Deserialize, Serialize};

/// Millivolts, the unit of every supply/threshold voltage in this crate.
pub type Millivolts = f64;

/// Picoseconds, the unit of every delay in this crate.
pub type Picoseconds = f64;

/// A voltage-to-delay model for one logic stage.
pub trait DelayModel {
    /// Propagation delay of the stage at supply voltage `v_mv`.
    ///
    /// Returns [`f64::INFINITY`] when the stage cannot switch at all
    /// (supply at or below threshold).
    fn delay_ps(&self, v_mv: Millivolts) -> Picoseconds;

    /// The supply voltage at which the stage reaches exactly `target_ps`,
    /// found by bisection. Returns `None` if the stage is faster than
    /// `target_ps` even at `lo_mv`, or slower even at `hi_mv`.
    fn voltage_for_delay(
        &self,
        target_ps: Picoseconds,
        lo_mv: Millivolts,
        hi_mv: Millivolts,
    ) -> Option<Millivolts> {
        if lo_mv >= hi_mv || target_ps <= 0.0 {
            return None;
        }
        // Delay decreases monotonically with voltage.
        let d_lo = self.delay_ps(lo_mv);
        let d_hi = self.delay_ps(hi_mv);
        if d_hi > target_ps || d_lo < target_ps {
            return None;
        }
        let (mut lo, mut hi) = (lo_mv, hi_mv);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.delay_ps(mid) > target_ps {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }
}

/// Sakurai–Newton alpha-power-law delay model.
///
/// # Examples
///
/// ```
/// use plugvolt_circuit::delay::{AlphaPowerModel, DelayModel};
///
/// let m = AlphaPowerModel::new(60.0, 320.0, 1.4);
/// // Undervolting slows the gate down:
/// assert!(m.delay_ps(900.0) > m.delay_ps(1_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaPowerModel {
    k_ps: f64,
    vth_mv: Millivolts,
    alpha: f64,
}

impl AlphaPowerModel {
    /// Creates a model with drive constant `k_ps` (picoseconds · volts^(α−1)),
    /// threshold voltage `vth_mv` and index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `alpha < 1`.
    #[must_use]
    pub fn new(k_ps: f64, vth_mv: Millivolts, alpha: f64) -> Self {
        assert!(k_ps > 0.0, "drive constant must be positive");
        assert!(vth_mv > 0.0, "threshold voltage must be positive");
        assert!(alpha >= 1.0, "alpha below 1 is unphysical");
        AlphaPowerModel {
            k_ps,
            vth_mv,
            alpha,
        }
    }

    /// Calibrates the drive constant so the stage exhibits `delay_ps` at
    /// supply `v_mv`, keeping `vth_mv` and `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `v_mv <= vth_mv` or `delay_ps <= 0`.
    #[must_use]
    pub fn calibrated(
        delay_ps: Picoseconds,
        v_mv: Millivolts,
        vth_mv: Millivolts,
        alpha: f64,
    ) -> Self {
        assert!(v_mv > vth_mv, "calibration point must be above threshold");
        assert!(delay_ps > 0.0, "calibration delay must be positive");
        // plugvolt-lint: allow(hot-path-transcendentals) runs once per model build, not per call
        let shape = (v_mv / 1000.0) / ((v_mv - vth_mv) / 1000.0).powf(alpha);
        AlphaPowerModel::new(delay_ps / shape, vth_mv, alpha)
    }

    /// The threshold voltage.
    #[must_use]
    pub fn vth_mv(&self) -> Millivolts {
        self.vth_mv
    }

    /// The velocity-saturation index.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The drive constant.
    #[must_use]
    pub fn k_ps(&self) -> f64 {
        self.k_ps
    }
}

impl DelayModel for AlphaPowerModel {
    fn delay_ps(&self, v_mv: Millivolts) -> Picoseconds {
        if v_mv <= self.vth_mv {
            return f64::INFINITY;
        }
        let v = v_mv / 1000.0;
        let overdrive = (v_mv - self.vth_mv) / 1000.0;
        // plugvolt-lint: allow(hot-path-transcendentals) fallback for off-table (V,f) points
        self.k_ps * v / overdrive.powf(self.alpha)
    }
}

/// A fixed, voltage-independent delay (wire delay, clock-tree insertion…).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantDelay(pub Picoseconds);

impl DelayModel for ConstantDelay {
    fn delay_ps(&self, _v_mv: Millivolts) -> Picoseconds {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AlphaPowerModel {
        AlphaPowerModel::new(60.0, 320.0, 1.4)
    }

    #[test]
    fn delay_monotonically_decreases_with_voltage() {
        let m = model();
        let mut prev = f64::INFINITY;
        for v in (400..1300).step_by(25) {
            let d = m.delay_ps(f64::from(v));
            assert!(d < prev, "delay not monotone at {v} mV");
            prev = d;
        }
    }

    #[test]
    fn delay_diverges_at_threshold() {
        let m = model();
        assert!(m.delay_ps(320.0).is_infinite());
        assert!(m.delay_ps(100.0).is_infinite());
        assert!(m.delay_ps(321.0) > m.delay_ps(400.0) * 10.0);
    }

    #[test]
    fn calibration_reproduces_anchor_point() {
        let m = AlphaPowerModel::calibrated(250.0, 1_000.0, 320.0, 1.4);
        assert!((m.delay_ps(1_000.0) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_for_delay_inverts_delay() {
        let m = model();
        let target = m.delay_ps(850.0);
        let v = m
            .voltage_for_delay(target, 400.0, 1_300.0)
            .expect("in range");
        assert!((v - 850.0).abs() < 0.01, "v={v}");
    }

    #[test]
    fn voltage_for_delay_out_of_range() {
        let m = model();
        // Target faster than the gate can ever be in range.
        assert!(m.voltage_for_delay(1.0, 400.0, 1_300.0).is_none());
        // Target slower than the gate at the low end.
        let huge = m.delay_ps(401.0) * 10.0;
        assert!(m.voltage_for_delay(huge, 400.0, 1_300.0).is_none());
        // Degenerate interval.
        assert!(m.voltage_for_delay(100.0, 900.0, 900.0).is_none());
    }

    #[test]
    fn constant_delay_ignores_voltage() {
        let c = ConstantDelay(12.5);
        assert_eq!(c.delay_ps(500.0), 12.5);
        assert_eq!(c.delay_ps(1_200.0), 12.5);
    }

    #[test]
    #[should_panic(expected = "unphysical")]
    fn alpha_below_one_rejected() {
        let _ = AlphaPowerModel::new(10.0, 300.0, 0.9);
    }
}
