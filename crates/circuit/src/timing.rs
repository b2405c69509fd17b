//! Eq. 1 of the paper: the synchronous timing constraint and its slack.
//!
//! A flip-flop `F1` feeding combinational logic into `F2` is **safe** iff
//!
//! ```text
//! T_src + T_prop ≤ T_clk − T_setup − T_ε          (Eq. 1)
//! ```
//!
//! `T_src`/`T_prop` stretch under undervolting (see [`crate::delay`]);
//! `T_clk = 1/f`, `T_setup` and `T_ε` depend only on frequency and the
//! physical clock network. The *slack* is the RHS minus the LHS; a negative
//! slack is the paper's **unsafe state** (Eq. 3).

use crate::delay::Picoseconds;
use serde::{Deserialize, Serialize};

/// The frequency-side (right-hand side) of Eq. 1.
///
/// # Examples
///
/// ```
/// use plugvolt_circuit::timing::TimingBudget;
///
/// let b = TimingBudget::for_frequency_mhz(1_000, 35.0, 15.0);
/// // 1 GHz ⇒ 1000 ps period; 1000 − 35 − 15 = 950 ps available.
/// assert!((b.available_ps() - 950.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingBudget {
    t_clk_ps: Picoseconds,
    t_setup_ps: Picoseconds,
    t_eps_ps: Picoseconds,
}

impl TimingBudget {
    /// Creates a budget from an explicit clock period.
    ///
    /// # Panics
    ///
    /// Panics if the period is non-positive or setup/ε are negative.
    #[must_use]
    pub fn new(t_clk_ps: Picoseconds, t_setup_ps: Picoseconds, t_eps_ps: Picoseconds) -> Self {
        assert!(t_clk_ps > 0.0, "clock period must be positive");
        assert!(
            t_setup_ps >= 0.0 && t_eps_ps >= 0.0,
            "setup/epsilon must be non-negative"
        );
        TimingBudget {
            t_clk_ps,
            t_setup_ps,
            t_eps_ps,
        }
    }

    /// Creates a budget for a core clocked at `freq_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is zero.
    #[must_use]
    pub fn for_frequency_mhz(
        freq_mhz: u32,
        t_setup_ps: Picoseconds,
        t_eps_ps: Picoseconds,
    ) -> Self {
        assert!(freq_mhz > 0, "frequency must be non-zero");
        TimingBudget::new(1e6 / f64::from(freq_mhz), t_setup_ps, t_eps_ps)
    }

    /// The clock period `T_clk`.
    #[must_use]
    pub fn t_clk_ps(&self) -> Picoseconds {
        self.t_clk_ps
    }

    /// The setup time `T_setup` of the capturing flip-flop.
    #[must_use]
    pub fn t_setup_ps(&self) -> Picoseconds {
        self.t_setup_ps
    }

    /// The worst-case clock uncertainty `T_ε`.
    #[must_use]
    pub fn t_eps_ps(&self) -> Picoseconds {
        self.t_eps_ps
    }

    /// `T_clk − T_setup − T_ε`: the time the data path may consume.
    ///
    /// Clamped at zero — a budget can never be negative, only exhausted.
    #[must_use]
    pub fn available_ps(&self) -> Picoseconds {
        (self.t_clk_ps - self.t_setup_ps - self.t_eps_ps).max(0.0)
    }

    /// Slack of a data path taking `t_src + t_prop = path_ps`.
    ///
    /// Positive ⇒ safe (Eq. 1 holds); negative ⇒ unsafe (Eq. 3).
    #[must_use]
    pub fn slack_ps(&self, path_ps: Picoseconds) -> Picoseconds {
        self.available_ps() - path_ps
    }
}

/// A classified timing state, the paper's safe/unsafe dichotomy plus the
/// empirically observed third region (crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimingState {
    /// Eq. 1 holds with margin: output always correct.
    Safe,
    /// Eq. 1 violated but the core still runs: faulty outputs possible.
    Unsafe,
    /// Violation so deep the core cannot make progress (lockup/reset).
    Crash,
}

impl TimingState {
    /// Classifies a slack value given the crash margin (how far past zero
    /// slack the core survives before locking up).
    #[must_use]
    pub fn classify(slack_ps: Picoseconds, crash_margin_ps: Picoseconds) -> Self {
        if slack_ps >= 0.0 {
            TimingState::Safe
        } else if slack_ps.is_nan() || -slack_ps > crash_margin_ps {
            TimingState::Crash
        } else {
            TimingState::Unsafe
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_from_frequency() {
        let b = TimingBudget::for_frequency_mhz(2_000, 30.0, 10.0);
        assert!((b.t_clk_ps() - 500.0).abs() < 1e-9);
        assert!((b.available_ps() - 460.0).abs() < 1e-9);
    }

    #[test]
    fn higher_frequency_shrinks_budget() {
        let lo = TimingBudget::for_frequency_mhz(1_000, 30.0, 10.0);
        let hi = TimingBudget::for_frequency_mhz(3_000, 30.0, 10.0);
        assert!(hi.available_ps() < lo.available_ps());
    }

    #[test]
    fn available_clamps_at_zero() {
        let b = TimingBudget::new(10.0, 30.0, 10.0);
        assert_eq!(b.available_ps(), 0.0);
    }

    #[test]
    fn slack_sign_matches_eq1() {
        let b = TimingBudget::new(1_000.0, 35.0, 15.0);
        assert_eq!(b.slack_ps(950.0), 0.0); // exactly meets the deadline
        assert!(b.slack_ps(900.0) > 0.0);
        assert!(b.slack_ps(1_000.0) < 0.0);
    }

    #[test]
    fn classify_three_regions() {
        assert_eq!(TimingState::classify(5.0, 100.0), TimingState::Safe);
        assert_eq!(TimingState::classify(0.0, 100.0), TimingState::Safe);
        assert_eq!(TimingState::classify(-5.0, 100.0), TimingState::Unsafe);
        assert_eq!(TimingState::classify(-150.0, 100.0), TimingState::Crash);
        assert_eq!(TimingState::classify(f64::NAN, 100.0), TimingState::Crash);
        // Infinite path delay (supply below threshold) is a crash.
        assert_eq!(
            TimingState::classify(f64::NEG_INFINITY, 100.0),
            TimingState::Crash
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_rejected() {
        let _ = TimingBudget::new(0.0, 1.0, 1.0);
    }
}
