//! Stochastic fault injection under timing violations.
//!
//! The analytic slack of [`crate::timing::TimingBudget`] tells us when
//! Eq. 1 is violated *on average*; on silicon the transition is a band:
//! as slack shrinks through zero the per-operation fault probability rises
//! from ≈ 0 to ≈ 1 (process variation, data-dependent paths, local IR
//! drop). We model that band with a logistic curve and sample bit flips
//! the way Plundervolt reported them — one or two flipped bits in the
//! upper significant bits of a multiplier result.

use crate::delay::Picoseconds;
use crate::timing::TimingState;
use plugvolt_des::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Outcome of executing one operation under a given timing slack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The operation produced its architecturally correct result.
    Correct,
    /// The operation completed but some result bits flipped.
    Faulted {
        /// XOR mask applied to the correct result.
        flip_mask: u64,
    },
    /// The violation was deep enough to lock up the core.
    Crash,
}

impl FaultOutcome {
    /// Whether the result differs from the correct value.
    #[must_use]
    pub fn is_faulted(self) -> bool {
        matches!(self, FaultOutcome::Faulted { .. })
    }
}

/// The stochastic fault model: logistic fault band plus crash margin.
///
/// # Examples
///
/// ```
/// use plugvolt_circuit::fault::FaultModel;
///
/// let fm = FaultModel::default();
/// // Ample slack: essentially never faults.
/// assert!(fm.fault_probability(100.0) < 1e-9);
/// // Deep violation: essentially always faults.
/// assert!(fm.fault_probability(-100.0) > 1.0 - 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    band_ps: f64,
    crash_margin_ps: f64,
}

impl Default for FaultModel {
    /// A band of 3 ps and a crash margin of 60 ps — calibrated so a
    /// characterization sweep shows a few-tens-of-millivolt unsafe band
    /// between first fault and crash, matching the paper's Figures 2–4.
    fn default() -> Self {
        FaultModel::new(3.0, 60.0)
    }
}

impl FaultModel {
    /// Creates a model with logistic band width `band_ps` and crash margin
    /// `crash_margin_ps` (how far past zero slack the core still runs).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive.
    #[must_use]
    pub fn new(band_ps: f64, crash_margin_ps: f64) -> Self {
        assert!(band_ps > 0.0, "band width must be positive");
        assert!(crash_margin_ps > 0.0, "crash margin must be positive");
        FaultModel {
            band_ps,
            crash_margin_ps,
        }
    }

    /// The crash margin in picoseconds.
    #[must_use]
    pub fn crash_margin_ps(&self) -> Picoseconds {
        self.crash_margin_ps
    }

    /// Per-operation fault probability at the given slack.
    ///
    /// Logistic in `−slack/band`: 0.5 at zero slack, → 0 with positive
    /// slack, → 1 with violation.
    #[must_use]
    pub fn fault_probability(&self, slack_ps: Picoseconds) -> f64 {
        if slack_ps.is_nan() {
            return 1.0;
        }
        // plugvolt-lint: allow(hot-path-transcendentals) model definition; batches use the table
        1.0 / (1.0 + (slack_ps / self.band_ps).exp())
    }

    /// Classifies slack into the paper's safe/unsafe/crash regions.
    #[must_use]
    pub fn classify(&self, slack_ps: Picoseconds) -> TimingState {
        TimingState::classify(slack_ps, self.crash_margin_ps)
    }

    /// Samples the outcome of one operation at the given slack.
    ///
    /// `significant_bits` bounds where flips may land (see
    /// [`sample_flip_mask`]).
    pub fn sample(
        &self,
        slack_ps: Picoseconds,
        significant_bits: u32,
        rng: &mut SimRng,
    ) -> FaultOutcome {
        match self.classify(slack_ps) {
            TimingState::Crash => FaultOutcome::Crash,
            TimingState::Safe | TimingState::Unsafe => {
                if rng.chance(self.fault_probability(slack_ps)) {
                    FaultOutcome::Faulted {
                        flip_mask: sample_flip_mask(significant_bits, rng),
                    }
                } else {
                    FaultOutcome::Correct
                }
            }
        }
    }

    /// Number of faulted operations among `n` independent operations at
    /// the given slack — a binomial sample, computed without iterating
    /// `n` times so million-iteration characterization loops stay fast.
    pub fn sample_fault_count(&self, slack_ps: Picoseconds, n: u64, rng: &mut SimRng) -> u64 {
        sample_binomial(n, self.fault_probability(slack_ps), rng)
    }
}

/// Samples a Plundervolt-style flip mask: usually one, sometimes two bits
/// flipped, concentrated in the upper half of the `significant_bits`-wide
/// result window.
///
/// Always returns a non-zero mask (a "fault" that flips nothing is not a
/// fault). `significant_bits` is clamped to `[2, 64]`.
pub fn sample_flip_mask(significant_bits: u32, rng: &mut SimRng) -> u64 {
    let sig = significant_bits.clamp(2, 64);
    // Flips land in the upper half of the significant window: the longest
    // carry/reduction chains feed the high result bits.
    let lo = sig / 2;
    let span = u64::from(sig - lo);
    let bit1 = u64::from(lo) + rng.below(span);
    let mut mask = 1u64 << bit1;
    if rng.chance(0.1) {
        let bit2 = u64::from(lo) + rng.below(span);
        mask |= 1u64 << bit2;
        // If both draws landed on the same bit the mask is still one flip.
    }
    mask
}

/// Draws from Binomial(`n`, `p`) deterministically via `rng`.
///
/// Uses the exact geometric-skip method for small expected counts and a
/// clamped normal approximation for large ones, so it is O(successes)
/// rather than O(n).
pub fn sample_binomial(n: u64, p: f64, rng: &mut SimRng) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    let var = mean * (1.0 - p);
    if var > 100.0 {
        // Normal approximation, clamped to the support.
        let draw = mean + var.sqrt() * rng.gaussian();
        return draw.round().clamp(0.0, n as f64) as u64;
    }
    if p > 0.5 {
        // Count failures instead for efficiency.
        return n - sample_binomial(n, 1.0 - p, rng);
    }
    // Geometric skips: the gap between successes is Geometric(p).
    // ln_1p keeps precision for tiny p, where (1.0 - p) rounds to 1.0.
    let log1m = (-p).ln_1p(); // negative
    if log1m == 0.0 {
        // p is below f64 resolution: indistinguishable from zero.
        return 0;
    }
    let mut successes = 0u64;
    let mut index = 0u64;
    loop {
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        // plugvolt-lint: allow(hot-path-transcendentals) one ln() per fault beats n Bernoulli draws
        let skip = (u.ln() / log1m).floor() as u64;
        index = index.saturating_add(skip).saturating_add(1);
        if index > n {
            return successes;
        }
        successes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed_label(99, "fault-tests")
    }

    #[test]
    fn probability_is_monotone_in_violation() {
        let fm = FaultModel::default();
        let mut prev = 0.0;
        for slack in (-50..=50).rev() {
            let p = fm.fault_probability(f64::from(slack));
            assert!(p >= prev);
            prev = p;
        }
        assert!((fm.fault_probability(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_slack_always_faults() {
        let fm = FaultModel::default();
        assert_eq!(fm.fault_probability(f64::NAN), 1.0);
    }

    #[test]
    fn sample_respects_regions() {
        let fm = FaultModel::new(3.0, 60.0);
        let mut r = rng();
        assert_eq!(fm.sample(1_000.0, 64, &mut r), FaultOutcome::Correct);
        assert_eq!(fm.sample(-1_000.0, 64, &mut r), FaultOutcome::Crash);
        let out = fm.sample(-30.0, 64, &mut r);
        assert!(matches!(
            out,
            FaultOutcome::Faulted { .. } | FaultOutcome::Correct
        ));
    }

    #[test]
    fn deep_unsafe_faults_almost_surely() {
        let fm = FaultModel::new(3.0, 60.0);
        let mut r = rng();
        let faults = (0..100)
            .filter(|_| fm.sample(-55.0, 64, &mut r).is_faulted())
            .count();
        assert!(faults > 95, "faults={faults}");
    }

    #[test]
    fn flip_mask_never_zero_and_in_window() {
        let mut r = rng();
        for _ in 0..2_000 {
            let mask = sample_flip_mask(32, &mut r);
            assert_ne!(mask, 0);
            // All set bits within [16, 32).
            assert_eq!(mask & !0xFFFF_0000u64, 0, "mask={mask:#x}");
        }
    }

    #[test]
    fn flip_mask_handles_tiny_windows() {
        let mut r = rng();
        for _ in 0..100 {
            let mask = sample_flip_mask(0, &mut r); // clamped to 2
            assert_ne!(mask, 0);
            assert_eq!(mask & !0b11u64, 0);
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(sample_binomial(0, 0.5, &mut r), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut r), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut r), 100);
        assert_eq!(sample_binomial(100, -0.5, &mut r), 0);
        assert_eq!(sample_binomial(100, 2.0, &mut r), 100);
    }

    #[test]
    fn binomial_mean_small_p() {
        let mut r = rng();
        let n = 1_000_000u64;
        let p = 5e-6;
        let total: u64 = (0..200).map(|_| sample_binomial(n, p, &mut r)).sum();
        let mean = total as f64 / 200.0;
        // Expected 5 per draw; allow generous tolerance.
        assert!((3.5..6.5).contains(&mean), "mean={mean}");
    }

    #[test]
    fn binomial_mean_large_variance() {
        let mut r = rng();
        let n = 1_000_000u64;
        let p = 0.3;
        let draw = sample_binomial(n, p, &mut r);
        let expected = 300_000.0;
        assert!((draw as f64 - expected).abs() < 5_000.0, "draw={draw}");
    }

    #[test]
    fn binomial_high_p_counts_failures() {
        let mut r = rng();
        let draw = sample_binomial(1_000, 0.99, &mut r);
        assert!(draw > 970 && draw <= 1_000, "draw={draw}");
    }

    #[test]
    fn sample_fault_count_tracks_probability() {
        let fm = FaultModel::new(3.0, 60.0);
        let mut r = rng();
        // Strong violation: essentially all operations fault.
        let c = fm.sample_fault_count(-50.0, 10_000, &mut r);
        assert!(c > 9_900, "c={c}");
        // Ample slack: none fault.
        let c = fm.sample_fault_count(200.0, 10_000, &mut r);
        assert_eq!(c, 0);
    }
}
