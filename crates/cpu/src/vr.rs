//! The package voltage regulator (SVID VR) model.
//!
//! Writes to MSR 0x150 do not change the rail instantly: the paper's
//! Sec. 5 lists "the delay between a successful write to MSR 0x150 and
//! the actual change in voltage by the voltage regulator" as one of the
//! two contributors to the kernel-module countermeasure's turnaround
//! time. We model the rail as: a fixed **settle delay** between the write
//! and the start of the ramp, then a linear **slew** toward the target.

use plugvolt_des::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One voltage rail with slew-limited transitions.
///
/// # Examples
///
/// ```
/// use plugvolt_cpu::vr::VoltageRegulator;
/// use plugvolt_des::time::{SimDuration, SimTime};
///
/// let mut vr = VoltageRegulator::new(1_000.0, SimDuration::from_micros(8), 10.0);
/// let t0 = SimTime::ZERO;
/// vr.set_target(t0, 900.0);
/// // Before the settle delay elapses nothing moves:
/// assert_eq!(vr.voltage_mv(t0 + SimDuration::from_micros(5)), 1_000.0);
/// // Long after, the rail sits at the target:
/// assert_eq!(vr.voltage_mv(t0 + SimDuration::from_millis(1)), 900.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoltageRegulator {
    start_mv: f64,
    target_mv: f64,
    ramp_begins: SimTime,
    settle_delay: SimDuration,
    slew_mv_per_us: f64,
    /// When the rail reaches `target_mv`: fixed by each retarget, so
    /// reading it costs no division.
    settles_at: SimTime,
}

impl VoltageRegulator {
    /// Creates a regulator resting at `initial_mv`, with the given settle
    /// delay and slew rate.
    ///
    /// # Panics
    ///
    /// Panics if the slew rate is non-positive.
    #[must_use]
    pub fn new(initial_mv: f64, settle_delay: SimDuration, slew_mv_per_us: f64) -> Self {
        assert!(slew_mv_per_us > 0.0, "slew rate must be positive");
        VoltageRegulator {
            start_mv: initial_mv,
            target_mv: initial_mv,
            ramp_begins: SimTime::ZERO,
            settle_delay,
            slew_mv_per_us,
            settles_at: SimTime::ZERO,
        }
    }

    /// The rail voltage at time `now`.
    #[must_use]
    pub fn voltage_mv(&self, now: SimTime) -> f64 {
        if now <= self.ramp_begins {
            return self.start_mv;
        }
        let max_swing = self.max_swing_mv(now);
        let want = self.target_mv - self.start_mv;
        if want.abs() <= max_swing {
            self.target_mv
        } else {
            self.start_mv + want.signum() * max_swing
        }
    }

    /// How far the ramp may have moved the rail by `now` (after
    /// `ramp_begins`); monotone in `now`.
    fn max_swing_mv(&self, now: SimTime) -> f64 {
        let elapsed_us = now.saturating_duration_since(self.ramp_begins).as_picos() as f64 / 1e6;
        self.slew_mv_per_us * elapsed_us
    }

    /// How long [`voltage_mv`](Self::voltage_mv) keeps its value at
    /// `now`, absent a retarget: through `ramp_begins` before the ramp,
    /// only `now` mid-ramp, and `None` (until the next retarget) once the
    /// rail sits exactly at its target. Exact, unlike the rounded-up
    /// [`settles_at`](Self::settles_at).
    #[must_use]
    pub fn holds_until(&self, now: SimTime) -> Option<SimTime> {
        if now <= self.ramp_begins {
            Some(self.ramp_begins)
        } else if (self.target_mv - self.start_mv).abs() <= self.max_swing_mv(now) {
            None
        } else {
            Some(now)
        }
    }

    /// The target the rail is heading toward.
    #[must_use]
    pub fn target_mv(&self) -> f64 {
        self.target_mv
    }

    /// Requests a new target at time `now`. The ramp begins after the
    /// regulator's default settle delay, from wherever the rail is at
    /// that moment.
    pub fn set_target(&mut self, now: SimTime, target_mv: f64) {
        self.set_target_after(now, target_mv, self.settle_delay);
    }

    /// Requests a new target with an explicit command latency. A pending
    /// not-yet-started ramp is *replaced*: if a correcting request lands
    /// inside the previous request's latency window, the rail never moves
    /// toward the old target — the mechanism that lets a fast-polling
    /// countermeasure nullify a slow mailbox undervolt entirely.
    pub fn set_target_after(&mut self, now: SimTime, target_mv: f64, delay: SimDuration) {
        if (target_mv - self.target_mv).abs() < f64::EPSILON {
            return;
        }
        // Freeze the rail where it currently is, then ramp after settling.
        self.start_mv = self.voltage_mv(now);
        self.ramp_begins = now + delay;
        self.target_mv = target_mv;
        let ramp_us = (target_mv - self.start_mv).abs() / self.slew_mv_per_us;
        self.settles_at = self.ramp_begins + SimDuration::from_picos((ramp_us * 1e6).ceil() as u64);
    }

    /// When the rail will have fully reached its target (an instant in
    /// the past if it already has), rounded up to the picosecond.
    #[must_use]
    pub fn settles_at(&self) -> SimTime {
        self.settles_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn vr() -> VoltageRegulator {
        VoltageRegulator::new(1_000.0, us(8), 10.0)
    }

    #[test]
    fn idle_rail_holds_voltage() {
        let v = vr();
        assert_eq!(v.voltage_mv(SimTime::ZERO), 1_000.0);
        assert_eq!(v.voltage_mv(SimTime::ZERO + us(1_000)), 1_000.0);
    }

    #[test]
    fn settle_delay_gates_the_ramp() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 900.0);
        assert_eq!(v.voltage_mv(SimTime::ZERO + us(7)), 1_000.0);
        let mid = v.voltage_mv(SimTime::ZERO + us(13)); // 5 µs into the ramp
        assert!((mid - 950.0).abs() < 1e-9, "mid={mid}");
    }

    #[test]
    fn ramp_completes_at_slew_rate() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 900.0);
        // 100 mV at 10 mV/µs = 10 µs of ramp + 8 µs settle.
        assert!((v.voltage_mv(SimTime::ZERO + us(18)) - 900.0).abs() < 1e-9);
        assert_eq!(v.settles_at(), SimTime::ZERO + us(18));
    }

    #[test]
    fn upward_ramp_symmetrical() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 1_100.0);
        let mid = v.voltage_mv(SimTime::ZERO + us(13));
        assert!((mid - 1_050.0).abs() < 1e-9);
        assert_eq!(v.voltage_mv(SimTime::ZERO + us(50)), 1_100.0);
    }

    #[test]
    fn retarget_mid_ramp_starts_from_current_voltage() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 900.0);
        // At 13 µs the rail is at 950 mV; retarget back up to 1000.
        let t = SimTime::ZERO + us(13);
        v.set_target(t, 1_000.0);
        assert!(
            (v.voltage_mv(t + us(4)) - 950.0).abs() < 1e-9,
            "still settling"
        );
        // 50 mV to climb at 10 mV/µs after the 8 µs settle.
        assert!((v.voltage_mv(t + us(13)) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn same_target_is_a_no_op() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 900.0);
        let settles = v.settles_at();
        // Re-requesting the identical target later must not restart the ramp.
        v.set_target(SimTime::ZERO + us(2), 900.0);
        assert_eq!(v.settles_at(), settles);
    }

    #[test]
    fn holds_until_tracks_the_settle_window_and_the_ramp() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 900.0);
        let ramp_begins = SimTime::ZERO + us(8);
        assert_eq!(v.holds_until(SimTime::ZERO), Some(ramp_begins));
        assert_eq!(v.holds_until(ramp_begins), Some(ramp_begins));
        let mid = SimTime::ZERO + us(13);
        assert_eq!(v.holds_until(mid), Some(mid));
        // 100 mV at 10 mV/µs: the rail lands on the target 10 µs into
        // the ramp and not one picosecond earlier.
        let lands = ramp_begins + us(10);
        let before = SimTime::from_picos(lands.as_picos() - 1);
        assert_eq!(v.holds_until(before), Some(before));
        assert_eq!(v.holds_until(lands), None);
        assert_eq!(v.voltage_mv(lands), 900.0);
        // A retarget mid-ramp opens a new settle window from there.
        v.set_target(mid, 1_000.0);
        assert_eq!(v.holds_until(mid + us(1)), Some(mid + us(8)));
        assert_eq!(v.holds_until(mid + us(9)), Some(mid + us(9)));
        assert_eq!(v.holds_until(mid + us(13)), None);
    }

    #[test]
    fn rail_never_moves_after_holds_until_turns_none() {
        let mut rng = plugvolt_des::rng::SimRng::from_seed_label(7, "vr/holds_until");
        for _ in 0..500 {
            let start = 600.0 + rng.next_f64() * 600.0;
            let target = 600.0 + rng.next_f64() * 600.0;
            let slew = 0.5 + rng.next_f64() * 20.0;
            let settle = SimDuration::from_picos(rng.below(2_000_000_000));
            let mut v = VoltageRegulator::new(start, settle, slew);
            let t0 = SimTime::from_picos(1 + rng.below(1_000_000_000));
            v.set_target(t0, target);
            let mut t = t0;
            while v.holds_until(t).is_some() {
                t += SimDuration::from_picos(1 + rng.below(50_000_000));
            }
            for shift in [0, 1, 1_000, 123_456_789, 10_000_000_000] {
                let later = t + SimDuration::from_picos(shift);
                assert_eq!(v.holds_until(later), None);
                assert_eq!(v.voltage_mv(later).to_bits(), target.to_bits());
            }
        }
    }

    #[test]
    fn target_getter() {
        let mut v = vr();
        v.set_target(SimTime::ZERO, 875.5);
        assert_eq!(v.target_mv(), 875.5);
    }
}
