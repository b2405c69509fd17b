//! Deterministic randomness for simulations.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! seeded from a run-level seed plus a stable *stream label*, so adding a
//! new consumer of randomness never perturbs existing streams (the classic
//! "random stream splitting" discipline of reproducible simulators).

/// A deterministic random stream.
///
/// Thin wrapper over an in-tree xoshiro256++ generator that adds stream
/// derivation and the handful of sampling helpers the fault models need.
/// The generator is implemented here (rather than pulled from the `rand`
/// crate) so the workspace builds with no registry access and so the
/// stream is pinned to this source tree forever — a dependency bump can
/// never silently re-run every experiment on different numbers, which is
/// the reproducibility property the `plugvolt-lint` `no-ambient-rng`
/// rule exists to protect.
///
/// # Examples
///
/// ```
/// use plugvolt_des::rng::SimRng;
///
/// let mut a = SimRng::from_seed_label(42, "fault-model");
/// let mut b = SimRng::from_seed_label(42, "fault-model");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = SimRng::from_seed_label(42, "other-stream");
/// assert_ne!(SimRng::from_seed_label(42, "fault-model").next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256pp,
}

/// xoshiro256++ (Blackman & Vigna): 256-bit state, 64-bit output, a
/// standard small-state generator for reproducible simulation. Not
/// cryptographic — nothing in the simulator needs unpredictability,
/// only stability.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with SplitMix64, per
    /// the generator authors' recommendation (avoids all-zero states).
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0_u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64(x);
        }
        Xoshiro256pp { s }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// Derives a labelled child seed from a root seed.
///
/// This is the workspace's single seed-derivation primitive: one
/// run-level root seed fans out into per-purpose (and, for the
/// characterization sweep, per-column) seeds keyed by a stable string label. The same
/// `(root, label)` pair always yields the same seed; distinct labels
/// yield independent seeds. [`SimRng::from_seed_label`] is exactly
/// "seed a generator from `derive_seed(root, label)`", so a machine
/// built from a derived seed and a stream built from the same label
/// agree by construction.
///
/// The mixing is FNV-1a over the label folded into the root via
/// SplitMix64 — stable, dependency-free, and pinned to this source
/// tree forever.
#[must_use]
pub fn derive_seed(root: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(root ^ h)
}

impl SimRng {
    /// Creates a stream from a run seed and a stable stream label.
    #[must_use]
    pub fn from_seed_label(seed: u64, label: &str) -> Self {
        SimRng {
            inner: Xoshiro256pp::seed_from_u64(derive_seed(seed, label)),
        }
    }

    /// Derives a child stream, e.g. one per CPU core.
    #[must_use]
    pub fn derive(&self, label: &str) -> Self {
        // Derivation depends only on the parent's construction-time label,
        // not on how much the parent has been consumed; we read a fresh
        // value from a clone so the parent state is untouched.
        let mut probe = self.inner.clone();
        SimRng::from_seed_label(probe.next_u64(), label)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free for our purposes: modulo bias is
        // negligible at 64 bits for the small bounds used here, but we
        // reject to stay exact.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Gaussian draw via Box–Muller (mean 0, standard deviation 1).
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            let v = self.next_f64();
            if u > f64::EPSILON {
                // plugvolt-lint: allow(hot-path-transcendentals) Box-Muller needs ln(); jitter only
                return (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed_label(7, "x");
        let mut b = SimRng::from_seed_label(7, "x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = SimRng::from_seed_label(7, "x");
        let mut b = SimRng::from_seed_label(7, "y");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_seed_same_label_same_stream() {
        assert_eq!(
            derive_seed(2024, "characterize/f800"),
            derive_seed(2024, "characterize/f800")
        );
        let mut a = SimRng::from_seed_label(derive_seed(2024, "shard"), "cpu");
        let mut b = SimRng::from_seed_label(derive_seed(2024, "shard"), "cpu");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_seed_distinct_labels_distinct_streams() {
        let labels = [
            "characterize/f800",
            "characterize/f900",
            "defense/attack0",
            "",
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(derive_seed(7, a), derive_seed(7, b), "{a} vs {b}");
                let mut sa = SimRng::from_seed_label(derive_seed(7, a), "x");
                let mut sb = SimRng::from_seed_label(derive_seed(7, b), "x");
                assert_ne!(sa.next_u64(), sb.next_u64(), "{a} vs {b}");
            }
        }
        // Distinct roots diverge under the same label too.
        assert_ne!(derive_seed(7, "x"), derive_seed(8, "x"));
    }

    #[test]
    fn derive_is_stable() {
        let parent = SimRng::from_seed_label(7, "parent");
        let mut c1 = parent.derive("core0");
        let mut c2 = parent.derive("core0");
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = parent.derive("core1");
        assert_ne!(parent.derive("core0").next_u64(), other.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::from_seed_label(1, "f");
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed_label(1, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::from_seed_label(2, "cal");
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_seed_label(3, "b");
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn in_range_inclusive() {
        let mut r = SimRng::from_seed_label(4, "r");
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.in_range(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::from_seed_label(5, "g");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }
}
