//! Online statistics used by the harnesses and reports.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Streaming summary statistics (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use plugvolt_des::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
                self.count,
                self.mean(),
                self.std_dev(),
                self.min,
                self.max
            )
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Fixed-bin histogram over a closed value range.
///
/// Out-of-range observations are clamped into the first/last bin so the
/// total count always equals the number of `record` calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `lo >= hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "lo must be below hi");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `count` observations of the same value, exactly as
    /// `count` calls of [`record`](Self::record) would.
    pub fn record_n(&mut self, value: f64, count: u64) {
        let n = self.bins.len();
        let frac = (value - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[idx] += count;
    }

    /// Bin counts.
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Adds every bin count into `dst` and empties `self`. Counts are
    /// integers, so draining batched observations is exact: `dst` ends
    /// up as if it had recorded each value itself.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different layouts.
    pub fn drain_into(&mut self, dst: &mut Histogram) {
        assert!(
            self.lo == dst.lo && self.hi == dst.hi && self.bins.len() == dst.bins.len(),
            "histogram layouts differ"
        );
        for (d, s) in dst.bins.iter_mut().zip(&mut self.bins) {
            *d += std::mem::take(s);
        }
    }

    /// Inclusive value range covered by bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.bins.len());
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (
            self.lo + width * idx as f64,
            self.lo + width * (idx + 1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_matches_single_stream() {
        let all: Summary = (0..100).map(f64::from).collect();
        let mut left: Summary = (0..37).map(f64::from).collect();
        let right: Summary = (37..100).map(f64::from).collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-100.0); // clamps to bin 0
        h.record(0.5);
        h.record(9.9);
        h.record(100.0); // clamps to bin 4
        assert_eq!(h.bins(), &[2, 0, 0, 0, 2]);
        assert_eq!(h.total(), 4);
        let (lo, hi) = h.bin_range(1);
        assert!((lo - 2.0).abs() < 1e-12 && (hi - 4.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_records() {
        let mut once = Histogram::new(0.0, 10.0, 5);
        let mut each = Histogram::new(0.0, 10.0, 5);
        for (v, n) in [(3.3, 7), (-1.0, 2), (42.0, 1), (5.0, 0)] {
            once.record_n(v, n);
            (0..n).for_each(|_| each.record(v));
        }
        assert_eq!(once, each);
        assert_eq!(once.bins(), &[2, 7, 0, 0, 1]);
    }

    #[test]
    fn histogram_drain_adds_counts_and_empties_source() {
        let mut batch = Histogram::new(0.0, 10.0, 5);
        let mut direct = Histogram::new(0.0, 10.0, 5);
        let mut dst = Histogram::new(0.0, 10.0, 5);
        dst.record(1.0);
        direct.record(1.0);
        for v in [0.5, 3.0, 3.5, 42.0] {
            batch.record(v);
            direct.record(v);
        }
        batch.drain_into(&mut dst);
        assert_eq!(dst, direct);
        assert_eq!(batch.total(), 0);
    }

    #[test]
    #[should_panic(expected = "layouts differ")]
    fn histogram_drain_rejects_other_layouts() {
        Histogram::new(0.0, 10.0, 5).drain_into(&mut Histogram::new(0.0, 10.0, 4));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
