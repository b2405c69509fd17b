//! Latency summaries and the checks on reported names.

/// Percentiles the tail picker considers, in per mille, highest first
/// (p99.9, p99, p90, p50).
pub const TAIL_LADDER: [u64; 4] = [999, 990, 900, 500];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank of the `permille`-th per-mille percentile among `n`
/// samples (1-based, clamped to `1..=n`); integer arithmetic, so no
/// rounding can move a rank.
fn rank(n: usize, permille: u64) -> usize {
    let n64 = n as u64;
    let r = (permille * n64).div_ceil(1_000);
    (r as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `permille` / 1000 of the samples at or below it.
///
/// # Panics
///
/// If `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Samples strictly beyond the nearest-rank `permille` percentile of
/// `n` samples.
#[must_use]
pub fn beyond(n: usize, permille: u64) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The highest percentile of [`TAIL_LADDER`] (per mille) that leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, or the median when even
/// that leaves fewer (fewer than 20 samples).
#[must_use]
pub fn tail_percentile(n: usize) -> u64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(500)
}

/// Median of floats (mean of the middle pair for even lengths); 0 for
/// no samples.
pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The fastest time seen for each of a run's repeated inputs.
///
/// Other tenants of a shared host only ever add time to an op, in
/// phases of many seconds, so an input's fastest repeat is its least
/// disturbed time and moves only when the program's own work does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestOf {
    best: Vec<u64>,
}

impl BestOf {
    /// No times yet for `inputs` inputs.
    #[must_use]
    pub fn new(inputs: usize) -> Self {
        BestOf {
            best: vec![u64::MAX; inputs],
        }
    }

    /// Notes one op of input `input` taking `ns`.
    pub fn record(&mut self, input: usize, ns: u64) {
        let b = &mut self.best[input];
        *b = (*b).min(ns);
    }

    /// Mean over the inputs seen of each one's fastest time, ns; 0 when
    /// none was seen.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        let seen: Vec<u64> = self
            .best
            .iter()
            .copied()
            .filter(|&b| b != u64::MAX)
            .collect();
        ratio(seen.iter().map(|&b| b as f64).sum(), seen.len() as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reaches).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and
/// `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// FNV-1a over bytes: the output digest.
#[must_use]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64 finalizer: derives op seeds from the workload seed.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_leaves_ten_samples_beyond() {
        // 2,500 samples: p99.9 leaves 2, p99 leaves 25.
        assert_eq!(beyond(2_500, 999), 2);
        assert_eq!(tail_percentile(2_500), 990);
        assert!(beyond(2_500, 990) >= 10);
        // 1,000 samples: p99 leaves exactly 10.
        assert_eq!(beyond(1_000, 990), 10);
        assert_eq!(tail_percentile(1_000), 990);
        // 999 samples: p99 leaves 9, so fall back to p90.
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_percentile(999), 900);
        // 20,000 samples: p99.9 leaves 20.
        assert_eq!(tail_percentile(20_000), 999);
        // 100 samples: p90 leaves 10.
        assert_eq!(tail_percentile(100), 900);
        // 20 samples: only the median leaves 10.
        assert_eq!(tail_percentile(20), 500);
        // Too few for any: the median.
        assert_eq!(tail_percentile(19), 500);
        assert_eq!(tail_percentile(0), 500);
        for n in [20, 57, 99, 100, 101, 999, 1_000, 12_345] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 900), 90);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1_000), 100);
        assert_eq!(percentile(&[7], 999), 7);
        assert_eq!(percentile(&[1, 2], 0), 1);
        assert_eq!(percentile(&[1, 2, 3], 500), 2);
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&mut []), 0.0);
    }

    #[test]
    fn best_of_keeps_each_inputs_fastest_repeat() {
        let mut b = BestOf::new(3);
        assert_eq!(b.mean_ns(), 0.0);
        for (input, ns) in [(0, 40), (1, 10), (0, 30), (1, 90), (0, 50)] {
            b.record(input, ns);
        }
        // Input 2 never ran: the mean is over inputs 0 (30) and 1 (10).
        assert_eq!(b.mean_ns(), 20.0);
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for ok in [
            "setup_s",
            "kernel.run_workload.polled.calls",
            "op-p50",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".calls", "_x", "a b", "a/b", "λ", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "1/op", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_reported_name_is_valid() {
        for label in crate::tracer::Label::REPORTED {
            for suffix in ["calls", "ns", "share"] {
                let name = format!("{}.{suffix}", label.name());
                assert!(valid_name(&name), "{name}");
            }
        }
        for (name, unit) in crate::report::fixed_layer_metrics() {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn seeds_mix_and_digest_is_stable() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
