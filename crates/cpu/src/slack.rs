//! Precomputed slack tables: the hot-path cache over Eq. 1.
//!
//! Every simulated batch (`run_batch_on_rails`, `run_imul_loop`) derives
//! the same three quantities from `(frequency, voltage)`: the path slack,
//! its [`TimingState`] classification and the per-instruction fault
//! probability. All three go through the alpha-power delay model
//! (`powf`) and the fault-band sigmoid (`exp`) — pure functions of the
//! grid point. The paper's S1 characterization (Algorithms 1–2) and the
//! S2 workload matrices sweep exactly the cartesian product
//! frequency-table × mailbox voltage steps, so the set of `(f, V)` pairs
//! the simulator can ever observe *on a settled rail* is finite and
//! known at boot: each table frequency × each OC-mailbox offset step
//! (1/1.024 mV granularity, see `OcRequest`), on both the core and the
//! cache nominal curves.
//!
//! [`SlackTable`] evaluates that grid once per process per model and
//! memoizes the result, turning the batch hot path into a `HashMap`
//! probe. **The table is a cache, never a semantic change**: every
//! stored value is produced by calling the *same* engine methods the
//! analytic path calls, keyed by the exact bit pattern of the voltage,
//! so a hit returns bit-identical slack/probability values and consumes
//! the RNG stream identically. Off-grid queries (mid-slew rails,
//! unit-varied specs, cross-frequency demand) miss the map and fall
//! back to the analytic path — correctness never depends on a hit.

use crate::exec::{ExecutionEngine, InstrClass};
use crate::freq::FreqMhz;
use crate::model::{CpuModel, CpuSpec};
use plugvolt_circuit::delay::{Millivolts, Picoseconds};
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_circuit::timing::TimingState;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Deepest OC-mailbox offset the grid covers, in 1/1.024 mV units
/// (the mailbox encodes offsets as signed 11-bit values in 1/1024 V
/// steps; −512 units ≈ −500 mV, far past every model's crash region).
pub const MIN_OFFSET_UNITS: i16 = -512;

/// Offset steps per `(frequency, plane)` curve: `MIN_OFFSET_UNITS..=0`.
const OFFSET_SPAN: usize = -(MIN_OFFSET_UNITS as isize) as usize + 1;

/// Voltage planes each grid frequency carries (core, cache).
const PLANES: usize = 2;

/// Cached timing quantities for one instruction class (or one operand
/// class of the imul loop) at one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassEntry {
    /// Eq. 1 slack, bit-identical to `ExecutionEngine::class_slack_ps`.
    pub slack_ps: Picoseconds,
    /// `FaultModel::classify(slack_ps)` precomputed.
    pub state: TimingState,
    /// `FaultModel::fault_probability(slack_ps)` precomputed.
    pub fault_p: f64,
}

/// All cached quantities for one `(frequency, voltage)` grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridEntry {
    /// Per-[`InstrClass`] entries, in [`InstrClass::ALL`] order
    /// (index with [`class_index`]).
    pub classes: [ClassEntry; 5],
    /// Per-operand-class entries of the EXECUTE-thread imul loop, in
    /// [`MultiplierUnit::IMUL_LOOP_CLASSES`] order.
    pub imul_ops: [ClassEntry; 3],
}

/// Index of `class` into [`GridEntry::classes`] ([`InstrClass::ALL`]
/// order).
#[must_use]
pub fn class_index(class: InstrClass) -> usize {
    match class {
        InstrClass::Imul => 0,
        InstrClass::Aesenc => 1,
        InstrClass::Fma => 2,
        InstrClass::AluAdd => 3,
        InstrClass::Load => 4,
    }
}

/// The precomputed slack table for one CPU model's base spec.
///
/// Storage is a dense direct-indexed array, not a hash map: the grid is
/// a perfect cartesian product (table frequency × plane × offset step),
/// so a lookup is a binary search over the (tiny, sorted) frequency list
/// followed by *deriving* the offset-unit index back from the voltage
/// and one array load. Each slot carries the exact bit pattern of the
/// voltage it was built for; a lookup only hits when the query voltage
/// matches those bits, which guarantees the cached values equal what
/// the analytic path would compute for that voltage, however the rail
/// arrived there. The hash-map probe this replaces cost as much as the
/// analytic math it was saving (SipHash over 12-byte keys, ~70 ns); the
/// indexed load is a few nanoseconds.
#[derive(Debug)]
pub struct SlackTable {
    /// Sorted table frequencies, in MHz.
    freqs: Vec<u32>,
    /// Per-`(frequency, plane)` nominal voltage (the `units == 0`
    /// curve value), indexed `freq_idx * PLANES + plane`. Used to
    /// derive the offset-unit index from a query voltage.
    bases: Vec<f64>,
    /// Exact voltage bits per slot, for hit verification.
    v_bits: Vec<u64>,
    /// Cached grid values, parallel to `v_bits`.
    entries: Vec<GridEntry>,
    build_ns: u64,
}

impl SlackTable {
    /// Evaluates the full grid for `spec`.
    ///
    /// The grid is every table frequency × every mailbox offset step in
    /// `[MIN_OFFSET_UNITS, 0]`, applied to both the core and the cache
    /// nominal curves — the exact voltage expressions the regulator
    /// targets in `retarget_rail`, reproduced term-for-term so the slot
    /// bits match.
    #[must_use]
    pub fn build(spec: &CpuSpec) -> Self {
        let start = std::time::Instant::now(); // plugvolt-lint: allow(no-wall-clock)
        let engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        let freqs: Vec<u32> = spec.freq_table.iter().map(FreqMhz::mhz).collect();
        debug_assert!(freqs.windows(2).all(|w| w[0] < w[1]));
        let mut bases = Vec::with_capacity(freqs.len() * PLANES);
        let mut v_bits = Vec::with_capacity(freqs.len() * PLANES * OFFSET_SPAN);
        let mut entries = Vec::with_capacity(freqs.len() * PLANES * OFFSET_SPAN);
        for f in spec.freq_table.iter() {
            bases.push(spec.nominal_voltage_mv(f));
            bases.push(spec.nominal_cache_voltage_mv(f));
            for plane in 0..PLANES {
                let base = bases[bases.len() - PLANES + plane];
                for units in MIN_OFFSET_UNITS..=0 {
                    // Same expression as CpuPackage::retarget_rail: the
                    // offset units are an i16 widened to f64, scaled by
                    // 1000/1024 mV per unit, added to the nominal curve.
                    let v_mv = base + f64::from(units) * 1000.0 / 1024.0;
                    v_bits.push(v_mv.to_bits());
                    entries.push(Self::grid_entry(&engine, f, v_mv));
                }
            }
        }
        let build_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SlackTable {
            freqs,
            bases,
            v_bits,
            entries,
            build_ns,
        }
    }

    /// Computes one grid point *via the engine's own analytic methods*,
    /// so the cached bits are the analytic bits by construction.
    fn grid_entry(engine: &ExecutionEngine, f: FreqMhz, v_mv: Millivolts) -> GridEntry {
        let fm = engine.fault_model();
        let entry = |slack_ps: Picoseconds| ClassEntry {
            slack_ps,
            state: fm.classify(slack_ps),
            fault_p: fm.fault_probability(slack_ps),
        };
        let classes = InstrClass::ALL.map(|c| entry(engine.class_slack_ps(c, f, v_mv)));
        let budget = engine.budget(f);
        let imul_ops = MultiplierUnit::IMUL_LOOP_CLASSES
            .map(|(_, a, b)| entry(engine.multiplier().slack_ps(a, b, &budget, v_mv)));
        GridEntry { classes, imul_ops }
    }

    /// Looks up the grid point for `(f, v_mv)`, `None` when off-grid.
    ///
    /// The offset-unit index is derived arithmetically from the query
    /// voltage (`units ≈ (v − nominal) · 1024/1000`, rounded), then the
    /// slot's stored voltage bits are compared against the query bits.
    /// Rounding error in the derivation can only ever land on the
    /// *adjacent* slot, whose stored bits then differ — so a wrong
    /// index degrades to a miss (analytic fallback), never a wrong hit.
    #[inline]
    #[must_use]
    pub fn entry(&self, f: FreqMhz, v_mv: Millivolts) -> Option<&GridEntry> {
        let fi = self.freqs.binary_search(&f.mhz()).ok()?;
        let bits = v_mv.to_bits();
        for plane in 0..PLANES {
            let units = (v_mv - self.bases[fi * PLANES + plane]) * 1024.0 / 1000.0;
            let units = units.round();
            if units < f64::from(MIN_OFFSET_UNITS) || units > 0.0 {
                continue;
            }
            #[allow(clippy::cast_possible_truncation)]
            let step = (units as i32 - i32::from(MIN_OFFSET_UNITS)) as usize;
            let slot = (fi * PLANES + plane) * OFFSET_SPAN + step;
            if self.v_bits[slot] == bits {
                return Some(&self.entries[slot]);
            }
        }
        None
    }

    /// Number of `(frequency, voltage)` grid points stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wall-clock nanoseconds the one-time build took. Telemetry-only:
    /// this is the single host-dependent value the table carries, and it
    /// never feeds back into simulation results.
    #[must_use]
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }
}

/// The per-model memoized store, keyed by spec name (mirrors the quick
/// characterization-map store in `plugvolt-bench`).
fn table_store() -> &'static Mutex<BTreeMap<&'static str, Arc<SlackTable>>> {
    static STORE: OnceLock<Mutex<BTreeMap<&'static str, Arc<SlackTable>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The shared, memoized slack table for `model`'s base spec: built on
/// first request, an `Arc` clone afterwards.
#[must_use]
pub fn shared_table(model: CpuModel) -> Arc<SlackTable> {
    let spec = model.spec();
    let mut store = table_store().lock().expect("slack-table store poisoned");
    Arc::clone(
        store
            .entry(spec.name)
            .or_insert_with(|| Arc::new(SlackTable::build(&spec))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_table_frequency() {
        let spec = CpuModel::SkyLake.spec();
        let table = SlackTable::build(&spec);
        for f in spec.freq_table.iter() {
            let v = spec.nominal_voltage_mv(f);
            assert!(table.entry(f, v).is_some(), "missing nominal point at {f}");
            let deepest = v + f64::from(MIN_OFFSET_UNITS) * 1000.0 / 1024.0;
            assert!(table.entry(f, deepest).is_some(), "missing −500 mV at {f}");
        }
        // 29 frequencies × 513 offsets × 2 planes, minus any bit-exact
        // collisions between the two curves (there are none: the cache
        // curve sits 20 mV below the core curve).
        assert_eq!(table.len(), 29 * 513 * 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn off_grid_queries_miss() {
        let spec = CpuModel::CometLake.spec();
        let table = SlackTable::build(&spec);
        let f = spec.base_freq;
        // A mid-slew voltage between two grid steps.
        let v = spec.nominal_voltage_mv(f) - 0.123_456_789;
        assert!(table.entry(f, v).is_none());
        // An off-table frequency.
        assert!(table
            .entry(FreqMhz(1_850), spec.nominal_voltage_mv(f))
            .is_none());
    }

    #[test]
    fn entries_match_the_analytic_path_bit_for_bit() {
        let spec = CpuModel::KabyLakeR.spec();
        let table = SlackTable::build(&spec);
        let engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        let f = spec.base_freq;
        for units in [-512i16, -300, -150, -1, 0] {
            let v = spec.nominal_voltage_mv(f) + f64::from(units) * 1000.0 / 1024.0;
            let entry = table.entry(f, v).expect("grid point present");
            for class in InstrClass::ALL {
                let cached = entry.classes[class_index(class)];
                let slack = engine.class_slack_ps(class, f, v);
                assert_eq!(cached.slack_ps.to_bits(), slack.to_bits());
                assert_eq!(cached.state, engine.fault_model().classify(slack));
                assert_eq!(
                    cached.fault_p.to_bits(),
                    engine.fault_model().fault_probability(slack).to_bits()
                );
            }
            for (i, (_, a, b)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                let slack = engine.multiplier().slack_ps(*a, *b, &engine.budget(f), v);
                assert_eq!(entry.imul_ops[i].slack_ps.to_bits(), slack.to_bits());
            }
        }
    }

    #[test]
    fn shared_table_is_memoized() {
        let a = shared_table(CpuModel::SkyLake);
        let b = shared_table(CpuModel::SkyLake);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.build_ns(), b.build_ns());
    }
}
