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
//! [`SlackTable`] lays that grid out once per process per model and
//! evaluates each block of 64 offset steps of a `(frequency, plane)` row
//! the first time a lookup hits it, turning the batch hot path into one
//! indexed load from a dense block. Most processes read a small part of
//! the grid (a Table 2 run at one frequency reads the nominal point of
//! 2 of Comet Lake's 92 rows, so it builds 2 of its 828 blocks, 2
//! entries in all), so nothing is computed or kept before it is read.
//! **The table is a cache, never a semantic change**: every stored
//! value is produced by the *same* helpers the analytic path goes
//! through, keyed by the exact bit pattern of the voltage, so a hit
//! returns bit-identical slack/probability values and consumes the RNG
//! stream identically.
//! Off-grid queries (mid-slew rails, unit-varied specs, cross-frequency
//! demand) miss the table and fall back to the analytic path —
//! correctness never depends on a hit.
//!
//! Of the eight slacks a grid point stores (five instruction classes,
//! three imul operand classes), every one is a path through the same
//! multiplier at the same voltage, and only two values in them depend on
//! the voltage: the clock-to-Q and per-gate stage delays. A row build
//! evaluates those once per point (`MultiplierUnit::stage_delays`, two
//! `powf`) and the two paths the classes interpolate between once,
//! instead of re-running the alpha-power model per slack (26 `powf`).

use crate::exec::{ExecutionEngine, InstrClass};
use crate::freq::FreqMhz;
use crate::model::{CpuModel, CpuSpec};
use plugvolt_circuit::delay::{Millivolts, Picoseconds};
use plugvolt_circuit::fault::FaultModel;
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_circuit::timing::{TimingBudget, TimingState};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Deepest OC-mailbox offset the grid covers, in 1/1.024 mV units
/// (the mailbox encodes offsets as signed 11-bit values in 1/1024 V
/// steps; −512 units ≈ −500 mV, far past every model's crash region).
pub const MIN_OFFSET_UNITS: i16 = -512;

/// Offset steps per `(frequency, plane)` curve: `MIN_OFFSET_UNITS..=0`.
const OFFSET_SPAN: usize = -(MIN_OFFSET_UNITS as isize) as usize + 1;

/// Offset steps per lazily built block of a row; the last block of a
/// row holds the remainder (the nominal step alone).
const BLOCK: usize = 64;

/// Blocks per `(frequency, plane)` row.
const BLOCKS_PER_ROW: usize = OFFSET_SPAN.div_ceil(BLOCK);

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
/// Storage is dense and direct-indexed, not a hash map: the grid is a
/// perfect cartesian product (table frequency × plane × offset step),
/// so a lookup is a binary search over the (tiny, sorted) frequency list
/// followed by *deriving* the offset-unit index back from the voltage
/// and one array load. A lookup only hits when the query voltage has the
/// exact bits of the grid voltage at that index, which guarantees the
/// cached values equal what the analytic path would compute for that
/// voltage, however the rail arrived there. The hash-map probe this
/// replaces cost as much as the analytic math it was saving (SipHash
/// over 12-byte keys, ~70 ns); the indexed load is a few nanoseconds.
///
/// Each `(frequency, plane)` row of 513 offset steps is split into
/// blocks of 64; a block is built on the first hit that lands in it and
/// kept for the life of the table. A run that stays at one operating
/// point builds one block per plane it reads, not the whole grid or
/// whole rows. Concurrent first touches of a block build it once.
#[derive(Debug)]
pub struct SlackTable {
    /// Sorted table frequencies, in MHz.
    freqs: Vec<u32>,
    /// Per-`(frequency, plane)` nominal voltage (the `units == 0`
    /// curve value), indexed `freq_idx * PLANES + plane`. Used to
    /// derive the offset-unit index from a query voltage.
    bases: Vec<f64>,
    /// The analytic engine's inputs, from which a block is built.
    mul: MultiplierUnit,
    fault_model: FaultModel,
    t_setup_ps: f64,
    t_eps_ps: f64,
    /// Cached grid values: `BLOCKS_PER_ROW` blocks per `(frequency,
    /// plane)` row, rows parallel to `bases`, indexed `row *
    /// BLOCKS_PER_ROW + step / BLOCK`; each empty until its first hit.
    blocks: Box<[OnceLock<Box<[GridEntry]>>]>,
    build_ns: u64,
}

/// The grid voltage `units` mailbox steps from the nominal `base`: the
/// same expression as `CpuPackage::retarget_rail`, reproduced
/// term-for-term so the bits match. The offset units (an i16 widened to
/// f64 there, any integral f64 here: a rounded `-0.0` adds nothing
/// either) are scaled by 1000/1024 mV per unit and added to the nominal
/// curve.
fn grid_voltage(base: Millivolts, units: f64) -> Millivolts {
    base + units * 1000.0 / 1024.0
}

impl SlackTable {
    /// Lays out the grid for `spec` without evaluating any of it.
    ///
    /// The grid is every table frequency × every mailbox offset step in
    /// `[MIN_OFFSET_UNITS, 0]`, applied to both the core and the cache
    /// nominal curves — the exact voltages the regulator targets in
    /// `retarget_rail`. Blocks are evaluated on first hit (see
    /// [`SlackTable::entry`]).
    #[must_use]
    pub fn build(spec: &CpuSpec) -> Self {
        // plugvolt-lint: allow(no-wall-clock) host-side build cost, never read by the sim
        let start = std::time::Instant::now();
        let freqs: Vec<u32> = spec.freq_table.iter().map(FreqMhz::mhz).collect();
        debug_assert!(freqs.windows(2).all(|w| w[0] < w[1]));
        let bases: Vec<f64> = spec
            .freq_table
            .iter()
            .flat_map(|f| [spec.nominal_voltage_mv(f), spec.nominal_cache_voltage_mv(f)])
            .collect();
        let blocks = (0..bases.len() * BLOCKS_PER_ROW)
            .map(|_| OnceLock::new())
            .collect();
        let mul = spec.multiplier();
        let build_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SlackTable {
            freqs,
            bases,
            mul,
            fault_model: spec.fault_model(),
            t_setup_ps: spec.t_setup_ps,
            t_eps_ps: spec.t_eps_ps,
            blocks,
            build_ns,
        }
    }

    /// Block `block` of the grid, evaluated on first use.
    #[inline]
    fn block(&self, block: usize) -> &[GridEntry] {
        match self.blocks[block].get() {
            Some(entries) => entries,
            None => self.build_block(block),
        }
    }

    /// Evaluates block `block` once; a concurrent caller waits for it.
    /// Kept out of line so the lookup stays small where it is inlined.
    #[cold]
    #[inline(never)]
    fn build_block(&self, block: usize) -> &[GridEntry] {
        self.blocks[block].get_or_init(|| {
            let engine = ExecutionEngine::new(
                self.mul.clone(),
                self.fault_model,
                self.t_setup_ps,
                self.t_eps_ps,
            );
            let row = block / BLOCKS_PER_ROW;
            let budget = engine.budget(FreqMhz(self.freqs[row / PLANES]));
            let base = self.bases[row];
            let first = (block % BLOCKS_PER_ROW) * BLOCK;
            (first..OFFSET_SPAN.min(first + BLOCK))
                .map(|step| {
                    let units = i32::from(MIN_OFFSET_UNITS) + step as i32;
                    Self::grid_entry(&engine, &budget, grid_voltage(base, f64::from(units)))
                })
                .collect()
        })
    }

    /// Computes one grid point *via the engine's own analytic helpers*,
    /// so the cached bits are the analytic bits by construction. The two
    /// stage delays and the two class-bounding paths are evaluated once
    /// per voltage and shared by all eight slacks.
    fn grid_entry(engine: &ExecutionEngine, budget: &TimingBudget, v_mv: Millivolts) -> GridEntry {
        let fm = engine.fault_model();
        let entry = |path_ps: Picoseconds| {
            let slack_ps = budget.slack_ps(path_ps);
            ClassEntry {
                slack_ps,
                state: fm.classify(slack_ps),
                fault_p: fm.fault_probability(slack_ps),
            }
        };
        let mul = engine.multiplier();
        let st = mul.stage_delays(v_mv);
        let paths = engine.class_paths(st);
        let classes = InstrClass::ALL.map(|c| entry(paths.delay_ps(c)));
        let imul_ops =
            MultiplierUnit::IMUL_LOOP_CLASSES.map(|(_, a, b)| entry(mul.path_delay_at(a, b, st)));
        GridEntry { classes, imul_ops }
    }

    /// Looks up the grid point for `(f, v_mv)`, `None` when off-grid.
    ///
    /// The offset-unit index is derived arithmetically from the query
    /// voltage (`units ≈ (v − nominal) · 1024/1000`, rounded), then the
    /// grid voltage at that index is compared against the query bits.
    /// Rounding error in the derivation can only ever land on the
    /// *adjacent* step, whose grid bits then differ — so a wrong index
    /// degrades to a miss (analytic fallback), never a wrong hit. Only a
    /// hit touches its block, so a miss never builds one.
    #[inline]
    #[must_use]
    pub fn entry(&self, f: FreqMhz, v_mv: Millivolts) -> Option<&GridEntry> {
        let fi = self.freqs.binary_search(&f.mhz()).ok()?;
        let bits = v_mv.to_bits();
        for plane in 0..PLANES {
            let row = fi * PLANES + plane;
            let base = self.bases[row];
            let units = ((v_mv - base) * 1024.0 / 1000.0).round();
            if units < f64::from(MIN_OFFSET_UNITS) || units > 0.0 {
                continue;
            }
            if grid_voltage(base, units).to_bits() == bits {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let step = (units - f64::from(MIN_OFFSET_UNITS)) as usize;
                return Some(&self.block(row * BLOCKS_PER_ROW + step / BLOCK)[step % BLOCK]);
            }
        }
        None
    }

    /// Number of addressable `(frequency, voltage)` grid points, built
    /// or not (blocks are evaluated on first hit).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bases.len() * OFFSET_SPAN
    }

    /// Whether the grid is empty (never true for a real spec).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Wall-clock nanoseconds [`SlackTable::build`] took: the skeleton
    /// only, not the blocks later built on first hit. Telemetry-only: this
    /// is the single host-dependent value the table carries, and it
    /// never feeds back into simulation results.
    #[must_use]
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }

    /// How many blocks have been built so far.
    #[cfg(test)]
    fn blocks_built(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count()
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

    /// A fresh Comet Lake table and the core/cache row indices of its
    /// base frequency.
    fn fresh_base_rows() -> (CpuSpec, SlackTable, usize, usize) {
        let spec = CpuModel::CometLake.spec();
        let table = SlackTable::build(&spec);
        let fi = table
            .freqs
            .binary_search(&spec.base_freq.mhz())
            .expect("table frequency");
        (spec, table, fi * PLANES, fi * PLANES + 1)
    }

    /// The block holding `units` on `row`.
    fn block_of(row: usize, units: i16) -> usize {
        row * BLOCKS_PER_ROW + (units - MIN_OFFSET_UNITS) as usize / BLOCK
    }

    #[test]
    fn a_fresh_table_has_built_no_blocks() {
        let (_, table, _, _) = fresh_base_rows();
        assert_eq!(table.blocks_built(), 0);
        assert_eq!(table.len(), 46 * PLANES * OFFSET_SPAN);
        assert_eq!(table.blocks.len(), 46 * PLANES * 9);
    }

    #[test]
    fn a_core_curve_hit_builds_exactly_its_block() {
        let (spec, table, core_row, _) = fresh_base_rows();
        let f = spec.base_freq;
        let at = |units: i16| spec.nominal_voltage_mv(f) + f64::from(units) * 1000.0 / 1024.0;
        assert!(table.entry(f, at(-100)).is_some());
        assert_eq!(table.blocks_built(), 1);
        assert!(table.blocks[block_of(core_row, -100)].get().is_some());
        // A second hit in the same block builds nothing more; one in
        // another block of the row builds that block alone.
        assert_eq!(block_of(core_row, -90), block_of(core_row, -100));
        assert!(table.entry(f, at(-90)).is_some());
        assert_eq!(table.blocks_built(), 1);
        assert!(table.entry(f, at(0)).is_some());
        assert_eq!(table.blocks_built(), 2);
        assert_eq!(
            table.blocks[block_of(core_row, 0)].get().map(|b| b.len()),
            Some(1)
        );
        assert!(table.entry(f, at(MIN_OFFSET_UNITS)).is_some());
        assert_eq!(table.blocks_built(), 3);
    }

    #[test]
    fn a_cache_curve_hit_leaves_the_core_blocks_unbuilt() {
        let (spec, table, core_row, cache_row) = fresh_base_rows();
        let f = spec.base_freq;
        let v = spec.nominal_cache_voltage_mv(f) - 100.0 * 1000.0 / 1024.0;
        assert!(table.entry(f, v).is_some());
        assert_eq!(table.blocks_built(), 1);
        assert!(table.blocks[block_of(cache_row, -100)].get().is_some());
        assert!(table.blocks[block_of(core_row, -100)].get().is_none());
    }

    #[test]
    fn misses_build_nothing() {
        let (spec, table, _, _) = fresh_base_rows();
        let f = spec.base_freq;
        let v = spec.nominal_voltage_mv(f);
        // Mid-slew, above nominal, past the deepest step, off-table.
        assert!(table.entry(f, v - 0.123_456_789).is_none());
        assert!(table.entry(f, v + 1.0).is_none());
        assert!(table.entry(f, v - 600.0).is_none());
        assert!(table.entry(FreqMhz(1_850), v).is_none());
        assert_eq!(table.blocks_built(), 0);
    }

    #[test]
    fn shared_table_is_memoized() {
        let a = shared_table(CpuModel::SkyLake);
        let b = shared_table(CpuModel::SkyLake);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.build_ns(), b.build_ns());
    }
}
