//! The characterization map: per-frequency unsafe bands.
//!
//! The artifact produced by step **S1** (Sec. 4.2) and consumed by step
//! **S2** (the polling countermeasure): for every characterized frequency,
//! the first undervolt offset at which faults manifest and the offset at
//! which the machine crashes. Everything is conservative by construction —
//! uncharacterized depths and frequencies classify as unsafe.

use crate::state::StateClass;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_msr::oc_mailbox::OcRequest;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Spacing of the frequency grid the band index covers: every P-state
/// table frequency is a multiple of 100 MHz.
const GRID_MHZ: u32 = 100;

/// Grid slots the band index may hold (up to 102.3 GHz). A loaded map
/// whose top band lies beyond keeps the tree search above this.
const GRID_SLOTS_MAX: u32 = 1_024;

/// The unsafe band observed at one frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FreqBand {
    /// Shallowest offset (mV, negative) where faults were observed, if
    /// any fault occurred within the sweep.
    pub fault_onset_mv: Option<i32>,
    /// Shallowest offset (mV, negative) where the machine crashed, if it
    /// crashed within the sweep.
    pub crash_mv: Option<i32>,
}

/// A characterization-map field outside the offsets the OC mailbox can
/// encode (`OcRequest::MIN_OFFSET_MV` and up), as a loaded map may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// `sweep_floor_mv` is not in `[OcRequest::MIN_OFFSET_MV, -1]`.
    SweepFloor {
        /// The offending floor.
        sweep_floor_mv: i32,
    },
    /// A band's `fault_onset_mv` is not in `[OcRequest::MIN_OFFSET_MV, 0]`.
    FaultOnset {
        /// The band's frequency.
        freq_mhz: u32,
        /// The offending onset.
        fault_onset_mv: i32,
    },
    /// A band's `crash_mv` is not in `[OcRequest::MIN_OFFSET_MV, 0]`.
    Crash {
        /// The band's frequency.
        freq_mhz: u32,
        /// The offending crash offset.
        crash_mv: i32,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let min = OcRequest::MIN_OFFSET_MV;
        match self {
            MapError::SweepFloor { sweep_floor_mv } => write!(
                f,
                "sweep_floor_mv {sweep_floor_mv} mV is outside [{min}, -1]"
            ),
            MapError::FaultOnset {
                freq_mhz,
                fault_onset_mv,
            } => write!(
                f,
                "fault_onset_mv {fault_onset_mv} mV at {freq_mhz} MHz is outside [{min}, 0]"
            ),
            MapError::Crash { freq_mhz, crash_mv } => write!(
                f,
                "crash_mv {crash_mv} mV at {freq_mhz} MHz is outside [{min}, 0]"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// The safe/unsafe characterization of one machine (Figures 2–4).
///
/// # Examples
///
/// ```
/// use plugvolt::charmap::{CharacterizationMap, FreqBand};
/// use plugvolt::state::StateClass;
/// use plugvolt_cpu::freq::FreqMhz;
///
/// let mut map = CharacterizationMap::new("demo", 0xf0, -300);
/// map.insert_band(FreqMhz(2_000), FreqBand {
///     fault_onset_mv: Some(-180),
///     crash_mv: Some(-210),
/// });
/// assert_eq!(map.classify(FreqMhz(2_000), -100), StateClass::Safe);
/// assert_eq!(map.classify(FreqMhz(2_000), -180), StateClass::Unsafe);
/// assert_eq!(map.classify(FreqMhz(2_000), -250), StateClass::Crash);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct CharacterizationMap {
    cpu_name: String,
    microcode: u32,
    /// Deepest offset the sweep covered (mV, negative). Depths below are
    /// uncharacterized and classify as unsafe.
    sweep_floor_mv: i32,
    bands: BTreeMap<u32, FreqBand>,
    /// The governing band of every grid frequency from 0 up to the top
    /// band, indexed by `mhz / GRID_MHZ`: derived from `bands` on the
    /// first lookup and dropped by [`CharacterizationMap::insert_band`].
    #[serde(skip)]
    grid: OnceLock<Box<[Option<FreqBand>]>>,
}

/// Equality is over the stored fields; the derived band index is not
/// part of a map's value.
impl PartialEq for CharacterizationMap {
    fn eq(&self, other: &Self) -> bool {
        self.cpu_name == other.cpu_name
            && self.microcode == other.microcode
            && self.sweep_floor_mv == other.sweep_floor_mv
            && self.bands == other.bands
    }
}

impl Eq for CharacterizationMap {}

impl std::fmt::Debug for CharacterizationMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CharacterizationMap")
            .field("cpu_name", &self.cpu_name)
            .field("microcode", &self.microcode)
            .field("sweep_floor_mv", &self.sweep_floor_mv)
            .field("bands", &self.bands)
            .finish()
    }
}

impl CharacterizationMap {
    /// Creates an empty map for a machine.
    ///
    /// # Panics
    ///
    /// Panics if `sweep_floor_mv` is not negative.
    #[must_use]
    pub fn new(cpu_name: impl Into<String>, microcode: u32, sweep_floor_mv: i32) -> Self {
        assert!(sweep_floor_mv < 0, "sweep floor must be a negative offset");
        CharacterizationMap {
            cpu_name: cpu_name.into(),
            microcode,
            sweep_floor_mv,
            bands: BTreeMap::new(),
            grid: OnceLock::new(),
        }
    }

    /// Checks that every offset lies in the range the OC mailbox can
    /// encode. A map built by a sweep always does; a map decoded from
    /// JSON is only trusted after this check, since the maximal safe
    /// state derived from it becomes a mailbox clamp value.
    ///
    /// # Errors
    ///
    /// The first out-of-range field, floor first, then bands ascending
    /// by frequency.
    pub fn validate(&self) -> Result<(), MapError> {
        let min = OcRequest::MIN_OFFSET_MV;
        if !(min..=-1).contains(&self.sweep_floor_mv) {
            return Err(MapError::SweepFloor {
                sweep_floor_mv: self.sweep_floor_mv,
            });
        }
        for (&freq_mhz, band) in &self.bands {
            if let Some(fault_onset_mv) = band.fault_onset_mv.filter(|o| !(min..=0).contains(o)) {
                return Err(MapError::FaultOnset {
                    freq_mhz,
                    fault_onset_mv,
                });
            }
            if let Some(crash_mv) = band.crash_mv.filter(|c| !(min..=0).contains(c)) {
                return Err(MapError::Crash { freq_mhz, crash_mv });
            }
        }
        Ok(())
    }

    /// The characterized machine's name.
    #[must_use]
    pub fn cpu_name(&self) -> &str {
        &self.cpu_name
    }

    /// The microcode revision the characterization was taken under.
    #[must_use]
    pub fn microcode(&self) -> u32 {
        self.microcode
    }

    /// The deepest swept offset.
    #[must_use]
    pub fn sweep_floor_mv(&self) -> i32 {
        self.sweep_floor_mv
    }

    /// Records the band observed at `freq` (replacing any previous one).
    pub fn insert_band(&mut self, freq: FreqMhz, band: FreqBand) {
        self.bands.insert(freq.mhz(), band);
        self.grid = OnceLock::new();
    }

    /// The band characterized at exactly `freq`, if any.
    #[must_use]
    pub fn band(&self, freq: FreqMhz) -> Option<FreqBand> {
        self.bands.get(&freq.mhz()).copied()
    }

    /// Number of characterized frequencies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bands.len()
    }

    /// Whether no frequency has been characterized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bands.is_empty()
    }

    /// Iterates `(frequency, band)` ascending by frequency.
    pub fn iter(&self) -> impl Iterator<Item = (FreqMhz, FreqBand)> + '_ {
        self.bands.iter().map(|(&f, &b)| (FreqMhz(f), b))
    }

    /// The band governing `freq`: the exact entry if characterized;
    /// between two characterized frequencies, the **more conservative**
    /// (shallower-onset) of the two neighbours; below the lowest, the
    /// lowest band. Slack only grows as frequency falls, so none of
    /// these can under-protect. Above the highest characterized
    /// frequency slack shrinks, so no band governs and the frequency is
    /// uncharacterized (`None`).
    ///
    /// A grid frequency (a multiple of 100 MHz, as every table
    /// frequency is) is one index into a per-map table derived on first
    /// use; any other frequency searches the bands.
    #[must_use]
    pub fn governing_band(&self, freq: FreqMhz) -> Option<FreqBand> {
        let mhz = freq.mhz();
        if mhz % GRID_MHZ == 0 {
            if let Some(&band) = self.grid().get((mhz / GRID_MHZ) as usize) {
                return band;
            }
        }
        self.search_governing_band(mhz)
    }

    /// The governing-band index, built on first use: one slot per grid
    /// frequency from 0 up to the top band (capped at `GRID_SLOTS_MAX`).
    fn grid(&self) -> &[Option<FreqBand>] {
        self.grid.get_or_init(|| {
            let slots = self
                .bands
                .keys()
                .next_back()
                .map_or(0, |&top| (top / GRID_MHZ + 1).min(GRID_SLOTS_MAX));
            (0..slots)
                .map(|k| self.search_governing_band(k * GRID_MHZ))
                .collect()
        })
    }

    /// [`governing_band`](Self::governing_band) by searching the bands.
    fn search_governing_band(&self, mhz: u32) -> Option<FreqBand> {
        let (&above_mhz, &above) = self.bands.range(mhz..).next()?;
        if above_mhz == mhz {
            return Some(above);
        }
        Some(match self.bands.range(..mhz).next_back() {
            Some((_, below)) => FreqBand {
                fault_onset_mv: shallower(below.fault_onset_mv, above.fault_onset_mv),
                crash_mv: shallower(below.crash_mv, above.crash_mv),
            },
            None => above,
        })
    }

    /// Classifies an observed state per the characterization.
    ///
    /// Conservative rules:
    /// - non-negative offsets are safe (the attack surface is undervolt);
    /// - offsets below the sweep floor are unsafe (uncharacterized);
    /// - with no band governing `freq` (an empty map, or a frequency
    ///   above the highest characterized one), any undervolt is unsafe.
    #[must_use]
    pub fn classify(&self, freq: FreqMhz, offset_mv: i32) -> StateClass {
        if offset_mv >= 0 {
            return StateClass::Safe;
        }
        let Some(band) = self.governing_band(freq) else {
            return StateClass::Unsafe;
        };
        if let Some(crash) = band.crash_mv {
            if offset_mv <= crash {
                return StateClass::Crash;
            }
        }
        if let Some(onset) = band.fault_onset_mv {
            if offset_mv <= onset {
                return StateClass::Unsafe;
            }
        }
        if offset_mv < self.sweep_floor_mv {
            return StateClass::Unsafe;
        }
        StateClass::Safe
    }

    /// The **maximal safe state** (Sec. 5): the deepest offset that is
    /// safe at *every* characterized frequency, pulled up by
    /// `margin_mv` ≥ 0 of extra guard. `None` if nothing is
    /// characterized.
    ///
    /// When some frequency never faulted within the sweep, the floor
    /// bounds what can be certified.
    #[must_use]
    pub fn maximal_safe_offset_mv(&self, margin_mv: i32) -> Option<i32> {
        if self.bands.is_empty() {
            return None;
        }
        let deepest_certifiable = self
            .bands
            .values()
            .map(|b| match b.fault_onset_mv {
                // Shallowest faulting offset: one step above it is safe.
                Some(onset) => onset + 1,
                // No fault within the sweep: certify only to the floor
                // (or to just above the crash if one occurred earlier).
                None => match b.crash_mv {
                    Some(crash) => crash + 1,
                    None => self.sweep_floor_mv,
                },
            })
            .max()
            .expect("non-empty bands");
        Some((deepest_certifiable + margin_mv.max(0)).min(0))
    }
}

fn shallower(a: Option<i32>, b: Option<i32>) -> Option<i32> {
    // "Shallower" = closer to zero = larger (offsets are negative).
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> CharacterizationMap {
        let mut m = CharacterizationMap::new("test-cpu", 0xf4, -300);
        m.insert_band(
            FreqMhz(1_000),
            FreqBand {
                fault_onset_mv: Some(-250),
                crash_mv: Some(-270),
            },
        );
        m.insert_band(
            FreqMhz(2_000),
            FreqBand {
                fault_onset_mv: Some(-200),
                crash_mv: Some(-230),
            },
        );
        m.insert_band(
            FreqMhz(3_000),
            FreqBand {
                fault_onset_mv: Some(-140),
                crash_mv: Some(-180),
            },
        );
        m
    }

    #[test]
    fn exact_classification_regions() {
        let m = map();
        let f = FreqMhz(2_000);
        assert_eq!(m.classify(f, 0), StateClass::Safe);
        assert_eq!(m.classify(f, 50), StateClass::Safe);
        assert_eq!(m.classify(f, -199), StateClass::Safe);
        assert_eq!(m.classify(f, -200), StateClass::Unsafe);
        assert_eq!(m.classify(f, -229), StateClass::Unsafe);
        assert_eq!(m.classify(f, -230), StateClass::Crash);
        assert_eq!(m.classify(f, -300), StateClass::Crash);
    }

    #[test]
    fn interpolation_is_conservative() {
        let m = map();
        // 2.5 GHz sits between onsets −200 and −140: the governing band
        // must use the shallower −140.
        assert_eq!(m.classify(FreqMhz(2_500), -150), StateClass::Unsafe);
        assert_eq!(m.classify(FreqMhz(2_500), -139), StateClass::Safe);
    }

    #[test]
    fn out_of_range_frequencies_use_nearest() {
        let m = map();
        assert_eq!(m.classify(FreqMhz(500), -251), StateClass::Unsafe);
        assert_eq!(m.classify(FreqMhz(500), -249), StateClass::Safe);
        assert_eq!(m.classify(FreqMhz(3_600), -141), StateClass::Unsafe);
    }

    #[test]
    fn above_the_top_band_is_uncharacterized() {
        // A loaded one-band map: at a faster clock the slack is smaller,
        // so the 2 GHz onset would pass offsets that fault there.
        let mut m = CharacterizationMap::new("x", 0, -300);
        m.insert_band(
            FreqMhz(2_000),
            FreqBand {
                fault_onset_mv: Some(-200),
                crash_mv: Some(-230),
            },
        );
        assert_eq!(m.governing_band(FreqMhz(4_500)), None);
        assert_eq!(m.governing_band(FreqMhz(2_050)), None);
        assert_eq!(m.classify(FreqMhz(4_500), -150), StateClass::Unsafe);
        assert_eq!(m.classify(FreqMhz(4_500), -1), StateClass::Unsafe);
        assert_eq!(m.classify(FreqMhz(4_500), 0), StateClass::Safe);
        // Below the lowest band the lowest band still governs.
        assert_eq!(m.classify(FreqMhz(800), -150), StateClass::Safe);
        // A band inserted above makes the frequency characterized again.
        m.insert_band(FreqMhz(4_800), FreqBand::default());
        assert_eq!(m.classify(FreqMhz(4_500), -150), StateClass::Safe);
    }

    #[test]
    fn empty_map_is_paranoid() {
        let m = CharacterizationMap::new("x", 0, -300);
        assert!(m.is_empty());
        assert_eq!(m.classify(FreqMhz(1_000), -1), StateClass::Unsafe);
        assert_eq!(m.classify(FreqMhz(1_000), 0), StateClass::Safe);
        assert_eq!(m.maximal_safe_offset_mv(0), None);
    }

    #[test]
    fn below_sweep_floor_is_unsafe() {
        let mut m = CharacterizationMap::new("x", 0, -300);
        // A frequency that never faulted in the sweep.
        m.insert_band(FreqMhz(800), FreqBand::default());
        assert_eq!(m.classify(FreqMhz(800), -299), StateClass::Safe);
        assert_eq!(m.classify(FreqMhz(800), -301), StateClass::Unsafe);
    }

    #[test]
    fn maximal_safe_state_is_the_shallowest_onset() {
        let m = map();
        // Shallowest onset −140 ⇒ deepest certifiable −139.
        assert_eq!(m.maximal_safe_offset_mv(0), Some(-139));
        assert_eq!(m.maximal_safe_offset_mv(10), Some(-129));
        // Margin never pushes past zero.
        assert_eq!(m.maximal_safe_offset_mv(500), Some(0));
    }

    #[test]
    fn maximal_safe_state_with_unfaulted_band() {
        let mut m = map();
        m.insert_band(FreqMhz(400), FreqBand::default());
        // The unfaulted band certifies to the floor (−300), which is
        // deeper than −139, so the shallowest onset still governs.
        assert_eq!(m.maximal_safe_offset_mv(0), Some(-139));
    }

    #[test]
    fn classify_at_all_characterized_points_is_consistent() {
        let m = map();
        for (f, band) in m.iter() {
            if let Some(onset) = band.fault_onset_mv {
                assert_eq!(m.classify(f, onset + 1), StateClass::Safe);
                assert_ne!(m.classify(f, onset), StateClass::Safe);
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let m = map();
        let json = serde_json::to_string(&m).unwrap();
        let back: CharacterizationMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.cpu_name(), "test-cpu");
        assert_eq!(back.microcode(), 0xf4);
        assert_eq!(back.sweep_floor_mv(), -300);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn validate_names_the_out_of_range_field() {
        assert_eq!(map().validate(), Ok(()));
        let json = serde_json::to_string(&map()).unwrap();
        let floor: CharacterizationMap =
            serde_json::from_str(&json.replace("\"sweep_floor_mv\":-300", "\"sweep_floor_mv\":10"))
                .unwrap();
        assert_eq!(
            floor.validate(),
            Err(MapError::SweepFloor { sweep_floor_mv: 10 })
        );
        let mut m = map();
        m.insert_band(
            FreqMhz(2_000),
            FreqBand {
                fault_onset_mv: Some(-5_000),
                crash_mv: None,
            },
        );
        assert_eq!(
            m.validate(),
            Err(MapError::FaultOnset {
                freq_mhz: 2_000,
                fault_onset_mv: -5_000
            })
        );
        m.insert_band(
            FreqMhz(2_000),
            FreqBand {
                fault_onset_mv: Some(-200),
                crash_mv: Some(OcRequest::MIN_OFFSET_MV - 1),
            },
        );
        assert!(matches!(m.validate(), Err(MapError::Crash { .. })));
        // The mailbox bounds themselves are in range.
        let mut edge = CharacterizationMap::new("x", 0, OcRequest::MIN_OFFSET_MV);
        edge.insert_band(
            FreqMhz(800),
            FreqBand {
                fault_onset_mv: Some(0),
                crash_mv: Some(OcRequest::MIN_OFFSET_MV),
            },
        );
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "negative offset")]
    fn positive_floor_rejected() {
        let _ = CharacterizationMap::new("x", 0, 10);
    }
}
