//! Randomized property tests over the core invariants of the
//! reproduction: MSR codecs, the register file and the mailbox gates,
//! characterization-map classification, timing physics, the fault
//! sampler and the VR.
//!
//! Cases are driven by the workspace's own seeded [`SimRng`] instead of
//! an external property-testing crate, so the suite stays hermetic and
//! every failure replays from a fixed seed. Each test draws `CASES`
//! inputs from a stream derived from the test's name.

use plugvolt::charmap::{CharacterizationMap, FreqBand};
use plugvolt::state::StateClass;
use plugvolt_circuit::delay::{AlphaPowerModel, DelayModel};
use plugvolt_circuit::fault::{sample_binomial, sample_flip_mask, FaultModel};
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_circuit::timing::TimingBudget;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::energy::EnergyModel;
use plugvolt_cpu::exec::{InstrClass, Rails};
use plugvolt_cpu::freq::{FreqMhz, FreqTable};
use plugvolt_cpu::microcode::MicrocodeUpdate;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::CpuPackage;
use plugvolt_cpu::vr::VoltageRegulator;
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::{MsrError, MsrFile, WriteOutcome};
use plugvolt_msr::oc_mailbox::{encode_offset_request, OcRequest, Plane};
use plugvolt_msr::offset_limit::VoltageOffsetLimit;
use plugvolt_msr::perf_status::PerfStatus;
use plugvolt_telemetry::TelemetryEvent;
use std::collections::{BTreeMap, BTreeSet};

/// Cases per property; every draw below is deterministic, so the suite
/// exercises the same inputs on every run.
const CASES: u64 = 256;

/// Seed shared by every property stream (varied per test via the label).
const SEED: u64 = 0x706c_7567_766f_6c74; // "plugvolt"

/// Input generator: thin inclusive-range helpers over [`SimRng`].
struct Gen {
    rng: SimRng,
}

impl Gen {
    fn new(test: &str, case: u64) -> Self {
        Gen {
            rng: SimRng::from_seed_label(SEED ^ case, test),
        }
    }

    fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        i32::try_from(self.rng.in_range(i64::from(lo), i64::from(hi)))
            .expect("range bounds fit i32")
    }

    fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        u32::try_from(self.rng.in_range(i64::from(lo), i64::from(hi)))
            .expect("range bounds fit u32")
    }

    fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.below(hi - lo + 1)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        usize::try_from(self.u64_in(lo as u64, hi as u64)).expect("usize range")
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }
}

/// Runs `body` for [`CASES`] deterministic inputs.
fn cases(test: &str, mut body: impl FnMut(&mut Gen)) {
    for case in 0..CASES {
        let mut g = Gen::new(test, case);
        body(&mut g);
    }
}

// ---------- MSR codecs ----------

#[test]
fn mailbox_roundtrip_quantizes_within_1mv() {
    cases("mailbox_roundtrip", |g| {
        let offset = g.i32_in(-1000, 999);
        let plane = Plane::from_index(g.i32_in(0, 4) as u8).unwrap();
        let req = OcRequest::write_offset(offset, plane);
        let back = OcRequest::decode(req.encode()).unwrap();
        assert_eq!(back.plane(), plane);
        assert!(back.is_write());
        assert!(
            (back.offset_mv() - offset).abs() <= 1,
            "offset {} decoded {}",
            offset,
            back.offset_mv()
        );
        // Truncation in Algorithm 1 never deepens an undervolt.
        if offset < 0 {
            assert!(back.offset_mv() >= offset);
        }
    });
}

#[test]
fn mailbox_matches_paper_algorithm1() {
    cases("mailbox_algorithm1", |g| {
        let offset = g.i32_in(-999, 999);
        let plane = g.i32_in(0, 4) as u8;
        assert_eq!(
            OcRequest::write_offset(offset, Plane::from_index(plane).unwrap()).encode(),
            encode_offset_request(offset, plane)
        );
    });
}

#[test]
fn perf_status_roundtrip() {
    cases("perf_status_roundtrip", |g| {
        let freq_ratio = g.u32_in(1, 255);
        let mv = g.f64_in(0.0, 7_900.0);
        let s = PerfStatus::new(freq_ratio * 100, mv);
        let back = PerfStatus::decode(s.encode());
        assert_eq!(back.freq_mhz(), freq_ratio * 100);
        assert!((back.voltage_mv() - mv).abs() < 0.13);
    });
}

#[test]
fn offset_limit_clamp_is_idempotent_and_bounded() {
    cases("offset_limit_clamp", |g| {
        let bound = g.i32_in(-900, 0);
        let offset = g.i32_in(-1000, 999);
        let limit = VoltageOffsetLimit::new(bound);
        let req = OcRequest::write_offset(offset, Plane::Core);
        let once = limit.clamp(req);
        let twice = limit.clamp(once);
        assert_eq!(once, twice, "clamp must be idempotent");
        // Clamped output never deeper than the bound (in native units).
        let bound_units = plugvolt_msr::oc_mailbox::mv_to_units(bound);
        assert!(once.offset_units() >= bound_units);
    });
}

/// A random 0x150 value on the core or cache plane: a write of any
/// field offset, a read command, or a value the mailbox cannot decode
/// (run bit clear, or an unknown plane select).
fn mailbox_value(g: &mut Gen) -> u64 {
    let plane = [Plane::Core, Plane::Cache][g.usize_in(0, 1)];
    match g.u32_in(0, 3) {
        0 | 1 => OcRequest::write_offset(
            g.i32_in(OcRequest::MIN_OFFSET_MV, OcRequest::MAX_OFFSET_MV),
            plane,
        )
        .encode(),
        2 => OcRequest::read(plane).encode(),
        _ if g.u32_in(0, 1) == 0 => g.u64_in(0, u64::MAX >> 1),
        _ => (1 << 63) | (g.u64_in(5, 7) << 40) | g.u64_in(0, 0xFF_FFFF_FFFF),
    }
}

/// `OcMailbox` events a package emitted for writes it swallowed.
fn refused_mailbox_events(p: &CpuPackage) -> usize {
    p.telemetry().with(|reg| {
        reg.events()
            .filter(|e| {
                matches!(
                    e.event,
                    TelemetryEvent::OcMailbox {
                        accepted: false,
                        ..
                    }
                )
            })
            .count()
    })
}

#[test]
fn microcode_patch_ignores_exactly_the_writes_past_its_bound() {
    // The Sec. 5.1 rule: a decoded write whose offset is below the
    // bound is ignored; reads, safe writes and malformed values pass.
    cases("microcode_patch_gate", |g| {
        let bound = g.i32_in(-900, 0);
        let mut p = CpuPackage::new(CpuModel::CometLake, g.u64_in(0, 1_000));
        p.load_microcode(MicrocodeUpdate::maximal_safe_state(0xf5, bound));
        for step in 0..g.u64_in(1, 8) {
            let value = mailbox_value(g);
            let decoded = OcRequest::decode(value).ok();
            let ignore = decoded.is_some_and(|req| req.is_write() && req.offset_mv() < bound);
            let ignored_before = p.mailbox_writes_ignored();
            let events_before = refused_mailbox_events(&p);
            let offsets_before = Plane::ALL.map(|plane| p.plane_offset_mv(plane));
            let now = SimTime::ZERO + SimDuration::from_micros(step);
            let out = p
                .wrmsr(now, CoreId(0), Msr::OC_MAILBOX, value)
                .expect("0x150 is implemented on a live package");
            assert_eq!(
                out == WriteOutcome::Ignored,
                ignore,
                "{value:#x} vs {bound}"
            );
            let counted = u64::from(ignore);
            assert_eq!(p.mailbox_writes_ignored(), ignored_before + counted);
            assert_eq!(refused_mailbox_events(&p), events_before + counted as usize);
            if ignore {
                assert_eq!(
                    Plane::ALL.map(|plane| p.plane_offset_mv(plane)),
                    offsets_before
                );
            } else if let Some(req) = decoded.filter(|req| req.is_write()) {
                assert_eq!(p.plane_offset_mv(req.plane()), req.offset_mv());
            }
        }
    });
}

#[test]
fn mailbox_gates_compose_like_a_three_line_reference() {
    // OCM disable, the microcode patch and the hardware clamp together,
    // against: OCM first, then the patch (on the requested offset), then
    // the clamp. All three persist across `reset`.
    cases("mailbox_gate_order", |g| {
        let ocm = g.u32_in(0, 3) != 0;
        let patch = (g.u32_in(0, 2) != 0).then(|| g.i32_in(-600, 0));
        let clamp = (g.u32_in(0, 2) != 0).then(|| VoltageOffsetLimit::new(g.i32_in(-600, 0)));
        let mut p = CpuPackage::new(CpuModel::CometLake, g.u64_in(0, 1_000));
        p.set_ocm_enabled(ocm);
        if let Some(bound) = patch {
            p.load_microcode(MicrocodeUpdate::maximal_safe_state(0xf5, bound));
        }
        if let Some(limit) = clamp {
            p.provision_offset_limit(limit);
        }
        let mut model = [0_i32; 5];
        let mut ignored = 0;
        for step in 0..g.u64_in(1, 24) {
            let now = SimTime::ZERO + SimDuration::from_micros(step);
            if g.u32_in(0, 5) == 0 {
                p.reset(now);
                model = [0; 5];
                continue;
            }
            let plane = [Plane::Core, Plane::Cache][g.usize_in(0, 1)];
            let req = OcRequest::write_offset(g.i32_in(-900, 200), plane);
            let applied = (ocm && patch.is_none_or(|bound| req.offset_mv() >= bound))
                .then(|| clamp.map_or(req, |limit| limit.clamp(req)).offset_mv());
            let out = p
                .wrmsr(now, CoreId(0), Msr::OC_MAILBOX, req.encode())
                .expect("0x150 is implemented on a live package");
            assert_eq!(out.was_written(), applied.is_some(), "{req:?}");
            match applied {
                Some(mv) => model[plane.index() as usize] = mv,
                None => ignored += 1,
            }
            assert_eq!(Plane::ALL.map(|plane| p.plane_offset_mv(plane)), model);
            assert_eq!(p.mailbox_writes_ignored(), ignored);
        }
    });
}

#[test]
fn msr_file_matches_a_tree_model() {
    // Differential check of the register file against a `BTreeMap`
    // model: `#GP` on unimplemented addresses, re-implementing resets,
    // and writes and internal stores both store the value.
    let pool: Vec<Msr> = (0..12).map(|i| Msr(0x100 + 7 * i)).collect();
    cases("msr_file_differential", |g| {
        let mut file = MsrFile::new();
        let mut model: BTreeMap<Msr, u64> = BTreeMap::new();
        for _ in 0..g.usize_in(1, 60) {
            let msr = pool[g.usize_in(0, pool.len() - 1)];
            let value = g.u64_in(0, 2_000);
            match g.u32_in(0, 3) {
                0 => {
                    file.implement(msr, value);
                    model.insert(msr, value);
                }
                1 => {
                    let expected = match model.get_mut(&msr) {
                        None => Err(MsrError::GeneralProtection { msr }),
                        Some(slot) => {
                            *slot = value;
                            Ok(())
                        }
                    };
                    assert_eq!(file.wrmsr(msr, value), expected, "wrmsr {msr}");
                }
                2 => {
                    if let Some(slot) = model.get_mut(&msr) {
                        file.store_internal(msr, value);
                        *slot = value;
                    }
                }
                _ => {}
            }
            let expected = model
                .get(&msr)
                .copied()
                .ok_or(MsrError::GeneralProtection { msr });
            assert_eq!(file.rdmsr(msr), expected, "rdmsr {msr}");
        }
        for &msr in &pool {
            let expected = model
                .get(&msr)
                .copied()
                .ok_or(MsrError::GeneralProtection { msr });
            assert_eq!(file.rdmsr(msr), expected, "final rdmsr {msr}");
        }
    });
}

// ---------- characterization map ----------

#[test]
fn charmap_classification_is_monotone_in_depth() {
    cases("charmap_monotone", |g| {
        let onset = g.i32_in(-290, -20);
        let width = g.i32_in(1, 60);
        let freq = g.u32_in(500, 5_000);
        let probe_a = g.i32_in(-320, 0);
        let probe_b = g.i32_in(-320, 0);
        let mut map = CharacterizationMap::new("prop", 0, -300);
        map.insert_band(
            FreqMhz(freq),
            FreqBand {
                fault_onset_mv: Some(onset),
                crash_mv: Some(onset - width),
            },
        );
        let rank = |s: StateClass| match s {
            StateClass::Safe => 0,
            StateClass::Unsafe => 1,
            StateClass::Crash => 2,
        };
        let (hi, lo) = if probe_a >= probe_b {
            (probe_a, probe_b)
        } else {
            (probe_b, probe_a)
        };
        // Going deeper (more negative) never makes the state safer.
        assert!(
            rank(map.classify(FreqMhz(freq), lo)) >= rank(map.classify(FreqMhz(freq), hi)),
            "lo={lo} hi={hi}"
        );
    });
}

#[test]
fn charmap_interpolation_never_under_protects() {
    cases("charmap_interpolation", |g| {
        let onset_a = g.i32_in(-290, -20);
        let onset_b = g.i32_in(-290, -20);
        let probe = g.i32_in(-300, -1);
        let mid = g.u32_in(1_100, 1_900);
        let mut map = CharacterizationMap::new("prop", 0, -300);
        map.insert_band(
            FreqMhz(1_000),
            FreqBand {
                fault_onset_mv: Some(onset_a),
                crash_mv: None,
            },
        );
        map.insert_band(
            FreqMhz(2_000),
            FreqBand {
                fault_onset_mv: Some(onset_b),
                crash_mv: None,
            },
        );
        // If either neighbour says unsafe at this depth, the
        // interpolated frequency must too.
        let either_unsafe = probe <= onset_a.max(onset_b);
        let interpolated = map.classify(FreqMhz(mid), probe);
        if either_unsafe {
            assert_ne!(interpolated, StateClass::Safe);
        }
    });
}

#[test]
fn maximal_safe_state_classifies_safe_everywhere() {
    cases("maximal_safe_state", |g| {
        let n = g.usize_in(1, 7);
        let onsets: Vec<i32> = (0..n).map(|_| g.i32_in(-290, -20)).collect();
        let mut map = CharacterizationMap::new("prop", 0, -300);
        for (i, onset) in onsets.iter().enumerate() {
            map.insert_band(
                FreqMhz(1_000 + 500 * i as u32),
                FreqBand {
                    fault_onset_mv: Some(*onset),
                    crash_mv: Some(onset - 30),
                },
            );
        }
        let mss = map.maximal_safe_offset_mv(0).unwrap();
        for (f, _) in map.iter() {
            assert_eq!(
                map.classify(f, mss),
                StateClass::Safe,
                "mss {mss} unsafe at {f}"
            );
        }
    });
}

/// The reference governing band: the exact band, else the shallower of
/// the two neighbours, else the lowest band below the range; `None`
/// above the highest band.
fn reference_governing_band(bands: &BTreeMap<u32, FreqBand>, mhz: u32) -> Option<FreqBand> {
    let shallower = |a: Option<i32>, b: Option<i32>| match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) | (None, x) => x,
    };
    if let Some(&band) = bands.get(&mhz) {
        return Some(band);
    }
    let above = bands.range(mhz..).next().map(|(_, &b)| b)?;
    Some(match bands.range(..mhz).next_back() {
        Some((_, &below)) => FreqBand {
            fault_onset_mv: shallower(below.fault_onset_mv, above.fault_onset_mv),
            crash_mv: shallower(below.crash_mv, above.crash_mv),
        },
        None => above,
    })
}

/// The reference classification over [`reference_governing_band`].
fn reference_classify(band: Option<FreqBand>, floor_mv: i32, offset_mv: i32) -> StateClass {
    if offset_mv >= 0 {
        return StateClass::Safe;
    }
    let Some(band) = band else {
        return StateClass::Unsafe;
    };
    if band.crash_mv.is_some_and(|c| offset_mv <= c) {
        StateClass::Crash
    } else if band.fault_onset_mv.is_some_and(|o| offset_mv <= o) || offset_mv < floor_mv {
        StateClass::Unsafe
    } else {
        StateClass::Safe
    }
}

#[test]
fn charmap_classify_matches_a_tree_reference() {
    // Every table frequency of every model, ±150 MHz in 25 MHz steps:
    // grid frequencies take the map's index, the rest its search.
    let freqs: BTreeSet<u32> = CpuModel::ALL
        .iter()
        .flat_map(|m| m.spec().freq_table.iter().collect::<Vec<_>>())
        .flat_map(|f| (0..=12).map(move |k| f.mhz() - 150 + 25 * k))
        .collect();
    // Each case checks every frequency at every offset, so fewer cases
    // than the other properties still cover thousands of maps' points.
    for case in 0..CASES / 8 {
        let mut g = Gen::new("charmap_differential", case);
        let floor = g.i32_in(-400, -50);
        let mut map = CharacterizationMap::new("prop", 0, floor);
        let mut bands: BTreeMap<u32, FreqBand> = BTreeMap::new();
        let check = |map: &CharacterizationMap, bands: &BTreeMap<u32, FreqBand>| {
            for &mhz in &freqs {
                let band = reference_governing_band(bands, mhz);
                assert_eq!(map.governing_band(FreqMhz(mhz)), band, "{mhz} MHz");
                for offset in -400..=5 {
                    assert_eq!(
                        map.classify(FreqMhz(mhz), offset),
                        reference_classify(band, floor, offset),
                        "{mhz} MHz at {offset} mV"
                    );
                }
            }
        };
        // Bands arrive in two batches with a lookup between, so the
        // second batch must invalidate an index the first one built.
        for batch in 0..2 {
            for _ in 0..g.usize_in(0, 5) {
                let mhz = if g.u32_in(0, 2) == 0 {
                    g.u32_in(300, 5_000)
                } else {
                    100 * g.u32_in(3, 50)
                };
                let onset = (g.u32_in(0, 4) > 0).then(|| g.i32_in(-350, -10));
                let crash = (g.u32_in(0, 4) > 0).then(|| onset.unwrap_or(-300) - g.i32_in(0, 60));
                let band = FreqBand {
                    fault_onset_mv: onset,
                    crash_mv: crash,
                };
                map.insert_band(FreqMhz(mhz), band);
                bands.insert(mhz, band);
            }
            if batch == 0 {
                check(&map, &bands);
            }
        }
        check(&map, &bands);
        // The index is not part of the artifact: a round trip is
        // byte-identical and classifies the same.
        let json = serde_json::to_string(&map).expect("encodes");
        let back: CharacterizationMap = serde_json::from_str(&json).expect("decodes");
        assert_eq!(serde_json::to_string(&back).expect("re-encodes"), json);
        assert_eq!(back, map);
        check(&back, &bands);
    }
}

// ---------- circuit physics ----------

#[test]
fn alpha_power_delay_monotone() {
    cases("alpha_power_delay", |g| {
        let vth = g.f64_in(200.0, 500.0);
        let alpha = g.f64_in(1.0, 2.0);
        let v1 = g.f64_in(550.0, 1_400.0);
        let dv = g.f64_in(1.0, 300.0);
        if v1 <= vth + 50.0 {
            return; // discard, mirroring the original prop_assume!
        }
        let m = AlphaPowerModel::new(50.0, vth, alpha);
        assert!(m.delay_ps(v1) >= m.delay_ps(v1 + dv));
    });
}

#[test]
fn timing_budget_shrinks_with_frequency() {
    cases("timing_budget", |g| {
        let f1 = g.u32_in(400, 4_799);
        let df = g.u32_in(100, 999);
        let a = TimingBudget::for_frequency_mhz(f1, 30.0, 10.0);
        let b = TimingBudget::for_frequency_mhz(f1 + df, 30.0, 10.0);
        assert!(b.available_ps() <= a.available_ps());
    });
}

#[test]
fn multiplier_depth_monotone_in_operand_width() {
    cases("multiplier_depth", |g| {
        let a_bits = g.u32_in(1, 64);
        let b_bits = g.u32_in(1, 64);
        let mul = MultiplierUnit::default();
        let mask = |bits: u32| {
            if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        };
        let narrow = mul.depth_for(mask(a_bits) >> 1, mask(b_bits) >> 1);
        let wide = mul.depth_for(mask(a_bits), mask(b_bits));
        assert!(wide >= narrow);
    });
}

#[test]
fn fault_probability_monotone() {
    cases("fault_probability", |g| {
        let slack = g.f64_in(-200.0, 200.0);
        let d = g.f64_in(0.1, 50.0);
        let fm = FaultModel::default();
        assert!(fm.fault_probability(slack - d) >= fm.fault_probability(slack));
    });
}

#[test]
fn binomial_within_support() {
    cases("binomial_support", |g| {
        let n = g.u64_in(0, 2_000_000);
        let p = g.f64_in(0.0, 1.0);
        let seed = g.u64_in(0, 999);
        let mut rng = SimRng::from_seed_label(seed, "prop-binom");
        let k = sample_binomial(n, p, &mut rng);
        assert!(k <= n);
    });
}

#[test]
fn flip_masks_are_nonzero_and_in_window() {
    cases("flip_masks", |g| {
        let sig = g.u32_in(0, 80);
        let seed = g.u64_in(0, 499);
        let mut rng = SimRng::from_seed_label(seed, "prop-mask");
        let mask = sample_flip_mask(sig, &mut rng);
        assert_ne!(mask, 0);
        let sig = sig.clamp(2, 64);
        if sig < 64 {
            assert_eq!(mask >> sig, 0, "mask {mask:#x} beyond window {sig}");
        }
    });
}

// ---------- frequency table ----------

#[test]
fn quantize_lands_in_table() {
    cases("quantize_table", |g| {
        let f = g.u32_in(0, 9_999);
        let table = FreqTable::new(FreqMhz(400), FreqMhz(4_900), 100);
        let q = table.quantize(FreqMhz(f));
        assert!(table.contains(q));
        // Quantization moves by at most half a step (or clamps).
        if (400..=4_900).contains(&f) {
            assert!((i64::from(q.mhz()) - i64::from(f)).abs() <= 50);
        }
    });
}

// ---------- energy ----------

#[test]
fn energy_power_monotone_in_voltage_and_frequency() {
    cases("energy_monotone", |g| {
        let v = g.f64_in(500.0, 1_300.0);
        let dv = g.f64_in(1.0, 200.0);
        let f = g.u32_in(400, 4_899);
        let df = g.u32_in(100, 999);
        let m = EnergyModel::default();
        assert!(m.core_power_w(v + dv, f, true) > m.core_power_w(v, f, true));
        assert!(m.core_power_w(v, f + df, true) > m.core_power_w(v, f, true));
        assert!(m.core_power_w(v, f, false) < m.core_power_w(v, f, true));
    });
}

// ---------- rails ----------

#[test]
fn rails_route_loads_to_cache_plane() {
    cases("rails_routing", |g| {
        let core = g.f64_in(500.0, 1_300.0);
        let cache = g.f64_in(500.0, 1_300.0);
        let rails = Rails {
            core_mv: core,
            cache_mv: cache,
        };
        assert_eq!(rails.for_class(InstrClass::Load), cache);
        for class in [
            InstrClass::Imul,
            InstrClass::Aesenc,
            InstrClass::Fma,
            InstrClass::AluAdd,
        ] {
            assert_eq!(rails.for_class(class), core);
        }
        let u = Rails::uniform(core);
        assert_eq!(u.core_mv, u.cache_mv);
    });
}

// ---------- voltage regulator ----------

#[test]
fn vr_stays_between_start_and_target() {
    cases("vr_bounds", |g| {
        let start = g.f64_in(600.0, 1_300.0);
        let target = g.f64_in(600.0, 1_300.0);
        let probe_us = g.u64_in(0, 4_999);
        let mut vr = VoltageRegulator::new(start, SimDuration::from_micros(100), 8.0);
        vr.set_target(SimTime::ZERO, target);
        let v = vr.voltage_mv(SimTime::ZERO + SimDuration::from_micros(probe_us));
        let (lo, hi) = if start <= target {
            (start, target)
        } else {
            (target, start)
        };
        assert!(
            v >= lo - 1e-9 && v <= hi + 1e-9,
            "v={v} outside [{lo}, {hi}]"
        );
    });
}

#[test]
fn vr_settle_instant_matches_its_closed_form() {
    // `ramp_begins + ceil(|target - start| / slew)`, with the ramp's
    // start voltage and begin instant tracked from outside.
    fn closed_form(ramp_begins: SimTime, start: f64, target: f64, slew: f64) -> SimTime {
        let ramp_us = (target - start).abs() / slew;
        ramp_begins + SimDuration::from_picos((ramp_us * 1e6).ceil() as u64)
    }
    let (mut no_ops, mut mid_ramp) = (0u32, 0u32);
    cases("vr_settles_at", |g| {
        let slew = g.f64_in(0.5, 20.0);
        let settle = SimDuration::from_picos(g.u64_in(0, 20_000_000));
        let mut vr = VoltageRegulator::new(g.f64_in(600.0, 1_300.0), settle, slew);
        let (mut now, mut ramp_begins, mut expected) =
            (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
        for step in 0..12 {
            // Every fourth request repeats the current target: a no-op.
            let target = if step % 4 == 3 {
                vr.target_mv()
            } else {
                g.f64_in(600.0, 1_300.0)
            };
            // Even steps take the default settle delay, odd ones an
            // explicit command latency.
            let delay = if step % 2 == 0 {
                settle
            } else {
                SimDuration::from_picos(g.u64_in(0, 20_000_000))
            };
            if (target - vr.target_mv()).abs() < f64::EPSILON {
                no_ops += 1;
            } else {
                mid_ramp += u32::from(now > ramp_begins && now < expected);
                ramp_begins = now + delay;
                expected = closed_form(ramp_begins, vr.voltage_mv(now), target, slew);
            }
            if step % 2 == 0 {
                vr.set_target(now, target);
            } else {
                vr.set_target_after(now, target, delay);
            }
            assert_eq!(vr.settles_at(), expected, "step {step}");
            let json = serde_json::to_string(&vr).expect("vr encodes");
            let back: VoltageRegulator = serde_json::from_str(&json).expect("vr decodes");
            assert_eq!(back.settles_at(), vr.settles_at());
            assert_eq!(back, vr);
            // Next request: inside what is left of the ramp half the
            // time (a mid-ramp retarget), else anywhere up to well past
            // the settle. Time never runs backwards.
            let from = now.max(ramp_begins);
            let left_ps = expected.saturating_duration_since(from).as_picos();
            now = if left_ps > 1 && g.u64_in(0, 1) == 0 {
                from + SimDuration::from_picos(g.u64_in(1, left_ps - 1))
            } else {
                now + SimDuration::from_picos(g.u64_in(0, 80_000_000))
            };
        }
    });
    assert!(no_ops >= 3 * CASES as u32, "no_ops = {no_ops}");
    assert!(mid_ramp >= CASES as u32, "mid_ramp = {mid_ramp}");
}

#[test]
fn vr_slew_rate_is_respected() {
    cases("vr_slew", |g| {
        let start = g.f64_in(600.0, 1_300.0);
        let target = g.f64_in(600.0, 1_300.0);
        let t1 = g.u64_in(0, 2_999);
        let dt = g.u64_in(1, 499);
        let mut vr = VoltageRegulator::new(start, SimDuration::from_micros(50), 8.0);
        vr.set_target(SimTime::ZERO, target);
        let a = vr.voltage_mv(SimTime::ZERO + SimDuration::from_micros(t1));
        let b = vr.voltage_mv(SimTime::ZERO + SimDuration::from_micros(t1 + dt));
        assert!((b - a).abs() <= 8.0 * dt as f64 + 1e-6);
    });
}
