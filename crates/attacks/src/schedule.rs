//! Randomized attack-campaign schedules for the differential soak
//! fuzzer (`plugvolt-cli soak`).
//!
//! A [`CampaignSchedule`] is a time-sorted list of adversary actions —
//! OC-mailbox offset writes per plane, `cpupower` frequency moves, and
//! victim computation bursts — drawn from a labelled [`SimRng`] stream
//! so the same seed always yields the same campaign. Each published
//! attack family shapes the distribution differently (Plundervolt
//! ramps, VoltJockey pulses, CLKSCREW frequency escalation, …), which
//! is what lets the soak engine explore adversarially-timed parameter
//! edges the fixed experiment scenarios never hit.
//!
//! The mutation hooks ([`CampaignSchedule::without_event`],
//! [`CampaignSchedule::with_halved_ramps`],
//! [`CampaignSchedule::with_widened_intervals`]) are the shrink moves
//! the soak engine's delta-debugger composes into minimal reproducers.

use plugvolt_cpu::exec::InstrClass;
use plugvolt_cpu::model::CpuSpec;
use plugvolt_des::rng::SimRng;
use plugvolt_msr::oc_mailbox::Plane;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The attack families the soak fuzzer draws campaigns from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackFamily {
    /// Plundervolt-style stepped core-plane undervolt ramp.
    Plundervolt,
    /// V0LTpwn-style shallow ramp against an FMA/SIMD victim.
    V0ltpwn,
    /// VoltJockey-style short deep voltage pulses.
    VoltJockey,
    /// CLKSCREW-style frequency escalation against a standing offset.
    Clkscrew,
    /// Minefield-style dual-plane campaign (core + cache rails).
    Minefield,
}

impl AttackFamily {
    /// Every family, in schedule-generation order.
    pub const ALL: [AttackFamily; 5] = [
        AttackFamily::Plundervolt,
        AttackFamily::V0ltpwn,
        AttackFamily::VoltJockey,
        AttackFamily::Clkscrew,
        AttackFamily::Minefield,
    ];

    /// Stable lowercase label (corpus filenames, reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackFamily::Plundervolt => "plundervolt",
            AttackFamily::V0ltpwn => "v0ltpwn",
            AttackFamily::VoltJockey => "voltjockey",
            AttackFamily::Clkscrew => "clkscrew",
            AttackFamily::Minefield => "minefield",
        }
    }
}

impl fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Voltage plane a schedule event targets (serializable subset of
/// [`Plane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlaneSel {
    /// Plane 0: the core rail.
    Core,
    /// Plane 2: the cache/ring rail.
    Cache,
}

impl PlaneSel {
    /// The mailbox plane this selects.
    #[must_use]
    pub fn plane(self) -> Plane {
        match self {
            PlaneSel::Core => Plane::Core,
            PlaneSel::Cache => Plane::Cache,
        }
    }
}

/// Victim workload class a schedule burst runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VictimClass {
    /// Multiplier-bound loop (the paper's fault-model workhorse).
    Imul,
    /// AES rounds (Plundervolt's DFA victim).
    Aes,
    /// FMA/SIMD (V0LTpwn's victim).
    Fma,
    /// Cache-plane-sensitive loads.
    Load,
}

impl VictimClass {
    /// The execution-engine instruction class this victim exercises.
    #[must_use]
    pub fn instr_class(self) -> InstrClass {
        match self {
            VictimClass::Imul => InstrClass::Imul,
            VictimClass::Aes => InstrClass::Aesenc,
            VictimClass::Fma => InstrClass::Fma,
            VictimClass::Load => InstrClass::Load,
        }
    }
}

/// One adversary action in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleAction {
    /// Write a voltage offset through MSR 0x150.
    OffsetWrite {
        /// Target plane.
        plane: PlaneSel,
        /// Requested offset, mV (≤ 0 in generated campaigns).
        offset_mv: i32,
    },
    /// Pin the victim core's frequency (`cpupower frequency-set`).
    SetFrequency {
        /// Target frequency, MHz (quantized to the model's table).
        mhz: u32,
    },
    /// Run a burst of victim computation on the victim core.
    VictimBurst {
        /// Workload class.
        class: VictimClass,
        /// Operations in the burst.
        ops: u64,
    },
}

/// One timestamped schedule entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleEvent {
    /// Campaign-relative instant, µs.
    pub at_us: u64,
    /// What the adversary does.
    pub action: ScheduleAction,
}

/// A complete randomized campaign: the fuzz input the soak engine runs
/// differentially across deployment levels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSchedule {
    /// Family that shaped the distribution.
    pub family: AttackFamily,
    /// Polling period the `polling-module` deployment uses, µs.
    pub poll_period_us: u64,
    /// Time-sorted adversary actions.
    pub events: Vec<ScheduleEvent>,
}

/// Polling periods campaigns draw from, µs (subset of the interval
/// sweep's range; ≥ 50 µs so timer work never dominates).
const POLL_PERIODS_US: [u64; 5] = [50, 100, 200, 400, 800];

impl CampaignSchedule {
    /// Generates a campaign for `family` from the rng stream.
    ///
    /// Every draw comes from `rng` in a fixed order, so a given
    /// `(family, seed)` pair always yields the same schedule no matter
    /// where or when it is generated.
    #[must_use]
    pub fn generate(family: AttackFamily, spec: &CpuSpec, rng: &mut SimRng) -> CampaignSchedule {
        let poll_period_us = POLL_PERIODS_US[rng.below(POLL_PERIODS_US.len() as u64) as usize];
        let mut events = Vec::new();
        let mut t_us: u64 = 200 + rng.below(400);
        let table = &spec.freq_table;
        let fast = table.max().mhz();
        let base = table.min().mhz();
        // Quantized pick from the upper half of the frequency table,
        // where the unsafe region is widest.
        let pick_fast = |rng: &mut SimRng| {
            let lo = i64::from(base + (fast - base) / 2);
            let f = rng.in_range(lo, i64::from(fast)) as u32;
            table.quantize(plugvolt_cpu::freq::FreqMhz(f)).mhz()
        };
        let gap = |rng: &mut SimRng| 200 + rng.below(1_300);
        match family {
            AttackFamily::Plundervolt | AttackFamily::V0ltpwn => {
                let (victim, start, step_lo) = if family == AttackFamily::Plundervolt {
                    (
                        if rng.chance(0.5) {
                            VictimClass::Imul
                        } else {
                            VictimClass::Aes
                        },
                        -(80 + rng.in_range(0, 60) as i32),
                        10,
                    )
                } else {
                    (VictimClass::Fma, -(60 + rng.in_range(0, 50) as i32), 8)
                };
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::SetFrequency {
                        mhz: pick_fast(rng),
                    },
                });
                let steps = 3 + rng.below(5);
                let mut offset = start;
                for _ in 0..steps {
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: offset,
                        },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::VictimBurst {
                            class: victim,
                            ops: 5_000 + rng.below(35_000),
                        },
                    });
                    offset -= step_lo + rng.in_range(0, 20) as i32;
                }
            }
            AttackFamily::VoltJockey => {
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::SetFrequency {
                        mhz: pick_fast(rng),
                    },
                });
                let pulses = 2 + rng.below(4);
                for _ in 0..pulses {
                    t_us += gap(rng);
                    let depth = -(180 + rng.in_range(0, 80) as i32);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: depth,
                        },
                    });
                    let width = 300 + rng.below(700);
                    events.push(ScheduleEvent {
                        at_us: t_us + width / 2,
                        action: ScheduleAction::VictimBurst {
                            class: VictimClass::Imul,
                            ops: 5_000 + rng.below(25_000),
                        },
                    });
                    t_us += width;
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: -(rng.in_range(0, 40) as i32),
                        },
                    });
                }
            }
            AttackFamily::Clkscrew => {
                // A standing "benign at base frequency" offset, then
                // frequency-side escalation with no further 0x150 write.
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::OffsetWrite {
                        plane: PlaneSel::Core,
                        offset_mv: -(120 + rng.in_range(0, 50) as i32),
                    },
                });
                let steps = 2 + rng.below(4);
                let mut mhz = base + (fast - base) / 2;
                for _ in 0..steps {
                    t_us += gap(rng);
                    mhz = table
                        .quantize(plugvolt_cpu::freq::FreqMhz(
                            mhz + (fast - mhz) / 2 + rng.below(200) as u32,
                        ))
                        .mhz()
                        .min(fast);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::SetFrequency { mhz },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::VictimBurst {
                            class: VictimClass::Imul,
                            ops: 10_000 + rng.below(30_000),
                        },
                    });
                }
            }
            AttackFamily::Minefield => {
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::SetFrequency {
                        mhz: pick_fast(rng),
                    },
                });
                let rounds = 2 + rng.below(3);
                for _ in 0..rounds {
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: -(100 + rng.in_range(0, 80) as i32),
                        },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Cache,
                            offset_mv: -(100 + rng.in_range(0, 100) as i32),
                        },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::VictimBurst {
                            class: if rng.chance(0.5) {
                                VictimClass::Load
                            } else {
                                VictimClass::Imul
                            },
                            ops: 5_000 + rng.below(25_000),
                        },
                    });
                }
            }
        }
        CampaignSchedule {
            family,
            poll_period_us,
            events,
        }
        .canonicalized()
    }

    /// Number of schedule events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total campaign span, µs (last event time).
    #[must_use]
    pub fn span_us(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_us)
    }

    /// Stable sort by event time (generation can interleave planes).
    #[must_use]
    pub fn canonicalized(mut self) -> CampaignSchedule {
        self.events.sort_by_key(|e| e.at_us);
        self
    }

    /// Shrink move: the schedule with event `idx` removed.
    #[must_use]
    pub fn without_event(&self, idx: usize) -> CampaignSchedule {
        let mut s = self.clone();
        if idx < s.events.len() {
            s.events.remove(idx);
        }
        s
    }

    /// Shrink move: every offset halved toward 0 and every frequency
    /// moved halfway back toward the table minimum.
    #[must_use]
    pub fn with_halved_ramps(&self, base_mhz: u32) -> CampaignSchedule {
        let mut s = self.clone();
        for ev in &mut s.events {
            match &mut ev.action {
                ScheduleAction::OffsetWrite { offset_mv, .. } => *offset_mv /= 2,
                ScheduleAction::SetFrequency { mhz } => {
                    *mhz = base_mhz + (*mhz - base_mhz.min(*mhz)) / 2;
                }
                ScheduleAction::VictimBurst { ops, .. } => *ops = (*ops / 2).max(1),
            }
        }
        s
    }

    /// Shrink move: event times rounded up to a coarse `grid_us` grid
    /// (monotonicity preserved), simplifying timing in reproducers.
    #[must_use]
    pub fn with_widened_intervals(&self, grid_us: u64) -> CampaignSchedule {
        let grid = grid_us.max(1);
        let mut s = self.clone();
        let mut floor = 0u64;
        for ev in &mut s.events {
            let rounded = ev.at_us.div_ceil(grid) * grid;
            ev.at_us = rounded.max(floor);
            floor = ev.at_us;
        }
        s
    }
}

impl fmt::Display for CampaignSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} campaign, {} events over {} µs, poll {} µs",
            self.family,
            self.events.len(),
            self.span_us(),
            self.poll_period_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_cpu::model::CpuModel;

    fn rng(label: &str) -> SimRng {
        SimRng::from_seed_label(0x50_4c_55_47, label)
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CpuModel::CometLake.spec();
        for family in AttackFamily::ALL {
            let a = CampaignSchedule::generate(family, &spec, &mut rng("gen"));
            let b = CampaignSchedule::generate(family, &spec, &mut rng("gen"));
            assert_eq!(a, b, "{family}");
            assert!(!a.is_empty(), "{family}");
            assert!(
                a.events.windows(2).all(|w| w[0].at_us <= w[1].at_us),
                "{family}: events must be time-sorted"
            );
        }
    }

    #[test]
    fn families_shape_distinct_campaigns() {
        let spec = CpuModel::CometLake.spec();
        let pv = CampaignSchedule::generate(AttackFamily::Plundervolt, &spec, &mut rng("x"));
        let ck = CampaignSchedule::generate(AttackFamily::Clkscrew, &spec, &mut rng("x"));
        // CLKSCREW never issues a second 0x150 write after its standing
        // offset; Plundervolt ramps several.
        let writes = |s: &CampaignSchedule| {
            s.events
                .iter()
                .filter(|e| matches!(e.action, ScheduleAction::OffsetWrite { .. }))
                .count()
        };
        assert!(writes(&pv) >= 3);
        assert_eq!(writes(&ck), 1);
    }

    #[test]
    fn shrink_moves_reduce_or_simplify() {
        let spec = CpuModel::SkyLake.spec();
        let s = CampaignSchedule::generate(AttackFamily::VoltJockey, &spec, &mut rng("s"));
        assert_eq!(s.without_event(0).len(), s.len() - 1);
        let halved = s.with_halved_ramps(spec.freq_table.min().mhz());
        for (a, b) in s.events.iter().zip(&halved.events) {
            if let (
                ScheduleAction::OffsetWrite { offset_mv: x, .. },
                ScheduleAction::OffsetWrite { offset_mv: y, .. },
            ) = (&a.action, &b.action)
            {
                assert!(y.abs() <= x.abs());
            }
        }
        let widened = s.with_widened_intervals(500);
        assert!(widened
            .events
            .iter()
            .all(|e| e.at_us % 500 == 0 || e.at_us == 0));
        assert!(widened.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn schedules_roundtrip_through_json() {
        let spec = CpuModel::KabyLakeR.spec();
        for family in AttackFamily::ALL {
            let s = CampaignSchedule::generate(family, &spec, &mut rng("json"));
            let j = serde_json::to_string(&s).expect("serializes");
            let back: CampaignSchedule = serde_json::from_str(&j).expect("parses");
            assert_eq!(s, back);
        }
    }
}
