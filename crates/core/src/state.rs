//! Safe/unsafe system states — the paper's central abstraction (Sec. 3).
//!
//! A system *state* is an observed (core frequency, core voltage offset)
//! pair; the characterization of Sec. 4.2 classifies each state by what
//! the paper's EXECUTE thread experiences there.

use plugvolt_cpu::freq::FreqMhz;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Empirical classification of a (frequency, offset) system state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StateClass {
    /// No faults observed: Eq. 1 holds with margin everywhere.
    Safe,
    /// Faults observed (Eq. 3 territory): a DVFS attack can fire here.
    Unsafe,
    /// The machine locks up or resets.
    Crash,
}

impl fmt::Display for StateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StateClass::Safe => "safe",
            StateClass::Unsafe => "unsafe",
            StateClass::Crash => "crash",
        };
        f.write_str(s)
    }
}

/// One observed system state: what the countermeasure's polling loop
/// reads from MSRs 0x198 (frequency) and 0x150 (offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemState {
    /// Core frequency from `IA32_PERF_STATUS`.
    pub freq: FreqMhz,
    /// Core-plane voltage offset from the OC mailbox, in mV (≤ 0 under
    /// the attacks considered).
    pub offset_mv: i32,
}

impl fmt::Display for SystemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {} mV)", self.freq, self.offset_mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(StateClass::Unsafe.to_string(), "unsafe");
        let s = SystemState {
            freq: FreqMhz(2_000),
            offset_mv: -150,
        };
        assert_eq!(s.to_string(), "(2 GHz, -150 mV)");
    }
}
