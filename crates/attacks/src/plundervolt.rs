//! The Plundervolt attack \[19\]: software-based undervolting against
//! computations that would be protected inside SGX.
//!
//! Two exploit paths, both from the original paper:
//!
//! - [`run_rsa_attack`] — fault one half of an RSA-CRT signature and
//!   factor the modulus with the Bellcore gcd;
//! - [`run_aes_attack`] — collect correct/faulty AES ciphertext pairs
//!   and recover the key with the Giraud DFA.
//!
//! The attacker walks the voltage offset deeper from a starting guess,
//! exactly like the published proof-of-concept: write 0x150, wait for
//! the voltage to apply, run the victim repeatedly, restore, repeat.

use crate::campaign::{is_crash, Adversary, AttackReport};
use crate::crypto::aes::{self, GiraudAttack};
use crate::crypto::rsa::{bellcore_factor, RsaKey};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::exec::InstrClass;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::machine::{Machine, MachineError};
use serde::{Deserialize, Serialize};

/// Consecutive crashes at one offset after which a campaign ends its
/// descent. A crash resets the package and the attacker retries the
/// same offset; below the crash threshold every retry crashes again,
/// and deeper offsets only crash harder, so without a bound the retry
/// loop never ends.
pub const MAX_CRASHES_PER_OFFSET: u32 = 3;

/// Campaign parameters (defaults mirror the published attack loops).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlundervoltConfig {
    /// Frequency the attacker pins the victim core to (fast = shallow
    /// unsafe band = fewer millivolts to walk).
    pub target_freq: FreqMhz,
    /// First offset tried (mV, negative).
    pub start_offset_mv: i32,
    /// Deepest offset tried before giving up.
    pub floor_offset_mv: i32,
    /// Step between attempts.
    pub step_mv: i32,
    /// Victim computations run per offset step.
    pub victims_per_step: u32,
    /// Core the victim is pinned to.
    pub victim_core: CoreId,
    /// Stop immediately once the exploit goal is reached.
    pub stop_on_success: bool,
}

impl Default for PlundervoltConfig {
    fn default() -> Self {
        PlundervoltConfig {
            target_freq: FreqMhz(4_000),
            start_offset_mv: -100,
            floor_offset_mv: -300,
            step_mv: 5,
            victims_per_step: 40,
            victim_core: CoreId(0),
            stop_on_success: true,
        }
    }
}

/// Runs the RSA-CRT + Bellcore campaign.
///
/// The victim signs inside what would be an enclave; its modular
/// multiplications execute on the machine's faultable `imul` path. On a
/// faulty signature the attacker factors `n`.
///
/// # Errors
///
/// Propagates non-crash machine errors.
pub fn run_rsa_attack(
    machine: &mut Machine,
    cfg: &PlundervoltConfig,
    seed: u64,
) -> Result<AttackReport, MachineError> {
    let mut report = AttackReport::new("plundervolt-rsa-crt");
    let mut rng = SimRng::from_seed_label(seed, "plundervolt-rsa");
    let key = RsaKey::generate(&mut rng);
    let mut adv = Adversary::new(machine, cfg.victim_core)?;
    adv.pin_frequency(machine, cfg.target_freq)?;
    machine.advance(SimDuration::from_millis(1));

    let mut offset = cfg.start_offset_mv;
    let mut crashes_here = 0;
    'sweep: while offset >= cfg.floor_offset_mv {
        report.attempts += 1;
        adv.undervolt_and_wait(machine, offset)?;
        for _ in 0..cfg.victims_per_step {
            let m_msg = rng.next_u64() % key.n;
            match sign_on_machine(machine, cfg.victim_core, &key, m_msg) {
                Ok(sig) => {
                    machine.advance(SimDuration::from_micros(20));
                    if !key.verify(m_msg, sig) {
                        report.faulty_events += 1;
                        if let Some(factor) = bellcore_factor(key.n, key.e, m_msg, sig) {
                            report.success = true;
                            report.extracted =
                                Some(format!("prime factor {factor:#x} of n={:#x}", key.n));
                            if cfg.stop_on_success {
                                break 'sweep;
                            }
                        }
                    }
                }
                Err(e) if is_crash(&e) => {
                    adv.recover_from_crash(machine, cfg.target_freq, &mut report)?;
                    crashes_here += 1;
                    if crashes_here == MAX_CRASHES_PER_OFFSET {
                        break 'sweep;
                    }
                    continue 'sweep; // retry the same offset post-reset
                }
                Err(e) => return Err(e),
            }
        }
        offset -= cfg.step_mv;
        crashes_here = 0;
    }
    adv.restore(machine)?;
    report.wall = adv.elapsed(machine);
    Ok(report)
}

/// Signs on the simulated CPU: every multiplication goes through the
/// package's faultable `imul`.
fn sign_on_machine(
    machine: &mut Machine,
    core: CoreId,
    key: &RsaKey,
    msg: u64,
) -> Result<u64, MachineError> {
    let now = machine.now();
    let mut failure = None;
    let sig = {
        let cpu = machine.cpu_mut();
        let mut mul = |a: u64, b: u64| match cpu.execute_imul(now, core, a, b) {
            Ok(ex) => ex.value,
            Err(e) => {
                failure.get_or_insert(e);
                a.wrapping_mul(b)
            }
        };
        key.sign_crt(msg, &mut mul)
    };
    match failure {
        Some(e) => Err(MachineError::Package(e)),
        None => Ok(sig),
    }
}

/// Runs the AES + Giraud-DFA campaign.
///
/// Each encryption's fault behaviour derives from the machine state via
/// the `Aesenc` instruction class: under a timing violation a round
/// computation flips bits; a fault landing on the final round's input is
/// the Giraud position (single-byte ciphertext diff), earlier faults
/// spread through MixColumns and are filtered out by the attacker.
///
/// # Errors
///
/// Propagates non-crash machine errors.
pub fn run_aes_attack(
    machine: &mut Machine,
    cfg: &PlundervoltConfig,
    seed: u64,
) -> Result<AttackReport, MachineError> {
    let mut report = AttackReport::new("plundervolt-aes-dfa");
    let mut rng = SimRng::from_seed_label(seed, "plundervolt-aes");
    let mut key = [0u8; 16];
    for b in &mut key {
        *b = rng.next_u64() as u8;
    }
    let mut dfa = GiraudAttack::new();
    let mut adv = Adversary::new(machine, cfg.victim_core)?;
    adv.pin_frequency(machine, cfg.target_freq)?;
    machine.advance(SimDuration::from_millis(1));

    let mut offset = cfg.start_offset_mv;
    let mut crashes_here = 0;
    'sweep: while offset >= cfg.floor_offset_mv {
        report.attempts += 1;
        adv.undervolt_and_wait(machine, offset)?;
        for _ in 0..cfg.victims_per_step {
            let mut pt = [0u8; 16];
            for b in &mut pt {
                *b = rng.next_u64() as u8;
            }
            match encrypt_on_machine(machine, cfg.victim_core, &key, &pt, &mut rng) {
                Ok((correct, observed)) => {
                    machine.advance(SimDuration::from_micros(5));
                    if observed != correct {
                        report.faulty_events += 1;
                        // Filter for single-byte diffs (Giraud position).
                        let diff = (0..16).filter(|&i| observed[i] != correct[i]).count();
                        if diff == 1 {
                            dfa.observe(&correct, &observed);
                            if let Some(master) = dfa.master_key() {
                                report.success = master == key;
                                report.extracted = Some(format!("AES-128 key {master:02x?}"));
                                if cfg.stop_on_success {
                                    break 'sweep;
                                }
                            }
                        }
                    }
                }
                Err(e) if is_crash(&e) => {
                    adv.recover_from_crash(machine, cfg.target_freq, &mut report)?;
                    crashes_here += 1;
                    if crashes_here == MAX_CRASHES_PER_OFFSET {
                        break 'sweep;
                    }
                    continue 'sweep;
                }
                Err(e) => return Err(e),
            }
        }
        offset -= cfg.step_mv;
        crashes_here = 0;
    }
    adv.restore(machine)?;
    report.wall = adv.elapsed(machine);
    Ok(report)
}

/// Encrypts one block on the simulated CPU, sampling round faults from
/// the machine's physical state. Returns (correct, observed) ciphertexts.
fn encrypt_on_machine(
    machine: &mut Machine,
    core: CoreId,
    key: &[u8; 16],
    pt: &[u8; 16],
    rng: &mut SimRng,
) -> Result<([u8; 16], [u8; 16]), MachineError> {
    let now = machine.now();
    let freq = machine.cpu().core_freq(core)?;
    let v = machine.cpu().core_voltage_mv(now);
    let engine = machine.cpu().engine();
    let slack = engine.class_slack_ps(InstrClass::Aesenc, freq, v);
    let fm = engine.fault_model();
    // Crash takes the whole package down, as for any other instruction.
    if fm.classify(slack) == plugvolt_circuit::timing::TimingState::Crash {
        // Latch the crash through the package by touching the rail.
        let _ = machine
            .cpu_mut()
            .run_batch(now, core, InstrClass::Aesenc, 1);
        return Err(MachineError::Package(
            plugvolt_cpu::package::PackageError::Crashed,
        ));
    }
    let correct = aes::encrypt(key, pt);
    // Ten rounds, each an opportunity to fault.
    let p_round = fm.fault_probability(slack);
    let p_block = 1.0 - (1.0 - p_round).powi(10);
    let observed = if rng.chance(p_block) {
        if rng.chance(0.1) {
            // The fault landed on the final round's input: Giraud position.
            aes::encrypt_with_fault(key, pt, Some(aes::sample_round_fault(rng)))
        } else {
            // An earlier round: MixColumns spreads it across a column.
            let mut garbled = correct;
            let col = rng.below(4) as usize;
            for r in 0..4 {
                garbled[4 * col + r] ^= (rng.next_u64() as u8) | 1;
            }
            garbled
        }
    } else {
        correct
    };
    Ok((correct, observed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_cpu::model::CpuModel;

    #[test]
    fn rsa_attack_succeeds_on_undefended_machine() {
        let mut m = Machine::new(CpuModel::CometLake, 42);
        let report = run_rsa_attack(&mut m, &PlundervoltConfig::default(), 1).unwrap();
        assert!(report.success, "report: {report:?}");
        assert!(report.faulty_events > 0);
        assert!(report
            .extracted
            .as_deref()
            .unwrap()
            .contains("prime factor"));
    }

    #[test]
    fn rsa_attack_needs_the_unsafe_region() {
        // Stop the sweep above the fault onset: no faults, no factor.
        let mut m = Machine::new(CpuModel::CometLake, 42);
        let cfg = PlundervoltConfig {
            start_offset_mv: -20,
            floor_offset_mv: -60,
            ..PlundervoltConfig::default()
        };
        let report = run_rsa_attack(&mut m, &cfg, 1).unwrap();
        assert!(!report.success);
        assert_eq!(report.faulty_events, 0);
    }

    #[test]
    fn aes_attack_succeeds_on_undefended_machine() {
        let mut m = Machine::new(CpuModel::CometLake, 43);
        // 600 victims/step gives the Giraud DFA enough single-byte pairs
        // to pin all 16 key bytes under the in-tree xoshiro stream.
        let cfg = PlundervoltConfig {
            victims_per_step: 600,
            ..PlundervoltConfig::default()
        };
        let report = run_aes_attack(&mut m, &cfg, 2).unwrap();
        assert!(report.success, "report: {report:?}");
        assert!(report.extracted.as_deref().unwrap().contains("AES-128 key"));
    }

    #[test]
    fn attacks_are_deterministic() {
        let run = || {
            let mut m = Machine::new(CpuModel::CometLake, 42);
            run_rsa_attack(&mut m, &PlundervoltConfig::default(), 1).unwrap()
        };
        assert_eq!(run(), run());
    }
}
