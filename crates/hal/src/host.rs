//! Read-only Linux host probe: `/dev/cpu/<n>/msr` + sysfs cpufreq.
//!
//! This probe exists to measure what the countermeasure *costs* on
//! real silicon — per-core MSR poll latency and the derived worst-case
//! detection latency — without ever taking the risks the paper is
//! about. The safety guarantee is structural: the module has no write
//! path at all. It opens MSR devices and sysfs nodes only through
//! `std::fs` reads (the crate forbids `unsafe`), and it is not a
//! machine backend, so it can never be mounted in a simulated
//! `Machine` and driven by an attack schedule.
//!
//! Reading MSRs still requires root (or `CAP_SYS_RAWIO`) and the `msr`
//! kernel module; [`probe_poll_overhead`] degrades gracefully per core
//! when a device node is missing or unreadable, so CI can build and
//! even run it unprivileged.

use crate::error::HalError;
use plugvolt_cpu::core::CoreId;
use plugvolt_msr::addr::Msr;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::time::Instant;

fn io_err(path: &str, e: &std::io::Error) -> HalError {
    HalError::Io {
        path: path.to_string(),
        detail: e.to_string(),
    }
}

/// Counts logical CPUs from `/sys/devices/system/cpu/cpu<N>` entries.
/// Falls back to 1 when sysfs is unreadable (containers, exotic mounts).
#[must_use]
pub fn detect_core_count() -> usize {
    let Ok(entries) = fs::read_dir("/sys/devices/system/cpu") else {
        return 1;
    };
    let n = entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let Some(s) = name.to_str() else { return false };
            s.strip_prefix("cpu")
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
        .count();
    n.max(1)
}

fn read_host_msr(core: CoreId, msr: Msr) -> Result<u64, HalError> {
    let path = format!("/dev/cpu/{}/msr", core.0);
    let mut f = fs::File::open(&path).map_err(|e| io_err(&path, &e))?;
    f.seek(SeekFrom::Start(u64::from(msr.0)))
        .map_err(|e| io_err(&path, &e))?;
    let mut buf = [0u8; 8];
    f.read_exact(&mut buf).map_err(|e| io_err(&path, &e))?;
    Ok(u64::from_le_bytes(buf))
}

fn read_cur_freq_khz(core: CoreId) -> Result<u64, HalError> {
    let path = format!(
        "/sys/devices/system/cpu/cpu{}/cpufreq/scaling_cur_freq",
        core.0
    );
    let text = fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
    text.trim().parse::<u64>().map_err(|e| HalError::Io {
        path,
        detail: format!("unparseable kHz value: {e}"),
    })
}

/// One core's poll-latency sample from [`probe_poll_overhead`].
#[derive(Debug, Clone)]
pub struct CoreProbe {
    /// Logical core index.
    pub core: usize,
    /// Reads that completed.
    pub reads: u32,
    /// Mean latency of one `IA32_PERF_STATUS` read, nanoseconds.
    pub mean_read_ns: f64,
    /// Mean latency of one sysfs `scaling_cur_freq` read, nanoseconds
    /// (`None` when the node is absent).
    pub mean_freq_ns: Option<f64>,
    /// Why MSR reads failed, when they did (missing module, EACCES…).
    pub error: Option<String>,
}

/// Host measurement report: what one polling sweep costs for real.
#[derive(Debug, Clone)]
pub struct HostProbeReport {
    /// Logical cores probed.
    pub cores: usize,
    /// Per-core samples.
    pub samples: Vec<CoreProbe>,
    /// Total cost of one all-core MSR sweep, nanoseconds (sum of the
    /// per-core means over the cores that could be read).
    pub sweep_ns: f64,
    /// Cores whose MSR device could not be read.
    pub unreadable: usize,
}

impl HostProbeReport {
    /// Worst-case detection latency for a polling countermeasure with
    /// the given period: a glitch landing just after a sweep waits one
    /// full period plus the next sweep. `None` when no core could be
    /// read, so no sweep cost was measured.
    #[must_use]
    pub fn worst_case_detection_us(&self, period_us: f64) -> Option<f64> {
        (self.unreadable < self.cores).then(|| period_us + self.sweep_ns / 1000.0)
    }

    /// Human-readable summary table.
    #[must_use]
    pub fn render_text(&self, period_us: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "host poll-overhead probe ({} cores, backend host-ro)\n",
            self.cores
        ));
        out.push_str("core  msr-read-ns  sysfs-freq-ns  status\n");
        for s in &self.samples {
            let freq = s
                .mean_freq_ns
                .map_or_else(|| "-".to_string(), |v| format!("{v:.0}"));
            let status = s.error.as_deref().unwrap_or("ok");
            out.push_str(&format!(
                "{:>4}  {:>11.0}  {:>13}  {}\n",
                s.core, s.mean_read_ns, freq, status
            ));
        }
        out.push_str(&format!(
            "sweep cost: {:.2} us over {} readable cores ({} unreadable)\n",
            self.sweep_ns / 1000.0,
            self.cores - self.unreadable,
            self.unreadable
        ));
        let latency = self.worst_case_detection_us(period_us).map_or_else(
            || "unknown (no core was readable)".to_string(),
            |us| format!("{us:.2} us"),
        );
        out.push_str(&format!(
            "worst-case detection latency at period {period_us} us: {latency}\n"
        ));
        out
    }
}

/// Measures per-core MSR and sysfs-cpufreq read latency with the wall
/// clock. Cores whose MSR device is missing or unreadable are reported
/// with their error instead of aborting the probe, so the sweep always
/// completes (possibly with zero readable cores).
#[must_use]
pub fn probe_poll_overhead(reads_per_core: u32) -> HostProbeReport {
    let cores = detect_core_count();
    let reads_per_core = reads_per_core.max(1);
    let mut samples = Vec::with_capacity(cores);
    let mut sweep_ns = 0.0;
    let mut unreadable = 0;

    for core in 0..cores {
        let id = CoreId(core);
        let mut ok_reads = 0u32;
        let mut err: Option<String> = None;
        let t0 = Instant::now();
        for _ in 0..reads_per_core {
            match read_host_msr(id, Msr::IA32_PERF_STATUS) {
                Ok(_) => ok_reads += 1,
                Err(e) => {
                    err = Some(e.to_string());
                    break;
                }
            }
        }
        let msr_elapsed = t0.elapsed();
        let mean_read_ns = if ok_reads > 0 {
            msr_elapsed.as_nanos() as f64 / f64::from(ok_reads)
        } else {
            0.0
        };

        let mut mean_freq_ns = None;
        let t1 = Instant::now();
        let mut freq_reads = 0u32;
        for _ in 0..reads_per_core {
            if read_cur_freq_khz(id).is_err() {
                break;
            }
            freq_reads += 1;
        }
        if freq_reads > 0 {
            mean_freq_ns = Some(t1.elapsed().as_nanos() as f64 / f64::from(freq_reads));
        }

        if ok_reads > 0 {
            sweep_ns += mean_read_ns;
        } else {
            unreadable += 1;
        }
        samples.push(CoreProbe {
            core,
            reads: ok_reads,
            mean_read_ns,
            mean_freq_ns,
            error: err,
        });
    }

    HostProbeReport {
        cores,
        samples,
        sweep_ns,
        unreadable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_degrades_gracefully_without_root() {
        // Must never panic or error out, whatever the privileges.
        let report = probe_poll_overhead(3);
        assert!(report.cores >= 1);
        assert_eq!(report.samples.len(), report.cores);
        let text = report.render_text(200.0);
        assert!(text.contains("worst-case detection latency"), "{text}");
    }

    #[test]
    fn latency_is_unknown_when_no_core_was_readable() {
        let unreadable = |core| CoreProbe {
            core,
            reads: 0,
            mean_read_ns: 0.0,
            mean_freq_ns: None,
            error: Some("EACCES".to_string()),
        };
        let mut report = HostProbeReport {
            cores: 2,
            samples: vec![unreadable(0), unreadable(1)],
            sweep_ns: 0.0,
            unreadable: 2,
        };
        assert_eq!(report.worst_case_detection_us(200.0), None);
        let text = report.render_text(0.4);
        assert!(
            text.contains("latency at period 0.4 us: unknown (no core was readable)"),
            "{text}"
        );
        report.samples[1] = CoreProbe {
            reads: 1,
            mean_read_ns: 1_500.0,
            error: None,
            ..unreadable(1)
        };
        report.sweep_ns = 1_500.0;
        report.unreadable = 1;
        assert_eq!(report.worst_case_detection_us(0.4), Some(1.9));
        let text = report.render_text(0.4);
        assert!(text.contains("latency at period 0.4 us: 1.90 us"), "{text}");
    }

    #[test]
    fn core_count_is_positive() {
        assert!(detect_core_count() >= 1);
    }
}
