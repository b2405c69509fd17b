//! The command line, the closed measurement loop, set-up probes and
//! provenance.

use crate::defense::Defense;
use crate::overhead::Overhead;
use crate::report::{layer_metrics, result_line, Metric, TracedRun};
use crate::soak::Soak;
use crate::stats::{self, fnv1a, percentile, splitmix64, tail_percentile, BestOf, FNV_BASIS};
use crate::sweep::Sweep;
use crate::tracer::Tracer;
use crate::{timed, Finish, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fresh processes timed for `setup_s`.
pub const SETUP_PROBES: usize = 15;

/// Untimed warm-up before the measured loop.
pub const WARMUP: Duration = Duration::from_millis(250);

/// Op indices of the warm-up start here, clear of the measured ops.
const WARMUP_BASE: u64 = 1 << 40;

/// The workload names (`BENCHMARK.json` registers the first three).
pub const WORKLOADS: [&str; 4] = ["sweep", "overhead", "soak", "defense"];

const USAGE: &str = "usage: perfbench --workload <sweep|overhead|soak|defense> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Only run the set-up and exit (a `setup_s` probe).
    pub setup_probe: bool,
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// A usage message.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            a.setup_probe = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload.clone_from(&value),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => match value.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{USAGE}", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(a)
}

/// Runs the benchmark; the process exit code.
#[must_use]
pub fn main_with(args: &Args) -> i32 {
    let result = match args.workload.as_str() {
        "sweep" => run(Sweep::default(), args),
        "overhead" => run(Overhead::default(), args),
        "soak" => run(Soak::default(), args),
        _ => run(Defense::default(), args),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// The scenario seed of op group `group`.
#[must_use]
pub fn group_seed(workload_seed: u64, workload: &str, group: u64) -> u64 {
    splitmix64(
        splitmix64(workload_seed ^ fnv1a(FNV_BASIS, workload.as_bytes())).wrapping_add(group),
    )
}

fn run<W: Workload>(mut w: W, args: &Args) -> Result<(), String> {
    if args.setup_probe {
        w.setup(&mut Tracer::new(false));
        return Ok(());
    }
    if args.trace {
        traced(w, args)
    } else {
        untraced(w, args)
    }
}

fn seed_of<W: Workload>(args: &Args, i: u64) -> u64 {
    group_seed(args.seed, W::NAME, (i / W::CYCLE) % W::GROUPS)
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

/// Failure bookkeeping: counts every failure, keeps the first few.
#[derive(Default)]
struct Failures {
    count: u64,
    shown: Vec<String>,
}

impl Failures {
    fn note(&mut self, i: u64, e: String) {
        self.count += 1;
        if self.shown.len() < 5 {
            self.shown.push(format!("op {i}: {e}"));
        }
    }
}

fn finish_checks<W: Workload>(w: &mut W, args: &Args, ops: u64, fails: &mut Failures) -> Finish {
    let f = catch_unwind(AssertUnwindSafe(|| w.finish(seed_of::<W>(args, 0), ops))).unwrap_or_else(
        |p| Finish {
            errors: vec![format!(
                "end-of-run check panicked: {}",
                panic_text(p.as_ref())
            )],
            ..Finish::default()
        },
    );
    fails.count += f.failed_ops;
    if f.failed_ops == 0 && !f.errors.is_empty() {
        fails.count += W::CYCLE.min(ops);
    }
    for e in &f.errors {
        fails.shown.push(format!("end of run: {e}"));
    }
    f
}

fn untraced<W: Workload>(mut w: W, args: &Args) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let ((), setup_in_process_ns) = timed(|| w.setup(&mut off));

    let warm = Instant::now();
    let mut k = 0;
    while warm.elapsed() < WARMUP {
        let i = WARMUP_BASE + k;
        let _ = catch_unwind(AssertUnwindSafe(|| w.op(i, seed_of::<W>(args, i))));
        k += 1;
    }

    // Every input runs at least twice, and the second round's outputs
    // must equal the first's.
    let inputs = W::CYCLE * W::GROUPS;
    let mut first_round = Vec::with_capacity(inputs as usize);
    let mut best = BestOf::new(inputs as usize);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut latencies: Vec<u64> = Vec::new();
    let mut fails = Failures::default();
    let mut digest = FNV_BASIS;
    let started = Instant::now();
    let mut i = 0u64;
    while i < 2 * inputs || started.elapsed() < budget {
        let seed = seed_of::<W>(args, i);
        let (out, ns) = timed(|| catch_unwind(AssertUnwindSafe(|| w.op(i, seed))));
        latencies.push(ns);
        best.record((i % inputs) as usize, ns);
        let text = match out {
            Ok(Ok(out)) => {
                if let Err(e) = w.check(i, seed, &out) {
                    fails.note(i, e);
                }
                (i < 2 * inputs).then(|| W::digest_text(&out))
            }
            Ok(Err(e)) => {
                fails.note(i, e.clone());
                Some(format!("error: {e}"))
            }
            Err(p) => {
                let e = format!("panicked: {}", panic_text(p.as_ref()));
                fails.note(i, e.clone());
                Some(e)
            }
        };
        let text = text.unwrap_or_default();
        if i < 2 * inputs {
            let h = fnv1a(FNV_BASIS, text.as_bytes());
            if i < inputs {
                first_round.push(h);
            } else if first_round[(i - inputs) as usize] != h {
                fails.note(i, "output differs from the same input's first run".into());
            }
        }
        if i < W::CYCLE {
            digest = fnv1a(digest, text.as_bytes());
        }
        i += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let attempted = i;
    let finish = finish_checks(&mut w, args, attempted, &mut fails);

    let setup_s = setup_probe_median::<W>(args)?;
    let peak_rss_mib = peak_rss_mib()?;
    latencies.sort_unstable();
    let tail = tail_percentile(latencies.len());
    let ms = |ns: u64| ns as f64 / 1e6;
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_best_ms", best.mean_ns() / 1e6, "ms"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    // Printed, not in the result: on a shared host other tenants' memory
    // traffic slows every op by up to a third for many seconds at a time,
    // so throughput, median and tail spread between runs wider than any
    // regression bound they could carry.
    let printed = [
        Metric::new("ops_per_s", attempted as f64 / wall, "1/s"),
        Metric::new("op_p50_ms", ms(percentile(&latencies, 500)), "ms"),
        Metric::new("op_tail_ms", ms(percentile(&latencies, tail)), "ms"),
    ];
    let correct = fails.count == 0;
    let line = result_line(correct, attempted, fails.count, &metrics)?;

    for e in &fails.shown {
        eprintln!("perfbench: FAILED {e}");
    }
    println!(
        "perfbench {} seed {}: {attempted} ops in {wall:.3} s, closed loop, 1 client, workers = 1",
        W::NAME,
        args.seed
    );
    for m in metrics.iter().chain(&printed) {
        println!("  {:<14} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<14} {:>14.6} ({} failed / {attempted} attempted)",
        "fail_ratio",
        fails.count as f64 / attempted as f64,
        fails.count
    );
    println!(
        "  op_best_ms is the mean over {inputs} inputs of each one's fastest of about {} \
         repeats; op_tail_ms is p{} over {} samples ({} beyond); setup_s is the median of {} \
         fresh processes (in-process set-up {:.4} s)",
        attempted / inputs,
        tail as f64 / 10.0,
        latencies.len(),
        stats::beyond(latencies.len(), tail),
        SETUP_PROBES,
        setup_in_process_ns as f64 / 1e9
    );
    for n in &finish.notes {
        println!("  {n}");
    }
    println!("digest {digest:016x} (outputs of ops 0..{})", W::CYCLE);
    println!("provenance {}", provenance(args));
    println!("{line}");
    Ok(())
}

fn traced<W: Workload>(mut w: W, args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    w.setup(&mut tr);
    let cost = tr.calibrate(100_000);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut run = TracedRun::default();
    let mut fails = Failures::default();
    let started = Instant::now();
    let mut i = 0u64;
    while i < W::CYCLE || started.elapsed() < budget {
        let seed = seed_of::<W>(args, i);
        let before = tr.spans_opened();
        match catch_unwind(AssertUnwindSafe(|| w.traced_op(i, seed, &mut tr))) {
            Ok(Ok(op)) => {
                run.untraced_ns += op.untraced_ns;
                run.traced_ns += op.traced_ns;
                run.op_spans += tr.spans_opened() - before;
            }
            Ok(Err(e)) => fails.note(i, e),
            Err(p) => {
                tr.abandon_open_spans();
                tr.set_enabled(true);
                fails.note(i, format!("panicked: {}", panic_text(p.as_ref())));
            }
        }
        i += 1;
    }
    run.ops = i - fails.count;
    let attempted = i;
    tr.set_enabled(false);
    let finish = finish_checks(&mut w, args, attempted, &mut fails);

    let metrics = layer_metrics(&tr, &run);
    let line = result_line(fails.count == 0, attempted, fails.count, &metrics)?;
    for e in &fails.shown {
        eprintln!("perfbench: FAILED {e}");
    }
    println!(
        "perfbench {} seed {} traced: {attempted} ops, empty span {:.1} ns ({:.1} ns inside)",
        W::NAME,
        args.seed,
        cost.full_ns,
        cost.inside_ns
    );
    for m in metrics.iter().filter(|m| m.value != 0.0) {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &finish.notes {
        println!("  {n}");
    }
    println!("provenance {}", provenance(args));
    println!("{line}");
    Ok(())
}

/// Median wall time of [`SETUP_PROBES`] fresh processes that run only
/// the workload's set-up, s.
fn setup_probe_median<W: Workload>(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let (status, ns) = timed(|| {
            Command::new(&exe)
                .args(["--workload", W::NAME, "--setup-probe"])
                .args(["--seed", &args.seed.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
        });
        let status = status.map_err(|e| format!("set-up probe: {e}"))?;
        if !status.success() {
            return Err(format!("set-up probe exited with {status}"));
        }
        times.push(ns as f64 / 1e9);
    }
    Ok(stats::median_f64(&mut times))
}

/// This process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// ns per iteration of a fixed integer loop: the host calibration
/// figure (median of five runs).
#[must_use]
pub fn calibration_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut runs = Vec::with_capacity(5);
    for _ in 0..5 {
        let (x, ns) = timed(|| {
            let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        });
        std::hint::black_box(x);
        runs.push(ns as f64 / ITERS as f64);
    }
    stats::median_f64(&mut runs)
}

/// The checkout's git revision, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where a result came from: revision, compiler, cores, seed and the
/// host calibration figure (recorded, not gated), as one JSON object.
#[must_use]
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"calibration_ns\": {}}}",
        git_rev(),
        env!("PERFBENCH_RUSTC_VERSION"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        calibration_ns()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "soak",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "soak");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(!a.setup_probe);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep", "--seed"]).is_err());
        assert!(args(&["--workload", "sweep", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sweep", "--bogus", "1"]).is_err());
    }

    #[test]
    fn group_seeds_are_distinct_and_stable() {
        let a = group_seed(1, "sweep", 0);
        assert_eq!(a, group_seed(1, "sweep", 0));
        assert_ne!(a, group_seed(1, "sweep", 1));
        assert_ne!(a, group_seed(2, "sweep", 0));
        assert_ne!(a, group_seed(1, "soak", 0));
    }
}
