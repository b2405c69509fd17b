//! `perfbench`: absolute end-to-end and per-layer benchmark of the
//! plugvolt workspace, built only on the crates' public API.
//!
//! Four closed-loop workloads (one client, ops back to back, every
//! parallel engine at `workers = 1`) cover the paper's four procedures:
//! the S1 sweep ([`sweep`]), the Table 2 polling overhead
//! ([`overhead`]), the randomized soak ([`soak`]) and the defense matrix
//! ([`defense`]). Each op's scenario seed is derived from the workload
//! seed given on the command line, and every op's output is checked.
//!
//! A separate traced run ([`tracer`]) times the calls into each layer's
//! public functions. Where a layer call sits inside a library entry
//! point with no public hook, the workload rebuilds that entry point
//! from public calls and asserts the library's output. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

pub mod defense;
pub mod harness;
pub mod overhead;
pub mod report;
pub mod soak;
pub mod stats;
pub mod sweep;
pub mod tracer;

use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::model::CpuModel;
use tracer::{Count, Label, Tracer};

/// Host wall time of one traced op: the library entry point untraced,
/// and its traced rebuild (their ratio is the tracing overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedOp {
    /// The library call (or, for `defense`, the composed row) with
    /// tracing off, ns.
    pub untraced_ns: u64,
    /// The traced rebuild, ns.
    pub traced_ns: u64,
}

/// What the end-of-run checks found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Finish {
    /// Ops whose group-level check failed (e.g. a suite pass).
    pub failed_ops: u64,
    /// Human-readable result lines.
    pub notes: Vec<String>,
    /// Problems found, if any.
    pub errors: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// What one untraced op produces.
    type Output;

    /// Workload name (the `--workload` value).
    const NAME: &'static str;

    /// Ops per seed group. Ops `k * CYCLE .. (k + 1) * CYCLE` share one
    /// scenario seed and together form one unit of the paper's
    /// procedure (three models, one suite pass, the three defended
    /// matrix rows); the output
    /// digest covers the first group.
    const CYCLE: u64;

    /// Seed groups per run. Op `i` uses group `(i / CYCLE) % GROUPS`, so
    /// each of the `CYCLE * GROUPS` inputs repeats all through the run
    /// and its fastest repeat can be timed.
    const GROUPS: u64;

    /// Process set-up before the first op: slack tables and maps.
    fn setup(&mut self, tr: &mut Tracer);

    /// One untraced op: the library entry point.
    ///
    /// # Errors
    ///
    /// The library's error, rendered.
    fn op(&mut self, i: u64, seed: u64) -> Result<Self::Output, String>;

    /// Checks one op's output.
    ///
    /// # Errors
    ///
    /// What is wrong with the output.
    fn check(&mut self, i: u64, seed: u64, out: &Self::Output) -> Result<(), String>;

    /// The op's simulated output in canonical text, for the digest.
    fn digest_text(out: &Self::Output) -> String;

    /// One traced op: the library call untraced, then its traced
    /// rebuild, asserting equal outputs and the output checks.
    ///
    /// # Errors
    ///
    /// A library error, a mismatch or a failed check.
    fn traced_op(&mut self, i: u64, seed: u64, tr: &mut Tracer) -> Result<TracedOp, String>;

    /// Checks that need a whole run (`ops` ops done; the first group
    /// used `first_seed`).
    fn finish(&mut self, first_seed: u64, ops: u64) -> Finish;
}

/// Builds a model's slack table and analytic map ahead of the first op.
pub fn warm_model(model: CpuModel, with_map: bool, tr: &mut Tracer) {
    let table = tr.span(Label::CpuSlackBuild, |_| {
        plugvolt_cpu::slack::shared_table(model)
    });
    std::hint::black_box(table);
    if with_map {
        let map = tr.span(Label::CoreAnalyticMap, |_| Scenario::new().quick_map(model));
        std::hint::black_box(map);
    }
}

/// Folds a finished machine's slack-table and mailbox counters into
/// the tracer's counts.
pub fn note_machine(machine: &plugvolt_kernel::machine::Machine, tr: &mut Tracer) {
    let cpu = machine.cpu();
    tr.add(Count::SlackHits, cpu.engine().slack_table_hits());
    tr.add(Count::SlackFallbacks, cpu.engine().slack_table_fallbacks());
    tr.add(Count::MailboxIgnored, cpu.mailbox_writes_ignored());
}

/// Times `f`, in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = std::time::Instant::now();
    let r = f();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (r, ns)
}

/// `Err` with `what` unless `a == b`.
///
/// # Errors
///
/// The mismatch, named by `what`.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let shown: String = format!("{b:?} vs {a:?}").chars().take(600).collect();
    Err(format!(
        "rebuilt {what} differs from the library call: {shown}"
    ))
}
