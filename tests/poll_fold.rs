//! Integration: the S2 poller's cost, and folding its quiet ticks.
//!
//! A polled rate run steals, per tick and per core, the timer-interrupt
//! overhead plus two local MSR reads (`IA32_PERF_STATUS` and the
//! mailbox response register), once per polling period. Its stolen
//! fraction is therefore a closed form of the configuration and the
//! core frequency, independent of the benchmark.
//!
//! `Machine::advance_to` folds a run of such quiet ticks into one step,
//! and `Machine::run_workload` folds the batches between them too. The
//! differential tests here pin that the fold is invisible: a twin
//! machine whose poller never reports a quiet tick (so every firing
//! runs) ends in the same state, whether it is driven by workload runs
//! or by bare clock advances with the package changed between them.

use plugvolt::characterize::analytic_map;
use plugvolt::poll::{PollConfig, PollStats, PollingModule, StatsHandle};
use plugvolt::state::StateClass;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::exec::InstrClass;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_hal::trace::{TraceHeader, TraceRecorder, TRACE_SCHEMA, TRACE_SCHEMA_VERSION};
use plugvolt_kernel::machine::{KernelModule, Machine, ModuleCtx, WorkloadRun};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_msr::perf_status::{encode_perf_ctl, PerfStatus};
use plugvolt_telemetry::{Sink, SpanProfile};
use plugvolt_workloads::rate::run_rate;
use plugvolt_workloads::suite::{find, Benchmark, Tuning, SUITE};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Local MSR reads per polled core per tick with the default
/// single-plane configuration (Algorithm 3 lines 4–5).
const READS_PER_TICK: u64 = 2;

/// Every polled rate run of the suite steals exactly
/// `(timer_overhead + READS_PER_TICK × msr_access_duration(f)) / period`
/// of each core, up to the edge of each run.
///
/// Edge tolerance: a `run_workload` call of wall time `W` sees `n` ticks
/// with `|n − W / period| ≤ 1`, so its stolen time is within one tick's
/// cost `s` of `W · s / period`. Summed over a rate run's `calls` calls,
/// `|stolen_fraction − s / period| ≤ calls · s / wall_total`, and the
/// summed wall is at least the longest copy's (`elapsed`).
#[test]
fn polled_rate_runs_steal_the_closed_form_fraction() {
    let model = CpuModel::CometLake;
    let map = analytic_map(&model.spec());
    let cfg = PollConfig::default();
    for (i, bench) in SUITE.iter().enumerate() {
        for tuning in [Tuning::Base, Tuning::Peak] {
            let mut machine = Machine::new(model, 2024 + i as u64);
            let (module, _stats) = PollingModule::new(map.clone(), cfg.clone());
            machine
                .load_module(Box::new(module))
                .expect("fresh machine");
            let freq = machine.cpu().core_freq(CoreId(0)).expect("core 0");
            let tick = cfg.timer_overhead
                + machine.cpu().engine().msr_access_duration(freq) * READS_PER_TICK;
            let score = run_rate(&mut machine, bench, tuning).expect("rate run");
            let closed = tick.as_picos() as f64 / cfg.period.as_picos() as f64;
            let calls = (score.copies * bench.mix.len()) as u64;
            let edge = (tick * calls).as_picos() as f64 / score.elapsed.as_picos() as f64;
            assert!(
                (score.stolen_fraction - closed).abs() <= edge,
                "{} {tuning:?}: stolen {} vs closed form {closed} (± {edge})",
                bench.name,
                score.stolen_fraction
            );
            // The figure the Table 2 discussion quotes: 0.2139 %.
            assert_eq!(format!("{:.4}", closed * 100.0), "0.2139");
            assert!(
                edge < closed * 0.01,
                "{}: edge {edge} too loose",
                bench.name
            );
        }
    }
    assert_eq!(
        cfg.timer_overhead + SimDuration::from_cycles(250, 1_800) * READS_PER_TICK,
        SimDuration::from_picos(427_776)
    );
}

/// The real poller, counting its `on_timer` calls. With `quiet` off it
/// never reports a quiet tick, so the machine fires every tick.
struct Counted {
    inner: PollingModule,
    quiet: bool,
    calls: Rc<Cell<u64>>,
}

impl KernelModule for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.inner.init(ctx)
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.calls.set(self.calls.get() + 1);
        self.inner.on_timer(ctx)
    }

    fn fold_quiet_ticks(&mut self, ticks: u64) -> bool {
        self.quiet && self.inner.fold_quiet_ticks(ticks)
    }
}

/// A second module: every 1.3 ms it charges every core, reads one MSR
/// on core 1 and moves core 1's clock up or down a step (a governor),
/// noting when it ran. A fold of the poller's ticks must stop at it:
/// the ticks after it read the new clock, at a new access cost.
#[derive(Default)]
struct Sidecar {
    fired_at: Rc<RefCell<Vec<u64>>>,
}

impl KernelModule for Sidecar {
    fn name(&self) -> &str {
        "sidecar"
    }

    fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        Some(SimDuration::from_micros(1_300))
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        for c in 0..ctx.cpu().core_count() {
            ctx.charge(CoreId(c), SimDuration::from_nanos(700));
        }
        let status = ctx.rdmsr(CoreId(1), Msr::IA32_PERF_STATUS);
        let mhz = status.map_or(0, |raw| PerfStatus::decode(raw).freq_mhz());
        let step = if self.fired_at.borrow().len() % 2 == 0 {
            mhz + 200
        } else {
            mhz - 200
        };
        ctx.wrmsr(CoreId(1), Msr::IA32_PERF_CTL, encode_perf_ctl(step))
            .expect("core 1 takes a P-state");
        self.fired_at.borrow_mut().push(ctx.now().as_picos());
        Some(SimDuration::from_micros(1_300))
    }
}

/// Everything a run can be observed by.
#[derive(Debug, PartialEq)]
struct Observed {
    runs: Vec<WorkloadRun>,
    now_ps: u64,
    stolen: Vec<SimDuration>,
    stats: PollStats,
    profile: String,
    spans: SpanProfile,
    sidecar_fired_at: Vec<u64>,
    on_timer_calls: u64,
}

/// Boots a traced Comet Lake machine with a `cfg` poller (and the
/// sidecar module if asked), drives it with `drive`, and observes.
fn observe(
    cfg: &PollConfig,
    fold: bool,
    sidecar: bool,
    drive: &dyn Fn(&mut Machine) -> Vec<WorkloadRun>,
) -> Observed {
    let model = CpuModel::CometLake;
    let sink = Sink::new();
    sink.tracer().set_enabled(true);
    let mut machine = Machine::new(model, 91);
    machine.set_telemetry(sink.clone());
    let (inner, stats): (PollingModule, StatsHandle) =
        PollingModule::new(analytic_map(&model.spec()), cfg.clone());
    let calls = Rc::new(Cell::new(0));
    machine
        .load_module(Box::new(Counted {
            inner,
            quiet: fold,
            calls: Rc::clone(&calls),
        }))
        .expect("fresh machine");
    let fired_at = Rc::default();
    if sidecar {
        let module = Sidecar {
            fired_at: Rc::clone(&fired_at),
        };
        machine.load_module(Box::new(module)).expect("fresh name");
    }
    let runs = drive(&mut machine);
    machine.publish_telemetry();
    let stolen = (0..machine.cpu().core_count())
        .map(|c| machine.stolen_time(CoreId(c)))
        .collect();
    let now_ps = machine.now().as_picos();
    drop(machine);
    let stats = stats.borrow().clone();
    Observed {
        runs,
        now_ps,
        stolen,
        stats,
        profile: sink.profile("fold").to_json(),
        spans: SpanProfile::from_tracer(sink.tracer(), "fold"),
        sidecar_fired_at: fired_at.take(),
        on_timer_calls: calls.get(),
    }
}

/// Runs `drive` on both twins and checks they agree on everything but
/// the number of `on_timer` calls, returning the folded twin's calls
/// and the ticks both accounted.
fn twins(
    cfg: &PollConfig,
    sidecar: bool,
    drive: &dyn Fn(&mut Machine) -> Vec<WorkloadRun>,
) -> (u64, u64) {
    let folded = observe(cfg, true, sidecar, drive);
    let every = observe(cfg, false, sidecar, drive);
    assert_eq!(every.on_timer_calls, every.stats.ticks);
    let (calls, ticks) = (folded.on_timer_calls, folded.stats.ticks);
    let on_timer_calls = every.on_timer_calls;
    assert_eq!(
        Observed {
            on_timer_calls,
            ..folded
        },
        every
    );
    (calls, ticks)
}

/// [`twins`] with the default poller, where the fold must cut the
/// `on_timer` calls at least threefold.
fn assert_fold_is_invisible(sidecar: bool, drive: &dyn Fn(&mut Machine) -> Vec<WorkloadRun>) {
    let (calls, ticks) = twins(&PollConfig::default(), sidecar, drive);
    assert!(calls * 3 < ticks, "the fold ran {calls} of {ticks} ticks");
}

fn mix_runs(machine: &mut Machine, runs: &mut Vec<WorkloadRun>) {
    for (c, class, n) in [
        (0, InstrClass::Imul, 40_000_000),
        (1, InstrClass::Load, 25_000_000),
        (2, InstrClass::AluAdd, 90_000_000),
        (3, InstrClass::Fma, 33_333_333),
    ] {
        runs.push(
            machine
                .run_workload(CoreId(c), class, n)
                .expect("healthy machine"),
        );
    }
}

#[test]
fn folded_quiet_ticks_equal_firing_every_tick() {
    assert_fold_is_invisible(false, &|m| {
        let mut runs = Vec::new();
        mix_runs(m, &mut runs);
        runs
    });
}

#[test]
fn a_second_modules_timer_stops_the_fold() {
    assert_fold_is_invisible(true, &|m| {
        let mut runs = Vec::new();
        mix_runs(m, &mut runs);
        runs
    });
}

#[test]
fn offset_writes_between_runs_stop_the_fold() {
    assert_fold_is_invisible(false, &|m| {
        let mut runs = Vec::new();
        mix_runs(m, &mut runs);
        // A benign undervolt the poller leaves alone: the rail ramps,
        // then holds at the new level.
        let benign = OcRequest::write_offset(-40, Plane::Core).encode();
        m.wrmsr(CoreId(0), Msr::OC_MAILBOX, benign)
            .expect("mailbox write");
        mix_runs(m, &mut runs);
        // A deep one the poller detects and restores mid-run: past the
        // map's fault onset at the running frequency.
        let map = analytic_map(&m.cpu().spec().clone());
        let freq = m.cpu().core_freq(CoreId(0)).expect("core 0");
        let unsafe_mv = (1..100)
            .map(|k| -5 * k)
            .find(|&mv| map.classify(freq, mv) != StateClass::Safe)
            .expect("an unsafe offset");
        let deep = OcRequest::write_offset(unsafe_mv, Plane::Core).encode();
        m.wrmsr(CoreId(0), Msr::OC_MAILBOX, deep)
            .expect("mailbox write");
        mix_runs(m, &mut runs);
        assert_eq!(m.cpu().core_offset_mv(), 0, "the poller restored");
        runs
    });
}

/// The hardened poller soak deploys: an explicit read command per
/// plane, so every tick writes the mailbox twice per core.
fn two_planes() -> PollConfig {
    PollConfig {
        planes: vec![Plane::Core, Plane::Cache],
        ..PollConfig::default()
    }
}

/// Advances in uneven steps, by both entry points, to `until` past now.
fn advance_in_steps(m: &mut Machine, until: SimDuration) {
    let end = m.now() + until;
    while m.now() < end {
        m.advance(SimDuration::from_micros(730));
        let half = SimTime::from_picos(m.now().as_picos() + 1_234_567);
        m.advance_to(half.min(end));
    }
}

#[test]
fn advancing_folds_two_plane_ticks_across_calls() {
    let (calls, ticks) = twins(&two_planes(), false, &|m| {
        advance_in_steps(m, SimDuration::from_millis(40));
        Vec::new()
    });
    assert!(calls * 3 < ticks, "the fold ran {calls} of {ticks} ticks");
}

#[test]
fn an_offset_write_between_advances_stops_the_fold() {
    twins(&two_planes(), false, &|m| {
        advance_in_steps(m, SimDuration::from_millis(3));
        // Benign undervolts the poller leaves alone, one per plane:
        // each re-points the mailbox response and ramps the rails.
        let dev = MsrDev::open(m, CoreId(0)).expect("core 0");
        for plane in [Plane::Cache, Plane::Core] {
            let req = OcRequest::write_offset(-40, plane).encode();
            dev.write(m, Msr::OC_MAILBOX, req).expect("mailbox write");
            advance_in_steps(m, SimDuration::from_millis(3));
        }
        assert!(
            (-40..=-39).contains(&m.cpu().core_offset_mv()),
            "left alone"
        );
        Vec::new()
    });
}

#[test]
fn package_changes_through_cpu_mut_stop_the_fold() {
    twins(&two_planes(), false, &|m| {
        advance_in_steps(m, SimDuration::from_millis(3));
        let now = m.now();
        m.cpu_mut()
            .run_batch(now, CoreId(2), InstrClass::Imul, 1_000_000)
            .expect("healthy package");
        advance_in_steps(m, SimDuration::from_millis(3));
        let now = m.now();
        m.cpu_mut()
            .enter_idle(now, CoreId(3), 6)
            .expect("running core");
        advance_in_steps(m, SimDuration::from_millis(3));
        let now = m.now();
        m.cpu_mut().reset(now);
        advance_in_steps(m, SimDuration::from_millis(3));
        Vec::new()
    });
}

#[test]
fn a_second_modules_timer_stops_an_advance_fold() {
    twins(&two_planes(), true, &|m| {
        advance_in_steps(m, SimDuration::from_millis(10));
        Vec::new()
    });
}

#[test]
fn ticks_on_a_ramping_rail_are_not_folded() {
    // A 1 µs period puts several ticks on each few-µs ramp.
    let cfg = PollConfig {
        period: SimDuration::from_micros(1),
        ..two_planes()
    };
    let (calls, ticks) = twins(&cfg, false, &|m| {
        m.advance(SimDuration::from_micros(50));
        let req = OcRequest::write_offset(-60, Plane::Core).encode();
        m.wrmsr(CoreId(0), Msr::OC_MAILBOX, req)
            .expect("mailbox write");
        // Into the ramp, with a call boundary on the moving rail.
        m.advance(plugvolt_cpu::package::MAILBOX_SETTLE + SimDuration::from_micros(3));
        assert_eq!(m.cpu().rails_hold_until(m.now()), Some(m.now()));
        m.advance(SimDuration::from_micros(100));
        assert_eq!(m.cpu().rails_hold_until(m.now()), None, "settled");
        Vec::new()
    });
    assert!(calls < ticks, "the settle window and the settled rail fold");
}

/// FNV-1a, for pinning a transcript.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A tape must see every access, so a machine with one folds nothing:
/// a polled rate run records one event per poll read, and the
/// transcript is the one the per-tick kernel wrote (pinned).
#[test]
fn a_recorded_polled_run_logs_every_read() {
    let model = CpuModel::CometLake;
    let seed = 17;
    let rec = TraceRecorder::new(TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        version: TRACE_SCHEMA_VERSION,
        model,
        root_seed: seed,
        label: "poll-fold".to_string(),
    });
    let mut machine = Machine::new(model, seed);
    machine.attach_tape(rec.clone());
    let (module, stats) = PollingModule::new(analytic_map(&model.spec()), PollConfig::default());
    machine
        .load_module(Box::new(module))
        .expect("fresh machine");
    let bench = find("xz").expect("suite benchmark");
    let bench = Benchmark {
        instructions: bench.instructions / 10,
        ..*bench
    };
    run_rate(&mut machine, &bench, Tuning::Base).expect("rate run");
    let observations = stats.borrow().observations;
    assert!(observations > 1_000);
    assert_eq!(rec.event_count(), 2 * observations);
    let jsonl = rec.to_jsonl().expect("serializes");
    let hash = fnv1a(jsonl.as_bytes());
    assert_eq!(hash, 0x3b9e_747a_d699_673f, "transcript hash {hash:#018x}");
}
