//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions. They stay in memory: every closed
//! span folds into its label's totals (calls, duration, self time and
//! direct-child count), and the totals are written out once the run
//! ends. A span's self time is its duration minus the time its direct
//! children cover; spans nest strictly because the benchmark is
//! single-threaded.
//!
//! Reading the clock costs about as much as the calls being timed, so
//! [`Tracer::calibrate`] measures an empty span and
//! [`Tracer::layer`] subtracts that cost from every self time.

use std::time::Instant;

/// One timed call site. The names are the per-layer metric prefixes,
/// `<layer>.<call>`, with layers named after the crate directories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// `slack::shared_table`, cold (set-up).
    CpuSlackBuild,
    /// `characterize::analytic_map` behind `Scenario::quick_map` (set-up).
    CoreAnalyticMap,
    /// A machine boot through `Scenario`.
    BenchMachineFor,
    /// `CpuPower::frequency_set_all`.
    KernelFrequencySetAll,
    /// `CpuPower::frequency_set`.
    KernelFrequencySet,
    /// `MsrDev::write` to the OC mailbox.
    KernelMsrDevWrite,
    /// `Machine::advance_to` / `Machine::advance`.
    KernelAdvanceTo,
    /// `Machine::load_module`.
    KernelLoadModule,
    /// `Machine::run_workload` with the polling module loaded.
    KernelRunWorkloadPolled,
    /// `Machine::run_workload` on a clean machine.
    KernelRunWorkloadUnpolled,
    /// `CpuPackage::run_imul_loop`.
    CpuRunImulLoop,
    /// `CpuPackage::run_batch`.
    CpuRunBatch,
    /// `CpuPackage::reset` after a crash.
    CpuReset,
    /// `PollingModule::new`.
    CorePollingModuleNew,
    /// `deploy::deploy`.
    CoreDeploy,
    /// `CharacterizationMap::classify`.
    CoreCharmapClassify,
    /// `ExposureAccountant::record`.
    CoreExposureRecord,
    /// `MaximalSafeState::from_map`.
    CoreMaximalFromMap,
    /// `serde_json::to_string` of a characterization map.
    JsonMapEncode,
    /// `serde_json::from_str` of a characterization map.
    JsonMapDecode,
    /// `CampaignSchedule::generate`.
    AttacksScheduleGenerate,
    /// `run_rsa_attack`.
    AttacksRsa,
    /// `run_aes_attack`.
    AttacksAes,
    /// `run_voltjockey_attack`.
    AttacksVoltjockey,
    /// `run_v0ltpwn_attack`.
    AttacksV0ltpwn,
    /// `run_clkscrew_attack`.
    AttacksClkscrew,
    /// `run_cache_plane_attack`.
    AttacksCacheplane,
    /// One soak campaign judged across the four deployment levels.
    BenchSoakCampaign,
    /// `run_soak` restricted to the weakened-poller self-test.
    BenchSoakSelfTest,
    /// The benign −40 mV undervolt check of a defense cell.
    BenchBenignCheck,
    /// The empty span [`Tracer::calibrate`] times; never reported.
    Calibration,
}

impl Label {
    /// Every reported label, in report order.
    pub const REPORTED: [Label; 30] = [
        Label::CpuSlackBuild,
        Label::CoreAnalyticMap,
        Label::BenchMachineFor,
        Label::KernelFrequencySetAll,
        Label::KernelFrequencySet,
        Label::KernelMsrDevWrite,
        Label::KernelAdvanceTo,
        Label::KernelLoadModule,
        Label::KernelRunWorkloadPolled,
        Label::KernelRunWorkloadUnpolled,
        Label::CpuRunImulLoop,
        Label::CpuRunBatch,
        Label::CpuReset,
        Label::CorePollingModuleNew,
        Label::CoreDeploy,
        Label::CoreCharmapClassify,
        Label::CoreExposureRecord,
        Label::CoreMaximalFromMap,
        Label::JsonMapEncode,
        Label::JsonMapDecode,
        Label::AttacksScheduleGenerate,
        Label::AttacksRsa,
        Label::AttacksAes,
        Label::AttacksVoltjockey,
        Label::AttacksV0ltpwn,
        Label::AttacksClkscrew,
        Label::AttacksCacheplane,
        Label::BenchSoakCampaign,
        Label::BenchSoakSelfTest,
        Label::BenchBenignCheck,
    ];

    const COUNT: usize = Label::Calibration as usize + 1;

    /// The metric prefix, `<layer>.<call>`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Label::CpuSlackBuild => "cpu.slack_build",
            Label::CoreAnalyticMap => "core.analytic_map",
            Label::BenchMachineFor => "bench.machine_for",
            Label::KernelFrequencySetAll => "kernel.frequency_set_all",
            Label::KernelFrequencySet => "kernel.frequency_set",
            Label::KernelMsrDevWrite => "kernel.msr_dev_write",
            Label::KernelAdvanceTo => "kernel.advance_to",
            Label::KernelLoadModule => "kernel.load_module",
            Label::KernelRunWorkloadPolled => "kernel.run_workload.polled",
            Label::KernelRunWorkloadUnpolled => "kernel.run_workload.unpolled",
            Label::CpuRunImulLoop => "cpu.run_imul_loop",
            Label::CpuRunBatch => "cpu.run_batch",
            Label::CpuReset => "cpu.reset",
            Label::CorePollingModuleNew => "core.polling_module_new",
            Label::CoreDeploy => "core.deploy",
            Label::CoreCharmapClassify => "core.charmap_classify",
            Label::CoreExposureRecord => "core.exposure_record",
            Label::CoreMaximalFromMap => "core.maximal_from_map",
            Label::JsonMapEncode => "json.map_encode",
            Label::JsonMapDecode => "json.map_decode",
            Label::AttacksScheduleGenerate => "attacks.schedule_generate",
            Label::AttacksRsa => "attacks.rsa",
            Label::AttacksAes => "attacks.aes",
            Label::AttacksVoltjockey => "attacks.voltjockey",
            Label::AttacksV0ltpwn => "attacks.v0ltpwn",
            Label::AttacksClkscrew => "attacks.clkscrew",
            Label::AttacksCacheplane => "attacks.cacheplane",
            Label::BenchSoakCampaign => "bench.soak_campaign",
            Label::BenchSoakSelfTest => "bench.soak_self_test",
            Label::BenchBenignCheck => "bench.benign_check",
            Label::Calibration => "calibration",
        }
    }

    /// Whether the call happens once per process, before the first op
    /// (reported per call, not per op).
    #[must_use]
    pub fn is_setup(self) -> bool {
        matches!(self, Label::CpuSlackBuild | Label::CoreAnalyticMap)
    }
}

/// Per-op counts read from the layers' own public accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Slack-table hits (`ExecutionEngine::slack_table_hits`).
    SlackHits,
    /// Slack-table analytic fallbacks.
    SlackFallbacks,
    /// Mailbox writes the package swallowed.
    MailboxIgnored,
    /// Mailbox offset writes the benchmark issued.
    MailboxAttempts,
    /// `PollStats::ticks`.
    PollTicks,
    /// `PollStats::observations`.
    PollObservations,
    /// `PollStats::detections`.
    PollDetections,
    /// `PollStats::restores`.
    PollRestores,
}

impl Count {
    const COUNT: usize = Count::PollRestores as usize + 1;
}

/// Folded totals of one label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus direct-child coverage), ns.
    pub self_ns: u64,
    /// Direct children the spans had.
    pub children: u64,
}

struct Frame {
    label: usize,
    start_ns: u64,
    child_ns: u64,
    children: u64,
}

/// Cost of one empty span, measured by [`Tracer::calibrate`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    /// Duration an empty span records (clock read to clock read), ns.
    pub inside_ns: f64,
    /// Full cost of opening and closing an empty span, ns.
    pub full_ns: f64,
}

/// Corrected per-layer figures of one label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerFigures {
    /// Spans closed.
    pub calls: u64,
    /// Self time net of the tracer's own cost, ns (summed over calls).
    pub self_ns: f64,
}

/// The span recorder. A disabled tracer runs the wrapped closures and
/// records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    totals: [Totals; Label::COUNT],
    counts: [u64; Count::COUNT],
    worst_dwell_us: u64,
    spans: u64,
    cost: SpanCost,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            totals: [Totals::default(); Label::COUNT],
            counts: [0; Count::COUNT],
            worst_dwell_us: 0,
            spans: 0,
            cost: SpanCost::default(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off, returning the previous setting
    /// (output checks run with recording off).
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    /// Runs `f` inside a span named `label`. `f` receives the tracer so
    /// it can open child spans.
    pub fn span<R>(&mut self, label: Label, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = self.now_ns();
        self.enter_at(label, start);
        let r = f(self);
        let end = self.now_ns();
        self.exit_at(end);
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span at an explicit instant (ns since the tracer's epoch).
    pub fn enter_at(&mut self, label: Label, start_ns: u64) {
        self.spans += 1;
        self.stack.push(Frame {
            label: label as usize,
            start_ns,
            child_ns: 0,
            children: 0,
        });
    }

    /// Closes the innermost open span at an explicit instant and folds
    /// it into its label's totals.
    ///
    /// # Panics
    ///
    /// If no span is open: every `exit_at` pairs with an `enter_at`.
    pub fn exit_at(&mut self, end_ns: u64) {
        let frame = self
            .stack
            .pop()
            .expect("exit_at pairs with an enter_at of the same span");
        let duration = end_ns.saturating_sub(frame.start_ns);
        let t = &mut self.totals[frame.label];
        t.calls += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(frame.child_ns);
        t.children += frame.children;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
            parent.children += 1;
        }
    }

    /// Drops the spans an op left open when it panicked.
    pub fn abandon_open_spans(&mut self) {
        self.stack.clear();
    }

    /// Raw totals of one label.
    #[must_use]
    pub fn totals(&self, label: Label) -> Totals {
        self.totals[label as usize]
    }

    /// Spans opened so far (any label).
    #[must_use]
    pub fn spans_opened(&self) -> u64 {
        self.spans
    }

    /// Adds to a per-layer count (only while recording).
    pub fn add(&mut self, count: Count, n: u64) {
        if self.enabled {
            self.counts[count as usize] += n;
        }
    }

    /// A per-layer count.
    #[must_use]
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    /// Records an exposure episode's dwell; the worst one is reported.
    pub fn note_dwell_us(&mut self, dwell_us: u64) {
        if self.enabled {
            self.worst_dwell_us = self.worst_dwell_us.max(dwell_us);
        }
    }

    /// The worst exposure dwell recorded, µs.
    #[must_use]
    pub fn worst_dwell_us(&self) -> u64 {
        self.worst_dwell_us
    }

    /// Measures the cost of an empty span (median of five rounds of
    /// `n` spans each) and keeps it for [`Tracer::layer`]. The
    /// calibration spans are removed from the totals afterwards.
    pub fn calibrate(&mut self, n: u64) -> SpanCost {
        let was = self.set_enabled(true);
        let mut inside = Vec::with_capacity(5);
        let mut full = Vec::with_capacity(5);
        for _ in 0..5 {
            let before = self.totals[Label::Calibration as usize];
            let started = Instant::now();
            for _ in 0..n {
                self.span(Label::Calibration, |_| std::hint::black_box(()));
            }
            let elapsed = started.elapsed().as_nanos() as f64;
            let after = self.totals[Label::Calibration as usize];
            full.push(elapsed / n as f64);
            inside.push((after.total_ns - before.total_ns) as f64 / n as f64);
        }
        self.totals[Label::Calibration as usize] = Totals::default();
        self.spans -= 5 * n;
        self.set_enabled(was);
        self.cost = SpanCost {
            inside_ns: crate::stats::median_f64(&mut inside),
            full_ns: crate::stats::median_f64(&mut full),
        };
        self.cost
    }

    /// The calibrated empty-span cost.
    #[must_use]
    pub fn cost(&self) -> SpanCost {
        self.cost
    }

    /// A label's calls and self time net of the tracer's own cost: each
    /// span's recorded duration includes one empty span's inside cost,
    /// and each direct child adds the part of its own open/close cost
    /// that falls outside the child's recorded interval.
    #[must_use]
    pub fn layer(&self, label: Label) -> LayerFigures {
        let t = self.totals(label);
        let outside = (self.cost.full_ns - self.cost.inside_ns).max(0.0);
        let overhead = t.calls as f64 * self.cost.inside_ns + t.children as f64 * outside;
        LayerFigures {
            calls: t.calls,
            self_ns: (t.self_ns as f64 - overhead).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let mut tr = Tracer::new(true);
        // parent [0, 100) with children [10, 30) and [40, 70); the
        // second child has its own child [50, 55).
        tr.enter_at(Label::BenchSoakCampaign, 0);
        tr.enter_at(Label::KernelAdvanceTo, 10);
        tr.exit_at(30);
        tr.enter_at(Label::CoreDeploy, 40);
        tr.enter_at(Label::CoreCharmapClassify, 50);
        tr.exit_at(55);
        tr.exit_at(70);
        tr.exit_at(100);
        let parent = tr.totals(Label::BenchSoakCampaign);
        assert_eq!(parent.total_ns, 100);
        assert_eq!(parent.self_ns, 100 - 20 - 30);
        assert_eq!(parent.children, 2);
        let deploy = tr.totals(Label::CoreDeploy);
        assert_eq!(deploy.self_ns, 30 - 5);
        assert_eq!(deploy.children, 1);
        assert_eq!(tr.totals(Label::KernelAdvanceTo).self_ns, 20);
        assert_eq!(tr.totals(Label::CoreCharmapClassify).self_ns, 5);
        assert_eq!(tr.spans_opened(), 4);
    }

    #[test]
    fn repeated_spans_accumulate() {
        let mut tr = Tracer::new(true);
        for k in 0..3 {
            tr.enter_at(Label::CpuRunBatch, k * 10);
            tr.exit_at(k * 10 + 4);
        }
        let t = tr.totals(Label::CpuRunBatch);
        assert_eq!((t.calls, t.total_ns, t.self_ns, t.children), (3, 12, 12, 0));
    }

    #[test]
    fn layer_figures_subtract_the_empty_span_cost() {
        let mut tr = Tracer::new(true);
        tr.cost = SpanCost {
            inside_ns: 2.0,
            full_ns: 5.0,
        };
        tr.enter_at(Label::BenchBenignCheck, 0);
        tr.enter_at(Label::CoreDeploy, 10);
        tr.exit_at(20);
        tr.exit_at(100);
        // parent self 90, minus its own inside cost 2, minus the
        // child's outside cost 3.
        assert_eq!(tr.layer(Label::BenchBenignCheck).self_ns, 85.0);
        assert_eq!(tr.layer(Label::CoreDeploy).self_ns, 8.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span(Label::CoreDeploy, |tr| {
            tr.span(Label::CoreCharmapClassify, |_| 7)
        });
        tr.add(Count::PollTicks, 3);
        assert_eq!(v, 7);
        assert_eq!(tr.totals(Label::CoreDeploy), Totals::default());
        assert_eq!(tr.count(Count::PollTicks), 0);
        assert_eq!(tr.spans_opened(), 0);
    }

    #[test]
    fn calibration_leaves_no_totals_behind() {
        let mut tr = Tracer::new(true);
        let cost = tr.calibrate(1_000);
        assert!(cost.full_ns >= cost.inside_ns);
        assert_eq!(tr.totals(Label::Calibration), Totals::default());
        assert_eq!(tr.spans_opened(), 0);
    }

    #[test]
    fn reported_labels_are_unique_and_complete() {
        let mut names: Vec<&str> = Label::REPORTED.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Label::REPORTED.len());
        assert_eq!(Label::REPORTED.len() + 1, Label::COUNT);
    }
}
