//! Integration: bit-for-bit reproducibility of every pipeline stage.
//!
//! The whole point of replacing the authors' bench with a simulator is
//! that anyone can re-run the experiments and get the same numbers;
//! these tests pin that property across crates.

use plugvolt::prelude::*;
use plugvolt_attacks::prelude::*;
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::prelude::*;
use plugvolt_workloads::prelude::*;

#[test]
fn characterization_is_reproducible() {
    let run = |seed| {
        Scenario::with_seed(seed)
            .characterize(CpuModel::KabyLakeR, &SweepConfig::coarse(), 1)
            .expect("sweeps")
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.map, b.map);
    assert_eq!(a.records, b.records);
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.duration, b.duration);
    // And a different seed still produces the same *map* (the physics is
    // the same part; only stochastic fault sampling differs, which the
    // million-iteration loop averages out at the map level).
    let c = run(6);
    let onsets = |r: &CharacterizationRun| -> Vec<Option<i32>> {
        r.map.iter().map(|(_, b)| b.fault_onset_mv).collect()
    };
    let diffs = onsets(&a)
        .iter()
        .zip(onsets(&c))
        .filter(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => (*x - y).abs() > 10,
            (None, None) => false,
            _ => true,
        })
        .count();
    assert!(diffs <= 2, "maps diverge across seeds in {diffs} bands");
}

#[test]
fn attack_campaigns_are_reproducible() {
    let run = || {
        let mut machine = Scenario::with_seed(42).machine(CpuModel::CometLake);
        run_rsa_attack(&mut machine, &PlundervoltConfig::default(), 9).expect("runs")
    };
    assert_eq!(run(), run());
}

#[test]
fn table2_is_reproducible() {
    let cfg = OverheadConfig {
        work_divisor: 400,
        ..OverheadConfig::default()
    };
    let a = run_table2(&cfg).expect("runs");
    let b = run_table2(&cfg).expect("runs");
    assert_eq!(a, b);
}

#[test]
fn machine_histories_replay_exactly() {
    let run = || {
        let mut machine = Scenario::with_seed(11).machine(CpuModel::SkyLake);
        let map = plugvolt::characterize::analytic_map(machine.cpu().spec());
        let _ = deploy(
            &mut machine,
            &map,
            Deployment::PollingModule(PollConfig::default()),
        )
        .expect("deploys");
        let dev = MsrDev::open(&machine, CoreId(0)).expect("opens");
        let req = plugvolt_msr::oc_mailbox::OcRequest::write_offset(
            -200,
            plugvolt_msr::oc_mailbox::Plane::Core,
        )
        .encode();
        let _ = dev
            .write(&mut machine, plugvolt_msr::addr::Msr::OC_MAILBOX, req)
            .expect("writes");
        machine.advance(SimDuration::from_millis(3));
        (
            machine.now(),
            machine.cpu().core_offset_mv(),
            machine.stolen_time(CoreId(0)),
            machine.telemetry().with(|reg| reg.events().count()),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_matrices_are_worker_count_independent() {
    // Same invariant as the sharded sweep, for the three experiment
    // matrices this PR parallelized: every cell's streams derive from
    // the scenario root seed and the cell's own labels, never from the
    // worker that claimed it, so the merged output is byte-identical
    // for any worker count — including counts that do not divide the
    // cell count evenly (7).
    use plugvolt_bench::experiments::{defense_matrix, deployment_levels, interval_sweep};
    let model = CpuModel::CometLake;
    let scn = Scenario::new();
    let map = scn.quick_map(model);
    let matrix = defense_matrix(&scn, model, &map, 1).expect("serial matrix");
    let levels = deployment_levels(&scn, model, &map, 1).expect("serial levels");
    let sweep = interval_sweep(&scn, model, &map, 1).expect("serial sweep");
    for workers in [2, 7] {
        let m = defense_matrix(&scn, model, &map, workers).expect("parallel matrix");
        assert_eq!(
            serde_json::to_string(&matrix).expect("serializes"),
            serde_json::to_string(&m).expect("serializes"),
            "defense matrix diverged at {workers} workers"
        );
        let l = deployment_levels(&scn, model, &map, workers).expect("parallel levels");
        assert_eq!(levels, l, "deployment levels diverged at {workers} workers");
        let s = interval_sweep(&scn, model, &map, workers).expect("parallel sweep");
        assert_eq!(sweep, s, "interval sweep diverged at {workers} workers");
    }
}

#[test]
fn soak_report_is_byte_deterministic_across_worker_counts() {
    // The soak fuzzer pins the same invariant end to end: schedules
    // are generated from labelled streams on the caller thread, every
    // oracle evaluation boots from one fixed machine label, and the
    // report never mentions the worker count — so the rendered JSON is
    // byte-identical at any parallelism, including a worker count that
    // does not divide the campaign count.
    use plugvolt_bench::soak::{run_soak, SoakConfig};
    let scn = Scenario::new();
    let cfg = |workers| SoakConfig {
        model: CpuModel::CometLake,
        campaigns: 7,
        workers,
        self_test: true,
        weaken_skip_every: 2,
        shrink_budget: 200,
    };
    let a = run_soak(&scn, &cfg(1), None).expect("sequential soak");
    let b = run_soak(&scn, &cfg(3), None).expect("parallel soak");
    assert!(a.passed(), "seed campaigns must hold the oracles");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "soak report diverged between 1 and 3 workers"
    );
}

#[test]
fn recorded_traces_replay_bit_identically() {
    // The tape invariant: a campaign recorded on a machine with a tape,
    // recorded again from the transcript header, and re-run on a plain
    // machine with no tape are three views of one bit-identical
    // execution. Every MSR access matches the tape (no divergences, no
    // overrun, no leftover), the soak oracles still hold, and the
    // telemetry profiles and poll stats match byte for byte.
    use plugvolt_bench::trace::{record_fixture, replay_trace};
    let scn = Scenario::new();
    let fixture = record_fixture(&scn, CpuModel::CometLake).expect("records");
    let report = replay_trace(&fixture.jsonl).expect("replays");
    assert!(report.passed(), "{}", report.render_text());
    assert_eq!(
        fixture.captures, report.replay_captures,
        "recorded and replayed runs must expose identical observables"
    );
    assert_eq!(
        report.replay_captures, report.sim_captures,
        "replayed and plain-sim runs must expose identical observables"
    );
    // And the transcript itself is deterministic: recording twice from
    // the same scenario yields the same bytes.
    let again = record_fixture(&scn, CpuModel::CometLake).expect("records again");
    assert_eq!(fixture.jsonl, again.jsonl, "transcript must be stable");
}

#[test]
fn sharded_sweep_is_worker_count_independent() {
    // Every frequency column boots its own machine from a derived,
    // labelled seed, so the merged records are byte-identical whether
    // one worker or many walked the columns.
    for model in CpuModel::ALL {
        let cfg = SweepConfig::coarse();
        let scn = Scenario::with_seed(2024);
        let sequential = scn.characterize(model, &cfg, 1).expect("sequential sweeps");
        let sharded = scn.characterize(model, &cfg, 4).expect("sharded sweeps");
        assert_eq!(sequential.records, sharded.records, "{model}");
        assert_eq!(sequential.map, sharded.map, "{model}");
        assert_eq!(sequential.crashes, sharded.crashes, "{model}");
        assert_eq!(sequential.duration, sharded.duration, "{model}");
        let a = serde_json::to_string(&sequential.records).expect("serializes");
        let b = serde_json::to_string(&sharded.records).expect("serializes");
        assert_eq!(a, b, "{model}: records must be byte-identical");
    }
}
