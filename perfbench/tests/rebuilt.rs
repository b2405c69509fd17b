//! Smoke-size checks of the benchmark itself: every rebuilt entry point
//! reproduces its library call, every workload's untraced op passes its
//! own output check, and the binary prints the result line.

use perfbench::defense::Defense;
use perfbench::overhead::Overhead;
use perfbench::soak::Soak;
use perfbench::sweep::{rebuilt_characterize, Sweep, MODELS};
use perfbench::tracer::{Label, Tracer};
use perfbench::Workload;
use plugvolt::characterize::SweepConfig;
use plugvolt_bench::scenario::Scenario;
use plugvolt_bench::soak::SoakConfig;
use std::process::Command;

fn smoke_soak() -> Soak {
    Soak::new(SoakConfig {
        campaigns: 3,
        workers: 1,
        ..SoakConfig::default()
    })
}

#[test]
fn rebuilt_shard_loop_matches_characterize_sharded() {
    let cfg = SweepConfig::coarse();
    for model in MODELS {
        let lib = Scenario::with_seed(7)
            .characterize(model, &cfg, 1)
            .expect("library sweep");
        let mut tr = Tracer::new(true);
        let rebuilt = rebuilt_characterize(model, 7, &cfg, &mut tr).expect("rebuilt sweep");
        assert_eq!(lib, rebuilt, "{model:?}");
        let writes = tr.totals(Label::KernelMsrDevWrite).calls;
        assert_eq!(
            writes,
            2 * lib.records.iter().filter(|r| !r.crashed).count() as u64 + lib.crashes as u64
        );
        assert_eq!(tr.totals(Label::CpuReset).calls, u64::from(lib.crashes));
    }
}

#[test]
fn sweep_ops_pass_their_checks_traced_and_untraced() {
    let mut w = Sweep::new(SweepConfig::coarse());
    let mut tr = Tracer::new(true);
    w.setup(&mut tr);
    for i in 0..3 {
        let out = w.op(i, 11).expect("op runs");
        w.check(i, 11, &out).expect("output check");
        w.traced_op(i, 11, &mut tr).expect("rebuild matches");
    }
    assert_eq!(tr.totals(Label::CpuSlackBuild).calls, 3);
    assert_eq!(tr.totals(Label::JsonMapDecode).calls, 3);
}

#[test]
fn rebuilt_measure_benchmark_matches_the_library_row() {
    let mut w = Overhead::new(200);
    let mut tr = Tracer::new(true);
    w.setup(&mut tr);
    for i in [0, 7, 22] {
        let out = w.op(i, 5).expect("op runs");
        assert_eq!(out.faults, 0);
        w.traced_op(i, 5, &mut tr).expect("rebuild matches");
    }
    assert_eq!(tr.totals(Label::KernelLoadModule).calls, 6);
    assert!(tr.totals(Label::KernelRunWorkloadPolled).calls > 0);
}

#[test]
fn a_full_suite_pass_equals_run_table2() {
    let mut w = Overhead::new(200);
    w.setup(&mut Tracer::new(false));
    for i in 0..Overhead::CYCLE {
        let out = w.op(i, 9).expect("op runs");
        w.check(i, 9, &out).expect("row check");
    }
    let f = w.finish(9, Overhead::CYCLE);
    assert!(f.errors.is_empty(), "{:?}", f.errors);
    assert_eq!(f.failed_ops, 0);
    assert!(
        f.notes.iter().any(|n| n.contains("equals run_table2")),
        "{:?}",
        f.notes
    );
}

#[test]
fn rebuilt_soak_campaigns_match_run_soak() {
    let mut w = smoke_soak();
    let mut tr = Tracer::new(true);
    w.setup(&mut tr);
    for seed in [1, 2] {
        let out = w.op(0, seed).expect("op runs");
        w.check(0, seed, &out).expect("gate holds");
        w.traced_op(0, seed, &mut tr).expect("rebuild matches");
    }
    assert_eq!(tr.totals(Label::BenchSoakCampaign).calls, 6);
    assert_eq!(tr.totals(Label::BenchMachineFor).calls, 24);
    assert!(tr.totals(Label::CoreExposureRecord).calls > 0);
}

#[test]
fn composed_defense_cells_equal_defense_matrix() {
    let mut w = Defense::default();
    let mut tr = Tracer::new(true);
    w.setup(&mut tr);
    for i in 0..Defense::CYCLE {
        w.traced_op(i, 3, &mut tr)
            .expect("composed cell matches and passes");
    }
    let f = w.finish(3, Defense::CYCLE);
    assert!(f.errors.is_empty(), "{:?}", f.errors);
    assert!(
        f.notes.iter().any(|n| n.contains("equal defense_matrix")),
        "{:?}",
        f.notes
    );
    // One pass over the three paper deployments: 3 RSA cells.
    assert_eq!(tr.totals(Label::AttacksRsa).calls, 3);
    assert_eq!(tr.totals(Label::BenchBenignCheck).calls, 18);
}

#[test]
fn the_binary_prints_one_result_line() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    for trace in ["0", "1"] {
        let out = Command::new(exe)
            .args(["--workload", "defense", "--seed", "4", "--seconds", "0.2"])
            .args(["--trace", trace])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        let parsed: serde_json::Value = serde_json::from_str(last).expect("result is JSON");
        drop(parsed);
        let metric = if trace == "0" {
            "\"setup_s\""
        } else {
            "\"attacks.rsa.ns\""
        };
        assert!(last.contains(metric), "{last}");
    }
}

#[test]
fn the_binary_rejects_a_bad_command_line() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(exe)
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
