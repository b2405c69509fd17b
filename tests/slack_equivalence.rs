//! Integration: the precomputed slack table is a cache, not a model.
//!
//! The table short-circuits the alpha-power delay math (`powf`) and the
//! fault-band sigmoid (`exp`) on the batch hot path, so the one
//! invariant that matters is *bit identity*: every cached value must
//! equal what the analytic path computes for the same `(frequency,
//! voltage)` bits, and a machine running with the table attached must
//! be indistinguishable — records, fault counts, RNG stream, timings —
//! from the same machine running the analytic path. These tests pin
//! that across every CPU model and the entire grid.

use plugvolt::characterize::{
    shard_label, sweep_column, sweep_frequencies, CharacterizationRun, SweepConfig,
};
use plugvolt_bench::scenario::Scenario;
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::exec::{ExecutionEngine, InstrClass};
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::slack::{class_index, GridEntry, SlackTable, MIN_OFFSET_UNITS};
use plugvolt_des::time::SimDuration;

/// Every grid point of every model matches the analytic path bit for
/// bit — all 29-ish frequencies × 513 offset steps × both planes, not a
/// sampled subset. This is the exhaustive version of the spot checks in
/// `plugvolt_cpu::slack`'s unit tests.
#[test]
fn full_grid_matches_analytic_bits_for_every_model() {
    for model in CpuModel::ALL {
        let spec = model.spec();
        let table = SlackTable::build(&spec);
        let engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        let mut checked = 0usize;
        for f in spec.freq_table.iter() {
            let budget = engine.budget(f);
            for units in MIN_OFFSET_UNITS..=0 {
                let offset = f64::from(units) * 1000.0 / 1024.0;
                for v in [
                    spec.nominal_voltage_mv(f) + offset,
                    spec.nominal_cache_voltage_mv(f) + offset,
                ] {
                    let entry = table
                        .entry(f, v)
                        .unwrap_or_else(|| panic!("{model}: missing grid point {f} {v} mV"));
                    for class in InstrClass::ALL {
                        let cached = entry.classes[class_index(class)];
                        let slack = engine.class_slack_ps(class, f, v);
                        assert_eq!(cached.slack_ps.to_bits(), slack.to_bits(), "{model}");
                        assert_eq!(cached.state, engine.fault_model().classify(slack));
                        assert_eq!(
                            cached.fault_p.to_bits(),
                            engine.fault_model().fault_probability(slack).to_bits()
                        );
                    }
                    for (i, (_, a, b)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                        let slack = engine.multiplier().slack_ps(*a, *b, &budget, v);
                        assert_eq!(entry.imul_ops[i].slack_ps.to_bits(), slack.to_bits());
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, table.len(), "{model}: grid size mismatch");
    }
}

/// Two workers walking one fresh table in opposite orders (the
/// `run_cells` case: parallel shards sharing the process-wide table)
/// race on every row's first touch. Each row is built once: both see
/// the same entry at the same address for every grid point, and every
/// entry matches the analytic bits.
#[test]
fn concurrent_first_touches_build_each_row_once() {
    let spec = CpuModel::CometLake.spec();
    let table = SlackTable::build(&spec);
    let mut points = Vec::new();
    for f in spec.freq_table.iter() {
        for units in MIN_OFFSET_UNITS..=0 {
            let offset = f64::from(units) * 1000.0 / 1024.0;
            points.push((f, spec.nominal_voltage_mv(f) + offset));
            points.push((f, spec.nominal_cache_voltage_mv(f) + offset));
        }
    }
    // Each walker records the address of every point's entry, indexed
    // in `points` order whatever order it walked in.
    let walk = |reverse: bool| {
        // The engine counts its hits in `Cell`s, so each walker has one.
        let engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        let mut addrs = vec![0usize; points.len()];
        let mut visit = |i: usize| {
            let (f, v) = points[i];
            let entry = table.entry(f, v).expect("grid point present");
            for class in InstrClass::ALL {
                let slack = engine.class_slack_ps(class, f, v);
                let cached = entry.classes[class_index(class)];
                assert_eq!(cached.slack_ps.to_bits(), slack.to_bits());
                assert_eq!(cached.state, engine.fault_model().classify(slack));
                assert_eq!(
                    cached.fault_p.to_bits(),
                    engine.fault_model().fault_probability(slack).to_bits()
                );
            }
            let budget = engine.budget(f);
            for (i, (_, a, b)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                let slack = engine.multiplier().slack_ps(*a, *b, &budget, v);
                assert_eq!(entry.imul_ops[i].slack_ps.to_bits(), slack.to_bits());
            }
            addrs[i] = std::ptr::from_ref::<GridEntry>(entry) as usize;
        };
        if reverse {
            (0..points.len()).rev().for_each(&mut visit);
        } else {
            (0..points.len()).for_each(&mut visit);
        }
        addrs
    };
    let (forward, backward) = std::thread::scope(|s| {
        let forward = s.spawn(|| walk(false));
        let backward = s.spawn(|| walk(true));
        (
            forward.join().expect("forward walker"),
            backward.join().expect("backward walker"),
        )
    });
    assert_eq!(forward.len(), table.len());
    assert_eq!(forward, backward, "a row was built more than once");
}

/// A full characterization run with the table attached is identical to
/// the analytic run — including the stochastic fault sampling, because
/// a table hit returns the same fault probability bits and therefore
/// consumes the RNG stream identically. Each column runs on the machine
/// `Scenario::characterize` would boot for it, with the table detached
/// on the analytic arm.
#[test]
fn characterization_is_identical_with_and_without_table() {
    for model in CpuModel::ALL {
        let cfg = SweepConfig::coarse();
        let scn = Scenario::with_seed(77);
        let run = |table: bool| {
            let columns = sweep_frequencies(&model.spec(), &cfg).into_iter().map(|f| {
                let mut machine = scn.machine_for(model, &shard_label(f));
                if !table {
                    machine.set_slack_table(None);
                }
                sweep_column(&mut machine, &cfg, f).expect("sweeps")
            });
            CharacterizationRun::from_columns(&model.spec(), &cfg, columns)
        };
        let with_table = run(true);
        let analytic = run(false);
        assert_eq!(with_table.records, analytic.records, "{model}");
        assert_eq!(with_table.map, analytic.map, "{model}");
        assert_eq!(with_table.crashes, analytic.crashes, "{model}");
        assert_eq!(with_table.duration, analytic.duration, "{model}");
    }
}

/// The imul loop inside the fault band draws from the RNG; the table
/// path must leave the stream in exactly the same state as the analytic
/// path, which this pins by running a second, RNG-sensitive batch after
/// the first and requiring identical fault counts from both arms.
#[test]
fn rng_stream_is_consumed_identically_across_paths() {
    let model = CpuModel::CometLake;
    let run = |table: bool| {
        let mut machine = Scenario::with_seed(3).machine(model);
        if !table {
            machine.set_slack_table(None);
        }
        // Drop the core rail into the fault band, then run two batches:
        // the second one's faults depend on the RNG state the first one
        // left behind.
        let dev = plugvolt_kernel::msr_dev::MsrDev::open(&machine, CoreId(0)).expect("opens");
        let req = plugvolt_msr::oc_mailbox::OcRequest::write_offset(
            -230,
            plugvolt_msr::oc_mailbox::Plane::Core,
        )
        .encode();
        dev.write(&mut machine, plugvolt_msr::addr::Msr::OC_MAILBOX, req)
            .expect("writes");
        machine.advance(SimDuration::from_millis(1));
        let now = machine.now();
        let a = machine
            .cpu_mut()
            .run_imul_loop(now, CoreId(0), 1_000_000)
            .expect("first batch");
        let b = machine
            .cpu_mut()
            .run_imul_loop(now, CoreId(0), 1_000_000)
            .expect("second batch");
        (a, b)
    };
    assert_eq!(run(true), run(false));
}
