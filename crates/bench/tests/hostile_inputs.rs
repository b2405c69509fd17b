//! Hostile inputs at the CLI boundary end in a typed error and a clean
//! non-zero exit, never a panic or an abort.

use std::process::Command;

#[test]
fn inspect_refuses_a_deeply_nested_map() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested.map.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(["inspect", "--map"])
        .arg(&path)
        .output()
        .expect("run plugvolt-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A stack overflow aborts with SIGABRT (exit 134 from a shell, no
    // code at all here); a typed error exits 1 with a message.
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "stderr: {stderr}");
}

/// Runs `plugvolt-cli <args> --map <map>` on a map file holding `json`,
/// returning the exit code and stderr.
fn run_with_map(name: &str, json: &str, args: &[&str]) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, json).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(args)
        .arg("--map")
        .arg(&path)
        .output()
        .expect("run plugvolt-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn attack_refuses_an_onset_deeper_than_the_mailbox_field() {
    // The maximal safe state of this map (−4994 mV) used to reach
    // VoltageOffsetLimit::new as a clamp value and panic (exit 101).
    let json = r#"{"cpu_name":"x","microcode":240,"sweep_floor_mv":-300,
        "bands":{"2000":{"fault_onset_mv":-5000,"crash_mv":null}}}"#;
    for args in [
        &["attack", "--model", "skylake", "--deploy", "hardware"][..],
        &["maximal"][..],
    ] {
        let (code, stderr) = run_with_map("deep-onset.map.json", json, args);
        assert_eq!(code, Some(1), "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains("fault_onset_mv -5000 mV at 2000 MHz is outside [-1000, 0]"),
            "{args:?} stderr: {stderr}"
        );
    }
}

#[test]
fn loading_refuses_a_positive_sweep_floor() {
    let json = r#"{"cpu_name":"x","microcode":240,"sweep_floor_mv":10,
        "bands":{"2000":{"fault_onset_mv":-200,"crash_mv":-230}}}"#;
    let (code, stderr) = run_with_map("positive-floor.map.json", json, &["inspect"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("sweep_floor_mv 10 mV is outside [-1000, -1]"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    // A value flag must not take the next flag as its value (the map
    // would land in a file named `--coarse`), nor silently fall back to
    // its default when nothing follows it (a bare `--seed`).
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("missing-value");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    for (args, flag) in [
        (
            &["characterize", "--model", "comet-lake", "--out", "--coarse"][..],
            "--out",
        ),
        (&["soak", "--smoke", "--seed"][..], "--seed"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run plugvolt-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{flag} requires a value (none given, or the next token is a flag)"
            )),
            "{args:?} stderr: {stderr}"
        );
    }
    assert!(!dir.join("--coarse").exists(), "no map may be written");
}

/// A map every subcommand that reads one accepts.
const GOOD_MAP: &str = r#"{"cpu_name":"x","microcode":240,"sweep_floor_mv":-300,
    "bands":{"2000":{"fault_onset_mv":-200,"crash_mv":-230}}}"#;

#[test]
fn unknown_and_repeated_flags_are_refused() {
    // A misspelt flag used to be ignored (the default 5 mV margin won),
    // and a repeated one silently took its first value.
    for (args, named) in [
        (
            &["maximal", "--margn", "3"][..],
            "maximal does not accept --margn",
        ),
        (
            &["maximal", "--margin", "3", "--margin", "9"][..],
            "--margin given more than once",
        ),
    ] {
        let (code, stderr) = run_with_map("flags.map.json", GOOD_MAP, args);
        assert_eq!(code, Some(1), "{args:?} stderr: {stderr}");
        assert!(stderr.contains(named), "{args:?} stderr: {stderr}");
    }
    let (code, stderr) = run_with_map("flags.map.json", GOOD_MAP, &["maximal", "--margin", "3"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn stray_positionals_are_refused_naming_the_token() {
    // Both used to exit 0, dropping the extra tokens (`soak` ran its
    // smoke campaigns).
    let (code, stderr) = run_with_map("stray.map.json", GOOD_MAP, &["maximal", "foo"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("unexpected argument 'foo'"),
        "stderr: {stderr}"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(["maximal", "foo", "--map", "m.json", "bar"])
        .output()
        .expect("run plugvolt-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("unexpected argument 'foo'"),
        "stderr: {stderr}"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(["soak", "--smoke", "extra"])
        .output()
        .expect("run plugvolt-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("unexpected argument 'extra'"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "soak ran");
}

#[test]
fn a_numeric_value_that_does_not_parse_names_its_flag() {
    let (code, stderr) = run_with_map("margin.map.json", GOOD_MAP, &["maximal", "--margin", "x"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--margin"), "stderr: {stderr}");
}

#[test]
fn characterize_takes_its_seed_in_hex_too() {
    // soak echoes seeds in hex; characterize accepts them back.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let maps: Vec<Vec<u8>> = ["0xdac2024", "229384228"]
        .into_iter()
        .map(|seed| {
            let path = dir.join(format!("seed-{seed}.map.json"));
            let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
                .args([
                    "characterize",
                    "--model",
                    "comet-lake",
                    "--coarse",
                    "--seed",
                    seed,
                ])
                .arg("--out")
                .arg(&path)
                .output()
                .expect("run plugvolt-cli");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{seed} stderr: {stderr}");
            std::fs::read(&path).expect("map written")
        })
        .collect();
    assert_eq!(maps[0], maps[1], "hex and decimal seeds must agree");
}

#[test]
fn a_negative_margin_is_refused() {
    // The bound used to clamp the margin at 0 and print "margin -3 mV"
    // beside the margin-0 bound.
    let (code, stderr) = run_with_map("margin.map.json", GOOD_MAP, &["maximal", "--margin", "-3"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("--margin: invalid value '-3'"),
        "stderr: {stderr}"
    );
}

#[test]
fn repro_refuses_bad_argv_naming_the_token() {
    // Each of these used to exit 0: a misspelt flag ran quick mode, a
    // second experiment was dropped, a repeated flag was accepted.
    for (args, named) in [
        (&["--ful", "table1"][..], "repro does not accept --ful"),
        (&["table1", "fig9"][..], "unexpected argument 'fig9'"),
        (
            &["--json", "--json", "table1"][..],
            "--json given more than once",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(stderr.contains(named), "{args:?} stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_non_positive_or_non_finite_poll_period_is_refused() {
    // Both used to exit 0 after printing a "worst-case detection
    // latency" of -5.00 us or NaN us.
    for period in ["-5", "nan", "0", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
            .args([
                "soak",
                "--backend",
                "host",
                "--reads",
                "1",
                "--period-us",
                period,
            ])
            .output()
            .expect("run plugvolt-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{period}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("--period-us: invalid value '{period}'")),
            "{period}: stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{period}: the probe ran");
    }
}
