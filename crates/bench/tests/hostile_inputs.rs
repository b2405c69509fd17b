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
