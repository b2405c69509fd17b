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
