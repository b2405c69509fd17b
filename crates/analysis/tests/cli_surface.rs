//! End-to-end tests of the `plugvolt-lint` binary surface: the
//! `--list-rules` registry snapshot, and the SARIF invocation `ci.sh`
//! gates on.

use std::path::Path;
use std::process::Command;

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_plugvolt-lint"))
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels under the root")
}

/// The rule registry is a public contract: ids and severities are pinned
/// here, in registry order. Adding a rule means extending this snapshot;
/// renaming or dropping one is a breaking change to committed
/// suppression comments.
#[test]
fn list_rules_snapshot() {
    let out = lint().arg("--list-rules").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let seen: Vec<(String, String)> = stdout
        .lines()
        .map(|l| {
            let mut cols = l.split_whitespace();
            (
                cols.next().unwrap_or_default().to_owned(),
                cols.next().unwrap_or_default().to_owned(),
            )
        })
        .collect();
    let expected: Vec<(String, String)> = [
        ("no-wall-clock", "error"),
        ("no-ambient-rng", "error"),
        ("no-unordered-iteration", "error"),
        ("no-unwrap-in-lib", "warning"),
        ("float-accumulation-order", "warning"),
        ("machine-construction-discipline", "warning"),
        ("no-global-switch", "error"),
        ("seed-label-uniqueness", "error"),
        ("parallel-merge-determinism", "error"),
        ("telemetry-key-registry", "error"),
        ("msr-write-discipline", "error"),
        ("hot-path-transcendentals", "error"),
        ("unused-suppression", "error"),
    ]
    .map(|(id, sev)| (id.to_owned(), sev.to_owned()))
    .to_vec();
    assert_eq!(seen, expected, "full output:\n{stdout}");
}

#[test]
fn unknown_rule_id_is_a_usage_error() {
    let out = lint()
        .args(["--rule", "no-wall-clocks"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule id"), "{stderr}");
}

/// The exact invocation `ci.sh` gates on: the SARIF scan of the
/// workspace must exit 0 (no unsuppressed error finding) and emit a
/// well-formed log.
#[test]
fn sarif_workspace_scan_gates_clean() {
    let root = workspace_root();
    let out = lint()
        .current_dir(root)
        .args(["--workspace", "--format", "sarif"])
        .output()
        .expect("binary runs");
    let sarif = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "lint gate failed:\n{sarif}");
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"name\": \"plugvolt-lint\""));
}
