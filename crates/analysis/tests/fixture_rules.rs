//! Proves each rule fires on a seeded-violation fixture, that clean code
//! stays clean, and that suppression comments silence findings.
//!
//! Fixtures live under `tests/fixtures/` (a directory the workspace
//! runner skips) and are scanned under *virtual* paths, because several
//! rules scope by crate or module name.

use plugvolt_analysis::{scan_str, Finding, Severity};

/// Scans fixture `text` as if it lived at `virtual_path`.
fn scan(virtual_path: &str, text: &str) -> Vec<Finding> {
    scan_str(virtual_path, text)
}

fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn no_wall_clock_fires() {
    let findings = scan(
        "crates/kernel/src/fixture.rs",
        include_str!("fixtures/no_wall_clock.rs"),
    );
    assert_eq!(rules_hit(&findings), ["no-wall-clock"]);
    // `use` line (×2), `Instant::now()`, `SystemTime::now()`.
    assert_eq!(findings.len(), 4, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
}

#[test]
fn no_wall_clock_is_scoped_to_sim_crates() {
    // The same source inside the bench crate is legal (it times the host).
    let findings = scan(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/no_wall_clock.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_ambient_rng_fires() {
    let findings = scan(
        "crates/cpu/src/fixture.rs",
        include_str!("fixtures/no_ambient_rng.rs"),
    );
    assert_eq!(rules_hit(&findings), ["no-ambient-rng"]);
    // `use rand::thread_rng` (rand + thread_rng), `thread_rng()`,
    // `rand::rngs::OsRng` (rand + OsRng).
    assert_eq!(findings.len(), 5, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
}

#[test]
fn no_unordered_iteration_fires() {
    let findings = scan(
        "crates/core/src/charmap.rs",
        include_str!("fixtures/no_unordered_iteration.rs"),
    );
    assert_eq!(rules_hit(&findings), ["no-unordered-iteration"]);
    // HashMap on `use`/signature/`new` + HashSet on `use`/`new`.
    assert_eq!(findings.len(), 5, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
}

#[test]
fn no_unordered_iteration_is_scoped_to_result_modules() {
    let findings = scan(
        "crates/des/src/queue.rs",
        include_str!("fixtures/no_unordered_iteration.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn msr_write_discipline_fires() {
    let findings = scan(
        "crates/kernel/src/fixture.rs",
        include_str!("fixtures/msr_write_discipline.rs"),
    );
    assert_eq!(rules_hit(&findings), ["msr-write-discipline"]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
    assert!(findings[0].message.contains("OC_MAILBOX"));
    assert!(findings[1].message.contains("IA32_PERF_STATUS"));
}

#[test]
fn msr_write_discipline_exempts_the_msr_crate() {
    let findings = scan(
        "crates/msr/src/addr.rs",
        include_str!("fixtures/msr_write_discipline.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_unwrap_in_lib_fires() {
    let findings = scan(
        "crates/circuit/src/fixture.rs",
        include_str!("fixtures/no_unwrap_in_lib.rs"),
    );
    assert_eq!(rules_hit(&findings), ["no-unwrap-in-lib"]);
    // `.unwrap()`, `.expect("")`, `panic!`.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Warning));
}

#[test]
fn no_unwrap_in_lib_exempts_tests_and_bins() {
    let text = include_str!("fixtures/no_unwrap_in_lib.rs");
    assert!(scan("crates/circuit/tests/fixture.rs", text).is_empty());
    assert!(scan("crates/bench/src/bin/fixture.rs", text).is_empty());
}

#[test]
fn float_accumulation_order_fires() {
    let findings = scan(
        "crates/cpu/src/fixture.rs",
        include_str!("fixtures/float_accumulation_order.rs"),
    );
    assert_eq!(rules_hit(&findings), ["float-accumulation-order"]);
    // One `.sum::<f64>()` and one `.fold(` over HashMap-bound idents.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Warning));
}

#[test]
fn machine_construction_discipline_fires() {
    let findings = scan(
        "crates/attacks/src/fixture.rs",
        include_str!("fixtures/machine_construction_discipline.rs"),
    );
    assert_eq!(rules_hit(&findings), ["machine-construction-discipline"]);
    // `Machine::new(` and `Machine::new_unit(` in live code; the
    // `#[cfg(test)]` constructions and the bare type mention stay clean.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Warning));
    assert!(findings.iter().all(|f| f.message.contains("Scenario")));
}

#[test]
fn machine_construction_discipline_exempts_scenario_and_tests() {
    let text = include_str!("fixtures/machine_construction_discipline.rs");
    // The Scenario layer itself is the one sanctioned construction site.
    assert!(scan("crates/bench/src/scenario.rs", text).is_empty());
    // Whole-file test roles are exempt wholesale.
    assert!(scan("tests/fixture.rs", text).is_empty());
    assert!(scan("crates/kernel/benches/fixture.rs", text).is_empty());
}

#[test]
fn no_global_switch_fires() {
    let findings = scan(
        "crates/telemetry/src/fixture.rs",
        include_str!("fixtures/no_global_switch.rs"),
    );
    assert_eq!(rules_hit(&findings), ["no-global-switch"]);
    // The two live `static` atomics; the `OnceLock` memo, the local
    // atomic, the `'static` lifetime and the test-only counter stay clean.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        [11, 13]
    );
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
}

#[test]
fn no_global_switch_is_scoped_to_library_code() {
    let text = include_str!("fixtures/no_global_switch.rs");
    // A binary's `main` may hold a process-wide flag.
    assert!(scan("crates/bench/src/bin/fixture.rs", text).is_empty());
    assert!(scan("tests/fixture.rs", text).is_empty());
}

#[test]
fn clean_fixture_is_clean_even_in_strictest_scope() {
    // Result module inside a sim crate: every rule is active here, and
    // banned names appear only in comments and strings.
    let findings = scan(
        "crates/core/src/charmap.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppression_comments_silence_findings() {
    let text = include_str!("fixtures/suppressed.rs");
    let findings = scan("crates/kernel/src/fixture.rs", text);
    assert!(findings.is_empty(), "{findings:?}");
    // Sanity: with the suppression markers stripped, the same code is
    // flagged — the comments are load-bearing.
    let stripped = text.replace("plugvolt-lint: allow", "comment");
    let findings = scan("crates/kernel/src/fixture.rs", &stripped);
    assert!(!findings.is_empty());
}
