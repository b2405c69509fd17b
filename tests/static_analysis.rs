//! Tier-1 gate: the workspace has zero unsuppressed error-severity
//! `plugvolt-lint` findings.
//!
//! This is the test-suite embedding of the same scan `ci.sh` runs via
//! `cargo run -p plugvolt-analysis --bin plugvolt-lint -- --workspace`:
//! no wall-clock reads or ambient RNG in simulation crates, no unordered
//! iteration in result modules, no raw `0x150`/`0x198` MSR literals or
//! call-graph-reachable direct MSR accesses outside the `crates/msr`
//! choke point (the software analogue of the paper's Sec. 5 clamp),
//! deterministic parallel merges, a pinned telemetry key schema, and
//! transcendentals off the characterization hot paths.
//!
//! An accepted finding carries an inline `// plugvolt-lint: allow(…)`
//! with its justification. Accepted findings only shrink: a suppression
//! whose finding has been fixed is itself an error finding
//! (`unused-suppression`).

use plugvolt_analysis::{
    human_report, registry, scan_workspace, workspace_registry, ScanOptions, Severity, SourceFile,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scan() -> plugvolt_analysis::runner::ScanResult {
    scan_workspace(root(), &ScanOptions::default()).expect("workspace sources are readable")
}

/// Every `.rs` file under the root, walked independently of the
/// scanner: build output, VCS metadata, dot-dirs, lint fixtures and
/// `results/` are skipped.
fn workspace_rs_files() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries = std::fs::read_dir(dir).expect("workspace dirs are readable");
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                let skip = matches!(name.as_ref(), "target" | "fixtures" | "results")
                    || name.starts_with('.');
                if !skip {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(root(), &mut out);
    out
}

#[test]
fn workspace_has_no_unsuppressed_error_findings() {
    let result = scan();
    assert!(
        result.passes_gate(),
        "{} unsuppressed error finding(s):\n{}",
        result.count(Severity::Error),
        human_report(&result)
    );
}

#[test]
fn suppressions_carry_a_justification() {
    // A suppression is a paper trail, not a dumping ground: each one
    // says why, after its `allow(…)` or on the comment line directly
    // above it, and there are few enough to review by hand.
    let mut count = 0;
    for path in workspace_rs_files() {
        let text = std::fs::read_to_string(&path).expect("readable");
        let rel = path.strip_prefix(root()).expect("under root");
        let file = SourceFile::new(&rel.to_string_lossy(), &text);
        for comment in &file.suppression_comments {
            count += 1;
            let line = &file.lines[comment.line - 1];
            let directive = line.split_once("plugvolt-lint:").map_or("", |(_, d)| d);
            let after = directive.split_once(')').map_or("", |(_, why)| why).trim();
            let above = comment
                .line
                .checked_sub(2)
                .map_or("", |i| file.lines[i].trim_start());
            assert!(
                !after.is_empty() || (above.starts_with("//") && above.len() > 2),
                "{}:{} suppresses {:?} without a justification",
                file.path,
                comment.line,
                comment.rules
            );
        }
    }
    assert!(count <= 12, "suppressions grew to {count}");
}

#[test]
fn every_rule_id_has_one_implementation() {
    // Per-file and workspace rules never share an id: a rule has one
    // implementation, and one place to read what it flags. (Repeats
    // within one registry are the runner's unit test.)
    let per_file: BTreeSet<&str> = registry().iter().map(|r| r.meta().id).collect();
    let workspace: BTreeSet<&str> = workspace_registry().iter().map(|r| r.meta().id).collect();
    let shared: Vec<&&str> = per_file.intersection(&workspace).collect();
    assert!(
        shared.is_empty(),
        "ids with two implementations: {shared:?}"
    );
}

#[test]
fn scan_covers_the_whole_workspace() {
    // The scanner and this test walk the tree independently; any gap
    // between them means the walker skipped code.
    let files = workspace_rs_files();
    let result = scan();
    assert_eq!(result.files_scanned, files.len());
    // The telemetry crate instruments every hot path; the workspace
    // scan is its only lint gate.
    let telemetry = root().join("crates/telemetry/src");
    for entry in std::fs::read_dir(&telemetry).expect("telemetry sources") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            assert!(files.contains(&path), "{} not scanned", path.display());
        }
    }
}

#[test]
fn warnings_stay_bounded() {
    // Warnings don't gate, but they must not silently pile up. Raising
    // this bound is a deliberate act with a paper trail, like a snapshot
    // update. (Current tree: 0 — the historical `panic!` sites and the
    // two sanctioned out-of-Scenario machine constructions — the sweep
    // shards and the workloads overhead harness — all carry justified
    // suppressions.)
    let result = scan();
    let warnings = result.count(Severity::Warning);
    assert!(
        warnings <= 4,
        "warning count crept up to {warnings}:\n{}",
        human_report(&result)
    );
}
