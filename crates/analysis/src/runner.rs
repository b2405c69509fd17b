//! Workspace walking and rule execution.
//!
//! Execution order: per-file rules over every file, then workspace
//! rules over the assembled [`Workspace`]. Suppression comments are
//! applied *centrally* here — rules report unconditionally — so the
//! runner knows which comments actually fired and can flag the rest
//! through the `unused-suppression` pseudo-rule.

use crate::findings::{Finding, Severity};
use crate::rules::registry;
use crate::source::SourceFile;
use crate::workspace::Workspace;
use crate::wsrules::{workspace_registry, UNUSED_SUPPRESSION_META};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// What to scan and how.
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Only rules with these ids run; empty means all.
    pub only_rules: Vec<String>,
}

impl ScanOptions {
    fn active(&self, id: &str) -> bool {
        self.only_rules.is_empty() || self.only_rules.iter().any(|r| r == id)
    }
}

/// The outcome of a scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Files scanned, workspace-relative.
    pub files_scanned: usize,
    /// All findings, ordered by path then line.
    pub findings: Vec<Finding>,
}

impl ScanResult {
    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Whether the tree passes the build gate (zero error findings).
    #[must_use]
    pub fn passes_gate(&self) -> bool {
        self.count(Severity::Error) == 0
    }
}

/// Directories never scanned: build output, VCS metadata, and lint
/// fixtures (which contain violations on purpose).
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "results"];

/// Scans every `.rs` file under `root` (a workspace checkout) with the
/// full rule registry.
///
/// # Errors
///
/// Returns an [`std::io::Error`] when `root` cannot be read.
pub fn scan_workspace(root: &Path, options: &ScanOptions) -> std::io::Result<ScanResult> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let text = std::fs::read_to_string(root.join(rel))?;
        files.push(SourceFile::new(&rel.to_string_lossy(), &text));
    }
    Ok(scan_files(files, options))
}

/// Runs per-file and workspace rules over already-loaded files: the
/// core of every scan entry point.
#[must_use]
pub fn scan_files(files: Vec<SourceFile>, options: &ScanOptions) -> ScanResult {
    let files_scanned = files.len();
    let ws = Workspace::build(files);
    let mut raw = Vec::new();
    for rule in registry() {
        if !options.active(rule.meta().id) {
            continue;
        }
        for file in &ws.files {
            rule.check(file, &mut raw);
        }
    }
    for rule in workspace_registry() {
        if !options.active(rule.meta().id) {
            continue;
        }
        rule.check(&ws, &mut raw);
    }

    // Central suppression filtering, tracking which comments fired:
    // (path, comment line, allowed-rule entry).
    let mut used: BTreeSet<(&str, usize, &str)> = BTreeSet::new();
    let mut findings = Vec::with_capacity(raw.len());
    for finding in raw {
        let Some(file) = ws.file(&finding.path) else {
            findings.push(finding);
            continue;
        };
        if !file.is_suppressed(finding.rule, finding.line) {
            findings.push(finding);
            continue;
        }
        for comment in &file.suppression_comments {
            if !comment.covers.contains(&finding.line) {
                continue;
            }
            for entry in &comment.rules {
                if entry == finding.rule || entry == "all" {
                    used.insert((file.path.as_str(), comment.line, entry.as_str()));
                }
            }
        }
    }

    if options.active(UNUSED_SUPPRESSION_META.id) {
        let known: BTreeSet<&str> = all_rule_metas().iter().map(|m| m.id).collect();
        for file in &ws.files {
            for comment in &file.suppression_comments {
                if file.is_suppressed(UNUSED_SUPPRESSION_META.id, comment.line) {
                    // `allow(unused-suppression)` covering this comment:
                    // deliberate pre-emptive suppression, honored here
                    // (and self-covering, so it cannot flag itself).
                    continue;
                }
                for entry in &comment.rules {
                    let message = if entry != "all" && !known.contains(entry.as_str()) {
                        format!(
                            "suppression comment allows unknown rule `{entry}` (see \
                             --list-rules); it can never fire — fix the id or delete \
                             the comment"
                        )
                    } else if !used.contains(&(file.path.as_str(), comment.line, entry.as_str())) {
                        format!(
                            "suppression comment allows `{entry}` but no such finding \
                             occurs on the covered lines; stale suppressions hide \
                             future violations — delete it"
                        )
                    } else {
                        continue;
                    };
                    let column = file.lines[comment.line - 1]
                        .find("plugvolt-lint")
                        .map_or(1, |p| p + 1);
                    findings.push(Finding {
                        rule: UNUSED_SUPPRESSION_META.id,
                        severity: UNUSED_SUPPRESSION_META.severity,
                        path: file.path.clone(),
                        line: comment.line,
                        column,
                        message,
                        snippet: file.snippet(comment.line),
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.column, a.rule).cmp(&(
            b.path.as_str(),
            b.line,
            b.column,
            b.rule,
        ))
    });
    ScanResult {
        files_scanned,
        findings,
    }
}

/// Scans a single in-memory file with the full registry — the embedding
/// used by fixture tests and doc examples. Workspace rules run over the
/// one-file workspace.
#[must_use]
pub fn scan_str(path: &str, text: &str) -> Vec<Finding> {
    scan_strs(&[(path, text)]).findings
}

/// Scans several in-memory files as one workspace — the embedding for
/// cross-file fixture tests.
#[must_use]
pub fn scan_strs(sources: &[(&str, &str)]) -> ScanResult {
    let files = sources
        .iter()
        .map(|(path, text)| SourceFile::new(path, text))
        .collect();
    scan_files(files, &ScanOptions::default())
}

/// Every rule id the engine knows, in reporting order: per-file rules,
/// then workspace rules, then the `unused-suppression` pseudo-rule.
#[must_use]
pub fn all_rule_metas() -> Vec<crate::rules::RuleMeta> {
    let mut metas: Vec<crate::rules::RuleMeta> = registry().iter().map(|r| r.meta()).collect();
    metas.extend(workspace_registry().iter().map(|r| r.meta()));
    metas.push(UNUSED_SUPPRESSION_META);
    metas
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_str_flags_and_sorts() {
        let findings = scan_str(
            "crates/cpu/src/demo.rs",
            "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n",
        );
        assert_eq!(findings.len(), 2);
        assert!(findings.windows(2).all(|w| w[0].line <= w[1].line));
        assert!(findings.iter().all(|f| f.rule == "no-wall-clock"));
    }

    #[test]
    fn gate_logic() {
        let result = ScanResult {
            files_scanned: 1,
            findings: scan_str(
                "crates/core/src/x.rs",
                "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
        };
        assert_eq!(result.count(Severity::Warning), 1);
        assert!(result.passes_gate(), "warnings do not gate");
    }

    #[test]
    fn unused_suppression_fires_and_used_ones_do_not() {
        // Used suppression: silences a real finding, no residue.
        let findings = scan_str(
            "crates/kernel/src/x.rs",
            "use std::time::Instant; // plugvolt-lint: allow(no-wall-clock)\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
        // Unused suppression: nothing to silence, so the comment itself
        // is the finding.
        let findings = scan_str(
            "crates/kernel/src/x.rs",
            "// plugvolt-lint: allow(no-wall-clock)\nfn fine() {}\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unused-suppression");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let findings = scan_str(
            "crates/kernel/src/x.rs",
            "use std::time::Instant; // plugvolt-lint: allow(no-wallclock)\n",
        );
        // The typo'd id suppresses nothing, so both the original finding
        // and the unknown-rule finding surface.
        assert!(findings.iter().any(|f| f.rule == "no-wall-clock"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "unused-suppression" && f.message.contains("unknown rule")));
    }

    #[test]
    fn allow_unused_suppression_is_honored() {
        let findings = scan_str(
            "crates/kernel/src/x.rs",
            "// plugvolt-lint: allow(unused-suppression, no-wall-clock)\nfn fine() {}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn all_rule_metas_are_unique_and_cover_both_registries() {
        let metas = all_rule_metas();
        let ids: BTreeSet<&str> = metas.iter().map(|m| m.id).collect();
        assert_eq!(ids.len(), metas.len(), "duplicate rule ids");
        for id in [
            "no-wall-clock",
            "msr-write-discipline",
            "hot-path-transcendentals",
            "no-global-switch",
            "seed-label-uniqueness",
            "parallel-merge-determinism",
            "telemetry-key-registry",
            "unused-suppression",
        ] {
            assert!(ids.contains(id), "missing {id}");
        }
    }
}
