//! `plugvolt-analysis` — the workspace's determinism & MSR-safety gate.
//!
//! The paper's countermeasure is only sound if the characterized
//! safe/unsafe map is reproducible: the software substitution stakes
//! everything on *deterministic* simulation. Nothing in the language
//! enforces that — any crate can read wall-clock time, pull ambient
//! randomness, iterate a `HashMap` into a results file, or poke a
//! voltage-offset MSR without passing the `plugvolt-msr` clamp. Each of
//! those is a bug class that silently invalidates the Figure 2–4
//! reproductions (or, for the MSR rule, re-opens the exact hole the
//! paper's Sec. 5 microcode/hardware clamp closes).
//!
//! `plugvolt-lint` is a lightweight, dependency-free source scanner:
//! line/token level, no `syn`, works offline. It masks comments and
//! string literals, tracks `#[cfg(test)]` spans, then runs two rule
//! registries: per-file rules over every Rust file, and workspace rules
//! over an item-granularity symbol index + call graph built from all of
//! them ([`items`], [`index`], [`callgraph`], [`workspace`]). Every rule
//! id has exactly one implementation, in one of the two registries.
//! Findings carry a severity; the tier-1 test `tests/static_analysis.rs`
//! asserts the tree has zero unsuppressed error-severity findings,
//! making the gate part of the build contract rather than advice.
//!
//! Suppression is per line, and it is the one way to accept a finding:
//! `// plugvolt-lint: allow(rule-id) <justification>` on the offending
//! line, or alone on the line directly above it. A suppression that
//! silences nothing is itself an error finding (`unused-suppression`),
//! so accepted findings can only shrink.
//!
//! # Examples
//!
//! ```
//! use plugvolt_analysis::{registry, scan_str, Severity};
//!
//! let findings = scan_str(
//!     "crates/core/src/charmap.rs",
//!     "use std::collections::HashMap;\n",
//! );
//! assert!(findings
//!     .iter()
//!     .any(|f| f.rule == "no-unordered-iteration" && f.severity == Severity::Error));
//! assert!(registry().len() >= 6);
//! ```

pub mod callgraph;
pub mod findings;
pub mod index;
pub mod items;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod runner;
pub mod sarif;
pub mod source;
pub mod workspace;
pub mod wsrules;

pub use callgraph::{CallGraph, CallSite};
pub use findings::{Finding, Severity};
pub use index::{FnId, FnSymbol, SymbolIndex};
pub use items::{parse_items, Item, ItemKind};
pub use manifest::{check_workspace_lints_opt_in, LintsOptInViolation};
pub use report::{human_report, json_report};
pub use rules::{registry, Rule, RuleMeta};
pub use runner::{
    all_rule_metas, scan_files, scan_str, scan_strs, scan_workspace, ScanOptions, ScanResult,
};
pub use sarif::sarif_report;
pub use source::SourceFile;
pub use workspace::{Workspace, WorkspaceRule};
pub use wsrules::workspace_registry;
