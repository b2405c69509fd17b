//! The lint registry: the per-file determinism rules.
//!
//! Each rule documents its paper rationale inline; the README's "Static
//! analysis & determinism guarantees" section mirrors this table.

use crate::findings::{Finding, Severity};
use crate::source::{FileRole, SourceFile};

/// Static metadata describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable identifier used in reports and suppression comments.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
}

/// A lint rule: scoped token scan over one pre-processed source file.
pub trait Rule: Sync {
    /// The rule's metadata.
    fn meta(&self) -> RuleMeta;

    /// Appends findings for `file` to `out`. Suppression comments are
    /// applied centrally by the runner (which also tracks which
    /// comments earned their keep, for `unused-suppression`), so
    /// implementations report every hit.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// Pushes a finding. Suppression is applied later, centrally, by the
/// runner — rules report unconditionally so the runner can tell which
/// suppression comments actually fired.
pub fn emit(
    file: &SourceFile,
    meta: RuleMeta,
    line: usize,
    column: usize,
    message: String,
    out: &mut Vec<Finding>,
) {
    out.push(Finding {
        rule: meta.id,
        severity: meta.severity,
        path: file.path.clone(),
        line,
        column,
        message,
        snippet: file.snippet(line),
    });
}

/// The per-file rule registry, in reporting order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoWallClock),
        Box::new(NoAmbientRng),
        Box::new(NoUnorderedIteration),
        Box::new(NoUnwrapInLib),
        Box::new(FloatAccumulationOrder),
        Box::new(MachineConstructionDiscipline),
        Box::new(NoGlobalSwitch),
    ]
}

/// Crates whose library code must be wall-clock free: everything that
/// executes inside the simulated timeline. `bench`, shims and the CLI
/// may time real-world things.
pub(crate) const SIM_CRATES: [&str; 6] = ["des", "circuit", "cpu", "kernel", "core", "attacks"];

/// Modules that emit experiment results; iteration order there is
/// output order, so unordered containers are forbidden outright.
const RESULT_MODULES: [&str; 4] = ["charmap", "characterize", "maximal", "experiments"];

pub(crate) fn is_sim_crate(file: &SourceFile) -> bool {
    SIM_CRATES.contains(&file.crate_name.as_str())
}

fn is_result_module(file: &SourceFile) -> bool {
    let stem = file
        .path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or_default();
    RESULT_MODULES.contains(&stem) || file.path.split('/').any(|seg| seg == "experiments")
}

/// Rule 1 — `no-wall-clock`.
///
/// Simulation crates must not read host time: results would depend on
/// scheduler noise and the characterized map (Figures 2–4) would stop
/// being reproducible. All time comes from the DES clock
/// (`plugvolt_des::time`).
pub struct NoWallClock;

impl Rule for NoWallClock {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-wall-clock",
            severity: Severity::Error,
            summary: "std::time::{Instant,SystemTime} banned in simulation crates; \
                      use the plugvolt-des simulated clock",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !is_sim_crate(file) || matches!(file.role, FileRole::Bench) {
            return;
        }
        for ident in ["Instant", "SystemTime"] {
            for (line, column) in file.find_ident(ident) {
                if file.is_test_code(line) {
                    continue;
                }
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`{ident}` reads host wall-clock time inside simulation crate \
                         `{}`; derive all time from the deterministic DES clock \
                         (plugvolt_des::time::SimTime)",
                        file.crate_name
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule 2 — `no-ambient-rng`.
///
/// Ambient randomness (`rand::thread_rng`, `random()`, OS entropy) makes
/// every run unique, which is exactly what a characterization framework
/// cannot afford. All randomness flows through the seeded, labelled
/// `plugvolt_des::rng::SimRng` streams.
pub struct NoAmbientRng;

impl Rule for NoAmbientRng {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-ambient-rng",
            severity: Severity::Error,
            summary: "ambient RNG (rand::thread_rng / random() / OS entropy) banned; \
                      use seeded plugvolt-des::rng streams",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.crate_name.starts_with("shims/") {
            return;
        }
        for ident in ["thread_rng", "from_entropy", "getrandom", "OsRng"] {
            for (line, column) in file.find_ident(ident) {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`{ident}` draws ambient randomness; every stochastic component \
                         must take a seeded plugvolt_des::rng::SimRng stream"
                    ),
                    out,
                );
            }
        }
        // A bare `rand` path segment (e.g. `rand::random()`, `use rand::…`)
        // means the external crate: banned workspace-wide since the
        // in-tree generator replaced it.
        for (line, column) in file.find_ident("rand") {
            let text = &file.masked[line - 1];
            let after = &text[column - 1 + "rand".len()..];
            if after.starts_with("::") || text.trim_start().starts_with("use rand") {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "the external `rand` crate is banned (hermetic build, deterministic \
                     streams); use plugvolt_des::rng::SimRng"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Rule 3 — `no-unordered-iteration`.
///
/// In result-producing modules, `HashMap`/`HashSet` iteration order leaks
/// straight into emitted artifacts. `BTreeMap`/`BTreeSet` (or an explicit
/// sort before emitting) keeps Figures 2–4 byte-stable across runs and
/// Rust versions.
pub struct NoUnorderedIteration;

impl Rule for NoUnorderedIteration {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-unordered-iteration",
            severity: Severity::Error,
            summary: "HashMap/HashSet banned in result-producing modules \
                      (charmap, characterize, maximal, experiments); use BTree* or sort",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !is_result_module(file) {
            return;
        }
        for ident in ["HashMap", "HashSet"] {
            for (line, column) in file.find_ident(ident) {
                if file.is_test_code(line) {
                    continue;
                }
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`{ident}` iteration order is unspecified and leaks into emitted \
                         results in module `{}`; use BTreeMap/BTreeSet or sort before emit",
                        file.path
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule 5 — `no-unwrap-in-lib`.
///
/// Library code aborting the whole simulation on a recoverable error is
/// how long characterization campaigns die at hour six. Return typed
/// errors, or use `expect` with a message stating the invariant that
/// makes the failure impossible. Test code is exempt.
pub struct NoUnwrapInLib;

impl Rule for NoUnwrapInLib {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-unwrap-in-lib",
            severity: Severity::Warning,
            summary: "unwrap()/expect(\"\")/panic! flagged in library crates; \
                      return typed errors or expect with an invariant message",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.role, FileRole::Lib) || file.crate_name.starts_with("shims/") {
            return;
        }
        for (line, column) in file.find_ident("unwrap") {
            if file.is_test_code(line) {
                continue;
            }
            let text = &file.masked[line - 1];
            let is_call = text[column - 1 + "unwrap".len()..]
                .trim_start()
                .starts_with("()");
            let is_method = text[..column - 1].trim_end().ends_with('.');
            if is_call && is_method {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "`.unwrap()` in library code aborts the whole simulation; return a \
                     typed error or use `.expect(\"<invariant>\")`"
                        .to_string(),
                    out,
                );
            }
        }
        for (line, column) in file.find_ident("expect") {
            if file.is_test_code(line) {
                continue;
            }
            // Empty message check must look at the raw line (masked text
            // blanks string contents).
            let raw = &file.lines[line - 1];
            // Columns come from masked text; masking a non-ASCII string
            // character to one space can shift byte offsets, so index
            // defensively.
            if raw
                .get(column - 1..)
                .is_some_and(|r| r.starts_with("expect(\"\")"))
            {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "`.expect(\"\")` carries no invariant; state why the failure is \
                     impossible or return a typed error"
                        .to_string(),
                    out,
                );
            }
        }
        for (line, column) in file.find_ident("panic") {
            if file.is_test_code(line) {
                continue;
            }
            let text = &file.masked[line - 1];
            if text[column - 1 + "panic".len()..].starts_with('!') {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "`panic!` in library code; prefer a typed error (panics are \
                     acceptable only for documented invariant violations)"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Rule 6 — `float-accumulation-order`.
///
/// Floating-point addition is not associative: folding or summing floats
/// out of an unordered collection produces run-dependent low bits, which
/// then leak into serialized results. Accumulate over ordered containers
/// or sort first.
pub struct FloatAccumulationOrder;

impl Rule for FloatAccumulationOrder {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "float-accumulation-order",
            severity: Severity::Warning,
            summary: "fold/sum over float iterators derived from unordered collections; \
                      float addition is order-sensitive, iterate a BTree* or sort first",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        // Identifiers bound to Hash* containers anywhere in the file.
        let mut hash_idents: Vec<String> = Vec::new();
        for (i, _) in file.find_ident("HashMap") {
            if let Some(name) = binding_name(&file.masked[i - 1]) {
                hash_idents.push(name);
            }
        }
        for (i, _) in file.find_ident("HashSet") {
            if let Some(name) = binding_name(&file.masked[i - 1]) {
                hash_idents.push(name);
            }
        }
        for (i, masked) in file.masked.iter().enumerate() {
            let line = i + 1;
            if file.is_test_code(line) {
                continue;
            }
            let accumulates = masked.contains(".sum::<f64>()")
                || masked.contains(".sum::<f32>()")
                || masked.contains(".fold(");
            if !accumulates {
                continue;
            }
            let from_hash_ident = hash_idents.iter().any(|id| {
                [
                    ".iter()",
                    ".values()",
                    ".keys()",
                    ".into_iter()",
                    ".drain()",
                ]
                .iter()
                .any(|m| masked.contains(&format!("{id}{m}")))
            });
            let inline_hash = masked.contains("HashMap") || masked.contains("HashSet");
            if from_hash_ident || inline_hash {
                let column = masked
                    .find(".fold(")
                    .or_else(|| masked.find(".sum::"))
                    .map_or(1, |p| p + 1);
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "float accumulation over an unordered collection: addition order \
                     varies per run and perturbs low bits of emitted results; iterate \
                     a BTree* container or sort before accumulating"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Rule 7 — `machine-construction-discipline`.
///
/// Non-test code must obtain machines through the bench `Scenario`
/// layer (`crates/bench/src/scenario.rs`), which owns root-seed policy,
/// labelled seed derivation, and telemetry installation. A scattered
/// `Machine::new(model, <ad-hoc seed>)` silently forks the seed policy:
/// two call sites can collide on a seed (correlated "independent" runs)
/// or drift apart when the root seed changes. Code that sits below the
/// bench crate in the dependency graph and genuinely cannot use the
/// Scenario layer documents why and suppresses the rule.
pub struct MachineConstructionDiscipline;

impl Rule for MachineConstructionDiscipline {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "machine-construction-discipline",
            severity: Severity::Warning,
            summary: "Machine::new/new_unit outside crates/bench/src/scenario.rs and test \
                      code; construct machines through the bench Scenario layer",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.path == "crates/bench/src/scenario.rs" {
            return;
        }
        for (line, column) in file.find_ident("Machine") {
            if file.is_test_code(line) {
                continue;
            }
            let after = &file.masked[line - 1][column - 1 + "Machine".len()..];
            let ctor = if after.starts_with("::new(") {
                "new"
            } else if after.starts_with("::new_unit(") {
                "new_unit"
            } else {
                continue;
            };
            emit(
                file,
                self.meta(),
                line,
                column,
                format!(
                    "`Machine::{ctor}` outside the Scenario layer forks the seed policy; \
                     use `Scenario::machine`/`machine_for` (crates/bench/src/scenario.rs) \
                     so seeds stay derived, labelled and collision-free"
                ),
                out,
            );
        }
    }
}

/// Rule 12 — `no-global-switch`.
///
/// Configuration is a value, not a process global. A `static` atomic in
/// library code is a switch every machine, worker and test in the
/// process shares: flipping it for one run silently reconfigures every
/// other run, and a parallel sweep's output would then depend on which
/// thread read it first. Pass the setting with the value it configures
/// (a telemetry `Sink`'s tracer, a `Scenario`). `OnceLock` memo caches
/// hold derived data, not switches, and are not flagged.
pub struct NoGlobalSwitch;

impl Rule for NoGlobalSwitch {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-global-switch",
            severity: Severity::Error,
            summary: "static Atomic* in library code is a process-global switch; \
                      carry configuration on the value it configures",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.role, FileRole::Lib) {
            return;
        }
        for (line, column) in file.find_ident("static") {
            if file.is_test_code(line) {
                continue;
            }
            let text = &file.masked[line - 1];
            // `&'static T` is a lifetime, not an item.
            if text[..column - 1].ends_with('\'') {
                continue;
            }
            let Some(ty) = static_item_type(&text[column - 1 + "static".len()..]) else {
                continue;
            };
            if !ty.starts_with("Atomic") {
                continue;
            }
            emit(
                file,
                self.meta(),
                line,
                column,
                format!(
                    "`static` of type `{ty}` is a process-global switch in crate `{}`; \
                     carry the setting on the value it configures (e.g. a Sink's \
                     tracer) instead",
                    file.crate_name
                ),
                out,
            );
        }
    }
}

/// For the text after a `static` keyword (`[mut] NAME: path::Type<…> = …`),
/// the type's last path segment without generics.
fn static_item_type(after_static: &str) -> Option<&str> {
    let rest = after_static.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (_, ty) = rest.split_once(':')?;
    let ty = ty.split(['=', ';', '<']).next()?.trim();
    let last = ty.rsplit("::").next()?.trim();
    (!last.is_empty()).then_some(last)
}

/// For a masked line like `let totals: HashMap<…> = …` or
/// `let mut seen = HashSet::new()`, the bound identifier.
fn binding_name(masked_line: &str) -> Option<String> {
    let after_let = masked_line.trim_start().strip_prefix("let ")?;
    let after_mut = after_let
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(after_let);
    let name: String = after_mut
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::new(path, src);
        let mut out = Vec::new();
        for rule in registry() {
            rule.check(&file, &mut out);
        }
        out
    }

    #[test]
    fn clean_sim_code_has_no_findings() {
        let findings = scan(
            "crates/des/src/clock.rs",
            "use crate::time::SimTime;\npub fn tick(t: SimTime) -> SimTime { t }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn static_item_type_extraction() {
        assert_eq!(
            static_item_type(" FLAG: std::sync::atomic::AtomicBool = AtomicBool::new(false);"),
            Some("AtomicBool")
        );
        assert_eq!(
            static_item_type(" mut N: AtomicU64 = x;"),
            Some("AtomicU64")
        );
        assert_eq!(
            static_item_type(" STORE: OnceLock<Mutex<u8>> = OnceLock::new();"),
            Some("OnceLock")
        );
        // `static` without an item type (e.g. a closure bound).
        assert_eq!(static_item_type(" + Send"), None);
    }

    #[test]
    fn binding_name_extraction() {
        assert_eq!(
            binding_name("    let mut totals: HashMap<u32, f64> = HashMap::new();"),
            Some("totals".to_string())
        );
        assert_eq!(
            binding_name("let seen = HashSet::new();"),
            Some("seen".to_string())
        );
        assert_eq!(binding_name("totals.insert(1, 2.0);"), None);
    }
}
