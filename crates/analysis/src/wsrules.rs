//! Cross-file rules over the [`Workspace`] model: seed labels, parallel
//! merges, the telemetry registry, MSR discipline (rule 4) and hot-path
//! transcendentals (rule 8).
//!
//! All of these chase the same hazard class the paper's countermeasure
//! depends on eliminating: silent nondeterminism. A duplicate seed
//! label correlates two "independent" RNG streams; a lock-accumulated
//! merge in a `thread::scope` region makes output depend on worker
//! scheduling; a telemetry key that drifts from the registry breaks the
//! pinned export schema; a transcendental two calls below a hot entry
//! point undoes the slack-table optimization without failing any test.

use crate::findings::Severity;
use crate::index::FnId;
use crate::rules::{is_sim_crate, RuleMeta};
use crate::source::{FileRole, SourceFile};
use crate::workspace::{brace_block_span, call_string_literals, emit_ws, Workspace, WorkspaceRule};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Metadata for the `unused-suppression` pseudo-rule. Its logic lives
/// in the runner (it needs to know which suppression comments matched a
/// filtered finding), but it is listed and suppressed like any other
/// rule.
pub const UNUSED_SUPPRESSION_META: RuleMeta = RuleMeta {
    id: "unused-suppression",
    severity: Severity::Error,
    summary: "a `// plugvolt-lint: allow(rule)` comment that suppresses nothing \
              (or names an unknown rule) is itself a finding, so suppressions cannot rot",
};

/// The workspace-rule registry, in reporting order.
#[must_use]
pub fn workspace_registry() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(SeedLabelUniqueness),
        Box::new(ParallelMergeDeterminism),
        Box::new(TelemetryKeyRegistry),
        Box::new(MsrWriteDiscipline),
        Box::new(HotPathTranscendentals),
    ]
}

/// Rule 9 — `seed-label-uniqueness`.
///
/// Every labelled seed derivation (`derive_seed(root, "…")`,
/// `SimRng::from_seed_label(seed, "…")`, `Scenario::{rng,seed_for,
/// machine_for}("…")`, `SimRng::derive("…")`) must use a literal that is
/// unique across the workspace: two call sites sharing a label produce
/// *identical* streams from the same root seed, silently correlating
/// supposedly independent stochastic components — the #1
/// hardest-to-debug determinism hazard in a seeded simulator. Dynamic
/// labels (`format!`-built) are assumed parameter-distinguished and
/// skipped; so is a call whose argument list carries more than one
/// literal (nested derivations).
pub struct SeedLabelUniqueness;

/// Functions whose single string-literal argument is a seed label.
const SEED_LABEL_FNS: [&str; 6] = [
    "derive_seed",
    "from_seed_label",
    "seed_for",
    "machine_for",
    "rng",
    "derive",
];

impl WorkspaceRule for SeedLabelUniqueness {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "seed-label-uniqueness",
            severity: Severity::Error,
            summary: "every seed-derivation label literal (derive_seed / from_seed_label / \
                      Scenario::rng / …) must be unique workspace-wide; duplicates \
                      silently correlate RNG streams",
        }
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // label → sites (path, line, column, called fn).
        let mut sites: BTreeMap<String, Vec<(String, usize, usize, &str)>> = BTreeMap::new();
        for file in &ws.files {
            if !matches!(file.role, FileRole::Lib | FileRole::Bin)
                || file.crate_name.starts_with("shims/")
            {
                continue;
            }
            for name in SEED_LABEL_FNS {
                for (line, column) in file.find_ident(name) {
                    if file.is_test_code(line) {
                        continue;
                    }
                    let text = &file.masked[line - 1];
                    if !text[column - 1 + name.len()..].starts_with('(') {
                        continue;
                    }
                    // `fn rng(` / `pub fn derive(` are declarations.
                    if text[..column - 1].trim_end().ends_with("fn") {
                        continue;
                    }
                    let lits = call_string_literals(file, line, column + name.len());
                    if let [label] = lits.as_slice() {
                        sites.entry(label.clone()).or_default().push((
                            file.path.clone(),
                            line,
                            column,
                            name,
                        ));
                    }
                }
            }
        }
        for (label, group) in &sites {
            if group.len() < 2 {
                continue;
            }
            for (path, line, column, name) in group {
                let (other_path, other_line, ..) = group
                    .iter()
                    .find(|(p, l, ..)| !(p == path && l == line))
                    .unwrap_or(&group[0]);
                emit_ws(
                    ws,
                    self.meta(),
                    path,
                    *line,
                    *column,
                    format!(
                        "seed label \"{label}\" passed to `{name}(…)` is also used at \
                         {other_path}:{other_line}; the same root seed + label yields the \
                         same stream, so these \"independent\" components are correlated — \
                         make every label unique workspace-wide"
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule 10 — `parallel-merge-determinism`.
///
/// The worker pool pins a contract (workers-1/2/7 tests): output must
/// be byte-identical regardless of worker count or scheduling. Inside
/// `std::thread::scope` spawn bodies in sim/bench crates, that means no
/// order-dependent accumulation through shared state — results flow
/// into per-task index-addressed slots (`let i = next.fetch_add(…);
/// *slots[i].lock() = Some(r)`) and merge after `join`. Flagged:
/// pushing/`+=`-ing through a `lock()`/`write()` guard, atomic RMW
/// whose result is discarded (accumulation, not slot-claiming), and
/// `&mut` borrows captured from outside the worker closure.
pub struct ParallelMergeDeterminism;

/// Mutating calls that, through a lock guard, make merge order depend
/// on scheduling.
const ACCUMULATING_CALLS: [&str; 6] = [
    ".push(",
    ".extend(",
    ".append(",
    ".insert(",
    ".push_str(",
    "+=",
];

/// Atomic read-modify-write methods.
const ATOMIC_RMW: [&str; 7] = [
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
];

impl WorkspaceRule for ParallelMergeDeterminism {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "parallel-merge-determinism",
            severity: Severity::Error,
            summary: "inside thread::scope spawn bodies in sim/bench crates: no \
                      lock-guarded accumulation, discarded atomic RMW, or captured \
                      `&mut` — merges must be index-addressed slots",
        }
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !(is_sim_crate(file) || file.crate_name == "bench") {
                continue;
            }
            for (body_lo, body_hi) in spawn_body_spans(file) {
                self.check_spawn_body(ws, file, body_lo, body_hi, out);
            }
        }
    }
}

impl ParallelMergeDeterminism {
    fn check_spawn_body(
        &self,
        ws: &Workspace,
        file: &SourceFile,
        body_lo: usize,
        body_hi: usize,
        out: &mut Vec<Finding>,
    ) {
        for line in body_lo..=body_hi {
            let masked = &file.masked[line - 1];
            // (1) accumulation through a shared lock guard.
            if masked.contains(".lock()") || masked.contains(".write()") {
                if let Some(pat) = ACCUMULATING_CALLS.iter().find(|p| masked.contains(**p)) {
                    let column = masked.find(*pat).map_or(1, |p| p + 1);
                    emit_ws(
                        ws,
                        self.meta(),
                        &file.path,
                        line,
                        column,
                        format!(
                            "`{}` through a lock guard inside a thread::scope worker: \
                             merge order depends on scheduling, so output varies with \
                             worker count — write into an index-addressed slot \
                             (`*slots[i].lock() = Some(result)`) and merge after join",
                            pat.trim_matches(['.', '('])
                        ),
                        out,
                    );
                    continue;
                }
            }
            // (2) atomic RMW whose result is discarded: accumulation,
            // not slot-claiming (`let i = next.fetch_add(…)` is fine).
            for rmw in ATOMIC_RMW {
                let Some(pos) = find_method_call(masked, rmw) else {
                    continue;
                };
                let lead = masked[..pos - 1].trim_start();
                let bare_receiver = lead
                    .strip_suffix('.')
                    .is_some_and(|r| r.chars().all(|c| is_path_char(c)) && !r.is_empty());
                if bare_receiver && masked.trim_end().ends_with(';') {
                    emit_ws(
                        ws,
                        self.meta(),
                        &file.path,
                        line,
                        pos,
                        format!(
                            "`{rmw}` with a discarded result inside a thread::scope \
                             worker accumulates into shared state; claim an index \
                             instead (`let i = next.{rmw}(…)`) and write to `slots[i]` \
                             so the merge is scheduling-independent"
                        ),
                        out,
                    );
                }
            }
            // (3) `&mut` borrow of something not declared in this body:
            // a capture shared with the enclosing scope.
            let mut search = 0;
            while let Some(rel) = masked[search..].find("&mut ") {
                let at = search + rel;
                search = at + "&mut ".len();
                let ident: String = masked[search..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if ident.is_empty()
                    || ident == "self"
                    || ident.chars().next().is_some_and(char::is_uppercase)
                {
                    continue; // type position (`&mut SimRng`) or self.
                }
                let declared_in_body = (body_lo..=body_hi).any(|l| {
                    let m = &file.masked[l - 1];
                    m.contains(&format!("let mut {ident}"))
                        || m.contains(&format!("let {ident}"))
                        || m.contains(&format!("for {ident} "))
                });
                if !declared_in_body {
                    emit_ws(
                        ws,
                        self.meta(),
                        &file.path,
                        line,
                        at + 1,
                        format!(
                            "`&mut {ident}` inside a thread::scope worker borrows state \
                             from the enclosing scope; give each worker its own \
                             index-addressed slot so no mutable state is shared \
                             across workers"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// All `spawn(…)` closure-body spans inside `thread::scope(...)` regions
/// of `file`, as inclusive 1-based line ranges.
fn spawn_body_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (line, column) in file.find_ident("scope") {
        if file.is_test_code(line) {
            continue;
        }
        let text = &file.masked[line - 1];
        if !text[..column - 1].ends_with("thread::")
            || !text[column - 1 + "scope".len()..].starts_with('(')
        {
            continue;
        }
        let Some((scope_lo, scope_hi)) = brace_block_span(file, line, column) else {
            continue;
        };
        for (sl, sc) in file.find_ident("spawn") {
            if sl < scope_lo || sl > scope_hi {
                continue;
            }
            if !file.masked[sl - 1][sc - 1 + "spawn".len()..].starts_with('(') {
                continue;
            }
            if let Some(span) = brace_block_span(file, sl, sc) {
                spans.push(span);
            }
        }
    }
    spans.sort_unstable();
    spans.dedup();
    spans
}

fn is_path_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == ':' || c == '.'
}

/// Position (1-based column) of `.{name}(` on a masked line, or `None`.
fn find_method_call(masked: &str, name: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(rel) = masked[start..].find(name) {
        let at = start + rel;
        start = at + name.len();
        let before_dot = at > 0 && masked.as_bytes()[at - 1] == b'.';
        let called = masked[at + name.len()..].starts_with('(');
        let exact_end = !masked[at + name.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_dot && called && exact_end {
            return Some(at + 1);
        }
    }
    None
}

/// Rule 11 — `telemetry-key-registry`.
///
/// The telemetry export is `schema_version = 1`: downstream parsers pin
/// the key set. Every `MetricKey::global`/`per_core` construction with
/// literal component+name in the cpu/kernel/core crates must appear
/// exactly once in the registry (`crates/telemetry/src/keys.rs`), and
/// every registered key must actually be emitted — in both directions,
/// drift is a schema break that no test would otherwise catch. Calls
/// with computed components or names are assumed covered by the literal
/// sites that feed them (e.g. the hot-counter flush loop) and skipped.
///
/// Span labels are held to the same contract: every literal label in a
/// `.span("…")` / `.record_span("…", …)` method call in cpu/kernel/core
/// must appear exactly once in the registry's `REGISTERED_SPANS` table
/// (declared via `span("label", "doc")`), and every registered label
/// must be emitted somewhere. Relay methods that forward a computed
/// label contribute no literal and are skipped, covered by their
/// literal callers.
pub struct TelemetryKeyRegistry;

/// Where registered keys live.
pub const TELEMETRY_REGISTRY_PATH: &str = "crates/telemetry/src/keys.rs";

/// Crates whose metric emissions the registry must cover (poll lives in
/// `core`).
const TELEMETRY_SCOPE_CRATES: [&str; 3] = ["cpu", "kernel", "core"];

impl WorkspaceRule for TelemetryKeyRegistry {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "telemetry-key-registry",
            severity: Severity::Error,
            summary: "every metric key and span label emitted in cpu/kernel/core appears \
                      exactly once in crates/telemetry/src/keys.rs and vice versa, \
                      protecting the schema_version=1 export",
        }
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Emission sites: MetricKey::{global,per_core}("comp", "name", …).
        let mut emitted: Vec<(String, String, String, usize, usize)> = Vec::new();
        for file in &ws.files {
            if !TELEMETRY_SCOPE_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            for (line, column) in file.find_ident("MetricKey") {
                if file.is_test_code(line) {
                    continue;
                }
                let after = &file.masked[line - 1][column - 1 + "MetricKey".len()..];
                let ctor = if after.starts_with("::global(") {
                    "::global"
                } else if after.starts_with("::per_core(") {
                    "::per_core"
                } else {
                    continue;
                };
                let open_col = column + "MetricKey".len() + ctor.len();
                let lits = call_string_literals(file, line, open_col);
                // `String::from("…")` wrappers contribute their literal;
                // fewer than two literals means a computed key, covered
                // by the literal sites that feed it.
                if lits.len() >= 2 {
                    emitted.push((
                        lits[0].clone(),
                        lits[1].clone(),
                        file.path.clone(),
                        line,
                        column,
                    ));
                }
            }
        }

        // Span-label emission sites: `.span("label"…)` /
        // `.record_span("label"…)` method calls. Bare `span` idents
        // (locals, declarations) and relays forwarding a computed label
        // contribute nothing.
        let mut span_emitted: Vec<(String, String, usize, usize)> = Vec::new();
        for file in &ws.files {
            if !TELEMETRY_SCOPE_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            for method in ["span", "record_span"] {
                for (line, column) in file.find_ident(method) {
                    if file.is_test_code(line) {
                        continue;
                    }
                    let text = &file.masked[line - 1];
                    if !text[..column - 1].ends_with('.')
                        || !text[column - 1 + method.len()..].starts_with('(')
                    {
                        continue;
                    }
                    let lits = call_string_literals(file, line, column + method.len());
                    if let Some(label) = lits.first() {
                        span_emitted.push((label.clone(), file.path.clone(), line, column));
                    }
                }
            }
        }

        // Registry entries: key("comp", "name", …) and
        // span("label", "doc") in keys.rs.
        let registry_file = ws.file(TELEMETRY_REGISTRY_PATH);
        let mut registered: Vec<(String, String, usize, usize)> = Vec::new();
        let mut span_registered: Vec<(String, usize, usize)> = Vec::new();
        if let Some(file) = registry_file {
            for (line, column) in file.find_ident("key") {
                if file.is_test_code(line) {
                    continue;
                }
                let text = &file.masked[line - 1];
                let before = &text[..column - 1];
                if before.trim_end().ends_with("fn") || before.ends_with('.') {
                    continue;
                }
                if !text[column - 1 + "key".len()..].starts_with('(') {
                    continue;
                }
                let lits = call_string_literals(file, line, column + "key".len());
                if lits.len() >= 2 {
                    registered.push((lits[0].clone(), lits[1].clone(), line, column));
                }
            }
            for (line, column) in file.find_ident("span") {
                if file.is_test_code(line) {
                    continue;
                }
                let text = &file.masked[line - 1];
                let before = &text[..column - 1];
                if before.trim_end().ends_with("fn") || before.ends_with('.') {
                    continue;
                }
                if !text[column - 1 + "span".len()..].starts_with('(') {
                    continue;
                }
                let lits = call_string_literals(file, line, column + "span".len());
                if let Some(label) = lits.first() {
                    span_registered.push((label.clone(), line, column));
                }
            }
        }

        if registry_file.is_none() {
            if let Some((comp, name, path, line, column)) = emitted.first() {
                emit_ws(
                    ws,
                    self.meta(),
                    path,
                    *line,
                    *column,
                    format!(
                        "metric key `{comp}/{name}` is emitted but no telemetry key \
                         registry exists ({TELEMETRY_REGISTRY_PATH}); declare every \
                         emitted key there so the export schema stays pinned"
                    ),
                    out,
                );
            }
            if let Some((label, path, line, column)) = span_emitted.first() {
                emit_ws(
                    ws,
                    self.meta(),
                    path,
                    *line,
                    *column,
                    format!(
                        "span label `{label}` is emitted but no telemetry key registry \
                         exists ({TELEMETRY_REGISTRY_PATH}); declare every emitted span \
                         label there so the trace schema stays pinned"
                    ),
                    out,
                );
            }
            return;
        }

        let registered_pairs: BTreeSet<(&str, &str)> = registered
            .iter()
            .map(|(c, n, ..)| (c.as_str(), n.as_str()))
            .collect();
        let emitted_pairs: BTreeSet<(&str, &str)> = emitted
            .iter()
            .map(|(c, n, ..)| (c.as_str(), n.as_str()))
            .collect();

        for (comp, name, path, line, column) in &emitted {
            if !registered_pairs.contains(&(comp.as_str(), name.as_str())) {
                emit_ws(
                    ws,
                    self.meta(),
                    path,
                    *line,
                    *column,
                    format!(
                        "metric key `{comp}/{name}` is not declared in the telemetry \
                         registry ({TELEMETRY_REGISTRY_PATH}); register it so \
                         schema_version=1 consumers see a complete key set"
                    ),
                    out,
                );
            }
        }
        let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
        for (comp, name, line, column) in &registered {
            if !seen.insert((comp.as_str(), name.as_str())) {
                emit_ws(
                    ws,
                    self.meta(),
                    TELEMETRY_REGISTRY_PATH,
                    *line,
                    *column,
                    format!(
                        "telemetry key `{comp}/{name}` is registered more than once; \
                         the registry must list every key exactly once"
                    ),
                    out,
                );
                continue;
            }
            if !emitted_pairs.contains(&(comp.as_str(), name.as_str())) {
                emit_ws(
                    ws,
                    self.meta(),
                    TELEMETRY_REGISTRY_PATH,
                    *line,
                    *column,
                    format!(
                        "telemetry key `{comp}/{name}` is registered but never emitted \
                         by the cpu/kernel/core crates; remove the stale entry or wire \
                         up the emission"
                    ),
                    out,
                );
            }
        }

        let span_reg_set: BTreeSet<&str> =
            span_registered.iter().map(|(l, ..)| l.as_str()).collect();
        let span_emit_set: BTreeSet<&str> = span_emitted.iter().map(|(l, ..)| l.as_str()).collect();
        for (label, path, line, column) in &span_emitted {
            if !span_reg_set.contains(label.as_str()) {
                emit_ws(
                    ws,
                    self.meta(),
                    path,
                    *line,
                    *column,
                    format!(
                        "span label `{label}` is not declared in the telemetry registry \
                         ({TELEMETRY_REGISTRY_PATH}); register it in REGISTERED_SPANS so \
                         trace consumers see a complete label set"
                    ),
                    out,
                );
            }
        }
        let mut seen_spans: BTreeSet<&str> = BTreeSet::new();
        for (label, line, column) in &span_registered {
            if !seen_spans.insert(label.as_str()) {
                emit_ws(
                    ws,
                    self.meta(),
                    TELEMETRY_REGISTRY_PATH,
                    *line,
                    *column,
                    format!(
                        "span label `{label}` is registered more than once; the registry \
                         must list every label exactly once"
                    ),
                    out,
                );
                continue;
            }
            if !span_emit_set.contains(label.as_str()) {
                emit_ws(
                    ws,
                    self.meta(),
                    TELEMETRY_REGISTRY_PATH,
                    *line,
                    *column,
                    format!(
                        "span label `{label}` is registered but never emitted by the \
                         cpu/kernel/core crates; remove the stale entry or wire up the \
                         instrumentation"
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule 4 — `msr-write-discipline`.
///
/// The software analogue of the paper's Sec. 5 microcode/hardware clamp:
/// every undervolt request must pass through `plugvolt-msr`'s
/// `offset_limit` choke point. V0LTpwn worked because undervolting paths
/// existed that no single clamp covered. Three bypass shapes are flagged:
///
/// 1. a raw `0x150`/`0x198` literal anywhere outside `crates/msr` — a
///    bypass waiting to happen;
///
/// and, from outside the blessed hal/msr/kernel/cpu layers, two
/// *call-shaped* bypasses of the HAL trait seam:
///
/// 2. `.wrmsr(…)` / `.rdmsr(…)` invoked directly on the CPU package
///    (receiver ends in `cpu()`, `cpu_mut()` or `.cpu`) — skips kernel
///    cost accounting and the `offset_limit` clamp choke point, exactly
///    the unsanctioned undervolting path the paper's Sec. 5
///    countermeasure exists to close;
/// 3. direct `MsrFile::`/`CpuPackage::` construction — conjures a sim
///    register file behind the backend's back instead of going through
///    `plugvolt_hal::sim::SimBackend` / `Machine::with_backend`, so the
///    access never crosses the recordable seam.
///
/// Benchmarks and test code may do 2 and 3 (they measure/poke the raw
/// substrate on purpose).
pub struct MsrWriteDiscipline;

/// Layers allowed to touch the package MSR interface directly: the HAL
/// itself, the register-file and package crates it abstracts, and the
/// kernel that mounts the seam.
const BLESSED_MSR_CRATES: [&str; 4] = ["msr", "kernel", "cpu", "hal"];

impl WorkspaceRule for MsrWriteDiscipline {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "msr-write-discipline",
            severity: Severity::Error,
            summary: "raw MSR 0x150/0x198 literals outside crates/msr, and direct package \
                      .wrmsr()/.rdmsr() calls or MsrFile/CpuPackage construction outside \
                      the blessed hal/msr/kernel/cpu layers; go through the offset_limit clamp",
        }
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if file.crate_name != "msr" {
                for literal in ["0x150", "0x198"] {
                    for (line, column) in find_hex_literal(file, literal) {
                        emit_ws(
                            ws,
                            self.meta(),
                            &file.path,
                            line,
                            column,
                            format!(
                                "raw MSR literal `{literal}` outside crates/msr bypasses the \
                                 offset_limit clamp (the Sec. 5 choke point); use \
                                 plugvolt_msr::addr::Msr::{} instead",
                                if literal == "0x150" {
                                    "OC_MAILBOX"
                                } else {
                                    "IA32_PERF_STATUS"
                                }
                            ),
                            out,
                        );
                    }
                }
            }
            if BLESSED_MSR_CRATES.contains(&file.crate_name.as_str())
                || file.crate_name.starts_with("shims/")
            {
                continue;
            }
            for ident in ["wrmsr", "rdmsr"] {
                for (line, column) in file.find_ident(ident) {
                    if file.is_test_code(line) {
                        continue;
                    }
                    let text = &file.masked[line - 1];
                    if !text[column - 1 + ident.len()..].starts_with('(') {
                        continue;
                    }
                    let before = &text[..column - 1];
                    let Some(recv) = before.strip_suffix('.') else {
                        continue;
                    };
                    let recv = recv.trim_end();
                    let direct = recv.ends_with("cpu()")
                        || recv.ends_with("cpu_mut()")
                        || recv.ends_with(".cpu")
                        || recv == "cpu";
                    if !direct {
                        continue;
                    }
                    let in_fn = ws
                        .index
                        .enclosing_fn(&file.path, line)
                        .map(|id| format!(" in `{}`", ws.index.symbol(id).name))
                        .unwrap_or_default();
                    emit_ws(
                        ws,
                        self.meta(),
                        &file.path,
                        line,
                        column,
                        format!(
                            "direct package MSR access `.{ident}(…)`{in_fn} outside the \
                             blessed hal/msr/kernel/cpu layers bypasses kernel cost \
                             accounting and the offset_limit clamp (the Sec. 5 choke \
                             point); route the access through `Machine::{ident}`"
                        ),
                        out,
                    );
                }
            }
            // Benchmarks measure the raw substrate on purpose.
            if matches!(file.role, FileRole::Bench) {
                continue;
            }
            for ty in ["MsrFile", "CpuPackage"] {
                for (line, column) in file.find_ident(ty) {
                    if file.is_test_code(line) {
                        continue;
                    }
                    let text = &file.masked[line - 1];
                    if !text[column - 1 + ty.len()..].starts_with("::") {
                        continue;
                    }
                    emit_ws(
                        ws,
                        self.meta(),
                        &file.path,
                        line,
                        column,
                        format!(
                            "direct `{ty}::` access outside the blessed \
                             hal/msr/kernel/cpu layers conjures a sim register file \
                             behind the HAL seam; construct the substrate through \
                             `plugvolt_hal::sim::SimBackend` and mount it with \
                             `Machine::with_backend` instead"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// Finds a hex literal token (case-insensitive on the payload digits),
/// rejecting matches embedded in longer literals like `0x1500`.
fn find_hex_literal(file: &SourceFile, literal: &str) -> Vec<(usize, usize)> {
    let mut hits = Vec::new();
    let lower = literal.to_ascii_lowercase();
    for (i, line) in file.masked.iter().enumerate() {
        let hay = line.to_ascii_lowercase();
        let mut start = 0;
        while let Some(pos) = hay[start..].find(&lower) {
            let at = start + pos;
            let before_ok = at == 0
                || !hay[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = at + lower.len();
            let after_ok = !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_hexdigit() || c == '_');
            if before_ok && after_ok {
                hits.push((i + 1, at + 1));
            }
            start = at + lower.len();
        }
    }
    hits
}

/// Rule 8 — `hot-path-transcendentals`.
///
/// The simulator's per-batch hot paths are called millions of times per
/// characterization sweep; the slack-table refactor exists precisely so
/// they never evaluate the alpha-power delay model (`powf`) or the
/// fault-band sigmoid (`exp`/`ln`) inline. A transcendental creeping
/// back silently undoes the optimization — the results stay identical,
/// only the sweep gets slow again — so the lint, not a perf regression
/// six PRs later, is what catches it. The rule walks the call graph:
/// any transcendental (`.powf`/`.exp`/`.ln`) in sim-crate code
/// *reachable* from the characterization entry points (`characterize*`,
/// `sweep_column*`, `run_cells*`, `run_batch*`, `run_imul*`, `poll*`)
/// is a hot-path cost, even when it hides two calls down. `sweep_column` roots the per-column sweep loop itself,
/// which callers reach only through the bench engine's closures.
/// Traversal stops at `crates/cpu/src/slack.rs` — the sanctioned
/// table-build module pays the analytic cost once per process.
pub struct HotPathTranscendentals;

/// Name prefixes that seed the hot-entry set.
const ENTRY_PREFIXES: [&str; 6] = [
    "characterize",
    "sweep_column",
    "run_cells",
    "run_batch",
    "run_imul",
    "poll",
];

/// The sanctioned analytic site; reachable, but not expanded through.
const BOUNDARY_PATH: &str = "crates/cpu/src/slack.rs";

/// Transcendental float methods the slack tables exist to precompute.
const TRANSCENDENTAL_METHODS: [&str; 3] = ["powf", "exp", "ln"];

impl WorkspaceRule for HotPathTranscendentals {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "hot-path-transcendentals",
            severity: Severity::Error,
            summary: "powf/exp/ln in sim-crate code reachable from characterization \
                      entry points (call-graph traversal, slack.rs boundary); \
                      precompute via the slack table",
        }
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let entries: Vec<FnId> = ws
            .index
            .fns
            .iter()
            .filter(|s| !s.in_test_code && ENTRY_PREFIXES.iter().any(|p| s.name.starts_with(p)))
            .map(|s| s.id)
            .collect();
        let boundaries: BTreeSet<FnId> = ws
            .index
            .fns
            .iter()
            .filter(|s| s.path == BOUNDARY_PATH)
            .map(|s| s.id)
            .collect();
        let reachable = ws.graph.reachable_from(&entries, &boundaries);
        for &id in &reachable {
            let sym = ws.index.symbol(id);
            if sym.in_test_code || boundaries.contains(&id) {
                continue;
            }
            let Some(file) = ws.file(&sym.path) else {
                continue;
            };
            if !is_sim_crate(file) {
                continue;
            }
            for site in ws.graph.call_sites(id) {
                if !site.is_method
                    || !TRANSCENDENTAL_METHODS.contains(&site.callee_name.as_str())
                    || file.is_test_code(site.line)
                {
                    continue;
                }
                let witness = ws
                    .graph
                    .witness_path(&entries, &boundaries, id)
                    .map(|p| {
                        p.iter()
                            .map(|f| ws.index.symbol(*f).name.as_str())
                            .collect::<Vec<_>>()
                            .join(" -> ")
                    })
                    .unwrap_or_else(|| sym.name.clone());
                emit_ws(
                    ws,
                    self.meta(),
                    &sym.path,
                    site.line,
                    site.column,
                    format!(
                        "`.{}()` in `{}` is on a characterization hot path (reachable \
                         via {witness}); precompute the value in the slack table \
                         (crates/cpu/src/slack.rs) or hoist it out of the batch loop",
                        site.callee_name, sym.name
                    ),
                    out,
                );
            }
        }
    }
}
