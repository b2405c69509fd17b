//! Proves each workspace rule fires on a seeded-violation fixture and
//! that the sanctioned patterns stay clean.
//!
//! Single-file fixtures go through `scan_str` (which builds a one-file
//! workspace); the telemetry-registry rule needs two files, so its
//! fixtures are embedded and fed to `scan_strs`.

use plugvolt_analysis::{scan_str, scan_strs, Finding, Severity, SourceFile, Workspace};

fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn seed_label_uniqueness_fires_on_duplicates_only() {
    let findings = scan_str(
        "crates/des/src/fixture.rs",
        include_str!("fixtures/seed_label_uniqueness.rs"),
    );
    assert_eq!(rules_hit(&findings), ["seed-label-uniqueness"]);
    // Both sites of the duplicated label are flagged; the unique label,
    // the computed label, and the test-code use are not.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("\"attack-stream\"")));
}

#[test]
fn parallel_merge_determinism_flags_all_three_shapes() {
    let findings = scan_str(
        "crates/des/src/fixture.rs",
        include_str!("fixtures/parallel_merge_determinism.rs"),
    );
    assert_eq!(rules_hit(&findings), ["parallel-merge-determinism"]);
    // One lock-guarded push, one discarded fetch_add, one captured
    // `&mut` — all in `bad_merge`; the index-addressed `good_merge`
    // pattern stays clean.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("lock guard")));
    assert!(findings.iter().any(|f| f.message.contains("fetch_add")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("&mut grand_total")));
}

#[test]
fn parallel_merge_determinism_is_scoped_to_sim_and_bench_crates() {
    // The same source in the analysis crate itself (host-side tooling)
    // is out of scope.
    let findings = scan_str(
        "crates/analysis/src/fixture.rs",
        include_str!("fixtures/parallel_merge_determinism.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unused_suppression_flags_rot_and_unknown_rules() {
    let findings = scan_str(
        "crates/kernel/src/fixture.rs",
        include_str!("fixtures/unused_suppression.rs"),
    );
    assert_eq!(rules_hit(&findings), ["unused-suppression"]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("unknown rule `not-a-real-rule`")));
    // The two suppressions that silence real `no-wall-clock` findings
    // are used, hence absent here.
}

#[test]
fn telemetry_key_registry_checks_both_directions() {
    let emitter = r#"
pub fn record(sink: &Sink) {
    sink.incr(MetricKey::global("cpu", "crashes"));
    sink.incr(MetricKey::global("cpu", "typo_key"));
}
"#;
    let registry = r#"
const fn key(component: &'static str, name: &'static str, doc: &'static str) -> KeyDecl {
    KeyDecl { component, name, doc }
}
pub const KEYS: &[KeyDecl] = &[
    key("cpu", "crashes", "crash count"),
    key("cpu", "crashes", "registered twice"),
    key("cpu", "stale_key", "never emitted"),
];
"#;
    let result = scan_strs(&[
        ("crates/cpu/src/fixture.rs", emitter),
        ("crates/telemetry/src/keys.rs", registry),
    ]);
    let findings = result.findings;
    assert_eq!(rules_hit(&findings), ["telemetry-key-registry"]);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`cpu/typo_key`") && f.message.contains("not declared")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`cpu/crashes`") && f.message.contains("more than once")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`cpu/stale_key`") && f.message.contains("never emitted")));
}

#[test]
fn telemetry_span_registry_checks_both_directions() {
    let emitter = r#"
pub fn instrument(tracer: &Tracer) {
    let _g = tracer.span("characterize/point");
    tracer.record_span("typo/span", 0);
    let label = dynamic_label();
    tracer.record_span(label, 1);
}
"#;
    let registry = r#"
const fn span(label: &'static str, doc: &'static str) -> SpanDecl {
    SpanDecl { label, doc }
}
pub const REGISTERED_SPANS: &[SpanDecl] = &[
    span("characterize/point", "one grid point"),
    span("characterize/point", "registered twice"),
    span("stale/span", "never emitted"),
];
"#;
    let result = scan_strs(&[
        ("crates/core/src/fixture.rs", emitter),
        ("crates/telemetry/src/keys.rs", registry),
    ]);
    let findings = result.findings;
    assert_eq!(rules_hit(&findings), ["telemetry-key-registry"]);
    // The computed-label relay contributes nothing; the typo'd label,
    // the duplicate entry and the stale entry are each one finding.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`typo/span`") && f.message.contains("not declared")));
    assert!(findings.iter().any(
        |f| f.message.contains("`characterize/point`") && f.message.contains("more than once")
    ));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`stale/span`") && f.message.contains("never emitted")));
}

#[test]
fn telemetry_rule_reports_missing_registry_for_spans() {
    let findings = scan_str(
        "crates/core/src/fixture.rs",
        "pub fn f(t: &Tracer) {\n    t.record_span(\"poll/iteration\", 0);\n}\n",
    );
    assert_eq!(rules_hit(&findings), ["telemetry-key-registry"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("no telemetry key registry"));
    assert!(findings[0].message.contains("`poll/iteration`"));
}

#[test]
fn telemetry_rule_reports_missing_registry() {
    let findings = scan_str(
        "crates/cpu/src/fixture.rs",
        "pub fn record(sink: &Sink) {\n    sink.incr(MetricKey::global(\"cpu\", \"crashes\"));\n}\n",
    );
    assert_eq!(rules_hit(&findings), ["telemetry-key-registry"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("no telemetry key registry"));
}

#[test]
fn hot_path_reachability_walks_the_call_graph() {
    let src = r#"
pub fn characterize_sweep(x: f64) -> f64 {
    stage_one(x)
}
fn stage_one(x: f64) -> f64 {
    stage_two(x) + 1.0
}
fn stage_two(x: f64) -> f64 {
    x.powf(3.0)
}
fn unreached(x: f64) -> f64 {
    x.exp()
}
"#;
    let findings = scan_str("crates/circuit/src/fixture.rs", src);
    assert_eq!(rules_hit(&findings), ["hot-path-transcendentals"]);
    // `stage_two` is two calls below the entry point; `unreached` is not
    // flagged.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0]
        .message
        .contains("characterize_sweep -> stage_one -> stage_two"));
}

#[test]
fn hot_path_reachability_is_rooted_at_the_sweep_column() {
    // The per-column sweep loop is an entry point in its own right: a
    // transcendental reachable only from `sweep_column` is flagged.
    let src = r#"
pub fn sweep_column(x: f64) -> f64 {
    test_point(x)
}
fn test_point(x: f64) -> f64 {
    x.powf(2.0)
}
"#;
    let findings = scan_str("crates/core/src/fixture.rs", src);
    assert_eq!(rules_hit(&findings), ["hot-path-transcendentals"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("sweep_column -> test_point"));
}

#[test]
fn msr_direct_access_names_the_enclosing_fn() {
    let src = r#"
pub fn drain(machine: &mut Machine) -> u64 {
    machine.cpu().rdmsr(machine.now(), CoreId(0), Msr::PKG_ENERGY_STATUS)
}
"#;
    let findings = scan_str("crates/attacks/src/fixture.rs", src);
    assert_eq!(rules_hit(&findings), ["msr-write-discipline"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("in `drain`"));
    // The same call in a blessed layer is the sanctioned wrapper itself.
    let blessed = scan_str("crates/kernel/src/fixture.rs", src);
    assert!(blessed.is_empty(), "{blessed:?}");
}

#[test]
fn msr_seam_flags_substrate_conjuring_outside_blessed_layers() {
    // The HAL-seam shape of rule 4: `MsrFile::`/`CpuPackage::` paths in
    // lib code outside hal/msr/kernel/cpu conjure a raw substrate the
    // backend cannot see.
    let src = r#"
pub fn sneaky() -> CpuPackage {
    let _file = MsrFile::new();
    CpuPackage::new(CpuModel::CometLake, 7)
}
"#;
    let findings = scan_str("crates/attacks/src/fixture.rs", src);
    assert_eq!(rules_hit(&findings), ["msr-write-discipline"]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("HAL seam")));
    // The HAL crate is the seam — it is blessed.
    let hal = scan_str("crates/hal/src/fixture.rs", src);
    assert!(hal.is_empty(), "{hal:?}");
    // Benchmarks measure the raw substrate on purpose.
    let bench = scan_str("crates/bench/benches/fixture.rs", src);
    assert!(bench.is_empty(), "{bench:?}");
}

#[test]
fn msr_write_discipline_reports_literal_and_call_bypasses_together() {
    // One fixture with two bypass shapes of rule 4: a raw literal and a
    // call-shaped package access. Both surface under the one rule id.
    let src = r#"
pub fn poke(machine: &mut Machine) {
    let addr = 0x150;
    machine.cpu().wrmsr(CoreId(0), addr, 0);
}
"#;
    let findings = scan_str("crates/attacks/src/fixture.rs", src);
    let msr: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "msr-write-discipline")
        .collect();
    assert_eq!(msr.len(), 2, "{findings:?}");
    assert!(msr.iter().any(|f| f.message.contains("raw MSR literal")));
    assert!(msr
        .iter()
        .any(|f| f.message.contains("direct package MSR access")));
}

#[test]
fn msr_literals_match_whole_tokens_only() {
    // `0x1500` is a different literal; only the standalone `0x150` hits.
    let findings = scan_str(
        "crates/cpu/src/fixture.rs",
        "let a = 0x1500; let b = 0x150;\n",
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].line, findings[0].column), (1, 25));
    assert!(findings[0].message.contains("raw MSR literal `0x150`"));
}

fn hot_path_lines(path: &str, src: &str) -> Vec<usize> {
    scan_str(path, src)
        .iter()
        .filter(|f| f.rule == "hot-path-transcendentals")
        .map(|f| f.line)
        .collect()
}

#[test]
fn hot_path_transcendentals_flags_hot_fn_bodies() {
    // `run_batch*`/`poll*` are entry points themselves; `build_table` is
    // neither an entry point nor reached from one.
    let src = "pub fn run_batch(v: f64) -> f64 {\n    v.powf(2.0)\n}\n\
               pub fn build_table(v: f64) -> f64 {\n    v.powf(2.0)\n}\n\
               pub fn poll_core(p: f64) -> f64 {\n    (-p).exp()\n}\n";
    assert_eq!(hot_path_lines("crates/cpu/src/package.rs", src), [2, 8]);
}

#[test]
fn hot_path_transcendentals_exempts_table_build_and_non_sim() {
    let src = "pub fn run_imul_loop(v: f64) -> f64 {\n    v.exp()\n}\n";
    assert_eq!(hot_path_lines("crates/cpu/src/package.rs", src), [2]);
    // The table-build module is the sanctioned analytic site.
    assert!(hot_path_lines("crates/cpu/src/slack.rs", src).is_empty());
    // Non-simulation crates are out of scope.
    assert!(hot_path_lines("crates/bench/src/perf.rs", src).is_empty());
    // Bare identifiers named `exp`/`ln` are not method calls.
    let src = "pub fn poll_once(exp: f64, ln: f64) -> f64 {\n    exp + ln\n}\n";
    assert!(hot_path_lines("crates/core/src/poll.rs", src).is_empty());
}

#[test]
fn hot_path_transcendentals_handles_inline_impl_braces() {
    // The method opens on the impl block's line; only its body is hot.
    let src = "impl Foo { fn run_batch(&self) {\n    self.v.powf(2.0);\n} }\n\
               fn outside(v: f64) -> f64 { v.powf(2.0) }\n";
    assert_eq!(hot_path_lines("crates/cpu/src/x.rs", src), [2]);
}

#[test]
fn reachability_respects_the_slack_boundary() {
    // The boundary module itself is reachable, but traversal does not
    // expand through it: a transcendental *behind* slack.rs is the
    // sanctioned table build.
    let entry = "pub fn characterize_grid() {\n    build_table();\n}\n";
    let slack = "pub fn build_table() {\n    analytic();\n}\nfn analytic() {\n    let _ = (2.0_f64).powf(3.0);\n}\n";
    let result = scan_strs(&[
        ("crates/cpu/src/fixture.rs", entry),
        ("crates/cpu/src/slack.rs", slack),
    ]);
    assert!(result.findings.is_empty(), "{:?}", result.findings);

    // Structural check on the same mini-workspace via the public API.
    let files = vec![
        SourceFile::new("crates/cpu/src/fixture.rs", entry),
        SourceFile::new("crates/cpu/src/slack.rs", slack),
    ];
    let ws = Workspace::build(files);
    let entries: Vec<_> = ws
        .index
        .fns
        .iter()
        .filter(|s| s.name.starts_with("characterize"))
        .map(|s| s.id)
        .collect();
    let boundaries = ws
        .index
        .fns
        .iter()
        .filter(|s| s.path == "crates/cpu/src/slack.rs")
        .map(|s| s.id)
        .collect();
    let reachable = ws.graph.reachable_from(&entries, &boundaries);
    let names: Vec<&str> = reachable
        .iter()
        .map(|id| ws.index.symbol(*id).name.as_str())
        .collect();
    assert!(names.contains(&"characterize_grid"));
    assert!(names.contains(&"build_table"), "boundary fn is reachable");
    assert!(
        !names.contains(&"analytic"),
        "traversal must not expand through the boundary: {names:?}"
    );
}
