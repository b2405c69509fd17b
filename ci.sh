#!/usr/bin/env bash
# Local CI for the Plug Your Volt reproduction. Entirely offline: every
# dependency is an in-tree path crate (see shims/), so this runs with no
# registry access. The GitHub workflow (.github/workflows/ci.yml) runs
# exactly this script — keep every gate here so CI and a developer's
# pre-push check can never disagree.
#
#   1. formatting          cargo fmt --check
#   2. static analysis     plugvolt-lint --workspace, SARIF; zero
#                          unsuppressed error findings
#   3. lint-wall coverage  every workspace member opts into [workspace.lints]
#   4. hygiene             no build artifacts tracked by git
#   5. build               cargo build --release (whole workspace)
#   6. host probe          cargo build --release -p plugvolt-hal, then
#                          plugvolt-cli soak --backend host once
#   7. rustdoc             cargo doc --no-deps --workspace, warnings denied
#   8. tests               cargo test -q (tier-1 suite + all members)
#   9. perfbench self-test cargo test on perfbench/ (the registered
#                          benchmark's rebuilt entry points == library)
#  10. attribution smoke   plugvolt-cli bench --smoke + Chrome trace
#  11. soak gate           plugvolt-cli soak --smoke + corpus replay
#  12. trace replay gate   committed MSR transcript's campaign recorded
#                          again and compared event for event (tape-clean
#                          + oracles + sim-differential byte identity:
#                          every poll tick fired vs quiet ticks folded)
#  13. golden gate         results/ regenerate bit-for-bit vs golden.manifest
set -euo pipefail
cd "$(dirname "$0")"

# Each step prints how long the previous one took, so a CI log doubles
# as a coarse per-stage timing profile.
ci_started=$SECONDS
step_started=$SECONDS
step() {
    printf '\n==> %s (previous step: %ds)\n' "$1" "$((SECONDS - step_started))"
    step_started=$SECONDS
}

step "cargo fmt --check"
cargo fmt --all --check

step "plugvolt-lint --workspace (SARIF)"
# Whole-workspace scan: every .rs file in the tree (crates/telemetry
# included; the scan walks the file tree, not the cargo member list),
# the symbol index, the call graph and the cross-file rules, reported
# as SARIF 2.1.0. The exit status is the gate: any unsuppressed
# error-severity finding fails. An accepted finding carries
# `// plugvolt-lint: allow(<rule>) <why>`; a suppression that no longer
# silences anything is itself an error (unused-suppression), so accepted
# findings only shrink. The SARIF log lands in target/plugvolt-lint.sarif
# and is uploaded as a CI artifact.
mkdir -p target
cargo run -q -p plugvolt-analysis --bin plugvolt-lint -- --workspace \
    --format sarif > target/plugvolt-lint.sarif

step "every member opts into workspace lints"
# Portable replacement for the old GNU-only `grep -Pzq` probe, and it
# covers the whole workspace instead of one crate: the lint wall
# ([workspace.lints]: forbid unsafe_code, deny unused_must_use) only
# applies to members that carry `[lints] workspace = true`.
cargo run -q -p plugvolt-analysis --bin plugvolt-lint -- --check-workspace-lints

step "no build artifacts in git"
# target/ was purged from the index once; keep it out forever.
tracked=$(git ls-files target/ | wc -l)
if [ "$tracked" -ne 0 ]; then
    echo "git tracks $tracked file(s) under target/ — run 'git rm -r --cached target/'" >&2
    exit 1
fi

step "cargo build --release"
cargo build --release --workspace

step "host backend builds (plugvolt-hal)"
# The read-only Linux host probe (/dev/cpu/*/msr + sysfs cpufreq) is
# compile-gated on target_os = "linux"; build the HAL crate explicitly
# so a cfg regression can never hide behind the workspace build, and so
# the gate is self-describing in the CI log.
cargo build --release -p plugvolt-hal
# Then run the probe once. It only reads /dev/cpu/*/msr and sysfs, so it
# needs no root: unreadable cores are reported, not fatal. It must exit
# 0 and print a fractional period exactly as given.
host_probe=$(./target/release/plugvolt-cli soak --backend host --reads 1 --period-us 0.4)
printf '%s\n' "$host_probe"
if ! grep -qF 'period 0.4 us' <<<"$host_probe"; then
    echo "host probe output lacks 'period 0.4 us'" >&2
    exit 1
fi

step "cargo doc --no-deps --workspace (warnings denied)"
# A broken intra-doc link (say, to an item a deletion removed, or from
# public docs to a private item) fails here instead of rotting quietly.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "cargo test -q"
cargo test -q --workspace

step "perfbench self-tests"
# perfbench/ is the registered absolute-time benchmark (BENCHMARK.json)
# and a separate cargo workspace, so the workspace test stage never
# builds it. Its self-tests rebuild each measured entry point from the
# public API and assert it equals the library, so an API change that
# would break the benchmark fails here. Timing regressions are gated
# by BENCHMARK.json's bounds, not by this stage.
cargo test --offline --release --manifest-path perfbench/Cargo.toml

step "plugvolt-cli bench --smoke"
# Span-tracer attribution pass over a coarse characterize-grid run:
# prints the per-subsystem hot-path table (the DESIGN.md §5e evidence)
# and exports the Chrome trace-event JSON, which the workflow uploads
# as an artifact so any CI run's hot paths can be opened in Perfetto.
./target/release/plugvolt-cli bench --smoke \
    --trace-out target/bench-smoke.trace.json

step "plugvolt-cli soak --smoke"
# Randomized attack campaigns vs all four deployment levels, judged by
# the three soak oracles (zero faults under §5 deployments, bounded
# exposure under polling, none-vs-polling non-interference), after
# replaying every pinned reproducer in results/fuzz-corpus/. Exits
# nonzero on any oracle violation or corpus regression; the run's own
# self-test (deliberately weakened poller) guards against the harness
# rotting into a rubber stamp.
./target/release/plugvolt-cli soak --smoke --corpus results/fuzz-corpus \
    --out target/soak-report.json

step "plugvolt-cli soak --backend replay (trace fixture)"
# Records the committed MSR transcript's campaign again across all four
# deployment levels and compares each section with the committed one.
# Fails on any tape divergence, overrun or leftover, on any soak-oracle
# violation, and unless the re-recorded run's telemetry profiles and
# poll stats are byte-identical to a plain sim run — the differential
# proof that the sim and recording backends sit behind one seam with no
# behavioral drift. The recording backend refuses every fold, so the
# differential also compares a run that fires every poll tick with a
# plain sim run that folds its quiet ones.
./target/release/plugvolt-cli soak --backend replay \
    --trace results/traces/fixture.trace.jsonl

step "golden results match"
# Regenerates every results/ artifact into a temp dir and diffs the
# SHA-256 manifest; any drift in any pinned number fails the build.
# Intended drift: scripts/golden.sh update && git add results/
scripts/golden.sh check

step "all green"
printf 'total: %ds\n' "$((SECONDS - ci_started))"
