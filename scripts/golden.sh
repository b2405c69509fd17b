#!/usr/bin/env bash
# Golden-output gate for the Plug Your Volt reproduction.
#
#   scripts/golden.sh update   regenerate results/ from the current code
#                              and rewrite results/golden.manifest
#   scripts/golden.sh check    regenerate into a temp dir and fail if any
#                              output drifts from the pinned manifest
#
# The manifest pins a SHA-256 per artifact: every repro table/figure,
# the machine-readable figure JSON, the default-size soak report, the
# soak fuzzer's reproducer corpus, and the MSR-transcript trace fixture. `check` re-runs
# everything, so a code change that moves any number fails CI until the
# author re-runs `update` and commits the new outputs — drift is always
# a reviewed diff, never an accident.
#
# Both modes print each artifact's regeneration wall time in ms to
# stderr, then the whole regeneration's as "golden: total N ms"; the
# outputs themselves are unaffected.
set -euo pipefail
cd "$(dirname "$0")/.."

MANIFEST=results/golden.manifest
REPRO=./target/release/repro
CLI=./target/release/plugvolt-cli

sha() {
    if command -v sha256sum >/dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

# Milliseconds since the epoch (bash 5's EPOCHREALTIME, else date).
now_ms() {
    if [ -n "${EPOCHREALTIME:-}" ]; then
        local t=${EPOCHREALTIME/[.,]/}
        echo $((t / 1000))
    else
        echo $(($(date +%s%N) / 1000000))
    fi
}

# Runs "$@" (its stdout is the caller's) and prints the wall time of
# the artifact named $1 to stderr, so the CI log carries the end-to-end
# cost of every experiment the manifest pins.
timed() {
    local name="$1" t0
    shift
    t0=$(now_ms)
    "$@"
    printf 'golden: %-28s %6d ms\n' "$name" "$(($(now_ms) - t0))" >&2
}

# Regenerates every golden artifact into the directory given as $1
# (results layout: <dir>/*.txt, <dir>/*.json, <dir>/fuzz-corpus/*.json)
# and prints the total wall time to stderr.
regenerate() {
    local out="$1" t0
    t0=$(now_ms)
    mkdir -p "$out"
    timed table1.txt "$REPRO" table1 > "$out/table1.txt"
    timed fig1.txt "$REPRO" fig1 > "$out/fig1.txt"
    local fig
    for fig in fig2 fig3 fig4; do
        timed "$fig.txt" "$REPRO" --full "$fig" > "$out/$fig.txt"
        timed "$fig.json" "$REPRO" --full --json "$fig" > "$out/$fig.json"
    done
    timed table2.txt "$REPRO" --full table2 > "$out/table2.txt"
    local name
    for name in defense levels stepping interval planes energy units attest; do
        timed "$name.txt" "$REPRO" "$name" > "$out/$name.txt"
    done
    # The soak self-test writes its weakened-poller reproducer into the
    # corpus; replaying the committed corpus is part of the smoke gate.
    timed fuzz-corpus "$CLI" soak --smoke --corpus "$out/fuzz-corpus" \
        --out "$out/.soak-report.json" > /dev/null
    rm -f "$out/.soak-report.json"
    # The default-size soak report (40 campaigns + the self-test, no
    # corpus): the run the benchmark times, pinned so a change to the
    # exposure sampler cannot move a verdict or a figure unseen.
    timed soak.json "$CLI" soak --workers 1 --out "$out/soak.json"
    # The MSR-transcript fixture: the deterministic fixture campaign
    # recorded through the HAL tracing backend, pinned byte-for-byte.
    # ci.sh checks this exact file by recording its campaign again.
    mkdir -p "$out/traces"
    timed traces/fixture.trace.jsonl "$CLI" soak --record "$out/traces/fixture.trace.jsonl"
    printf 'golden: total %d ms\n' "$(($(now_ms) - t0))" >&2
}

# Emits "sha256  relative-path" lines for every artifact under $1,
# sorted by path so the manifest is stable.
manifest_of() {
    local dir="$1" f
    (
        cd "$dir"
        find . -type f \( -name '*.txt' -o -name '*.json' -o -name '*.jsonl' \) ! -name '.*' \
            | sed 's|^\./||' | LC_ALL=C sort
    ) | while read -r f; do
        printf '%s  %s\n' "$(sha "$dir/$f")" "$f"
    done
}

case "${1:-}" in
    update)
        regenerate results
        manifest_of results > "$MANIFEST"
        echo "pinned $(wc -l < "$MANIFEST" | tr -d ' ') artifacts into $MANIFEST"
        ;;
    check)
        [ -f "$MANIFEST" ] || { echo "missing $MANIFEST — run 'scripts/golden.sh update'" >&2; exit 1; }
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        # Seed the regeneration corpus with the committed reproducers so
        # the corpus-replay expectations are themselves re-checked.
        if [ -d results/fuzz-corpus ]; then
            mkdir -p "$tmp/fuzz-corpus"
            cp results/fuzz-corpus/*.json "$tmp/fuzz-corpus/" 2>/dev/null || true
        fi
        regenerate "$tmp"
        if ! diff -u "$MANIFEST" <(manifest_of "$tmp"); then
            echo >&2
            echo "golden outputs drifted from $MANIFEST." >&2
            echo "If the change is intended: scripts/golden.sh update && git add results/" >&2
            exit 1
        fi
        # The committed files must match the manifest too (catches a
        # hand-edited results/ file with a stale manifest).
        if ! diff -u "$MANIFEST" <(manifest_of results); then
            echo >&2
            echo "committed results/ files disagree with $MANIFEST." >&2
            exit 1
        fi
        echo "golden outputs match ($(wc -l < "$MANIFEST" | tr -d ' ') artifacts)"
        ;;
    *)
        echo "usage: scripts/golden.sh <update|check>" >&2
        exit 2
        ;;
esac
