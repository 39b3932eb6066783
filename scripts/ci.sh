#!/bin/sh
# Offline CI gate for the NEaT reproduction workspace.
#
# The workspace is hermetic by construction: every dependency is an
# in-tree path dependency (enforced by tests/hermetic.rs), so this
# script must pass on a bare checkout with no network access and no
# cargo registry cache. Any step that would touch the network is a bug.
#
# Usage:
#   scripts/ci.sh                 # every tier (the full gate)
#   scripts/ci.sh --tier1         # build + test + fmt + clippy only
#   scripts/ci.sh --tier2         # quick benches + regression gates
#                                 # (expects a tier-1 build already present)
#
# Every gate step runs through `run`, which checks the exit status
# explicitly. `set -e` alone is not enough: POSIX disables it inside any
# conditional context, so `sh scripts/ci.sh --tier1 && deploy` or a
# caller's `if scripts/ci.sh; then` would otherwise let a failing clippy
# or test step fall through to the next command instead of failing the
# gate.

set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAILED (exit $status): $*" >&2
        exit "$status"
    fi
}

TIER1=1
TIER2=1
case "${1:-}" in
    --tier1) TIER2=0 ;;
    --tier2) TIER1=0 ;;
    "") ;;
    *) echo "unknown argument: $1 (want --tier1 or --tier2)" >&2; exit 2 ;;
esac

# Tier 2 needs the release binaries; build them if a tier-1 build from
# this or a cached run isn't already present.
ensure_release_build() {
    if [ ! -x target/release/run_all ]; then
        run cargo build --release --offline
    fi
}

# Module-size guard: no deployed source file may grow past 1000 lines —
# the socket-monolith decomposition stays decomposed. Out-of-line test
# modules (`*_tests.rs`, `proptests.rs`) are exempt: they are not
# deployed code (fault.rs's component weighing cuts them off too).
module_size_guard() {
    oversized=$(find crates -path '*/src/*' -name '*.rs' \
        ! -name '*_tests.rs' ! -name 'proptests.rs' \
        -exec awk 'END { if (NR > 1000) print FILENAME ": " NR " lines" }' {} \;)
    if [ -n "$oversized" ]; then
        echo "MODULE SIZE FAILURE: source files over 1000 lines (split them" >&2
        echo "into owned-state components; move tests to *_tests.rs):" >&2
        echo "$oversized" >&2
        exit 1
    fi
}

if [ "$TIER1" = 1 ]; then
    echo "==> [tier1] module-size guard (deployed sources <= 1000 lines)"
    module_size_guard

    run cargo build --release --offline

    run cargo test -q --offline

    # Formatting is checked only when rustfmt is installed; minimal
    # toolchains without the rustfmt component still get a green gate.
    if cargo fmt --version >/dev/null 2>&1; then
        run cargo fmt --all -- --check
    else
        echo "==> [tier1] cargo fmt not available; skipping format check"
    fi

    # Lints are a hard gate when clippy is installed; toolchains without
    # the component skip it rather than failing spuriously.
    if cargo clippy --version >/dev/null 2>&1; then
        run cargo clippy --all-targets --offline -- -D warnings
    else
        echo "==> [tier1] cargo clippy not available; skipping lint gate"
    fi

    echo "==> tier1 passed"
fi

if [ "$TIER2" = 1 ]; then
    ensure_release_build

    # Performance-regression gate: run the deterministic quick bench
    # suite (which includes the 10k-client conn_scale smoke) and compare
    # headline metrics against the committed baselines.
    run ./target/release/run_all --quick

    run ./target/release/check_bench

    # Determinism gate: the quick conn_scale profile must be bit-stable —
    # same seed, same JSON, byte for byte. Catches nondeterminism leaking
    # into results (wall clock, map iteration order, uninitialised state).
    echo "==> [tier2] conn_scale + failover determinism gate (two runs, byte-identical)"
    for b in conn_scale failover; do
        cp "results/BENCH_$b.json" "results/.${b}_run1.json"
        run env NEAT_BENCH_QUICK=1 "./target/release/$b" --quick
        if ! cmp -s "results/.${b}_run1.json" "results/BENCH_$b.json"; then
            echo "DETERMINISM FAILURE: two fixed-seed $b runs differ:" >&2
            diff "results/.${b}_run1.json" "results/BENCH_$b.json" >&2 || true
            exit 1
        fi
        rm -f "results/.${b}_run1.json"
    done
    echo "==> determinism gate passed"

    echo "==> tier2 passed"
fi

echo "==> CI gate passed"
