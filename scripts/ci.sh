#!/usr/bin/env bash
# CI gate: formatting, lints, build, and the full test suite.
#
# Everything runs offline — the workspace has no external dependencies.
# Usage: scripts/ci.sh [--release-only]

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" != "--release-only" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> code size (scripts/loc.sh fails if it counts a #[test] line as code)"
scripts/loc.sh | tail -n 1

echo "==> one binary (crates/bench/src/main.rs is the only fn main under crates/*/src)"
mains=$(grep -rl "fn main" crates/*/src)
[[ $mains == crates/bench/src/main.rs ]] || { echo "fn main in: $mains"; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test --release -p ib-sim -p gpu-sim -p sim-core, and the host and device footprint checks (overflow checks are off: bounds must hold by checked arithmetic)"
# The fabric's bounds checks, the device's pitched extents and SIM_STACK_KB's
# size each once wrapped in release and panicked in debug, and sim-core holds
# the unsafe context switch, whose default stack differs by profile (1024 KiB
# debug, 256 KiB release); the workspace tests above run in debug only.
cargo test --release -q -p ib-sim -p gpu-sim -p sim-core
# A post whose datatype footprint overflows wrapped to a small message in
# release and passed the host bounds check; it must be refused there too,
# and so must the same post from a device buffer, which has no host extent
# to check.
cargo test --release -q -p mpi-sim an_overflowing_footprint_is_refused_in_every_profile
cargo test --release -q -p mv2-gpu-nc an_overflowing_device_footprint_is_refused_in_every_profile

echo "==> experiments (release): smoke plans + the committed grids too slow for a debug build"
# Every experiment's guards run on every invocation. `cargo test` above has
# already regenerated and compared each tier1-policed results/ file in a
# debug build (tests/baselines.rs); here each experiment that has a --smoke
# plan runs it (rank_scale_sweep's is the Event == Threads wake-trace
# cross-check), and each ci-policed grid is regenerated at its defaults and
# compared with its committed file member by member, host-clock members
# excepted. A guard panic, a failed verdict or a mismatch fails the script.
bench() { cargo run --release -q -p bench -- "$@" < /dev/null; }
experiments=$(bench list)
while read -r name policed_by _file flags; do
    if [[ $flags == *--smoke* ]]; then
        echo "    $name --smoke"
        bench "$name" --smoke > /dev/null
    fi
    if [[ $policed_by == ci ]]; then
        echo "    check $name"
        bench check "$name"
    fi
done <<< "$experiments"

echo "==> perfbench smoke (benchmark/ compiles against the workspace; unit tests + every workload)"
# benchmark/ is its own package outside the workspace, pinned to this
# tree's public API: a break of that surface fails here, not in the
# benchmark pipeline.
benchmark/smoke.sh > /dev/null

echo "==> perfbench RSS vs reps (a finished world must be freed)"
# peak_rss_mb must not depend on how many reps a run makes: the driver
# measures for a fixed --seconds window, so a leak per rep turns any
# speed-up into more reps and reads as a memory regression (PR 16 was
# refused for exactly that: jobmix_1024 leaked ~3.3 MB per rep, 87 MB at
# 3 reps against ~107 MB at 9).
rss() {
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
        --workload jobmix_1024 --reps "$1" --trace 0 \
        | tail -n 1 | sed 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/'
}
awk -v a="$(rss 3)" -v b="$(rss 9)" 'BEGIN {
    d = (b - a) / a; if (d < 0) d = -d
    printf "    peak_rss_mb: %s at 3 reps, %s at 9\n", a, b
    exit !(a > 0 && d <= 0.05)
}' || { echo "jobmix_1024 peak_rss_mb depends on the rep count"; exit 1; }

echo "==> results/ untouched"
# Nothing above may write into results/: an experiment writes only where
# --out points.
git diff --quiet results/ || { git status --short results/; exit 1; }

echo "CI OK"
