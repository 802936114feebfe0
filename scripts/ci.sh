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

echo "==> one binary (crates/bench/src/main.rs is the only fn main under crates/)"
mains=$(grep -rl "fn main" crates)
[[ $mains == crates/bench/src/main.rs ]] || { echo "fn main in: $mains"; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test --release -p ib-sim -p gpu-sim -p sim-core -p hostmem -p mpi-sim, and the device footprint check (overflow checks are off: bounds must hold by checked arithmetic)"
# The fabric's bounds checks, the device's pitched extents, the host's
# strided extents and SIM_STACK_KB's size each once wrapped in release and
# panicked in debug, a host range must be refused before the stored prefix
# is extended to its end, the pack cursors compute the vbuf-side extents of
# their pitched copies, and sim-core holds the unsafe context switch, whose
# default stack differs by profile (1024 KiB debug, 256 KiB release); the
# workspace tests above run in debug only.
cargo test --release -q -p ib-sim -p gpu-sim -p sim-core -p hostmem -p mpi-sim
# A post whose datatype footprint overflows wrapped to a small message in
# release and passed the host bounds check (mpi-sim's
# an_overflowing_footprint_is_refused_in_every_profile, run above); the same
# post from a device buffer, which has no host extent to check, must be
# refused there too.
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

echo "==> perfbench RSS vs reps (a finished world is freed, host memory is paid per byte written)"
# peak_rss_mb must not depend on how many reps a run makes: the driver
# measures for a fixed --seconds window, so memory that grows with the rep
# count turns any speed-up into more reps and reads as a memory regression.
# jobmix_1024 catches a leaked world (a world once leaked ~3.3 MB per rep:
# 87 MB at 3 reps against ~107 MB at 9). coll_256 catches
# buffers backed beyond what was written: the allocator hands a later rep's
# pool the pages an earlier rep touched (284 MB at 1 rep against 346 MB at
# 3 while every 256 KiB vbuf was fully backed).
rss() {
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --reps "$2" --trace 0 \
        | tail -n 1 | sed 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/'
}
same_rss() {
    awk -v w="$1" -v r="$2" -v s="$3" -v a="$(rss "$1" "$2")" -v b="$(rss "$1" "$3")" 'BEGIN {
        d = (b - a) / a; if (d < 0) d = -d
        printf "    %s peak_rss_mb: %s at %s reps, %s at %s\n", w, a, r, b, s
        exit !(a > 0 && d <= 0.05)
    }' || { echo "$1 peak_rss_mb depends on the rep count"; exit 1; }
}
same_rss jobmix_1024 3 9
same_rss coll_256 1 3

echo "==> results/ untouched"
# Nothing above may write into results/: an experiment writes only where
# --out points.
git diff --quiet results/ || { git status --short results/; exit 1; }

echo "CI OK"
