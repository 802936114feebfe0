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

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> pipeline bench smoke (plan cache + adaptive policy guards)"
cargo run --release -q -p bench --bin pipeline_bench -- \
    --iters 4 --out /tmp/BENCH_pipeline_smoke.json > /dev/null

echo "==> ppn sweep smoke (topology placement + shm traffic guards)"
# The bin asserts that blocked ppn>1 placement beats an all-remote
# round-robin control, sheds HCA traffic, and routes intra-node halos
# over the shm channel.
cargo run --release -q -p bench --bin ppn_sweep -- \
    --out /tmp/BENCH_ppn_smoke.json > /dev/null

echo "==> fault campaign smoke (retry/recovery byte-identical guard)"
cargo run --release -q -p bench --bin fault_campaign -- \
    --out /tmp/fault_campaign_smoke.json > /dev/null

echo "==> model checking smoke (exhaustive protocol pass + seeded-bug rediscovery)"
# The bin itself asserts that all protocol scenarios pass exhaustively
# within the smoke budget and that both reintroduced liveness bugs are
# found with minimized counterexamples.
cargo run --release -q -p bench --bin modelcheck -- \
    --smoke true --out /tmp/modelcheck_smoke.json > /dev/null
[[ -s /tmp/modelcheck_smoke.json ]] || { echo "empty modelcheck report"; exit 1; }

echo "==> trace report smoke (overlap/rdma-utilization guards + Chrome export)"
# The bin itself asserts the overlap factor, rdma-lane utilization and
# that the Chrome export parses back with >0 trace events.
cargo run --release -q -p bench --bin trace_report -- \
    --out /tmp/trace_report_smoke.json \
    --chrome /tmp/trace_smoke.chrome.json > /dev/null
[[ -s /tmp/trace_report_smoke.json ]] || { echo "empty trace report"; exit 1; }
[[ -s /tmp/trace_smoke.chrome.json ]] || { echo "empty chrome trace"; exit 1; }

echo "==> pipeline trace smoke (Figure 3 timeline vs the committed results/pipeline_trace.json)"
# Every field is virtual time, so any difference is drift: either the
# pipeline changed (regenerate the file and say why) or something broke.
cargo run --release -q -p bench --bin pipeline_trace -- --json \
    | diff - results/pipeline_trace.json > /dev/null \
    || { echo "results/pipeline_trace.json is stale"; exit 1; }

echo "==> rank scale smoke (event/thread carrier wake-trace cross-check)"
# The bin asserts an 8-rank halo3d run produces bit-identical scheduling
# grants, virtual times and checksums under the event-driven kernel and
# the legacy one-thread-per-rank carrier.
cargo run --release -q -p bench --bin rank_scale_sweep -- --smoke true

echo "==> collective sweep smoke (hier vs flat vs naive regression guards)"
# The bin itself asserts that at ppn >= 4 the hierarchical node-leader
# path beats both the flat single-level algorithms and the naive p2p-loop
# control on virtual time, and sheds HCA bytes onto the shm channel in
# proportion to the intra-node traffic it absorbs.
cargo run --release -q -p bench --bin coll_sweep -- \
    --smoke true --out /tmp/BENCH_coll_smoke.json > /dev/null
[[ -s /tmp/BENCH_coll_smoke.json ]] || { echo "empty coll sweep report"; exit 1; }

echo "==> offload sweep smoke (scheme ablation + crossover/fallback guards)"
# The bin asserts byte identity across staged/offload/auto on every
# layout, that the NIC offload engine beats the staged pipeline on the
# two-level strided layout at >= 256 KiB (crossover at or below it), and
# that the Auto policy on irregular layouts replays Force(Staged)
# event-for-event.
cargo run --release -q -p bench --bin offload_sweep -- \
    --iters 4 --out /tmp/BENCH_offload_smoke.json > /dev/null
[[ -s /tmp/BENCH_offload_smoke.json ]] || { echo "empty offload sweep report"; exit 1; }

echo "==> job mix smoke (multi-job QoS + host-cost shape guards)"
# The bin asserts the 4:1 HCA weight shift against a 1:1 control, the
# overload tail ordering, plan-cache / autotuner stability across three
# campaigns of a seeded 6-job mix, and that host time per job at 1024
# jobs is at most 2x that at 256.
cargo run --release -q -p bench --bin job_mix -- \
    --smoke true --out /tmp/BENCH_jobmix_smoke.json > /dev/null
[[ -s /tmp/BENCH_jobmix_smoke.json ]] || { echo "empty job mix report"; exit 1; }

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

echo "CI OK"
