#!/bin/sh
# Smoke test of the benchmark itself: the unit tests, then every workload at
# one rep and reduced counts with the traced rep, and every probe at one
# sample. Under 15 s once built. Exits non-zero if an output check fails.
set -eu
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- --smoke --trace --probes
