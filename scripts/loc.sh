#!/usr/bin/env bash
# Code size by the rule CHANGES.md quotes: per .rs file, the lines before the
# first `#[cfg(test)]` that are neither blank nor `//` comments (doc comments
# count as comments). Prints one row per file and a total. A `tests.rs` is an
# out-of-line `#[cfg(test)] mod tests;` — test code with no marker of its own
# — and is skipped; should test code under a `src/` directory get counted some
# other way, a counted `#[test]` line there makes the script fail. Files
# elsewhere (`tests/`, `examples/`) are test or example code by location and
# are counted by the same rule, `#[test]` lines included.
# Usage: scripts/loc.sh [files or directories...]   (default: crates/*/src)
set -euo pipefail
[[ $# -gt 0 ]] || { cd "$(dirname "$0")/.."; set -- crates/*/src; }
find "$@" -name '*.rs' ! -name tests.rs | sort | xargs awk '
    FNR == 1 { in_tests = 0; files[++nfiles] = FILENAME }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*($|\/\/)/ { n[FILENAME]++; total++ }
    !in_tests && FILENAME ~ /(^|\/)src\// && /^[[:space:]]*#\[test\]/ { bad[FILENAME]++; nbad++ }
    END {
        for (i = 1; i <= nfiles; i++) printf "%6d %s\n", n[files[i]], files[i]
        printf "%6d total\n", total
        for (f in bad) printf "%s: %d #[test] lines counted as code\n", f, bad[f] > "/dev/stderr"
        exit nbad > 0
    }'
