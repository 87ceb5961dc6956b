#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Announces a stage; from the second on, first says how long the last took.
stage() {
    if [ -n "${stage_started:-}" ]; then
        echo "    ($((SECONDS - stage_started)) s)"
    fi
    stage_started=$SECONDS
    echo "==> $*"
}

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo test (every suite and 110-seed matrix in the workspace)"
cargo test --workspace -q

stage "benchmark crate (its own workspace: builds against engines/simcluster/core, smoke-runs all four workloads)"
cargo test --offline --manifest-path perf/Cargo.toml -q

stage "data-plane small-budget smoke (spill-to-disk, byte-identical)"
cargo run -p pado-bench --release --bin dataplane -- --smoke --mem-budget auto >/dev/null

stage "threaded soak (10 rounds of chaos against fault-free sim baseline)"
cargo test -p pado-core --test backend_equivalence -q -- --ignored

stage "data-plane smoke on the threaded backend (byte-identity vs sim)"
cargo run -p pado-bench --release --bin dataplane -- --smoke --backend threaded >/dev/null

stage "production lines, crates/core/src/runtime"
scripts/loc.sh crates/core/src/runtime

stage "production-line ceilings (scripts/loc.budget)"
over=0
while read -r path ceiling; do
    case "$path" in '' | '#'*) continue ;; esac
    if [ "$path" = all ]; then set --; else set -- "$path"; fi
    lines=$(scripts/loc.sh "$@" | awk 'END { print $1 }')
    if [ "$lines" -gt "$ceiling" ]; then
        echo "  $path: $lines lines, over its ceiling of $ceiling" >&2
        over=1
    else
        echo "  $path: $lines <= $ceiling"
    fi
done <scripts/loc.budget
[ "$over" -eq 0 ]

stage "done in $SECONDS s: all checks passed."
