#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   perf/run.sh [--seed N] [--trace]        every workload, one child process each
#   perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                           one workload; what BENCHMARK.json's command runs
#
# The last line each workload prints is its result as one JSON object.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-perf/target}/release/pado-perf" "$@"
