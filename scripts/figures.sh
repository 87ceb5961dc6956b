#!/usr/bin/env bash
# Every figure binary at one repeat, timed; with a parent checkout, also a
# byte-for-byte check of each binary's CSV blocks against the parent's.
# Usage: scripts/figures.sh [parent-checkout]
#
# Builds `pado-bench` in release mode in each checkout, runs fig5–fig9,
# ablations and ext_lifetime_aware with PADO_BENCH_REPEATS=1, and prints one
# line per binary: its wall seconds (the parent's first, when given) and,
# with a parent, `same` or `DIFF`. A `# CSV <name>` block is the lines from
# its marker to the next blank line. Exits 1 when any block differs.
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="${1:+$(cd "$1" && pwd)}"
bins=(fig5_als fig6_mlr fig7_mr fig8_reserved_sweep fig9_scalability ablations ext_lifetime_aware)
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Builds and runs every binary in one checkout; the checkouts run one after
# the other, so a shared CARGO_TARGET_DIR holds one build at a time.
run_all() { # side checkout
    (cd "$2" && cargo build --release -q -p pado-bench --bins)
    local target="${CARGO_TARGET_DIR:-$2/target}"
    for bin in "${bins[@]}"; do
        local start end
        start=$(date +%s.%N)
        PADO_BENCH_REPEATS=1 "$target/release/$bin" >"$out/$1.$bin.txt"
        end=$(date +%s.%N)
        awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }' >"$out/$1.$bin.s"
        awk '/^# CSV /{on=1} on && /^$/{on=0} on' "$out/$1.$bin.txt" >"$out/$1.$bin.csv"
    done
}

[ -z "$parent" ] || run_all parent "$parent"
run_all change "$here"

status=0
for bin in "${bins[@]}"; do
    line=$(printf '%-20s %8.2f s' "$bin" "$(cat "$out/change.$bin.s")")
    if [ -n "$parent" ]; then
        verdict=same
        cmp -s "$out/parent.$bin.csv" "$out/change.$bin.csv" || { verdict=DIFF; status=1; }
        line=$(printf '%-20s %8.2f s -> %8.2f s  %s' "$bin" \
            "$(cat "$out/parent.$bin.s")" "$(cat "$out/change.$bin.s")" "$verdict")
        [ "$verdict" = same ] || diff "$out/parent.$bin.csv" "$out/change.$bin.csv" | head -n 20 >&2 || true
    fi
    echo "$line"
done
exit "$status"
