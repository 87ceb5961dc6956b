#!/usr/bin/env bash
# Alternating benchmark pairs: one workload, a parent checkout against this one.
# Usage: scripts/pairs.sh <parent-checkout> <workload> [pairs=10] [seed=1]
#
# Runs `perf/run.sh --workload W --seed S --seconds 22 --trace 0` in the two
# checkouts in turn (which side goes first alternates pair by pair) and prints,
# per end-to-end metric of BENCHMARK.json, the two medians, the parent's
# interquartile range, in how many pairs this checkout read better (and ties),
# and each side's failed/attempted jobs — all from the last JSON line of each run.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,9p' "$0" >&2; exit 2; }
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2" pairs="${3:-10}" seed="${4:-1}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# A run that had a failed job exits non-zero after printing its result line.
run() { # side checkout pair
    (cd "$2" && bash perf/run.sh --workload "$workload" --seed "$seed" --seconds 22 --trace 0 \
        2>/dev/null | tail -n 1) >"$out/$1.$3.json" || true
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"; run change "$here" "$i"
    else
        run change "$here" "$i"; run parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$here/BENCHMARK.json" "$out" "$pairs" "$workload" "$seed" <<'EOF'
import json, statistics, sys
bench, out, pairs, workload, seed = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]
def load(side, i):
    try:
        return json.loads(open(f"{out}/{side}.{i}.json").read())
    except (OSError, ValueError):
        return None
runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
print(f"{workload}, seed {seed}, {pairs} alternating pairs (parent -> change)")
for side, rs in runs.items():
    ok = [r for r in rs if r]
    print(f"  {side}: {sum(r['failed'] for r in ok)} failed of "
          f"{sum(r['attempted'] for r in ok)} jobs, {len(rs) - len(ok)} runs without a result")
print(f"  {'metric':<16}{'parent':>12}{'change':>12}{'delta':>9}{'parent IQR':>12}  wins/ties")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"]) if p and c]
    if not both:
        print(f"  {name:<16} no complete pair")
        continue
    ps, cs = [p for p, _ in both], [c for _, c in both]
    mp, mc = statistics.median(ps), statistics.median(cs)
    q = statistics.quantiles(ps, n=4) if len(ps) > 1 else [mp, mp, mp]
    wins = sum((c < p) if lower else (c > p) for p, c in both)
    ties = sum(c == p for p, c in both)
    delta = (mc - mp) / mp * 100 if mp else 0.0
    print(f"  {name:<16}{mp:>12.4f}{mc:>12.4f}{delta:>+8.1f}%{q[2] - q[0]:>12.4f}"
          f"  {wins}/{len(both)}, {ties} ties")
EOF
