#!/usr/bin/env bash
# Alternating benchmark pairs: one workload, a parent checkout against this one.
# Usage: scripts/pairs.sh [--json <file>] <parent-checkout> <workload> [pairs=10] [seed=1]
#
# Runs `perf/run.sh --workload W --seed S --seconds 22 --trace 0` in the two
# checkouts in turn (which side goes first alternates pair by pair) and prints,
# per end-to-end metric of BENCHMARK.json, each side's quartiles (q1/median/q3),
# the change in medians, the parent's interquartile range, in how many pairs
# this checkout read better (and ties), and a verdict from the metric's
# `better` and `bound` (BENCHMARK.json is only read):
#   unresolved  a run of either side has no result for the metric, or the
#               parent's IQR, relative to its median, is wider than the bound
#               and not every change run beats every parent run
#   gain        at least 9/10 of the pairs run won and |change in medians| > parent IQR
#   worse       the change's median is worse than the parent's by more than the bound
#   flat        anything else
# Last, each side's failed/attempted jobs — all from the last JSON line of each run.
# The header names each side's commit (`+dirty` when its tree has changes).
# `--json <file>` also writes all of the above, with `nproc`, to <file> as one
# JSON object (scripts/bench.sh gathers these into BENCH_<pr>.json).
set -euo pipefail
json=""
if [ "${1:-}" = --json ]; then json="$2"; shift 2; fi
[ $# -ge 2 ] || { sed -n '2,20p' "$0" >&2; exit 2; }
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2" pairs="${3:-10}" seed="${4:-1}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

commit() { # checkout
    local dirty=""
    [ -z "$(git -C "$1" status --porcelain)" ] || dirty="+dirty"
    echo "$(git -C "$1" rev-parse --short HEAD)$dirty"
}
commits="$(commit "$parent") -> $(commit "$here")"

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

python3 - "$here/BENCHMARK.json" "$out" "$pairs" "$workload" "$seed" "$commits" "$(nproc)" \
    "$json" <<'EOF'
import json, statistics, sys
bench, out, pairs, workload, seed, commits, nproc, json_out = sys.argv[1:]
pairs = int(pairs)
parent_commit, change_commit = commits.split(" -> ")
record = {"workload": workload, "seed": int(seed), "pairs": pairs, "nproc": int(nproc),
          "commits": {"parent": parent_commit, "change": change_commit},
          "jobs": {}, "metrics": {}}
metrics = json.load(open(bench))["end_to_end"]
def load(side, i):
    try:
        return json.loads(open(f"{out}/{side}.{i}.json").read())
    except (OSError, ValueError):
        return None
def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
def verdict(ps, cs, better, bound, wins):
    if len(ps) < pairs:
        return "unresolved"
    (p1, mp, p3), mc = quartiles(ps), statistics.median(cs)
    sign = 1 if better == "lower" else -1  # > 0: the change reads better
    rel = lambda x: x / abs(mp) if mp else (0.0 if x == 0 else float("inf"))
    if wins >= 0.9 * pairs and sign * (mp - mc) > p3 - p1:
        return "gain"
    if rel(sign * (mc - mp)) > bound:
        return "worse"
    if rel(p3 - p1) > bound and not all(sign * (p - c) > 0 for c in cs for p in ps):
        return "unresolved"
    return "flat"
runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
print(f"{workload}, seed {seed}, {pairs} alternating pairs (parent -> change: {commits})")
for side, rs in runs.items():
    ok = [r for r in rs if r]
    jobs = {"failed": sum(r["failed"] for r in ok), "attempted": sum(r["attempted"] for r in ok),
            "runs_without_result": len(rs) - len(ok)}
    record["jobs"][side] = jobs
    print(f"  {side}: {jobs['failed']} failed of {jobs['attempted']} jobs, "
          f"{jobs['runs_without_result']} runs without a result")
fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
print(f"  {'metric':<16}{'parent q1/med/q3':>29}{'change q1/med/q3':>29}{'delta':>9}"
      f"{'parent IQR':>12}  wins/ties  verdict")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    value = lambda r: r and r["metrics"].get(name, {}).get("value")
    both = [(value(p), value(c)) for p, c in zip(runs["parent"], runs["change"])
            if value(p) is not None and value(c) is not None]
    if not both:
        record["metrics"][name] = {"verdict": "unresolved"}
        print(f"  {name:<16} no complete pair  unresolved")
        continue
    ps, cs = [p for p, _ in both], [c for _, c in both]
    qp, qc = quartiles(ps), quartiles(cs)
    wins = sum((c < p) if lower else (c > p) for p, c in both)
    ties = sum(c == p for p, c in both)
    delta = (qc[1] - qp[1]) / qp[1] * 100 if qp[1] else 0.0
    said = verdict(ps, cs, m["better"], m["bound"], wins)
    record["metrics"][name] = {"unit": m["unit"], "parent": qp, "change": qc,
                               "change_pct": delta, "parent_iqr": qp[2] - qp[0],
                               "wins": wins, "ties": ties, "verdict": said}
    print(f"  {name:<16}  {fmt(qp):>27}  {fmt(qc):>27}{delta:>+8.1f}%{qp[2] - qp[0]:>12.4g}"
          f"  {wins}/{pairs}, {ties} ties  {said}")
if json_out:
    with open(json_out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
EOF
