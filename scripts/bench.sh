#!/usr/bin/env bash
# The benchmark trajectory file of one change: scripts/pairs.sh over every
# workload of BENCHMARK.json, gathered into BENCH_<pr>.json at the repo root.
# Usage: scripts/bench.sh <parent-checkout> <pr> [pairs=2] [seed=1]
#
# The parent checkout is a second copy of the parent commit (a `git clone`, not
# a worktree). Each workload's entry is what `scripts/pairs.sh --json` writes:
# both commits, nproc, each side's quartiles per end-to-end metric, the change
# in medians, the parent's IQR, wins, ties, the verdict, and failed/attempted
# jobs. The tables pairs.sh prints go to stdout as they finish. A claimed gain
# needs the standing rule (10 pairs on the seen seed, >= 6 on an unseen one); a
# change that claims nothing may run 2 pairs a workload.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,12p' "$0" >&2; exit 2; }
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
pr="$2" pairs="${3:-2}" seed="${4:-1}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$here/BENCHMARK.json")
for w in $workloads; do
    "$here/scripts/pairs.sh" --json "$out/$w.json" "$parent" "$w" "$pairs" "$seed"
done

python3 - "$here/BENCH_$pr.json" "$pr" "$out" $workloads <<'PY'
import json, sys
path, pr, out, *workloads = sys.argv[1:]
bench = {"pr": int(pr), "workloads": {w: json.load(open(f"{out}/{w}.json")) for w in workloads}}
with open(path, "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print(f"wrote {path}")
PY
