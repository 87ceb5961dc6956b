#!/usr/bin/env bash
# A/A: runs the full benchmark twice on one commit and fails if any
# end-to-end metric of any workload differs between the two by more than the
# bound BENCHMARK.json fixes, or if either had a failed run. Both sets are
# written to perf/out/aa.json, also when a pass exits non-zero.
#
#   perf/aa.sh [--seed N]
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p perf/out
rm -f perf/out/aa-first.json perf/out/aa-second.json
perf/run.sh "$@" --json perf/out/aa-first.json
first=$?
perf/run.sh "$@" --json perf/out/aa-second.json
second=$?
python3 - "$first" "$second" <<'PY'
import json, os, sys
bench = json.load(open("BENCHMARK.json"))
names = ("first", "second")
sets = {}
for name in names:
    path = f"perf/out/aa-{name}.json"
    sets[name] = json.load(open(path)) if os.path.exists(path) else {}
json.dump(sets, open("perf/out/aa.json", "w"), indent=1)
ok = True
for name, code in zip(names, sys.argv[1:]):
    if code != "0":
        print(f"the {name} pass exited {code}")
        ok = False
print(f"{'workload':<12} {'metric':<16} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
for workload in (w["name"] for w in bench["workloads"]):
    runs = [sets[name].get(workload) for name in names]
    for name, run in zip(names, runs):
        if run is None:
            print(f"{workload}: no result in the {name} pass")
            ok = False
        elif run["failed"] or not run["correct"]:
            print(f"{workload}: {run['failed']} of {run['attempted']} runs failed in the {name} pass")
            ok = False
    if None in runs:
        continue
    for metric in bench["end_to_end"]:
        a, b = (run["metrics"][metric["name"]]["value"] for run in runs)
        # Either order may be the worse one: A/A has no parent and change.
        worse = max(a, b) / min(a, b) - 1 if min(a, b) > 0 else float("inf")
        verdict = "FAIL" if worse > metric["bound"] else ""
        ok = ok and not verdict
        print(f"{workload:<12} {metric['name']:<16} {a:>14.6f} {b:>14.6f} {worse * 100:>8.1f}% {metric['bound'] * 100:>5.0f}% {verdict}")
sys.exit(0 if ok else 1)
PY
