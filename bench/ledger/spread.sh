#!/usr/bin/env bash
# Run-to-run spread of the pipeline benchmark: two sets of ten untraced runs
# of every workload, seeds 1 to 20, each run as long as BENCHMARK.json's
# run_seconds. Runs alternate between the sets and the workloads, as a
# comparison of two commits alternates their runs, so a slow spell of the
# host falls on every set and workload alike. Per set and metric it prints
# the median, the first and third quartile (Python's
# statistics.quantiles(values, n=4)) and the relative IQR, (Q3 - Q1) /
# median; for the second set also how far its median lies from the first
# set's, and whether that stays within the metric's bound. Run from the
# repository root:
#
#   bash bench/ledger/spread.sh [-o OUT.json] [WORKLOAD ...]
#
# With -o the raw values and the statistics are written as JSON.
set -euo pipefail

runs=10
sets=2
out=""
while getopts "o:" opt; do
    case "$opt" in
        o) out="$OPTARG" ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(model_build serve_query serve_mixed fleet_ingest)
fi

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)"
mkdir -p build
results="$(mktemp -d build/ledger-spread.XXXXXX)"
trap 'rm -rf "$results"' EXIT

for ((i = 0; i < runs; i++)); do
    for ((set = 0; set < sets; set++)); do
        seed=$((1 + set * runs + i))
        for workload in "${workloads[@]}"; do
            echo "[spread] set $set $workload seed $seed" >&2
            { bash "$here/run.sh" --workload "$workload" --seed "$seed" \
                  --seconds "$seconds" --trace 0 || true; } |
                tail -n 1 > "$results/$set.$workload.$seed.json"
        done
    done
done

python3 - "$results" "$out" "$runs" "$sets" "$seconds" \
    "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

results, out, runs, sets, seconds = sys.argv[1:6]
workloads = sys.argv[6:]
with open("BENCHMARK.json") as f:
    bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
report = {"runs": int(runs), "seconds": float(seconds), "sets": []}
for s in range(int(sets)):
    print(f"set {s}")
    per_set = {}
    for workload in workloads:
        values, failed = {}, 0
        prefix = f"{s}.{workload}."
        for name in sorted(os.listdir(results)):
            if not name.startswith(prefix):
                continue
            with open(os.path.join(results, name)) as f:
                try:
                    result = json.loads(f.read())
                except ValueError:
                    result = {"correct": False, "metrics": {}}
            failed += 0 if result["correct"] else 1
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        print(f"  {workload} ({failed} runs not correct)")
        print(f"    {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'rel_iqr':>8} {'vs_set0':>8} {'bound':>6}")
        stats = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            entry = {"median": med, "q1": q1, "q3": q3, "rel_iqr": rel,
                     "values": vs}
            shift = verdict = ""
            if s > 0:
                base = report["sets"][0][workload]["metrics"][metric]["median"]
                entry["median_vs_set0"] = med / base - 1 if base else 0.0
                shift = f"{entry['median_vs_set0']:+8.3f}"
                verdict = ("ok" if abs(entry["median_vs_set0"]) <=
                           bounds[metric] else "OUT")
            stats[metric] = entry
            print(f"    {metric:20} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.3f} {shift:>8} {bounds[metric]:6.2f} {verdict}")
        per_set[workload] = {"runs_not_correct": failed, "metrics": stats}
    report["sets"].append(per_set)
if out:
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
EOF
