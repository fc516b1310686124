#!/usr/bin/env bash
# Parent-vs-change comparison of one benchmark workload, by the rule of
# benchmark/README.md ("How the numbers are kept steady"): build the benchmark
# at <base> and at the working tree (release, offline), run the two binaries
# alternately — the order flips every pair, every pair gets a fresh seed —
# and print, per end-to-end metric of BENCHMARK.json, both medians, both
# inter-quartile ranges and the pairs won.
#
#   scripts/pairs.sh <workload> [pairs=10] [base=HEAD~1]
#
# The base is the committed tree of <base> (`git archive`, which is what a
# fresh checkout builds) under .bench_build/pairs/<sha>/; each binary runs from
# its own checkout root. Run on an otherwise idle machine.
set -euo pipefail

workload=${1:?usage: scripts/pairs.sh <workload> [pairs=10] [base=HEAD~1]}
pairs=${2:-10}
base=${3:-HEAD~1}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$base^{commit}")
parent=$root/.bench_build/pairs/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for tree in "$parent" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
seed0=$(date +%s)
results=$root/.bench_build/pairs/results.$$
trap 'rm -f "$results"' EXIT

# One run: the result object is the last stdout line; a failed run still
# prints one when the workload got that far, and is counted either way.
run() { # <side> <tree> <seed>
    local line
    line=$(cd "$2" && ./benchmark/target/release/swlb-benchmark --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    case $line in
    '{'*) ;;
    *) line='{"correct":false,"attempted":1,"failed":1,"metrics":{}}' ;;
    esac
    printf '%s\t%s\t%s\n' "$1" "$3" "$line" >>"$results"
}

echo "pairs: $workload, $pairs pairs, $seconds s runs, parent ${sha:0:12} vs working tree, seeds $seed0.."
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$parent" "$seed"
    fi
    echo "  pair $((i + 1))/$pairs done (seed $seed, $( ((i % 2 == 0)) && echo parent || echo change) first)"
done

python3 - "$root/BENCHMARK.json" "$results" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = {"parent": [], "change": []}
for line in open(sys.argv[2]):
    side, _seed, obj = line.rstrip("\n").split("\t", 2)
    runs[side].append(json.loads(obj))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{'metric':<20}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}{'delta':>9}  won  verdict")
for m in spec["end_to_end"]:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if name in p["metrics"] and name in c["metrics"]]
    if not both:
        print(f"{name:<20}{'no complete pair':>36}")
        continue
    ps, cs = [p for p, _ in both], [c for _, c in both]
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(ps), quartiles(cs)
    won = sum((c > p) if higher else (c < p) for p, c in both)
    lost = sum((c < p) if higher else (c > p) for p, c in both)
    gain = (cm - pm) / pm if higher else (pm - cm) / pm
    apart = abs(cm - pm) > (pq3 - pq1)
    clean = (min(cs) > max(ps)) if higher else (max(cs) < min(ps))
    if gain > 0 and 10 * won >= 9 * len(both) and apart:
        verdict = "gain (>= 9/10 pairs, medians apart by more than the parent's IQR)"
        if len(both) < 10:
            verdict = "ahead, but a claim needs at least 10 pairs"
    elif gain < -bound:
        verdict = f"WORSE than the bound ({bound:.0%})"
    elif (pq3 - pq1) / pm > bound and not clean:
        verdict = f"unresolved: parent spread wider than the bound ({bound:.0%})"
    else:
        verdict = f"within the bound ({bound:.0%})"
    cell = lambda med, q1, q3: f"{med:>14.4f} [{q1:.4f}, {q3:.4f}]"
    print(f"{name:<20}{cell(pm, pq1, pq3):>36}{cell(cm, cq1, cq3):>36}{gain:>+9.1%}"
          f"  {won}/{len(both)}{'' if won + lost == len(both) else f' ({len(both) - won - lost} tied)'}  {verdict}")
for side in ("parent", "change"):
    att = sum(r["attempted"] for r in runs[side])
    bad = sum(r["failed"] for r in runs[side])
    wrong = sum(not r["correct"] for r in runs[side])
    print(f"{side}: {bad}/{att} operations failed, {wrong}/{len(runs[side])} runs not correct")
PY
