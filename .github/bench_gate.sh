#!/usr/bin/env bash
# Perf gate over the repository benchmark (BENCHMARK.json).
#
#   .github/bench_gate.sh <parent-rev>
#
# Builds the benchmark twice, each side from its own source tree: the
# parent from <parent-rev>, checked out with `git worktree add`, and the
# head from the working tree. Build output goes to .bench_build/parent
# and .bench_build/head. Then, for seeds 1-5 and every workload that
# BENCHMARK.json names, it runs BENCHMARK.json's command on both sides
# with `--seconds 5 --trace 0`. The parent runs first on odd seeds and
# the head runs first on even seeds. Each run's final JSON line is kept
# as .bench_out/gate/<side>-<workload>-seed<S>.json.
#
# The gate fails when a run exits non-zero (a failed operation or output
# check), when a result line is not `"correct": true`, or when, for some
# workload and end-to-end metric, the head's median over the seeds is
# worse than the parent's by more than the metric's bound. The table is
# printed and written to .bench_out/gate/summary.json.
#
# Sourcing the script defines compare_results without running the gate,
# so the comparison can be checked on hand-made result files:
#
#   source .github/bench_gate.sh
#   compare_results <dir> BENCHMARK.json <parent-label> <head-label>

SEEDS=(1 2 3 4 5)
RUN_SECONDS=5

# compare_results <dir> <benchmark-json> <parent-label> <head-label>
#
# Reads <dir>/{parent,head}-<workload>-seed<S>.json, prints one row per
# workload and end-to-end metric, writes <dir>/summary.json and returns
# non-zero when the gate fails.
compare_results() {
  local dir=$1 spec=$2 parent=$3 head=$4
  local f
  for f in "$dir"/parent-*.json "$dir"/head-*.json; do
    [[ -e $f ]] || continue
    jq -c --arg file "${f##*/}" '{file: $file, line: .}' "$f"
  done | jq -s --slurpfile spec "$spec" --arg parent "$parent" --arg head "$head" '
    def median:
      sort
      | if length == 0 then null
        elif length % 2 == 1 then .[(length - 1) / 2]
        else (.[length / 2 - 1] + .[length / 2]) / 2
        end;
    ($spec[0]) as $b
    | map(. + (.file | capture("^(?<side>parent|head)-(?<workload>.+)-seed(?<seed>[0-9]+)[.]json$"))
          | .seed |= tonumber)
    | sort_by(.seed) as $runs
    | [$b.workloads[].name as $w
       | $b.end_to_end[] as $m
       | [$runs[] | select(.workload == $w and .side == "parent") | .line.metrics[$m.name].value] as $p
       | [$runs[] | select(.workload == $w and .side == "head") | .line.metrics[$m.name].value] as $h
       | ($p | median) as $pm
       | ($h | median) as $hm
       | {
           workload: $w, metric: $m.name, unit: $m.unit, bound: $m.bound,
           parent_median: $pm, head_median: $hm,
           ratio: (if $pm != null and $hm != null and $pm > 0 then $hm / $pm else null end),
           pass: ($p != [] and $h != [] and ($p | length) == ($h | length)
                  and ($p + $h | all(type == "number"))
                  and (if $m.better == "higher" then $hm >= $pm * (1 - $m.bound)
                       else $hm <= $pm * (1 + $m.bound) end)),
           parent: $p, head: $h
         }] as $rows
    | [$runs[] | select(.line.correct != true) | .file] as $incorrect
    | {
        parent: $parent, head: $head,
        seeds: ($runs | map(.seed) | unique),
        incorrect: $incorrect,
        rows: $rows,
        pass: ($rows != [] and ($rows | all(.pass)) and $incorrect == [])
      }' > "$dir/summary.json" || return 2

  jq -r '
    def cell(n): tostring | . + " " * (n - length);
    def num: if . == null then "-" else (. * 10000 | round / 10000) end;
    "parent \(.parent)   head \(.head)   seeds \(.seeds | map(tostring) | join(","))",
    "",
    ([["workload", "metric", "parent", "head", "ratio", "bound", ""]]
     + [.rows[] | [.workload, .metric, (.parent_median | num), (.head_median | num),
                   (.ratio | num), .bound, (if .pass then "ok" else "WORSE" end)]]
     | .[] | [.[0] | cell(17)] + [.[1] | cell(13)] + (.[2:6] | map(cell(11))) + [.[6]]
     | join("")),
    (.incorrect[] | "not correct: \(.)"),
    "",
    (if .pass then "bench gate: pass" else "bench gate: FAIL" end)
  ' "$dir/summary.json"
  jq -e '.pass' "$dir/summary.json" > /dev/null
}

# run_side <root> <side> <tree> <workload> <seed> <out-dir>
run_side() {
  local root=$1 side=$2 tree=$3 workload=$4 seed=$5 out=$6
  local cmd output
  mapfile -t cmd < <(jq -r '.command[]' "$tree/BENCHMARK.json")
  if ! output=$(cd "$tree" && CARGO_TARGET_DIR="$root/.bench_build/$side" "${cmd[@]}" \
    --workload "$workload" --seed "$seed" --seconds "$RUN_SECONDS" --trace 0); then
    printf '%s\n' "$output"
    echo "bench gate: FAIL: $side $workload seed $seed exited non-zero" >&2
    return 1
  fi
  printf '%s\n' "$output" | tail -n 1 > "$out/$side-$workload-seed$seed.json"
  printf '%-6s %-16s seed %s  %s\n' "$side" "$workload" "$seed" \
    "$(jq -c '.metrics | map_values(.value)' "$out/$side-$workload-seed$seed.json")"
}

main() {
  if [[ $# -ne 1 ]]; then
    echo "usage: $0 <parent-rev>" >&2
    return 2
  fi
  local root parent_rev tmp
  root=$(git rev-parse --show-toplevel)
  cd "$root"
  parent_rev=$(git rev-parse --verify "$1^{commit}")
  local out=.bench_out/gate
  rm -rf "$out"
  mkdir -p "$out"

  tmp=$(mktemp -d)
  trap "git -C '$root' worktree remove --force '$tmp/parent' 2>/dev/null; rm -rf '$tmp'" EXIT
  git worktree add --detach --quiet "$tmp/parent" "$parent_rev"
  declare -A trees=([parent]="$tmp/parent" [head]="$root")

  local side
  for side in parent head; do
    echo "building the $side benchmark ..."
    (cd "${trees[$side]}" && CARGO_TARGET_DIR="$root/.bench_build/$side" \
      cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
  done

  local workloads seed w order
  mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
  for seed in "${SEEDS[@]}"; do
    if ((seed % 2)); then order=(parent head); else order=(head parent); fi
    for w in "${workloads[@]}"; do
      for side in "${order[@]}"; do
        run_side "$root" "$side" "${trees[$side]}" "$w" "$seed" "$out"
      done
    done
  done

  echo
  local verdict=0
  compare_results "$out" BENCHMARK.json "$(git rev-parse --short "$parent_rev")" \
    "$(git describe --always --dirty)" || verdict=$?
  echo "bench gate: ${SECONDS}s wall"
  return "$verdict"
}

if [[ ${BASH_SOURCE[0]} == "$0" ]]; then
  set -euo pipefail
  main "$@"
fi
