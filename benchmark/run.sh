#!/usr/bin/env bash
# Builds the benchmark (Release, into build-bench/) and runs it.
#
#   benchmark/run.sh [--quick] [--seed=N] [--seconds=S] [--trace] [--out=FILE]
#       Runs all four workloads, each in its own process, and prints
#       "<workload> <metric> <value> <unit>" lines, then one JSON document
#       (also saved to FILE, default build-bench/results-*.json).
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       Runs one workload; the last line of output is its JSON result.
#   benchmark/run.sh --compare A.json B.json
#       Judges B against A with the bounds in BENCHMARK.json.
#
# Every workload runs under a watchdog that kills it after 5x its expected
# time (at most 170 s) and records the run as failed instead of hanging.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
workloads=(spec-read spec-baselines memsys-open-knee memsys-closed-ras)

seed=42
seconds=20
trace=0
quick=0
workload=""
out=""
compare=()
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --seed=*) seed="${arg#*=}" ;;
    --seed) seed="${1:?--seed needs a value}"; shift ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --seconds) seconds="${1:?--seconds needs a value}"; shift ;;
    --workload=*) workload="${arg#*=}" ;;
    --workload) workload="${1:?--workload needs a value}"; shift ;;
    --trace=*) trace="${arg#*=}" ;;
    --trace)
      if [[ $# -gt 0 && "$1" != --* ]]; then trace="$1"; shift; else trace=1; fi ;;
    --quick) quick=1 ;;
    --out=*) out="${arg#*=}" ;;
    --compare)
      [[ $# -ge 2 ]] || { echo "run.sh: --compare needs two files" >&2; exit 2; }
      compare=("$1" "$2")
      shift 2 ;;
    *) echo "run.sh: unknown option '$arg'" >&2; exit 2 ;;
  esac
done
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "run.sh: --seed must be a number" >&2; exit 2; }
[[ "$seconds" =~ ^[0-9]+$ ]] || { echo "run.sh: --seconds must be a number" >&2; exit 2; }
[[ "$trace" == 0 || "$trace" == 1 ]] || { echo "run.sh: --trace must be 0 or 1" >&2; exit 2; }

# Build (incremental after the first run). All build output goes to
# stderr: stdout carries only results.
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 2 >&2
bench="$build/nvmenc_bench"

if [[ ${#compare[@]} -eq 2 ]]; then
  exec "$bench" --compare "${compare[0]}" "${compare[1]}" \
    --bounds="$root/BENCHMARK.json"
fi

# Watchdog limit for one workload process, in seconds.
limit() {
  local expected
  if [[ $quick == 1 ]]; then
    expected=4
  elif [[ $trace == 1 ]]; then
    expected=50
  else
    expected=$((seconds + 12))
  fi
  local cap=$((5 * expected))
  echo $((cap < 170 ? cap : 170))
}

# run_one WORKLOAD RESULT_FILE: runs one workload process under the
# watchdog; its stdout passes through. Returns the process's exit code.
run_one() {
  local w="$1"
  local result="$2"
  local flags=(--workload="$w" --seed="$seed" --seconds="$seconds"
    --trace="$trace" --build-dir="$build" --out="$result")
  [[ $quick == 1 ]] && flags+=(--quick)
  local code=0
  # A workload the watchdog killed cannot remove its own trace file.
  rm -f "$result" "$build"/knee-*.trace
  timeout --kill-after=5 "$(limit)" "$bench" "${flags[@]}" || code=$?
  if [[ $code == 124 || $code == 137 ]]; then
    echo "run.sh: watchdog killed $w after $(limit) s" >&2
  fi
  if [[ ! -s "$result" ]]; then
    printf '{"workload": "%s", "correct": false, "attempted": 1, "failed": 1, "exit_code": %s, "metrics": {}}\n' \
      "$w" "$code" >"$result"
  fi
  return $code
}

if [[ -n "$workload" ]]; then
  code=0
  run_one "$workload" "$build/result-$workload.json" || code=$?
  if [[ $code == 124 || $code == 137 ]]; then
    echo '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
  fi
  exit $code
fi

mode="seed$seed"
[[ $quick == 1 ]] && mode="quick-$mode"
[[ $trace == 1 ]] && mode="trace-$mode"
[[ -n "$out" ]] || out="$build/results-$mode.json"
failed=0
docs=()
for w in "${workloads[@]}"; do
  result="$build/run-$mode-$w.json"
  # Per-workload result lines; the trailing JSON line is folded into the
  # combined document below instead.
  run_one "$w" "$result" | grep -v '^{' || failed=1
  docs+=("$result")
done

{
  printf '{"bench": "nvmenc_bench", "seed": %s, "quick": %s, "trace": %s, "runs": [' \
    "$seed" "$([[ $quick == 1 ]] && echo true || echo false)" \
    "$([[ $trace == 1 ]] && echo true || echo false)"
  sep=""
  for d in "${docs[@]}"; do
    printf '%s' "$sep"
    tr -d '\n' <"$d"
    sep=", "
  done
  printf ']}\n'
} >"$out"
echo "run.sh: combined result in $out" >&2
cat "$out"
exit $failed
