#!/usr/bin/env bash
# Builds flashdb_bench from this checkout (into .bench_build/) and runs one
# workload, or all of them.
#
#   benchmark/run.sh [--workload=W|all] [--seed=N] [--seconds=S] [--trace]
#                    [--scale=full|smoke] [--out=DIR]
#
# Options also take the `--key value` form, and --trace takes an optional
# 0 or 1. Build output goes to stderr; stdout carries the metrics, one
# `name value unit` per line, then one JSON line per workload. With --out,
# each run also writes its full JSON record to DIR (benchmark/compare.py
# reads those).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

workloads_all=(update_pdl_1chip update_opu_3shard tpcc_pdl_small_pool
               tpcc_pdl_cached)
workload=all seed=42 seconds=10 trace=0 scale=full out=""

while [ $# -gt 0 ]; do
  arg="$1"; shift
  case "$arg" in
    --*=*) key="${arg%%=*}"; val="${arg#*=}" ;;
    --trace)
      key=--trace; val=1
      if [ $# -gt 0 ] && { [ "$1" = 0 ] || [ "$1" = 1 ]; }; then
        val="$1"; shift
      fi ;;
    --*)
      if [ $# -eq 0 ]; then echo "run.sh: $arg needs a value" >&2; exit 2; fi
      key="$arg"; val="$1"; shift ;;
    *) echo "run.sh: unexpected argument $arg" >&2; exit 2 ;;
  esac
  case "$key" in
    --workload) workload="$val" ;;
    --seed) seed="$val" ;;
    --seconds) seconds="$val" ;;
    --trace) trace="$val" ;;
    --scale) scale="$val" ;;
    --out) out="$val" ;;
    *) echo "run.sh: unknown option $key" >&2; exit 2 ;;
  esac
done

if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: the flashdb sources are not in $root; nothing to build" >&2
  exit 3
fi

build=.bench_build/flashdb_bench
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  cmake -S benchmark -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target flashdb_bench -j "$jobs" >&2

if [ "$workload" = all ]; then
  selected=("${workloads_all[@]}")
else
  selected=("$workload")
fi
[ -n "$out" ] && mkdir -p "$out"

for w in "${selected[@]}"; do
  args=(--workload="$w" --seed="$seed" --seconds="$seconds" --trace="$trace"
        --scale="$scale")
  if [ -n "$out" ]; then
    k=0
    while [ -e "$out/$w.seed$seed.trace$trace.$k.json" ]; do k=$((k + 1)); done
    args+=(--json="$out/$w.seed$seed.trace$trace.$k.json")
  fi
  "$build/flashdb_bench" "${args[@]}"
done
