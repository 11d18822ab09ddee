#!/usr/bin/env bash
# The perf gate: runs every gated bench at its canonical flags, writing its
# --json dump to OUT_DIR, and checks each dump right after its bench runs
# (tools/check_bench.py). With BASELINE_DIR, every table cell must equal the
# baseline dump of the same name, except the host-time columns; each bench's
# own bounds, listed after its `--` below, hold with or without one. Reports
# every failing bench and exits 1 if any failed.
#
#   tools/run_perf_gate.sh build bench-json bench/baselines  # the CI gate
#   tools/run_perf_gate.sh build OUT PARENT_OUT   # a change vs its parent
#   tools/run_perf_gate.sh build bench/baselines  # refresh the baselines
#
# Virtual-time cells reproduce only when the schedule (ops/seed/skew/batch)
# matches bit-for-bit, so a baseline holds only for the flags here.
#
# Usage: tools/run_perf_gate.sh [BUILD_DIR] [OUT_DIR] [BASELINE_DIR]
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench-json}
BASELINE_DIR=${3:-}
CHECK_BENCH="$(dirname "$0")/check_bench.py"
mkdir -p "$OUT_DIR"
failed=()

# gate BENCH [BENCH_FLAG...] [-- CHECK_FLAG...]
gate() {
  local bench=$1 dump="$OUT_DIR/$1.json" ok=1
  local flags=()
  shift
  while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    flags+=("$1")
    shift
  done
  if [ $# -gt 0 ]; then shift; fi
  echo "=== $bench ${flags[*]}"
  "$BUILD_DIR/$bench" "${flags[@]}" --json="$dump" || ok=0
  python3 "$CHECK_BENCH" --current "$dump" "$@" \
      ${BASELINE_DIR:+--baseline "$BASELINE_DIR/$bench.json"} || ok=0
  if [ "$ok" = 0 ]; then failed+=("$bench"); fi
}

# The paper's methods on one chip: exp1 (all six methods; OPU, PDL and
# IPL(18KB) garbage-collect at these flags) and exp7 (TPC-C over IPL, PDL
# and OPU across buffer sizes) are all virtual time or counts.
gate exp1_update_cost --blocks=32 --ops=2000 --warmup-max=20000
gate exp7_tpcc --warmup-tx=50 --tx=100

# The rest of the paper's suite at exp1's flags, all virtual time or counts:
# exp2 (updates till write, Fig. 13), exp3 (changed ratio, Fig. 14), exp4
# (mixed reads and updates, Fig. 15) and exp6 (longevity, Fig. 17).
gate exp2_updates_till_write --blocks=32 --ops=2000 --warmup-max=20000
gate exp3_changed_ratio --blocks=32 --ops=2000 --warmup-max=20000
gate exp4_mixed_ops --blocks=32 --ops=2000 --warmup-max=20000
gate exp6_longevity --blocks=32 --ops=2000 --warmup-max=20000

# exp5 (flash parameters, Fig. 16) needs 64 blocks: its presets section runs
# a 2-die x 4-plane chip, where PDL's GC reserve (2 streams x 8 planes + 2 =
# 18 blocks) leaves no room for the database on 32.
gate exp5_flash_params --blocks=64 --ops=2000 --warmup-max=20000

# Wall clock varies across runners and with host load, so kops/s only warns
# at 30% drift; exp9 measures once and never fails on it.
gate exp9_parallel --ops=2000 --warmup-max=3000 --batch=8 -- \
    --rule 'exp9_parallel:kops/s:higher:fail=none:warn=30' \
    --require 'exp9_parallel:determinism=ok'

# min-of-3 wall clock per point: scheduler/frequency noise only adds time,
# so the minimum is stable enough to fail past a 60% kops/s collapse, and
# each depth's speedup over its K=1 row (computed within one run) has a 0.5
# floor that catches a deeper pipeline serializing.
gate exp10_pipeline --ops=4000 --warmup-max=3000 --hot=40 --reps=3 -- \
    --rule 'exp10_pipeline:kops/s:higher:fail=60:warn=30' \
    --require 'exp10_pipeline:determinism=ok' \
    --min 'exp10_pipeline:speedup:0.5'

# Wear leveling needs erase activity to act on: a small chip (16
# blocks/shard) driven well past GC steady state, so cold shards erase too
# and the max/min erase-delta ratio is meaningful rather than x/0. The
# erase-ratio ceiling is the wear-leveling acceptance bound itself.
gate exp11_wear --blocks=64 --ops=6000 --warmup-max=8000 --epoch=500 -- \
    --rule 'exp11_wear:wall_ms:lower:fail=none:warn=30' \
    --require 'exp11_wear:determinism=ok' \
    --max 'exp11_wear:erase_ratio:1.5:where=hot=90,thresh=1.25'

# Crash recovery of the journaled store. The acceptance bound: recovered
# state preserves the committed swaps and reads back bit-identical
# (roundtrip), and executor recovery matches sequential (determinism).
gate exp12_recovery --blocks=64 --ops=2000 --warmup-max=3000 -- \
    --rule 'exp12_recovery:wall_ms:lower:fail=none:warn=30' \
    --require 'exp12_recovery:roundtrip=ok' \
    --require 'exp12_recovery:determinism=ok'

# Plane-parallel device model: the 4-plane rows must keep a >= 2x
# virtual-time speedup over the same method's single-plane point, and every
# geometry must replay bit-identically under the threaded executor.
gate exp13_planes --blocks=128 --ops=2000 --warmup-max=3000 --shards=2 \
    --batch=8 --depth=4 -- \
    --rule 'exp13_planes:wall_ms:lower:fail=none:warn=30' \
    --require 'exp13_planes:determinism=ok' \
    --min 'exp13_planes:vt_speedup:2.0:where=planes=4'

# Read-path integrity under injected bit errors. The acceptance bound: with
# scrub on, no read may exhaust the retry ladder, and the error model plus
# scrubber must replay bit-identically under the pipelined executor.
gate exp14_integrity --blocks=64 --ops=2000 --warmup-max=3000 --shards=2 \
    --batch=8 --depth=4 -- \
    --require 'exp14_integrity:determinism=ok' \
    --max 'exp14_integrity:uncorr:0:where=scrub=on'

# Per-op latency floor: the alternate-mode replay of every row must
# reproduce the exact histogram, worst op, per-chip clocks, and canonical
# trace bytes.
gate exp15_latency --blocks=64 --ops=2000 --warmup-max=3000 --shards=4 \
    --batch=8 --epoch=500 -- \
    --rule 'exp15_latency:wall_ms:lower:fail=none:warn=30' \
    --require 'exp15_latency:determinism=ok' \
    --require 'exp15_latency:trace=ok'

# Concurrent TPC-C serving. The acceptance bound: serving throughput scales
# >= 3x from 1 to 4 shards at 4 clients, and a single-threaded replay of
# each row's recorded commit log reproduces it bit-for-bit, state and
# canonical event stream alike.
gate exp16_oltp --warehouses=4 --warmup-tx=200 --tx=600 --hot=5 \
    --remote=10 -- \
    --rule 'exp16_oltp:wall_ms:lower:fail=none:warn=30' \
    --require 'exp16_oltp:determinism=ok' \
    --require 'exp16_oltp:trace=ok' \
    --min 'exp16_oltp:speedup_vt:3.0:where=clients=4,shards=4'

if [ ${#failed[@]} -gt 0 ]; then
  echo "perf gate FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "perf gate passed"
