#!/usr/bin/env bash
# Canonical perf-gate bench invocations. CI runs this before
# tools/check_bench.py, and a baseline refresh runs exactly the same flags --
# the virtual-time columns gated tightly by CI are only reproducible when the
# schedule (ops/seed/skew/batch) matches the baseline bit-for-bit.
#
# Usage: tools/run_perf_gate.sh [build-dir] [out-dir]
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench-json}
mkdir -p "$OUT_DIR"

# The paper's methods on one chip: every column of exp1 (all six methods;
# OPU, PDL and IPL(18KB) garbage-collect at these flags) and exp7 (TPC-C over
# IPL, PDL and OPU across buffer sizes) is virtual time or a count, so CI
# compares them exactly.
"$BUILD_DIR/exp1_update_cost" --blocks=32 --ops=2000 --warmup-max=20000 \
    --json="$OUT_DIR/exp1_update_cost.json"

"$BUILD_DIR/exp7_tpcc" --warmup-tx=50 --tx=100 \
    --json="$OUT_DIR/exp7_tpcc.json"

"$BUILD_DIR/exp9_parallel" --ops=2000 --warmup-max=3000 --batch=8 \
    --json="$OUT_DIR/exp9_parallel.json"

# min-of-3 wall clock per point: scheduler/frequency noise only adds time,
# so the minimum is the stable estimator the speedup floor gates on.
"$BUILD_DIR/exp10_pipeline" --ops=4000 --warmup-max=3000 --hot=40 --reps=3 \
    --json="$OUT_DIR/exp10_pipeline.json"

# Wear leveling needs erase activity to act on: a small chip (16
# blocks/shard) driven well past GC steady state, so cold shards erase too
# and the max/min erase-delta ratio is meaningful rather than x/0.
"$BUILD_DIR/exp11_wear" --blocks=64 --ops=6000 --warmup-max=8000 --epoch=500 \
    --json="$OUT_DIR/exp11_wear.json"

# Crash recovery of the journaled store: virtual recovery times are
# deterministic for fixed seed/flags and gate tightly; the roundtrip and
# determinism columns are the correctness acceptance (recovered state must
# preserve swaps and read back bit-identical, sequential == executor).
"$BUILD_DIR/exp12_recovery" --blocks=64 --ops=2000 --warmup-max=3000 \
    --json="$OUT_DIR/exp12_recovery.json"

# Plane-parallel device model: virtual-time columns are deterministic and
# gate tightly; the 4-plane rows must keep a >= 2x virtual-time speedup over
# the same method's single-plane point, and every geometry must replay
# bit-identically under the threaded executor.
"$BUILD_DIR/exp13_planes" --blocks=128 --ops=2000 --warmup-max=3000 \
    --shards=2 --batch=8 --depth=4 --json="$OUT_DIR/exp13_planes.json"

# Read-path integrity under injected bit errors: every column except the
# injector-free anchor rows is deterministic virtual time and gates tightly.
# The acceptance bounds ride in CI: zero uncorrectable reads on every
# scrub=on row, and bit-identical shard clocks between the sequential and
# pipelined executions of every cell.
"$BUILD_DIR/exp14_integrity" --blocks=64 --ops=2000 --warmup-max=3000 \
    --shards=2 --batch=8 --depth=4 --json="$OUT_DIR/exp14_integrity.json"

# Per-op latency floor: p50/p99/p999 and the worst-op attribution are
# virtual-time deltas of the owning chip's clock, so they gate tightly
# (--pctl); wall_ms is warn-only. Every row's determinism column must be ok:
# the schedule replayed through the alternate run mode must reproduce the
# exact same histogram, worst op, and per-chip clocks.
"$BUILD_DIR/exp15_latency" --blocks=64 --ops=2000 --warmup-max=3000 \
    --shards=4 --batch=8 --epoch=500 --json="$OUT_DIR/exp15_latency.json"

# Concurrent TPC-C serving: transaction-latency percentiles and serving
# throughput (ktps_vt) are virtual time, deterministic for fixed seed/flags,
# and gate tightly. The OLTP acceptance bounds ride in CI: >= 3x serving
# speedup from 1 to 4 shards at 4 clients, and commit-order determinism
# (concurrent == single-threaded replay of the recorded log) on every row.
"$BUILD_DIR/exp16_oltp" --warehouses=4 --warmup-tx=200 --tx=600 \
    --hot=5 --remote=10 --json="$OUT_DIR/exp16_oltp.json"
