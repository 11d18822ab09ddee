#!/usr/bin/env bash
# Self-test of the benchmark at smoke scale: runs every workload twice plain
# and once with --trace, then fails unless all three runs of a workload
# report byte-identical deterministic metrics (virtual time, device and
# method counts) and no failed operation. Identity between the plain and the
# traced run shows that the TimingStore probe only forwards calls.
#
#   benchmark/selftest.sh [--seed=N]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
seed=42
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#*=}" ;;
    *) echo "selftest.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

out=.bench_build/selftest
rm -rf "$out"
mkdir -p "$out"
for w in update_pdl_1chip update_opu_3shard tpcc_pdl_small_pool \
         tpcc_pdl_cached; do
  for trace in 0 0 1; do
    # A failing run still writes its record; the check below reports it.
    bash benchmark/run.sh --workload="$w" --seed="$seed" --trace="$trace" \
      --scale=smoke --out="$out" > /dev/null ||
      echo "selftest.sh: $w --trace=$trace exited non-zero" >&2
  done
done

python3 - "$out" <<'EOF'
import glob, json, os, sys

out = sys.argv[1]
runs = {}
for path in sorted(glob.glob(os.path.join(out, "*.json"))):
    with open(path) as f:
        # Keep every number as the text the benchmark printed.
        rec = json.load(f, parse_float=str, parse_int=str)
    runs.setdefault(rec["workload"], []).append((os.path.basename(path), rec))

failed = False
for workload, recs in sorted(runs.items()):
    # The traced run adds probe metrics; compare what every run reports.
    det = [{k: m["value"] for k, m in rec["metrics"].items()
            if m["deterministic"]} for _, rec in recs]
    common = set.intersection(*(set(d) for d in det))
    problems = []
    if len(recs) != 3:
        problems.append(f"expected 3 runs, found {len(recs)}")
    for name, rec in recs:
        if not rec["correct"] or rec["failed"] != "0":
            problems.append(f"{name}: {rec['failed']} failed operations")
    for (name, _), d in zip(recs[1:], det[1:]):
        diff = sorted(k for k in common if det[0][k] != d[k])
        if diff:
            problems.append(f"{name} differs from {recs[0][0]} in "
                            + ", ".join(diff))
    status = "ok" if not problems else "FAIL"
    print(f"{workload}: {status} ({len(common)} deterministic metrics)")
    for p in problems:
        print(f"  {p}")
    failed |= bool(problems)
sys.exit(1 if failed or len(runs) != 4 else 0)
EOF
