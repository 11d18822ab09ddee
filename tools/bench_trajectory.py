#!/usr/bin/env python3
"""Prints the committed benchmark trajectory (the BENCH_<n>.json points).

For each BENCHMARK.json workload and end-to-end metric, and for the suite
wall times (ctest_s, perf_gate_s), prints every point's median in point
order, with its move against the previous point that records the metric:
the relative change and whether it is better or worse in the metric's
direction. Host-time metrics (host_kops_s, setup_s, peak_rss_mb) carry a
median over runs; the deterministic ones repeat exactly at a fixed seed, so
any move of theirs is named, and an unchanged one reads `exact`.

Points measured in different sessions do not compare on host time (see
docs/BENCHMARKS.md): a move between points whose `host` objects differ is
marked `(other host)`, and a point without a `parent` key was measured as
the parent of the next one.

  tools/bench_trajectory.py          # the points at the repository root
  tools/bench_trajectory.py DIR      # the points in DIR

Exit status: 0 when every point parses, 1 otherwise (or with no points).
"""

import glob
import json
import os
import re
import sys

_SUITE = "suite"
_SUITE_METRICS = [("ctest_s", "lower"), ("perf_gate_s", "lower")]


def point_number(path):
    m = re.search(r"BENCH_(\d+)\.json$", path)
    return int(m.group(1)) if m else -1


def load_points(directory):
    points = []
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")),
                   key=point_number)
    for path in paths:
        with open(path, encoding="utf-8") as f:
            points.append((os.path.basename(path)[:-len(".json")],
                           json.load(f)))
    return points


def median_of(point, workload, metric):
    """The point's median of `metric`, or None when it does not record it."""
    if workload == _SUITE:
        value = point.get(metric)
    else:
        entry = point.get("workloads", {}).get(workload, {})
        value = entry.get(metric, entry.get("deterministic", {}).get(metric))
    if isinstance(value, dict):
        value = value.get("median")
    return value if isinstance(value, (int, float)) else None


def describe_move(prev, cur, better):
    if cur == prev:
        return "exact"
    if prev == 0:
        return "changed from 0"
    pct = 100.0 * (cur - prev) / abs(prev)
    improved = (cur > prev) == (better == "higher")
    return f"{pct:+.1f}% {'better' if improved else 'worse'}"


def print_trajectory(points, workloads, metrics):
    for workload in workloads + [_SUITE]:
        print(workload)
        rows = _SUITE_METRICS if workload == _SUITE else metrics
        for metric, better in rows:
            print(f"  {metric} ({better} is better)")
            prev = None  # (host, value) of the last point recording it
            for name, point in points:
                value = median_of(point, workload, metric)
                if value is None:
                    continue
                notes = []
                if prev is not None:
                    notes.append(describe_move(prev[1], value, better))
                    if prev[0] != point.get("host"):
                        notes.append("(other host)")
                if "parent" not in point:
                    notes.append("(parent point)")
                print(f"    {name:<10} {value:>14.6g}  {' '.join(notes)}")
                prev = (point.get("host"), value)


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    directory = argv[1] if len(argv) > 1 else root
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    try:
        points = load_points(directory)
    except (OSError, ValueError) as e:
        print(f"FAIL  {e}")
        return 1
    if not points:
        print(f"FAIL  no BENCH_*.json points in {directory}")
        return 1
    print_trajectory(points, workloads, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
