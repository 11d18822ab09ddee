#!/usr/bin/env python3
"""Prints the committed benchmark trajectory (the BENCH_<n>.json points).

For each BENCHMARK.json workload and end-to-end metric, and for the suite
wall times (ctest_s, perf_gate_s), prints every point's median in point
order, with a move: the relative change and whether it is better or worse
in the metric's direction.

Host time (host_kops_s, setup_s, peak_rss_mb and the suite wall times)
moves with the host's load, so it is compared only within one session
(see docs/BENCHMARKS.md). A point that records `parent_workloads` (its
same-session parent's quartiles) reads its host-time move against that
parent; a change point reads it against the parent point measured with it
(a point without a `parent` key, whose `commit` it names); between points
of different sessions the value is printed without a verdict. The
deterministic metrics repeat exactly at a fixed seed, so their moves are
read against the previous point: any move is named, and an unchanged
metric reads `exact`.

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
_HOST_METRICS = {"host_kops_s", "setup_s", "peak_rss_mb", "ctest_s",
                 "perf_gate_s"}


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


def median_of(point, workload, metric, key="workloads"):
    """The point's median of `metric`, or None when it does not record it.
    With key="parent_workloads", the median of its same-session parent."""
    if workload == _SUITE:
        value = point.get(metric) if key == "workloads" else None
    else:
        entry = point.get(key, {}).get(workload, {})
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


def same_session(prev_point, point):
    """A parent point is measured in the session of the change after it."""
    return ("parent" not in prev_point and
            point.get("parent") == prev_point.get("commit"))


def host_move(prev, point, workload, metric, value, better):
    own = median_of(point, workload, metric, key="parent_workloads")
    if own is not None:
        return (f"{describe_move(own, value, better)} vs its parent "
                f"({own:.6g}, same session)")
    if prev is None:
        return ""
    if same_session(prev[0], point):
        return describe_move(prev[1], value, better)
    return "(other session)"


def print_trajectory(points, workloads, metrics):
    for workload in workloads + [_SUITE]:
        print(workload)
        rows = _SUITE_METRICS if workload == _SUITE else metrics
        for metric, better in rows:
            print(f"  {metric} ({better} is better)")
            prev = None  # (point, value) of the last point recording it
            for name, point in points:
                value = median_of(point, workload, metric)
                if value is None:
                    continue
                if metric in _HOST_METRICS:
                    notes = [host_move(prev, point, workload, metric, value,
                                       better)]
                elif prev is not None:
                    notes = [describe_move(prev[1], value, better)]
                else:
                    notes = []
                if "parent" not in point:
                    notes.append("(parent point)")
                print(f"    {name:<10} {value:>14.6g}  "
                      f"{' '.join(n for n in notes if n)}")
                prev = (point, value)


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
