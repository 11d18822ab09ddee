#!/usr/bin/env python3
"""Compares two sets of flashdb benchmark runs against BENCHMARK.json bounds.

    benchmark/compare.py PARENT_DIR CHANGE_DIR [--claim METRIC:WORKLOAD ...]

Each directory holds the JSON records that `benchmark/run.sh --out=DIR`
writes, one per run. Only plain runs (trace 0) are compared. For every pair
of end-to-end metric and workload the report gives each side's median and
quartiles, and a verdict:

  ok          the change's median is no worse than the parent's by more
              than the metric's bound;
  REGRESSION  it is worse by more than the bound;
  unresolved  either side's quartile spread is wider than the bound, so
              the comparison cannot tell, unless every change run reads
              better than every parent run.

Deterministic metrics (virtual time and device counts) also report whether
runs of the same seed read exactly the same on both sides.

A --claim names a metric and workload the change claims to improve. Runs are
paired in order (run them alternating, parent first then change first); the
claim holds when the change wins at least 9 of every 10 pairs, ties counting
for neither, and the medians differ by more than the parent's own quartile
spread. The report also compares fail_frac (failed / attempted) of the sides.

Exits 1 on a regression, on more failures in the change, or on a claim that
does not hold; 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """Plain-run records of `directory`, grouped by workload and ordered by
    file name, so runs named alike on both sides pair up."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(parent_med, change_med, better):
    """Relative change of the median in the bad direction (> 0 is worse)."""
    if parent_med == 0:
        return 0.0 if change_med == 0 else float("inf")
    delta = (change_med - parent_med) / abs(parent_med)
    return -delta if better == "higher" else delta


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def fail_frac(recs):
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 0.0


def fmt(x):
    return f"{x:.6g}"


def compare_metric(metric, parent, change):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pq, cq = quartiles(p), quartiles(c)
    worse = worse_by(pq[1], cq[1], better)
    wide = max(spread(p), spread(c)) > bound
    all_better = all(is_better(x, y, better) for x in c for y in p)
    if wide and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    det = ""
    if parent[0]["metrics"][name].get("deterministic"):
        by_seed = {r["seed"]: r["metrics"][name]["value"] for r in parent}
        same = [by_seed[r["seed"]] == r["metrics"][name]["value"]
                for r in change if r["seed"] in by_seed]
        det = "" if not same else ("exact" if all(same) else "moved")
    return pq, cq, worse, verdict, det


def check_claim(claim, metrics, parent_runs, change_runs):
    name, _, workload = claim.partition(":")
    metric = next((m for m in metrics if m["name"] == name), None)
    if metric is None or workload not in parent_runs \
            or workload not in change_runs:
        return False, f"claim {claim}: no such metric or workload in both sets"
    p = [r["metrics"][name]["value"] for r in parent_runs[workload]]
    c = [r["metrics"][name]["value"] for r in change_runs[workload]]
    pairs = list(zip(p, c))
    wins = sum(is_better(y, x, metric["better"]) for x, y in pairs)
    pq = quartiles(p)
    gap = abs(statistics.median(c) - pq[1])
    held = wins * 10 >= 9 * len(pairs) and gap > pq[2] - pq[0]
    return held, (f"claim {claim}: change won {wins}/{len(pairs)} pairs; "
                  f"median gap {fmt(gap)} vs parent spread "
                  f"{fmt(pq[2] - pq[0])} -> {'HOLDS' if held else 'NOT MET'}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC:WORKLOAD")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)
    bad = False

    print(f"{'workload':<20} {'metric':<20} {'bound':>6}  "
          f"{'parent q1/med/q3':<32} {'change q1/med/q3':<32} "
          f"{'worse':>8}  verdict")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:<20} missing from one side")
            bad = True
            continue
        for metric in metrics:
            pq, cq, worse, verdict, det = compare_metric(metric, parent,
                                                         change)
            bad |= verdict == "REGRESSION"
            print(f"{workload:<20} {metric['name']:<20} "
                  f"{metric['bound']:>6.3g}  "
                  f"{'/'.join(fmt(x) for x in pq):<32} "
                  f"{'/'.join(fmt(x) for x in cq):<32} "
                  f"{worse:>+8.2%}  {verdict} {det}".rstrip())
        pf, cf = fail_frac(parent), fail_frac(change)
        more = cf > pf
        bad |= more
        print(f"{workload:<20} {'fail_frac':<20} {'':>6}  {fmt(pf):<32} "
              f"{fmt(cf):<32} {'':>8}  "
              f"{'MORE FAILURES' if more else 'ok'}")

    for claim in args.claim:
        held, text = check_claim(claim, metrics, parent_runs, change_runs)
        bad |= not held
        print(text)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
