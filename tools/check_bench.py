#!/usr/bin/env python3
"""Perf-regression gate over the benches' --json dumps.

Every bench emits, via --json=<path>, one JSON object mapping table names to
arrays of row objects whose cells are strings (see harness::JsonDump). The
gate's one rule: every cell of every baseline table must equal the current
dump's cell, with rows paired by position (each bench prints its rows in a
fixed loop order) -- so a moved value, a dropped or added row, column or
table all fail. Values that are not tables (the "metrics" registry dump)
are not compared.

The exception is the host-time columns (HOST_COLUMNS): they measure the
machine, not the program, so their cells need not match. Each is compared
only by a --rule naming it:

  --rule  TABLE:COLUMN:DIRECTION[:fail=F][:warn=W]
      Per-row relative drift of a host-time column. DIRECTION is `higher`
      (bigger is better, e.g. kops/s) or `lower` (e.g. wall_ms). A
      regression worse than W percent (default 5) prints a warning; worse
      than F percent (default 10; `none` makes the rule warn-only) fails.

Acceptance bounds that hold whatever the baseline says are checked on the
current dump alone; --baseline may then be omitted:

  --require TABLE:COLUMN=VALUE
      Every row's COLUMN must equal VALUE (e.g. determinism=ok).

  --min   TABLE:COLUMN:THRESHOLD[:where=COL=VAL,COL2=VAL2]
  --max   TABLE:COLUMN:THRESHOLD[:where=COL=VAL,COL2=VAL2]
      Floor / ceiling on a numeric column, optionally restricted to the rows
      matching the `where` filter; at least one row must match.

Exit status: 0 when every check passes (warnings allowed), 1 otherwise.
Numeric cells may carry unit suffixes ("1.25x"): the leading float is used.
"""

import argparse
import json
import re
import sys

HOST_COLUMNS = frozenset({"wall_ms", "kops/s", "speedup", "wait_ms"})

_FLOAT_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)")


def parse_number(cell):
    """Leading float of a cell string, or None when there is none."""
    m = _FLOAT_RE.match(cell)
    return float(m.group(1)) if m else None


def load_dump(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of tables")
    return {name: rows for name, rows in data.items() if isinstance(rows, list)}


class Gate:
    def __init__(self):
        self.failures = []
        self.warnings = []

    def fail(self, msg):
        self.failures.append(msg)
        print(f"FAIL  {msg}")

    def warn(self, msg):
        self.warnings.append(msg)
        print(f"warn  {msg}")

    def ok(self, msg):
        print(f"ok    {msg}")


def columns_of(rows):
    cols = []
    for row in rows:
        cols.extend(c for c in row if c not in cols)
    return cols


def check_same(gate, baseline, current):
    """The one rule: every non-host baseline cell equals the current one."""
    for table in current.keys() - baseline.keys():
        gate.fail(f"{table}: table not in the baseline")
    for table, brows in baseline.items():
        crows = current.get(table)
        if crows is None:
            gate.fail(f"{table}: table missing from the current dump")
            continue
        if len(crows) != len(brows):
            gate.fail(f"{table}: {len(crows)} rows, baseline has "
                      f"{len(brows)}")
            continue
        bcols, ccols = columns_of(brows), columns_of(crows)
        if bcols != ccols:
            gate.fail(f"{table}: columns {ccols}, baseline has {bcols}")
            continue
        compared = [c for c in bcols if c not in HOST_COLUMNS]
        moved = 0
        for i, (brow, crow) in enumerate(zip(brows, crows)):
            for col in compared:
                if brow.get(col) != crow.get(col):
                    moved += 1
                    gate.fail(f"{table}[{i}].{col}: baseline "
                              f"{brow.get(col)!r}, current {crow.get(col)!r}")
        if moved == 0:
            gate.ok(f"{table}: {len(brows)} rows x {len(compared)} columns "
                    f"equal the baseline")


def split_rule(spec):
    """TABLE:COLUMN:DIRECTION[:fail=F][:warn=W] -> parsed dict."""
    parts = spec.split(":")
    if len(parts) < 3:
        raise ValueError(f"bad --rule {spec!r}")
    table, column, direction = parts[0], parts[1], parts[2]
    if direction not in ("higher", "lower"):
        raise ValueError(f"bad direction in --rule {spec!r}")
    if column not in HOST_COLUMNS:
        raise ValueError(f"--rule {spec!r}: {column!r} is not a host-time "
                         f"column; every other column must equal the "
                         f"baseline")
    fail = 10.0
    warn = 5.0
    for extra in parts[3:]:
        k, _, v = extra.partition("=")
        if k == "fail":
            fail = None if v == "none" else float(v)
        elif k == "warn":
            warn = float(v)
        else:
            raise ValueError(f"bad option {extra!r} in --rule {spec!r}")
    return {"table": table, "column": column, "direction": direction,
            "fail": fail, "warn": warn}


def check_rule(gate, rule, baseline, current):
    table, column = rule["table"], rule["column"]
    brows, crows = baseline.get(table), current.get(table)
    if brows is None or crows is None or len(brows) != len(crows):
        return  # check_same already failed the table's shape
    for i, (brow, crow) in enumerate(zip(brows, crows)):
        label = f"{table}[{i}].{column}"
        bval = parse_number(brow.get(column, ""))
        cval = parse_number(crow.get(column, ""))
        if bval is None or cval is None:
            gate.fail(f"{label}: non-numeric cell (baseline "
                      f"{brow.get(column)!r}, current {crow.get(column)!r})")
            continue
        if bval == 0:
            gate.ok(f"{label}: baseline is 0, skipping ratio")
            continue
        if rule["direction"] == "higher":
            regression_pct = (bval - cval) / bval * 100.0
        else:
            regression_pct = (cval - bval) / bval * 100.0
        drift = "regression" if regression_pct > 0 else "improvement"
        detail = (f"{label}: baseline {bval:g}, current {cval:g} "
                  f"({abs(regression_pct):.1f}% {drift})")
        if rule["fail"] is not None and regression_pct > rule["fail"]:
            gate.fail(detail)
        elif regression_pct > rule["warn"]:
            gate.warn(detail)
        else:
            gate.ok(detail)


def split_require(spec):
    head, _, value = spec.partition("=")
    table, _, column = head.partition(":")
    if not table or not column:
        raise ValueError(f"bad --require {spec!r}")
    return {"table": table, "column": column, "value": value}


def split_bound(spec):
    parts = spec.split(":")
    if len(parts) < 3:
        raise ValueError(f"bad --min/--max {spec!r}")
    table, column, threshold = parts[0], parts[1], float(parts[2])
    where = {}
    for extra in parts[3:]:
        k, _, v = extra.partition("=")
        if k != "where":
            raise ValueError(f"bad option in --min/--max {spec!r}")
        for clause in v.split(","):
            col, _, val = clause.partition("=")
            where[col] = val
    return {"table": table, "column": column, "threshold": threshold,
            "where": where}


def rows_with_column(gate, current, table, column, path):
    """Rows of `table` when some row carries `column`; fails otherwise."""
    rows = current.get(table)
    if rows is None:
        gate.fail(f"{table}: missing from current dump {path}")
        return None
    if not any(column in r for r in rows):
        gate.fail(f"{table}: column {column!r} missing from current dump "
                  f"{path} (columns present: {', '.join(columns_of(rows))})")
        return None
    return rows


def check_require(gate, req, current, path):
    table, column = req["table"], req["column"]
    rows = rows_with_column(gate, current, table, column, path)
    if rows is None:
        return
    bad = [i for i, row in enumerate(rows) if row.get(column) != req["value"]]
    for i in bad:
        gate.fail(f"{table}[{i}].{column}: expected {req['value']!r}, "
                  f"got {rows[i].get(column)!r}")
    if not bad:
        gate.ok(f"{table}: {column} == {req['value']!r} in all "
                f"{len(rows)} rows")


def check_bound(gate, rule, current, ceiling, path):
    """--min (ceiling=False) / --max (ceiling=True) absolute-bound checks."""
    table, column = rule["table"], rule["column"]
    rows = rows_with_column(gate, current, table, column, path)
    if rows is None:
        return
    hit = False
    for i, row in enumerate(rows):
        if not all(row.get(c) == v for c, v in rule["where"].items()):
            continue
        hit = True
        val = parse_number(row.get(column, ""))
        label = f"{table}[{i}].{column}"
        if val is None:
            gate.fail(f"{label}: non-numeric cell {row.get(column)!r}")
        elif ceiling and val > rule["threshold"]:
            gate.fail(f"{label}: {val:g} > ceiling {rule['threshold']:g}")
        elif not ceiling and val < rule["threshold"]:
            gate.fail(f"{label}: {val:g} < floor {rule['threshold']:g}")
        else:
            op = "<=" if ceiling else ">="
            gate.ok(f"{label}: {val:g} {op} {rule['threshold']:g}")
    if not hit:
        kind = "--max" if ceiling else "--min"
        gate.fail(f"{table}: no row matches {kind} filter {rule['where']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline",
                    help="baseline dump (bench/baselines/...); without it "
                         "only the acceptance bounds are checked")
    ap.add_argument("--current", required=True,
                    help="freshly produced --json dump")
    ap.add_argument("--rule", action="append", default=[],
                    metavar="TABLE:COLUMN:DIRECTION[:fail=F][:warn=W]")
    ap.add_argument("--require", action="append", default=[],
                    metavar="TABLE:COLUMN=VALUE")
    ap.add_argument("--min", action="append", default=[], dest="mins",
                    metavar="TABLE:COLUMN:THRESHOLD[:where=C=V,...]")
    ap.add_argument("--max", action="append", default=[], dest="maxs",
                    metavar="TABLE:COLUMN:THRESHOLD[:where=C=V,...]")
    args = ap.parse_args(argv)

    gate = Gate()
    try:
        rules = [split_rule(spec) for spec in args.rule]
        current = load_dump(args.current)
        if args.baseline:
            baseline = load_dump(args.baseline)
            check_same(gate, baseline, current)
            for rule in rules:
                check_rule(gate, rule, baseline, current)
        for spec in args.require:
            check_require(gate, split_require(spec), current, args.current)
        for spec in args.mins:
            check_bound(gate, split_bound(spec), current, False, args.current)
        for spec in args.maxs:
            check_bound(gate, split_bound(spec), current, True, args.current)
    except (OSError, ValueError) as e:
        gate.fail(str(e))

    print(f"\n{len(gate.failures)} failure(s), {len(gate.warnings)} "
          f"warning(s)")
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
