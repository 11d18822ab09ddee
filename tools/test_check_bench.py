#!/usr/bin/env python3
"""Tests of the perf gate's checker against the committed baselines.

Each case checks a baseline dump against an edited copy of itself with the
check_bench.py flags tools/run_perf_gate.sh gives that bench, so the tests
exercise the gate as CI runs it. Needs no build.

Usage: python3 tools/test_check_bench.py
"""

import contextlib
import copy
import io
import json
import os
import shlex
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
BASELINES = os.path.join(TOOLS, "..", "bench", "baselines")
sys.path.insert(0, TOOLS)

import check_bench  # noqa: E402


def gate_flags():
    """Bench name -> the check flags of its `gate` line in run_perf_gate.sh."""
    with open(os.path.join(TOOLS, "run_perf_gate.sh"), encoding="utf-8") as f:
        script = f.read().replace("\\\n", " ")
    flags = {}
    for line in script.splitlines():
        if line.startswith("gate "):
            words = shlex.split(line)
            flags[words[1]] = (words[words.index("--") + 1:]
                               if "--" in words else [])
    return flags


def load_baseline(bench):
    with open(os.path.join(BASELINES, bench + ".json"), encoding="utf-8") as f:
        return json.load(f)


def bump_last_digit(cell):
    i = max(i for i, c in enumerate(cell) if c.isdigit())
    return cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]


class CheckBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.flags = gate_flags()
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def gate(self, bench, current, out=None):
        """Exit status of check_bench on the baseline vs `current`; its
        report goes to `out` when given."""
        path = os.path.join(self.tmp.name, bench + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(current, f)
        argv = ["--baseline", os.path.join(BASELINES, bench + ".json"),
                "--current", path] + self.flags[bench]
        with contextlib.redirect_stdout(out or io.StringIO()):
            return check_bench.main(argv)

    def edited(self, bench, edit, out=None):
        dump = copy.deepcopy(load_baseline(bench))
        edit(dump)
        return self.gate(bench, dump, out)

    def test_every_baseline_is_gated(self):
        names = {f[:-len(".json")] for f in os.listdir(BASELINES)
                 if f.endswith(".json")}
        self.assertEqual(set(self.flags), names)

    def test_baselines_pass_against_themselves(self):
        for bench in self.flags:
            with self.subTest(bench=bench):
                self.assertEqual(self.gate(bench, load_baseline(bench)), 0)

    def test_one_digit_edit_of_a_virtual_cell_fails(self):
        for bench, table, row, col in [
                ("exp11_wear", "exp11_wear", 0, "erase_ratio"),
                ("exp13_planes", "exp13_planes", 0, "vt_speedup")]:
            def edit(dump):
                cell = dump[table][row][col]
                dump[table][row][col] = bump_last_digit(cell)
            with self.subTest(bench=bench, col=col):
                self.assertEqual(self.edited(bench, edit), 1)

    def test_dropped_row_fails(self):
        self.assertEqual(
            self.edited("exp1_update_cost", lambda d: d["overall"].pop()), 1)

    def test_dropped_column_fails(self):
        def edit(dump):
            for row in dump["exp16_oltp"]:
                del row["p99 us"]
        self.assertEqual(self.edited("exp16_oltp", edit), 1)

    def test_exp10_throughput_collapse_fails(self):
        def edit(dump):
            row = dump["exp10_pipeline"][0]
            row["kops/s"] = f"{float(row['kops/s']) * 0.3:.1f}"
        self.assertEqual(self.edited("exp10_pipeline", edit), 1)

    def test_doubled_wall_clock_passes(self):
        def edit(dump):
            for row in dump["exp11_wear"]:
                row["wall_ms"] = f"{float(row['wall_ms']) * 2:.2f}"
        self.assertEqual(self.edited("exp11_wear", edit), 0)

    def test_halved_wall_clock_reads_as_improvement(self):
        def edit(dump):
            for row in dump["exp11_wear"]:
                row["wall_ms"] = f"{float(row['wall_ms']) / 2:.2f}"
        out = io.StringIO()
        self.assertEqual(self.edited("exp11_wear", edit, out), 0)
        self.assertIn("% improvement)", out.getvalue())
        self.assertNotIn("regression", out.getvalue())


if __name__ == "__main__":
    unittest.main()
