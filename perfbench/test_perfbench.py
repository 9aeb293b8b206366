#!/usr/bin/env python3
"""The benchmark's own tests, on tiny sizes (--tiny, a few seconds a run).

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py exactly as the benchmark is run, so the
first test also builds it.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ["store.blocks_fetched", "sampling.points", "pool.tasks",
          "ml.epochs"]


def run(workload, seed=5, seconds=1, trace=0):
    """Run one tiny workload; return (stdout lines, parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s\n%s" % (
            " ".join(cmd), res.returncode, res.stdout, res.stderr[-3000:]))
    lines = res.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def row(lines, name):
    """The readable table's rows for metric or note `name`."""
    return [l for l in lines if l.split()[:1] == [name]]


class ResultShape(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                lines, result = run(workload, trace=trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                # Every operation was compared with a reference computed
                # apart from it.
                tally = [l for l in lines if l.startswith("attempted ")]
                self.assertEqual(len(tally), 1)
                attempted, failed, checked = map(
                    int, re.findall(r"\d+", tally[0]))
                self.assertEqual((attempted, failed),
                                 (result["attempted"], result["failed"]))
                self.assertEqual(checked, attempted, (workload, trace))
                # Every workload reports every metric of the mode.
                kind = "per_layer" if trace else "end_to_end"
                names = {m["name"] for m in SPEC[kind]}
                self.assertEqual(set(result["metrics"]), names,
                                 (workload, trace))
                for name, m in result["metrics"].items():
                    self.assertEqual(set(m), {"value", "unit"})
                    self.assertEqual(m["unit"], UNITS[name], name)
                    # The readable table names it too, with unit and count.
                    rows = row(lines, name)
                    self.assertEqual(len(rows), 1, name)
                    self.assertRegex(rows[0], r"\s%s\s+\d+$" % re.escape(
                        m["unit"]))


class Percentiles(unittest.TestCase):
    # The tail percentiles are serve_mixed's notes: printed in the table,
    # not in the result line.
    def test_no_tail_percentile_without_ten_samples_beyond(self):
        # 1 s of serve_mixed: 5 open-loop cases a window, far below the
        # 100 a p90 needs; the medians are still reported.
        lines, result = run("serve_mixed", seconds=1)
        self.assertEqual(row(lines, "serve_p90_ms"), [])
        self.assertIn("case_s", result["metrics"])
        self.assertEqual(len(row(lines, "status_p50_ms")), 1)
        lines, _ = run("serve_mixed", seconds=1, trace=1)
        self.assertEqual(row(lines, "session.wait_p90_ms"), [])
        self.assertEqual(row(lines, "load.late_ms"), [])
        self.assertEqual(len(row(lines, "session.wait_p50_ms")), 1)

    def test_tail_percentile_with_enough_samples(self):
        # 20 s: 3 windows of 100 open-loop cases, 10 of each beyond its
        # p90.
        lines, result = run("serve_mixed", seconds=20)
        self.assertEqual(len(row(lines, "serve_p90_ms")), 1)
        self.assertNotIn("serve_p90_ms", result["metrics"])


class Counts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            _, a = run(workload, seed=9, trace=1)
            _, b = run(workload, seed=9, trace=1)
            for name in COUNTS:
                self.assertEqual(a["metrics"][name]["value"],
                                 b["metrics"][name]["value"],
                                 (workload, name))
            _, a = run(workload, seed=9)
            _, b = run(workload, seed=9)
            self.assertEqual(a["metrics"]["store_mb"]["value"],
                             b["metrics"]["store_mb"]["value"], workload)


class LoadBudget(unittest.TestCase):
    def test_generator_stays_within_one_connection_and_thread_per_cpu(self):
        lines, _ = run("serve_mixed", seconds=2)
        budget = [l for l in lines if l.startswith("load generator:")]
        self.assertEqual(len(budget), 1)
        conns, threads, cpus = map(int, re.findall(r"\d+", budget[0]))
        self.assertLessEqual(cpus, max(2, os.cpu_count() or 1))
        self.assertLessEqual(conns, cpus)
        self.assertLessEqual(threads, cpus)
        self.assertGreaterEqual(conns, 1)


if __name__ == "__main__":
    unittest.main()
