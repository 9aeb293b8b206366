#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are across seeds.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--first-seed 100] \
        [--out perfbench/results/steadiness.md]

Runs every workload of BENCHMARK.json --runs times with a different seed
each time, interleaving the workloads (round r runs each workload once with
seed first-seed + r), for run_seconds each. For every end-to-end metric it
reports the median and the quartile distance over the median, computed
with statistics.quantiles(values, n=4), next to the metric's bound. Writes
a markdown table and the raw result lines to --out (and beside it, .jsonl).
Exits non-zero if a run fails or is incorrect, or a spread exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = res.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return res.returncode, result, wall


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--out", default=os.path.join(HERE, "results",
                                                 "steadiness.md"))
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    raw = []
    ok = True
    for r in range(args.runs):
        seed = args.first_seed + r
        for w in workloads:
            code, result, wall = run_once(w, seed, spec["run_seconds"])
            walls[w].append(wall)
            raw.append({"workload": w, "seed": seed, "exit": code,
                        "wall_s": round(wall, 2), "result": result})
            if code != 0 or not result or not result["correct"]:
                ok = False
                print("run failed: %s seed %d (exit %d)" % (w, seed, code),
                      file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %s done (%.1f s)" % (r, w, wall), file=sys.stderr)

    out = ["# Steadiness of the end-to-end metrics", "",
           "%d interleaved rounds, seeds %d..%d, %d s per run. Spread is the "
           "quartile distance over the median (`statistics.quantiles(values, "
           "n=4)`); every metric must keep it within its bound." % (args.runs, args.first_seed,
                       args.first_seed + args.runs - 1, spec["run_seconds"]),
           "",
           "| workload | metric | median | spread | bound | spread / bound |",
           "| --- | --- | --- | --- | --- | --- |"]
    for w in workloads:
        for name in sorted(values[w]):
            v = values[w][name]
            if len(v) < 2:
                continue
            med, s = spread(v)
            if s > bounds[name]:
                ok = False
                print("too noisy: %s %s spread %.4f > bound %.2f" % (
                    w, name, s, bounds[name]), file=sys.stderr)
            out.append("| %s | %s | %.6g | %.4f | %.2f | %.2f |" % (
                w, name, med, s, bounds[name], s / bounds[name]))
    out += ["", "Wall time per run (s), including set-up and checks:", ""]
    for w in workloads:
        out.append("- %s: median %.1f, max %.1f" % (
            w, statistics.median(walls[w]), max(walls[w])))
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        f.write("\n".join(out) + "\n")
    with open(os.path.splitext(args.out)[0] + ".jsonl", "w") as f:
        for row in raw:
            f.write(json.dumps(row) + "\n")
    print("\n".join(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
