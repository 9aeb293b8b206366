#!/usr/bin/env python3
"""Build and run the SICKLE end-to-end benchmark (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py \
        --workload ingest_stream|curate_stored|serve_mixed \
        --seed N --seconds S --trace 0|1 [--tiny]

Configures and builds perfbench/ (which builds the SICKLE libraries from
this checkout) into .bench_build/, runs one workload for S seconds in a
scratch directory under .bench_build/, and prints the benchmark program's
output; the last stdout line is the JSON result. Its metrics must be
exactly BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1), each in its unit. With --trace 1 the Chrome trace the program
wrote must pass tools/trace_check.py, and is kept as
.bench_build/trace-<workload>.json. A run that breaks either rule is
marked incorrect. Exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170

# Spans the traced run must contain, per workload: the benchmark's own
# layer spans and the library's case root.
REQUIRED_SPANS = {
    "ingest_stream": ["bench.op", "flow.next", "store.write", "store.open",
                      "sampling.select", "sampling.stage", "ml.fit"],
    "curate_stored": ["bench.op", "flow.next", "store.write", "store.open",
                      "sampling.select", "sampling.stage", "ml.fit"],
    "serve_mixed": ["serve.submit", "serve.status", "serve.metrics",
                    "case.run", "bench.op", "flow.next", "store.write",
                    "store.open", "sampling.select", "sampling.stage",
                    "ml.fit"],
}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_program(args, workdir):
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return None, 1
    return out, proc.returncode


def check_metrics(result, trace):
    """True if `result` holds exactly the manifest's metrics of the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got == want:
        return True
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            print("perfbench: metric %s: manifest says %s, run gave %s" % (
                name, want.get(name, "nothing"), got.get(name, "nothing")),
                file=sys.stderr)
    return False


def check_trace(workload, trace_path):
    cmd = [sys.executable, os.path.join(ROOT, "tools", "trace_check.py"),
           trace_path]
    for span in REQUIRED_SPANS[workload]:
        cmd += ["--require-span", span]
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(REQUIRED_SPANS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run the scale-1 cases at scale 0.25 (the tests)")
    args = p.parse_args()

    if not build():
        return 1
    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        out, code = run_program(args, workdir)
        if out is None:
            return 1
        lines = out.rstrip("\n").split("\n")
        if code == 0:
            result = json.loads(lines[-1])
            ok = check_metrics(result, args.trace)
            if args.trace:
                kept = os.path.join(BUILD_ROOT,
                                    "trace-%s.json" % args.workload)
                shutil.copyfile(os.path.join(workdir, "trace.json"), kept)
                ok = check_trace(args.workload, kept) and ok
            if not ok:
                result["correct"] = False
                lines[-1] = json.dumps(result)
                code = 1
        print("\n".join(lines))
        return code
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
