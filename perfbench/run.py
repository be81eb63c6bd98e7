#!/usr/bin/env python3
"""Build and run the symcan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark program (Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. Build output
goes to stderr, so the last stdout line is the program's JSON result. The
metric names in that line are checked against BENCHMARK.json; a failed
build or run, or a result whose names differ, exits non-zero without
printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no symcan source tree next to the benchmark (src/CMakeLists.txt)")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    out = os.path.join(ROOT, out) if not os.path.isabs(out) else out
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    try:
        trace = argv[argv.index("--trace") + 1] == "1"
    except (ValueError, IndexError):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    binary = build()
    proc = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit {proc.returncode})", proc.returncode or 2)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON", proc.returncode or 2)
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        fail("metric names differ from BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
