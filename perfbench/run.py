#!/usr/bin/env python3
"""Build and run the fbdp benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep-short --seed 1 \
        --seconds 10 --trace 0

The first run configures and compiles the simulator and fbdp_bench
into .bench_build/perfbench (a Release build); later runs rebuild only
what changed.  All arguments go to fbdp_bench (see README.md).  Its
last stdout line is the JSON result; this script checks that
its metric names are exactly the ones BENCHMARK.json declares for the
mode, and exits non-zero on any build, run or check failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fbdp_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                   "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    build()
    regenerate = "--write-expected" in argv
    try:
        proc = subprocess.run([BINARY] + argv, cwd=ROOT,
                              stdout=subprocess.PIPE,
                              timeout=None if regenerate else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark ran past %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("fbdp_bench exited with %d" % proc.returncode)
    if regenerate:
        sys.stdout.write(out)
        return
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want.items()) - set(got.items())),
                sorted(set(got.items()) - set(want.items()))))
    sys.stdout.write(out)


if __name__ == "__main__":
    main(sys.argv[1:])
