#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the benchmark into
.bench_build/ and warms its private state there (victims, class programs);
later calls reuse both. The run prints its report lines, then one JSON line:
{"correct", "attempted", "failed", "metrics"}, holding every end_to_end
metric of BENCHMARK.json (--trace 0) or every per_layer metric (--trace 1);
a workload prints 0 for the layers it does not exercise, and a name it does
not print at all fails the run. The exit code is 0 only when every output
check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
STATE_DIR = os.path.join(".bench_build", "state")
TRACE_DIR = os.path.join(".bench_build", "traces")
CONFIG = os.path.join(BENCH_DIR, "workloads.json")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
             "perfbench", "oppsla_tracecheck"], BUILD_TIMEOUT_S):
        fail("build failed")


def warm():
    """Trains victims and stores class programs once per workloads.json."""
    with open(CONFIG, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    marker = os.path.join(STATE_DIR, "warm.sha256")
    if os.path.exists(marker) and open(marker).read().strip() == digest:
        return
    if call([BINARY, "warm", "--state", STATE_DIR, "--config", CONFIG],
            BUILD_TIMEOUT_S):
        fail("warming the benchmark state failed")
    with open(marker, "w") as f:
        f.write(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    # Compilers and the run keep their scratch files inside the checkout.
    os.makedirs(os.path.join(".bench_build", "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(".bench_build", "tmp"))
    build()
    os.makedirs(STATE_DIR, exist_ok=True)
    warm()
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_out = os.path.join(TRACE_DIR, "%s-%d.json" % (args.workload, args.seed))
    cmd = [BINARY, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state", STATE_DIR, "--config", CONFIG]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result (exit code %d)" % proc.returncode)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
