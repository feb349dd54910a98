#!/usr/bin/env python3
"""Fast self-test of the repository benchmark.

    python3 perfbench/test/selftest.py [--seconds S]

Run from the root of a checkout. Runs every workload of BENCHMARK.json at a
tiny size, untraced and traced, and checks that:
  - both runs exit 0 with a correct result;
  - every end_to_end metric (untraced) and every per_layer metric (traced)
    is printed as a `metric <name> = <value> <unit>` line with its unit and
    appears in the final JSON line;
  - the traced run's Chrome Trace passes oppsla_tracecheck with at least
    95% span coverage.
Exits 1 on the first workload that fails a check.
"""

import argparse
import json
import os
import re
import subprocess
import sys

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")
TRACECHECK = os.path.join(".bench_build", "cmake", "oppsla_tools",
                          "oppsla_tracecheck")


def run(workload, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           "1", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("selftest: %s (trace %d) exited %d" % (workload, trace,
                                                        proc.returncode))
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
    return printed, json.loads(lines[-1])


def check_names(workload, wanted, printed, result):
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit("selftest: %s: result not correct: %s" % (workload, result))
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if printed.get(name) != unit:
            sys.exit("selftest: %s: metric %s not printed in %s"
                     % (workload, name, unit))
        if result["metrics"].get(name, {}).get("unit") != unit:
            sys.exit("selftest: %s: metric %s missing from the result"
                     % (workload, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        printed, result = run(name, args.seconds, 0)
        check_names(name, spec["end_to_end"], printed, result)
        printed, result = run(name, args.seconds, 1)
        check_names(name, spec["per_layer"], printed, result)
        trace = os.path.join(".bench_build", "traces", "%s-1.json" % name)
        rc = subprocess.run([TRACECHECK, trace, "--min-coverage-pct", "95"],
                            stdout=subprocess.PIPE, text=True)
        if rc.returncode != 0:
            sys.exit("selftest: %s: %s fails oppsla_tracecheck" % (name, trace))
        print("selftest: %s ok (%s)" % (name, rc.stdout.strip().splitlines()[0]))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
