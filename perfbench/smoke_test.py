#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at 2% of its size, untraced and traced, through
perfbench/run.py and asserts that each run is correct and that every
metric BENCHMARK.json names is printed with its unit, or as n/a, in the
text report, and is a finite number with its unit in the final JSON line.
Per-call timings must also print their call count. Exits 1 if any check
fails.
"""

import sys

sys.dont_write_bytecode = True

import json
import math
import os
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "1", "--trace", str(trace), "--scale",
           "0.02"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    errors = []
    if proc.returncode != 0 or not lines:
        return ["run.py exited with %d" % proc.returncode]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0:
        errors.append("run not correct: %s" %
                      [l for l in lines if l.startswith("FAILED")])
    report = {}
    for line in lines:
        fields = line.split()
        if line.startswith("  ") and len(fields) >= 2:
            report[fields[0]] = line
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        line = report.get(name)
        fields = line.split() if line else []
        if len(fields) < 2 or not (fields[1] == "n/a" or
                                   fields[2:3] == [unit]):
            errors.append("%s not printed with unit %s: %r" %
                          (name, unit, line))
        entry = result["metrics"].get(name)
        if entry is None or entry["unit"] != unit:
            errors.append("%s missing from the JSON result" % name)
        elif isinstance(entry["value"], bool) or \
                not isinstance(entry["value"], (int, float)) or \
                not math.isfinite(entry["value"]):
            errors.append("%s value is not a number" % name)
        if line and fields[1] != "n/a" and \
                any(name.startswith(p + "_p") for p in run.CALL_COUNTED) \
                and "calls)" not in line:
            errors.append("%s printed without its call count" % name)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            errors = check(workload, trace, spec)
            print("%s %s trace=%d" % ("ok  " if not errors else "FAIL",
                                      workload, trace), flush=True)
            for error in errors:
                print("     - %s" % error)
            ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
