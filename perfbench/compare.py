#!/usr/bin/env python3
"""Compares two saved perfbench results of one workload and seed.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are results perfbench/run.py saved under
.bench_build/perfbench/out/. The comparison is refused (exit 3) when the
two were measured on different machine classes (affinity CPUs, CPU model,
compiler, build type) or on different workloads, seeds or modes. Otherwise
every metric is printed with its change; an end-to-end metric that got
worse by more than its bound in BENCHMARK.json is flagged and makes the
exit status 1. Per-layer metrics have no bound and are only printed.
"""

import sys

sys.dont_write_bytecode = True

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    stamp_keys = ("affinity_cpus", "cpu_model", "compiler", "build_type")
    for key in stamp_keys:
        if base["stamp"][key] != new["stamp"][key]:
            print("refused: machine class differs in %s: %r vs %r" %
                  (key, base["stamp"][key], new["stamp"][key]))
            return 3
    for key in ("workload", "seed", "trace", "scale"):
        if base[key] != new[key]:
            print("refused: %s differs: %r vs %r" % (key, base[key], new[key]))
            return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if base["trace"] else spec["end_to_end"]
    print("%s seed %d, machine class %s" %
          (base["workload"], base["seed"], base["stamp"]["id"]))
    regressed = False
    for m in metrics:
        name = m["name"]
        a = base["result"]["metrics"][name]["value"]
        b = new["result"]["metrics"][name]["value"]
        if a is None or b is None or a == 0:
            print("  %-36s %14s -> %-14s" % (name, a, b))
            continue
        change = (b - a) / abs(a)
        worse = -change if m["better"] == "higher" else change
        verdict = ""
        if "bound" in m:
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            regressed = regressed or worse > m["bound"]
        print("  %-36s %14.6g -> %-14.6g %+7.2f%% %s" %
              (name, a, b, 100.0 * change, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
