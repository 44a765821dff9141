#!/usr/bin/env python3
"""Folds gprof flat profiles into per-layer shares of self time.

Usage:
    python3 tools/gprof_layers.py FLAT [FLAT ...]

Each FLAT is the text of `gprof -b -p BINARY gmon.out` for one run of a
binary built with `-DCMAKE_CXX_FLAGS=-pg` (DESIGN.md section 10 has the
recipe). Self seconds are summed per function over every file given, so
several short runs make one steadier profile, and then per layer: the
first `muxwise::<layer>::` in a function's name (`core`, `gpu`, `llm`,
`sim`, `kv`, `serve`, ...). A standard-library function instantiated
for a muxwise type counts for that type's layer; one with no muxwise
name in it (the C++ runtime, random-number engines) counts as `other`.

Prints one row per layer, largest first, with its seconds and its share
of the total, then the functions that carry the most self time. Exits 2
when a file holds no flat-profile rows.
"""

import argparse
import collections
import re
import sys

# "  %   cumulative   self              self     total"
# " time   seconds   seconds    calls  ms/call  ms/call  name"
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
LAYER = re.compile(r"muxwise::(\w+)::")


def read_flat(path):
    """Yields (self seconds, calls or None, name) for every profile row."""
    with open(path) as f:
        in_table = False
        for line in f:
            if line.lstrip().startswith("time   seconds"):
                in_table = True
                continue
            if not in_table:
                continue
            if not line.strip():
                break  # The flat table ends at the first blank line.
            match = ROW.match(line)
            if match:
                calls = int(match.group(2)) if match.group(2) else None
                yield float(match.group(1)), calls, match.group(3).strip()


def layer_of(name):
    match = LAYER.search(name)
    return match.group(1) if match else "other"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profiles", nargs="+",
                        help="gprof -b -p outputs to sum")
    parser.add_argument("--top", type=int, default=12,
                        help="functions to list after the layers")
    args = parser.parse_args()

    functions = collections.Counter()
    calls = collections.Counter()
    for path in args.profiles:
        rows = list(read_flat(path))
        if not rows:
            print("gprof_layers: %s holds no flat profile" % path,
                  file=sys.stderr)
            return 2
        for seconds, count, name in rows:
            functions[name] += seconds
            if count is not None:
                calls[name] += count

    layers = collections.Counter()
    for name, seconds in functions.items():
        layers[layer_of(name)] += seconds
    total = sum(layers.values())
    print("%d profile(s), %.2f s of self time" % (len(args.profiles), total))
    print("%-12s %10s %8s" % ("layer", "seconds", "share"))
    for layer, seconds in layers.most_common():
        share = 100.0 * seconds / total if total > 0 else 0.0
        print("%-12s %10.2f %7.1f%%" % (layer, seconds, share))

    print()
    print("%10s %12s  %s" % ("seconds", "calls", "function"))
    for name, seconds in functions.most_common(args.top):
        count = calls[name] if name in calls else ""
        print("%10.2f %12s  %s" % (seconds, count, name[:110]))

    # In -pg builds gprof files MuxWiseEngine::MaybePreemptFor's samples
    # and calls under RegisterAudits' audit lambdas (adjacent code): the
    # core share is right, the per-function rows are not.
    audit = sum(seconds for name, seconds in functions.items()
                if "RegisterAudits" in name and "lambda" in name)
    audit_calls = sum(count for name, count in calls.items()
                      if "RegisterAudits" in name and "lambda" in name)
    if audit > 0 or audit_calls > len(args.profiles) * 100:
        print()
        print("warning: %.2f s and %d calls sit on RegisterAudits lambdas; "
              "they are MuxWiseEngine::MaybePreemptFor's (audits run once "
              "per run)" % (audit, audit_calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
